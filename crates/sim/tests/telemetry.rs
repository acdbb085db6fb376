//! Acceptance tests for the telemetry layer (ISSUE 4).
//!
//! These pin the contract the CLI and CI rely on: telemetry is a pure
//! observer (identical `RunResult`), the decision log is complete, the
//! JSON export round-trips byte-identically, and plan telemetry is
//! deterministic across worker counts once wall-clock fields are
//! stripped.

use odbgc_sim::core_policies::{
    EstimatorKind, PolicySpec, RatePolicy, SagaConfig, SagaPolicy, SaioPolicy,
};
use odbgc_sim::oo7::{Oo7App, Oo7Params};
use odbgc_sim::trace::Trace;
use odbgc_sim::{
    verify_header, ExperimentPlan, Json, PlanTelemetry, ReplayOptions, RunTelemetry, SimConfig,
    Simulator,
};

fn tiny_trace(seed: u64) -> Trace {
    Oo7App::standard(Oo7Params::tiny(), seed).generate().0
}

#[test]
fn telemetry_is_a_pure_observer_of_the_run() {
    let trace = tiny_trace(11);
    let sim = Simulator::new(SimConfig::tiny());
    let plain = {
        let mut p = SaioPolicy::with_frac(0.08);
        sim.replay(&trace, &mut p, ReplayOptions::new())
            .expect("run")
    };
    let (instrumented, telemetry) = {
        let mut p = SaioPolicy::with_frac(0.08);
        let mut sink = RunTelemetry::new(p.name());
        let r = sim
            .replay(&trace, &mut p, ReplayOptions::new().telemetry(&mut sink))
            .expect("run");
        (r, sink)
    };
    assert_eq!(plain, instrumented, "telemetry must not perturb the run");
    assert_eq!(
        telemetry.decisions.len() as u64,
        plain.collection_count(),
        "one decision record per collection"
    );
}

#[test]
fn run_export_round_trips_byte_identically() {
    let trace = tiny_trace(12);
    let sim = Simulator::new(SimConfig::tiny());
    let mut policy = SagaPolicy::new(SagaConfig::new(0.10), EstimatorKind::CgsCb.build());
    let mut telemetry = RunTelemetry::new(policy.name());
    sim.replay(
        &trace,
        &mut policy,
        ReplayOptions::new().telemetry(&mut telemetry),
    )
    .expect("run");
    let doc = telemetry.to_json();
    let text = doc.to_string_pretty();
    let reparsed = Json::parse(&text).expect("export must parse");
    assert_eq!(
        reparsed.to_string_pretty(),
        text,
        "parse → re-emit must be byte-identical"
    );
    assert_eq!(verify_header(&reparsed).as_deref(), Ok("run"));
    // The exported decision count agrees with the in-memory log.
    let decisions = reparsed.get("decisions").and_then(Json::as_arr).unwrap();
    assert_eq!(decisions.len(), telemetry.decisions.len());
    assert_eq!(
        reparsed.get("decision_count").and_then(Json::as_u64),
        Some(decisions.len() as u64)
    );
}

#[test]
fn decision_records_expose_estimator_error_against_exact_garbage() {
    let trace = tiny_trace(13);
    let mut cfg = SimConfig::tiny();
    cfg.shadow_estimator = Some(EstimatorKind::Oracle);
    let sim = Simulator::new(cfg);
    let mut policy = SaioPolicy::with_frac(0.10);
    let mut telemetry = RunTelemetry::new(policy.name());
    sim.replay(
        &trace,
        &mut policy,
        ReplayOptions::new().telemetry(&mut telemetry),
    )
    .expect("run");
    assert!(!telemetry.decisions.is_empty());
    for d in &telemetry.decisions {
        // The shadow oracle is exact, so the signed error is zero.
        assert_eq!(d.estimate_error(), Some(0.0));
    }
}

#[test]
fn oracle_shadow_stays_exact_when_the_workload_kills_cycles() {
    use odbgc_sim::store::{Store, StoreConfig};
    use odbgc_sim::trace::synthetic::{churn, ChurnConfig};

    let trace = churn(
        &ChurnConfig {
            steps: 4_000,
            weights: (4, 4, 3, 1),
            ..ChurnConfig::default()
        },
        21,
    );
    // The trace strands cycles the refcount cascade cannot see.
    let mut store = Store::new(StoreConfig::tiny());
    for ev in trace.iter() {
        store.apply(ev).expect("churn replays");
    }
    let cascade_only = store.garbage_bytes();
    assert!(store.recompute_garbage_exact() > cascade_only);

    // Deep checks assert exactness against full reachability after every
    // collection; they must not change the run.
    let run = |deep_checks: bool| {
        let mut cfg = SimConfig::tiny();
        cfg.shadow_estimator = Some(EstimatorKind::Oracle);
        cfg.deep_checks = deep_checks;
        let mut policy = SaioPolicy::with_frac(0.10);
        let mut telemetry = RunTelemetry::new(policy.name());
        let result = Simulator::new(cfg)
            .replay(
                &trace,
                &mut policy,
                ReplayOptions::new().telemetry(&mut telemetry),
            )
            .expect("run");
        (result, telemetry)
    };
    let (plain, plain_telemetry) = run(false);
    let (deep, deep_telemetry) = run(true);
    assert!(plain.collection_count() > 10);
    assert_eq!(
        plain_telemetry.decisions.len(),
        deep_telemetry.decisions.len()
    );
    for d in plain_telemetry
        .decisions
        .iter()
        .chain(&deep_telemetry.decisions)
    {
        assert_eq!(d.estimate_error(), Some(0.0));
    }
    assert_eq!(plain, deep);
}

fn tiny_plan() -> ExperimentPlan {
    ExperimentPlan::new(Oo7Params::tiny(), &[1, 2, 3], SimConfig::tiny()).cells([
        (5.0, PolicySpec::saio(0.05)),
        (10.0, PolicySpec::saio(0.10)),
        (
            10.0,
            PolicySpec::saga_dt_max(0.10, EstimatorKind::Oracle, 20),
        ),
    ])
}

#[test]
fn plan_telemetry_is_identical_across_worker_counts_modulo_wall_time() {
    let plan = tiny_plan();
    let serial = plan.run_with_jobs(Some(1));
    let parallel = plan.run_with_jobs(Some(8));
    let a = PlanTelemetry::from_outcome(&plan, &serial)
        .to_json()
        .strip_volatile()
        .to_string_pretty();
    let b = PlanTelemetry::from_outcome(&plan, &parallel)
        .to_json()
        .strip_volatile()
        .to_string_pretty();
    assert_eq!(a, b, "jobs=1 and jobs=8 must agree after stripping timing");
}

#[test]
fn plan_export_parses_and_carries_the_header() {
    let plan = tiny_plan();
    let outcome = plan.run();
    let telemetry = PlanTelemetry::from_outcome(&plan, &outcome);
    let text = telemetry.to_json().to_string_pretty();
    let doc = Json::parse(&text).expect("plan export must parse");
    assert_eq!(verify_header(&doc).as_deref(), Ok("plan"));
    assert_eq!(doc.get("failure_count").and_then(Json::as_u64), Some(0));
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
    assert_eq!(cells.len(), plan.cells.len());
    for cell in cells {
        let runs = cell.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), plan.seeds.len());
    }
}

#[test]
fn stripping_volatile_keys_removes_all_wall_clock_fields() {
    let plan = tiny_plan();
    let outcome = plan.run();
    let stripped = PlanTelemetry::from_outcome(&plan, &outcome)
        .to_json()
        .strip_volatile()
        .to_string_pretty();
    assert!(!stripped.contains("\"timing\""));
    assert!(!stripped.contains("\"wall_"));
}
