//! Acceptance tests for the readiness-driven event loop (ISSUE 10).
//!
//! Four guarantees pin the event loop to the blocking server it
//! replaced:
//!
//! 1. **Reassembly is split-agnostic** — a frame stream delivered with a
//!    break at *every* byte boundary (checked exhaustively, then under
//!    random chunkings) reassembles to exactly what a blocking read of
//!    the same bytes yields.
//! 2. **The connection state machine survives trickled input** — a
//!    client writing its frames one byte at a time still gets correct
//!    responses end to end.
//! 3. **Connection count scales past thread count** — 64 connections
//!    drain through a 2-thread loop pool with zero acknowledged-op loss
//!    and every close clean.
//! 4. **Idle costs nothing** — 64 parked connections produce zero poll
//!    timer ticks; the old accept/read sleep-polling is gone.

use std::io::Write;
use std::time::Duration;

use odbgc_core::FixedRatePolicy;
use odbgc_engine::{EngineConfig, GcFault, ObjRef, SessionOp, SessionWorkload, WorkloadParams};
use odbgc_net::{
    frame_into, run_client, run_clients, ClientConfig, ClientError, Conn, ErrorCode,
    FrameAssembler, NetConfig, NetOutcome, NetServer, Request, Response,
};
use proptest::prelude::*;

fn net_config(shards: u32, net_threads: usize) -> NetConfig {
    NetConfig {
        engine: EngineConfig::tiny(),
        shards,
        net_threads,
        // Short enough that a hung test fails fast, long enough to never
        // fire during normal turns (or the idle window below).
        idle_timeout: Duration::from_secs(10),
        poll_interval: Duration::from_millis(5),
        ..NetConfig::default()
    }
}

fn spawn_server(config: NetConfig) -> (String, std::thread::JoinHandle<NetOutcome>) {
    let server = NetServer::bind("127.0.0.1:0", config, |_| {
        Box::new(FixedRatePolicy::new(20))
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: &str) {
    let mut admin = Conn::connect(addr).expect("admin connect");
    match admin.request(&Request::Shutdown).expect("shutdown") {
        Response::ShutdownOk => {}
        other => panic!("want ShutdownOk, got {other:?}"),
    }
}

/// A realistic mixed frame stream: requests and responses a connection
/// actually carries, including an empty-ish admin frame and a turn of
/// generated ops.
fn sample_bodies() -> Vec<Vec<u8>> {
    let turn = SessionWorkload::new(0, WorkloadParams::default(), 32).next_turn(8);
    vec![
        Request::Hello {
            session: 7,
            window: 4,
        }
        .encode(),
        Request::Ops { ops: turn }.encode(),
        Request::Ack { n: 1 }.encode(),
        Request::Stats.encode(),
        Response::HelloOk {
            session: 7,
            shard: 1,
            window: 4,
        }
        .encode(),
        Response::Error {
            code: odbgc_net::ErrorCode::Draining,
            message: "server is draining; no new turns".into(),
        }
        .encode(),
        Request::Bye.encode(),
    ]
}

/// (1a) Exhaustive: split the whole wire stream at every byte boundary;
/// every split reassembles to the same frame bodies in the same order.
#[test]
fn every_byte_boundary_split_reassembles_exactly() {
    let bodies = sample_bodies();
    let mut wire = Vec::new();
    for body in &bodies {
        frame_into(&mut wire, body);
    }
    for split in 0..=wire.len() {
        let mut asm = FrameAssembler::new();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        for part in [&wire[..split], &wire[split..]] {
            asm.extend(part);
            while let Some(frame) = asm.next_frame().expect("clean stream") {
                seen.push(frame.to_vec());
            }
        }
        assert_eq!(seen, bodies, "diverged when split at byte {split}");
        assert_eq!(asm.pending(), 0, "leftover bytes when split at {split}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (1b) Random chunkings: arbitrary frame bodies delivered in
    /// arbitrary-sized pieces reassemble to the original bodies.
    #[test]
    fn random_chunkings_reassemble(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..8,
        ),
        chunks in proptest::collection::vec(1usize..17, 1..64),
    ) {
        let mut wire = Vec::new();
        for body in &bodies {
            frame_into(&mut wire, body);
        }
        let mut asm = FrameAssembler::new();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut next_chunk = 0;
        while pos < wire.len() {
            let take = chunks[next_chunk % chunks.len()].min(wire.len() - pos);
            next_chunk += 1;
            asm.extend(&wire[pos..pos + take]);
            pos += take;
            while let Some(frame) = asm.next_frame().expect("clean stream") {
                seen.push(frame.to_vec());
            }
        }
        prop_assert_eq!(seen, bodies);
        prop_assert_eq!(asm.pending(), 0);
    }
}

/// (2) End to end at one byte per write: the per-connection state
/// machine reassembles trickled requests and responds correctly.
#[test]
fn byte_trickled_requests_are_served() {
    let (addr, server) = spawn_server(net_config(1, 1));
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();

    fn trickle(stream: &mut std::net::TcpStream, req: &Request) {
        let mut wire = Vec::new();
        frame_into(&mut wire, &req.encode());
        for byte in &wire {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
        }
    }
    fn response(stream: &mut std::net::TcpStream) -> Response {
        let body = odbgc_net::proto::read_frame(stream).expect("response frame");
        Response::decode(&body).expect("response decodes")
    }

    trickle(
        &mut stream,
        &Request::Hello {
            session: 3,
            window: 2,
        },
    );
    match response(&mut stream) {
        Response::HelloOk { session: 3, .. } => {}
        other => panic!("want HelloOk, got {other:?}"),
    }

    let turn = SessionWorkload::new(3, WorkloadParams::default(), 16).next_turn(8);
    let turn_len = turn.len() as u64;
    trickle(&mut stream, &Request::Ops { ops: turn });
    match response(&mut stream) {
        Response::OpsOk { applied, .. } => assert_eq!(applied, turn_len),
        other => panic!("want OpsOk, got {other:?}"),
    }

    trickle(&mut stream, &Request::Bye);
    match response(&mut stream) {
        Response::ByeOk => {}
        other => panic!("want ByeOk, got {other:?}"),
    }
    drop(stream);

    shutdown(&addr);
    let outcome = server.join().unwrap();
    assert!(outcome.clients.iter().all(|c| c.clean_close));
}

const CONNS: u32 = 64;
const OPS_PER_CONN: u64 = 50;

/// (3) 64 connections over 2 loop threads: the full multiplexed load
/// drains with zero acknowledged-op loss and every close clean, and the
/// thread pool stays at its configured size regardless of connection
/// count.
#[test]
fn sixty_four_connections_drain_with_zero_acked_loss() {
    let (addr, server) = spawn_server(net_config(2, 2));
    let report = run_clients(
        &ClientConfig {
            addr,
            session: 0,
            ops: OPS_PER_CONN,
            batch: 8,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: true,
        },
        CONNS,
    )
    .expect("multi-client run");

    assert_eq!(report.reports.len(), CONNS as usize);
    let totals = report.totals();
    assert_eq!(
        totals.ops_applied,
        CONNS as u64 * OPS_PER_CONN,
        "every session completes its whole budget, exactly"
    );

    let outcome = server.join().unwrap();
    assert_eq!(
        outcome.loops.len(),
        2,
        "loop-thread count is fixed at bind, independent of connections"
    );
    assert_eq!(outcome.clients.len(), CONNS as usize);
    assert!(outcome.clients.iter().all(|c| c.clean_close));
    let applied: u64 = outcome
        .shards
        .iter()
        .map(|s| s.result.events_replayed)
        .sum();
    assert_eq!(
        applied, totals.ops_applied,
        "every acknowledged op survived the drain, and nothing else"
    );
}

/// (4) Idle is free: 64 parked connections for 300ms produce zero poll
/// timer ticks — the loops block on readiness, they do not sleep-poll.
#[test]
fn idle_connections_never_tick() {
    let (addr, server) = spawn_server(net_config(1, 2));
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|i| {
            let mut conn = Conn::connect(&addr).expect("connect");
            match conn
                .request(&Request::Hello {
                    session: i,
                    window: 1,
                })
                .expect("hello")
            {
                Response::HelloOk { .. } => conn,
                other => panic!("want HelloOk, got {other:?}"),
            }
        })
        .collect();

    std::thread::sleep(Duration::from_millis(300));

    for conn in conns.iter_mut() {
        match conn.request(&Request::Bye).expect("bye") {
            Response::ByeOk => {}
            other => panic!("want ByeOk, got {other:?}"),
        }
    }
    drop(conns);
    shutdown(&addr);
    let outcome = server.join().unwrap();

    assert_eq!(
        outcome.loops.iter().map(|l| l.accepted).sum::<u64>(),
        CONNS as u64 + 1, // + the admin connection
    );
    if cfg!(unix) {
        // The real poll(2) path: the only timer is the 10s idle
        // deadline, which never fires here. The non-unix emulation
        // tick-polls by design and is exempt.
        assert_eq!(
            outcome.loops.iter().map(|l| l.timeouts).sum::<u64>(),
            0,
            "an idle server must not wake up: {:?}",
            outcome.loops
        );
    }
}

/// A connection binds one session for its lifetime: a second `Hello`
/// is a protocol error that closes the connection, so the first
/// session's object map and credits can never be carried onto another
/// session's shard.
#[test]
fn second_hello_is_refused_and_closes_the_connection() {
    let (addr, server) = spawn_server(net_config(2, 1));
    let mut conn = Conn::connect(&addr).expect("connect");
    let hello = |session| Request::Hello { session, window: 4 };
    match conn.request(&hello(0)).expect("hello") {
        Response::HelloOk { shard: 0, .. } => {}
        other => panic!("want HelloOk on shard 0, got {other:?}"),
    }
    let ops = vec![
        SessionOp::Create { size: 64, slots: 1 },
        SessionOp::AddRoot { obj: ObjRef(0) },
    ];
    match conn
        .request(&Request::Ops { ops: ops.clone() })
        .expect("turn")
    {
        Response::OpsOk { applied: 2, .. } => {}
        other => panic!("want OpsOk, got {other:?}"),
    }

    match conn.request_raw(&hello(1)).expect("second hello answered") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("want a protocol error, got {other:?}"),
    }
    // Closed after the error: nothing more is applied, on either shard.
    assert!(matches!(
        conn.request_raw(&Request::Ops { ops }),
        Err(ClientError::Proto(_))
    ));

    shutdown(&addr);
    let outcome = server.join().unwrap();
    let events: Vec<u64> = outcome
        .shards
        .iter()
        .map(|s| s.result.events_replayed)
        .collect();
    assert_eq!(events, vec![2, 0], "only the bound session's turn applied");
    let counters = outcome
        .clients
        .iter()
        .find(|c| c.session == 0)
        .expect("the refused connection is accounted");
    assert_eq!(counters.turns, 1);
    assert!(
        !counters.clean_close,
        "a protocol error is not a clean close"
    );
}

/// `Stats` reads what each shard's owner publishes: after shard 0's
/// collection panics, its failure notice is byte-equal to the one in
/// the drained outcome, and the healthy shard's collection count is its
/// final count.
#[test]
fn stats_report_each_shards_collections_and_failure() {
    let mut config = net_config(2, 1);
    config.gc_fault = Some(GcFault {
        shard: 0,
        after_collections: 0,
    });
    let (addr, server) = spawn_server(config);
    let client = |session| ClientConfig {
        addr: addr.clone(),
        session,
        ops: 400,
        batch: 8,
        window: 4,
        workload: WorkloadParams::default(),
        shutdown_after: false,
    };
    assert_eq!(run_client(&client(1)).expect("healthy").ops_applied, 400);
    match run_client(&client(0)).expect_err("shard 0 fails") {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::ShardFailed),
        other => panic!("want ShardFailed, got {other}"),
    }

    let mut admin = Conn::connect(&addr).expect("admin");
    // Each owner runs `Collect` after every job queued before it,
    // including the collection drain that follows shard 1's last turn,
    // so the snapshot below sees both shards' final state.
    match admin.request(&Request::Collect).expect("collect") {
        Response::CollectOk { .. } => {}
        other => panic!("want CollectOk, got {other:?}"),
    }
    let snap = match admin.request(&Request::Stats).expect("stats") {
        Response::StatsOk(snap) => snap,
        other => panic!("want StatsOk, got {other:?}"),
    };
    match admin.request(&Request::Shutdown).expect("shutdown") {
        Response::ShutdownOk => {}
        other => panic!("want ShutdownOk, got {other:?}"),
    }
    let outcome = server.join().unwrap();

    let failed = outcome.shards[0].failed.clone();
    assert!(failed
        .as_deref()
        .is_some_and(|m| m.contains("injected GC worker fault")));
    assert_eq!(snap.shards[0].failed, failed);
    assert_eq!(snap.shards[1].failed, None);
    let collections = outcome.shards[1].result.collection_count();
    assert!(collections > 0, "rate 20 over 400 ops collects");
    assert_eq!(snap.shards[1].collections, collections);
}
