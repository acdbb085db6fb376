//! Order statistics and the benchmark's report format.

use std::time::Duration;

/// Microseconds in `d`, as a float with every digit kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The nearest-rank `p`-quantile (`p` in `[0, 1]`) of `values`; 0 when
/// there are none.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 when there are none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Cumulative CPU time of the whole machine, from `/proc/stat`, in ticks.
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// Reads the machine's cumulative CPU times.
pub fn cpu_times() -> Result<CpuTimes, String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    if ticks.len() < 8 {
        return Err("short cpu line in /proc/stat".into());
    }
    Ok(CpuTimes {
        steal: ticks[7],
        total: ticks.iter().sum(),
    })
}

impl CpuTimes {
    /// The share of CPU time stolen by the host since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (runs, turns, collections, ...).
    samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    /// Human-readable lines printed before the result (config, checks).
    pub notes: Vec<String>,
    /// Output-check failures; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Operations (trace events or session ops) the run attempted.
    pub attempted: u64,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.layer.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records an output check: a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Prints the notes and every metric as text, then the one-line JSON
    /// result: the end-to-end metrics, or with `traced` the per-layer ones.
    pub fn print(&self, traced: bool) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.mismatches {
            println!("CHECK FAILED: {m}");
        }
        for (title, metrics) in [("end-to-end", &self.e2e), ("per-layer", &self.layer)] {
            println!("{title} metrics:");
            for m in metrics {
                println!(
                    "  {:<28} {:>16.4} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let chosen = if traced { &self.layer } else { &self.e2e };
        let fields: Vec<String> = chosen
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        // A failed operation (a rejected event, a Busy or Error response)
        // aborts the run before it reports, so a report has none.
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            fields.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
