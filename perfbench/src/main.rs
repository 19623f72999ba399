//! `eh_perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pattern|analytics|service|cluster> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics and writes its spans to `.bench_out/`. Every answer is
//! checked outside the timed region. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod cluster;
mod layers;
mod service;
mod suite;
mod trace;
mod util;

use std::time::Duration;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations whose answers were checked (requests, plus set-up
    /// answers).
    pub attempted: u64,
    /// Failed operations plus wrong answers.
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context lines (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A metric in probe units (see `util::Loop`); its value in
    /// `raw_unit`, not divided by the probe, goes to the notes.
    pub fn probe_metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        raw: f64,
        raw_unit: &str,
    ) {
        self.note(format!("raw {name} = {raw:.6} {raw_unit}"));
        self.metric(name, value, unit);
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

const WORKLOADS: &[&str] = &["pattern", "analytics", "service", "cluster"];

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn json_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("eh_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = util::Host::detect();
    println!(
        "host: nproc={} cpu=\"{}\" kernel={}",
        host.nproc, host.cpu_model, host.kernel
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        opts.trace as u8
    );
    let outcome = match opts.workload.as_str() {
        "pattern" => suite::run(&suite::PATTERN, &opts),
        "analytics" => suite::run(&suite::ANALYTICS, &opts),
        "service" => service::run(&opts),
        "cluster" => cluster::run(&opts),
        _ => unreachable!("workload validated in parse_args"),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eh_perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    // Non-finite values cannot be written as JSON numbers; a metric that
    // comes out that way is a benchmark bug, so the run is not correct.
    let before = report.metrics.len();
    report.metrics.retain(|(name, v, _)| {
        let ok = v.is_finite();
        if !ok {
            eprintln!("eh_perfbench: metric {name} is not finite ({v})");
        }
        ok
    });
    if report.metrics.len() != before {
        report.failed += 1;
    }
    for line in &report.notes {
        println!("note: {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric: {name} = {value:.6} {unit}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "metric: error_rate = {error_rate} frac ({} failed of {} checked)",
        report.failed, report.attempted
    );
    println!("{}", json_result(&report));
}

#[cfg(test)]
mod tests {
    use crate::layers::WorkSummary;

    /// The exact per-layer counts must repeat bit-for-bit across two
    /// runs on one seed; only then can they gate a change exactly.
    /// (Worker balance depends on scheduling and is not exact.)
    fn repeats(workload: &str, run: impl Fn(u64) -> Result<WorkSummary, String>) {
        for seed in [1, 2] {
            let a = run(seed).expect("first run");
            let b = run(seed).expect("second run");
            assert_eq!(a.work, b.work, "{workload} seed {seed}: work counters");
            assert_eq!(a.tuples, b.tuples, "{workload} seed {seed}: tuples");
            assert_eq!(a.qerror, b.qerror, "{workload} seed {seed}: q-errors");
            assert!(a.work.values_scanned > 0, "{workload}: no work counted");
        }
    }

    #[test]
    fn pattern_counts_repeat() {
        repeats("pattern", |seed| {
            crate::suite::exact_work(&crate::suite::PATTERN, seed)
        });
    }

    #[test]
    fn analytics_counts_repeat() {
        repeats("analytics", |seed| {
            crate::suite::exact_work(&crate::suite::ANALYTICS, seed)
        });
    }

    #[test]
    fn service_counts_repeat() {
        repeats("service", crate::service::exact_work);
    }

    #[test]
    fn cluster_counts_repeat() {
        repeats("cluster", crate::cluster::exact_work);
    }
}
