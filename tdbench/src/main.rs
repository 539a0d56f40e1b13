//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! td-perfbench --workload <ledger|lab|search|views> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload generates its inputs from the seed, drives the program's
//! public crates for `--seconds` of measured work (whole rounds), checks
//! every result against its own model (`checks.rs`), and prints one JSON
//! object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run spends half
//! its time untraced and half with spans around every call into a layer,
//! and the metrics are the per-layer ones. Exit code 0 only when every
//! check passed. See README.md.

mod checks;
mod lab;
mod ledger;
mod search;
mod trace;
mod util;
mod views;

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, as `BENCHMARK.json` lists them:
/// the layers the gated in-process workloads (search, views) exercise.
/// Every workload prints every one; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.solve_p50_ms", "ms"),
    ("machine.us_per_step", "us"),
    ("machine.steps", "count"),
    ("parallel.solve_p50_ms", "ms"),
    ("parallel.us_per_step", "us"),
    ("parallel.steps", "count"),
    ("decider.decide_p50_ms", "ms"),
    ("decider.configs", "count"),
    ("decider.us_per_config", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses", "count"),
    ("incremental.build_ms", "ms"),
    ("incremental.maintain_us_per_write", "us"),
    ("incremental.delta_tuples_per_write", "count"),
    ("incremental.rebuilds", "count"),
    ("incremental.probe_us", "us"),
    ("incremental.state_hit_rate", "ratio"),
    ("parser.program_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer metrics of the serve, store and events layers. Only the
/// serve workloads (ledger, lab) exercise these layers, and they are not
/// in `BENCHMARK.json` (see README.md), so only their traced runs print
/// this table, after [`PER_LAYER`].
pub const SERVE_LAYER: &[(&str, &str)] = &[
    ("serve.overhead_us", "us"),
    ("serve.write_p99_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.write_n", "count"),
    ("serve.read_n", "count"),
    ("store.tx_self_us", "us"),
    ("store.readonly_tx_us", "us"),
    ("store.attempts_per_commit", "ratio"),
    ("store.conflicts", "count"),
    ("store.records_per_fsync", "ratio"),
    ("store.max_group", "count"),
    ("store.fsyncs", "count"),
    ("store.wal_bytes_per_commit", "bytes"),
    ("machine.serve_solve_us", "us"),
    ("events.ingest_us", "us"),
    ("events.partials_live", "count"),
    ("events.trigger_tx_us", "us"),
    ("events.drain_ms", "ms"),
    ("events.trigger_conflicts", "count"),
    ("parser.goal_us", "us"),
    ("parser.event_us", "us"),
];

pub const WORKLOADS: &[&str] = &["ledger", "lab", "search", "views"];

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches found by the checks; any makes the run fail.
    pub errors: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.errors.push(e);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().chain(SERVE_LAYER).any(|(n, _)| *n == name),
            "{name}"
        );
        self.layer.insert(name, value);
    }
}

fn usage() -> String {
    format!(
        "usage: td-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", opts.workload));
    }
    Ok(opts)
}

/// Render the result line. Values keep all their digits (`{}` of an f64
/// is its shortest exact representation).
fn result_json(opts: &Opts, r: &Report) -> String {
    let serve = matches!(opts.workload.as_str(), "ledger" | "lab");
    let (table, values): (Vec<_>, _) = match (opts.trace, serve) {
        (false, _) => (END_TO_END.iter().collect(), &r.e2e),
        (true, false) => (PER_LAYER.iter().collect(), &r.layer),
        (true, true) => (PER_LAYER.iter().chain(SERVE_LAYER).collect(), &r.layer),
    };
    let metrics: Vec<String> = table
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.errors.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("td-perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let run = match opts.workload.as_str() {
        "ledger" => ledger::run(&opts),
        "lab" => lab::run(&opts),
        "search" => search::run(&opts),
        _ => views::run(&opts),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("td-perfbench: {}: {e}", opts.workload);
            std::process::exit(2);
        }
    };
    for e in report.errors.iter().take(20) {
        eprintln!("td-perfbench: CHECK FAILED: {e}");
    }
    if report.errors.len() > 20 {
        eprintln!("td-perfbench: {} checks failed in all", report.errors.len());
    }
    println!("{}", result_json(&opts, &report));
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in the repository's BENCHMARK.json must
    /// name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let compact: String = text.split_whitespace().collect();
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = compact.find(&format!("\"{section}\":[")).expect(section);
            let body = &compact[start..];
            let body = &body[..body.find(']').expect("closing bracket")];
            let listed = body.matches("\"name\":").count();
            assert_eq!(listed, table.len(), "{section}: count");
            for (name, unit) in table {
                assert!(
                    body.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                    "{section}: {name} [{unit}] missing from BENCHMARK.json"
                );
            }
        }
        let start = compact.find("\"workloads\":[").expect("workloads");
        let listed = &compact[start..compact[start..].find(']').expect("]") + start];
        for name in listed.split("{\"name\":\"").skip(1) {
            let name = &name[..name.find('"').expect("closing quote")];
            assert!(
                WORKLOADS.contains(&name),
                "BENCHMARK.json names unknown workload {name}"
            );
        }
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&a("--workload lab --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload lab --trace 2")).is_err());
        assert!(parse_args(&a("--workload lab --seconds 0")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
    }

    #[test]
    fn a_failed_check_reads_incorrect() {
        let opts = parse_args(&["--workload".into(), "views".into()]).unwrap();
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        assert!(result_json(&opts, &r).starts_with("{\"correct\": true, \"attempted\": 3,"));
        r.check(Err("flipped".into()));
        assert!(result_json(&opts, &r).starts_with("{\"correct\": false,"));
    }
}
