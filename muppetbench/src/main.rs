//! The muppet end-to-end benchmark.
//!
//! ```text
//! muppet-perfbench --workload <mesh-cold|search-hard|daemon-stream>
//!     --seed <n> --seconds <s> --trace <0|1> [--cli <muppet-cli>]
//!     [--commit <id>]
//! ```
//!
//! Prints a self-describing header, every metric by name with its unit,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. See
//! README.md for the workloads, metrics and checks.

mod check;
mod daemon_stream;
mod measure;
mod mesh_cold;
mod replay;
mod search_hard;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use measure::{median, tail, Outcome, TAIL_BEYOND};
use trace::Tracer;

/// Per-layer metrics of the traced run, in report order. Unless listed
/// in [`RUN_LEVEL`], each is a mean per timed operation of the traced
/// quarters; a layer the workload never calls reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("yaml.parse_ms", "ms"),
    ("domain.build_ms", "ms"),
    ("varmap.build_ms", "ms"),
    ("varmap.free_vars", "count"),
    ("ground.ms", "ms"),
    ("ground.nodes", "count"),
    ("encode.ms", "ms"),
    ("cnf.vars", "count"),
    ("cnf.clauses", "count"),
    ("search.ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("minimize.ms", "ms"),
    ("target.ms", "ms"),
    ("target.oll_cores", "count"),
    ("session.other_ms", "ms"),
    ("stream.push_ms", "ms"),
    ("stream.groups_encoded", "count"),
    ("stream.groups_reused", "count"),
    ("daemon.write_ms", "ms"),
    ("daemon.read_ms", "ms"),
    ("daemon.engine_ms", "ms"),
    ("daemon.transport_ms", "ms"),
    ("daemon.cache_hits", "count"),
    ("daemon.cache_misses", "count"),
    ("daemon.rss_growth_mb", "MiB"),
    ("trace.op_p50_ms", "ms"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer metrics a workload reports once per call as run-level
/// values rather than sums to divide per operation; the traced run
/// averages them over its traced calls.
const RUN_LEVEL: &[&str] = &[
    "stream.push_ms",
    "stream.groups_encoded",
    "stream.groups_reused",
    "daemon.cache_hits",
    "daemon.cache_misses",
    "daemon.write_ms",
    "daemon.read_ms",
    "daemon.engine_ms",
    "daemon.transport_ms",
    "daemon.rss_growth_mb",
];

/// Where spans and daemon sockets go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: &[&str] = &["mesh-cold", "search-hard", "daemon-stream"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut take = |k: &str| kv.remove(k);
    let workload = take("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = take("--seed").ok_or("--seed is required")?;
    let seed = seed
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = take("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .ok()
        .filter(|&v: &f64| v > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        cli: take("--cli").map(PathBuf::from),
        commit: take("--commit").unwrap_or_else(|| "unknown".into()),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    Ok(args)
}

/// Run the workload for `seconds`.
fn run_workload(a: &Args, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    match a.workload.as_str() {
        "mesh-cold" => mesh_cold::run(a.seed, seconds, tracer),
        "search-hard" => search_hard::run(a.seed, seconds, tracer),
        _ => {
            let cli = a
                .cli
                .as_ref()
                .expect("daemon-stream needs --cli <muppet-cli>");
            daemon_stream::run(a.seed, seconds, cli, tracer)
        }
    }
}

/// Per-label latency summary at reference host speed, so two runs can
/// be diffed op by op, with the number of each label's samples at or
/// beyond `tail_ms`.
fn print_ops(o: &Outcome, tail_ms: f64) {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &o.rounds {
        for s in &r.samples {
            by.entry(s.label).or_default().push(s.ms / r.slowdown);
        }
    }
    for (label, v) in by {
        println!(
            "op {label:<22} n={:<5} p50_ms={:<10.4} at_tail={}",
            v.len(),
            median(&v),
            v.iter().filter(|&&ms| ms >= tail_ms).count()
        );
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("muppet-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# muppet-perfbench workload={} seed={} seconds={} trace={}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    println!(
        "# host_cores={cores} build_profile={} commit={} solver_threads=1 daemon_workers=1",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        a.commit
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let outcome;
    if !a.trace {
        outcome = run_workload(&a, a.seconds, None);
        let lat = outcome.latencies();
        let (tail_ms, tail_pct) = tail(&lat);
        metrics.push(("setup_s".into(), median(&outcome.setups_s), "s"));
        metrics.push(("op_p50_ms".into(), outcome.op_p50_ms(), "ms"));
        metrics.push(("op_tail_ms".into(), tail_ms, "ms"));
        metrics.push(("ops_per_s".into(), outcome.ops_per_s(), "1/s"));
        metrics.push(("peak_rss_mb".into(), outcome.peak_rss_mb, "MiB"));
        print_ops(&outcome, tail_ms);
        println!(
            "# setup_s is the median of {} set-ups; op_p50_ms and ops_per_s are medians over {} rounds",
            outcome.setups_s.len(),
            outcome.rounds.len()
        );
        println!(
            "# op_tail_ms is p{tail_pct:.3} of {} samples, {TAIL_BEYOND} beyond it",
            lat.len()
        );
        println!(
            "# timings are at reference host speed: divided by the host slowdown, median {:.4} over rounds",
            outcome.slowdown()
        );
    } else {
        // Untraced and traced quarters of one run, alternating so that
        // both halves see the same host conditions; their op medians
        // give the tracing overhead.
        let mut tracer = Tracer::new();
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        for i in 0..4 {
            if i % 2 == 0 {
                plain.push(run_workload(&a, a.seconds / 4.0, None));
            } else {
                traced.push(run_workload(&a, a.seconds / 4.0, Some(&mut tracer)));
            }
        }
        let traced_calls = traced.len() as f64;
        outcome = Outcome::merge(traced);
        let ops = outcome.latencies().len().max(1) as f64;
        let traced_p50 = outcome.op_p50_ms();
        let plain_p50 = Outcome::merge(plain).op_p50_ms();
        for &(name, unit) in LAYERS {
            let v = match name {
                "trace.op_p50_ms" => traced_p50,
                "trace.untraced_op_p50_ms" => plain_p50,
                "trace.overhead_ms" => traced_p50 - plain_p50,
                n if RUN_LEVEL.contains(&n) => tracer.sum(n) / traced_calls,
                n => tracer.sum(n) / ops,
            };
            metrics.push((name.into(), v, unit));
        }
        println!("# traced ops={ops} self time by span (count, total ms, self ms):");
        for (name, count, total, own) in tracer.self_times() {
            println!("span {name:<18} n={count:<6} total_ms={total:.3} self_ms={own:.3}");
        }
        if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
            let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
            println!("# spans written to {}", path.display());
            tracer.write_jsonl(&path)
        }) {
            eprintln!("muppet-perfbench: cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    println!(
        "# attempted={} failed={} correct={}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
