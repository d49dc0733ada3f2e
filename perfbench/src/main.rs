//! The DAAKG benchmark: one workload per process, with its thread count
//! pinned.
//!
//! ```text
//! perfbench --workload <campaign|serve|live_rw> --seed <n> --seconds <s> --trace <0|1>
//!           [--p99-limit-ms <ms>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, measured with no benchmark spans; with
//! `--trace 1` they are the per-layer set. The line before it carries the
//! host fingerprint and workload details. A failed correctness check sets
//! `correct` to false and is printed to stderr; the exit code is non-zero
//! only when no result could be produced.

mod campaign;
mod host;
mod live_rw;
mod load;
mod probes;
mod serve;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("quality", "ratio"),
];

/// Per-layer metrics of the traced run. A layer a workload does not use
/// reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("rounds_run", "count"),
    ("attributed_fraction", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_s", "s"),
    ("align.train_ms", "ms"),
    ("align.fine_tune_ms", "ms"),
    ("embed.epoch_ms", "ms"),
    ("align.snapshot_build_ms", "ms"),
    ("active.candidates_ms", "ms"),
    ("active.candidates", "count"),
    ("active.select_ms", "ms"),
    ("oracle.positive_ratio", "ratio"),
    ("infer.closure_ms", "ms"),
    ("infer.derived", "count"),
    ("infer.accept_ratio", "ratio"),
    ("eval.round_ms", "ms"),
    ("align.scan_us_per_query", "us"),
    ("ingress.queue_wait_p50_ms", "ms"),
    ("ingress.queue_wait_p99_ms", "ms"),
    ("ingress.execute_p50_ms", "ms"),
    ("ingress.batch_mean", "count"),
    ("ingress.shed", "count"),
    ("ingress.expired", "count"),
    ("shard.scan_p50_us", "us"),
    ("shard.merge_p50_us", "us"),
    ("shard.rebuild_stall_ms", "ms"),
    ("index.probe_p50_us", "us"),
    ("index.list_scan_p50_us", "us"),
    ("index.recall_at_k", "ratio"),
    ("parallel.fanout_us", "us"),
    ("delta.merge_us", "us"),
    ("delta.depth_mean", "count"),
    ("live.folds", "count"),
    ("delta.fold_ms", "ms"),
    ("delta.republish_ms", "ms"),
    ("delta.persist_ms", "ms"),
    ("embed.warm_start_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.fsync_ms", "ms"),
    ("store.bytes_per_upsert", "bytes"),
    ("load.late_p99_ms", "ms"),
    ("load.late_max_ms", "ms"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems; any one fails the run.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Extra `(key, JSON value)` pairs for the detail line.
    pub details: Vec<(String, String)>,
    /// The traced run's spans, written out when the run ends.
    pub tracer: Option<trace::Tracer>,
    /// Seconds of host steal during the timed phases.
    pub steal_s: f64,
}

impl RunOutput {
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn detail(&mut self, key: &str, json_value: String) {
        self.details.push((key.to_string(), json_value));
    }

    /// Run a timed phase, adding the host steal during it to `steal_s`.
    pub fn timed<R>(&mut self, phase: impl FnOnce() -> R) -> R {
        let before = host::CpuTimes::now();
        let result = phase();
        self.steal_s += host::steal_seconds(before, host::CpuTimes::now());
        result
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    p99_limit_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut p99_limit_ms = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--p99-limit-ms" => p99_limit_ms = Some(value.parse::<f64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |what: &str| format!("missing {what}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?.clamp(1, 60),
        trace: trace.ok_or_else(|| need("--trace"))?,
        p99_limit_ms: p99_limit_ms.unwrap_or(serve::DEFAULT_P99_LIMIT_MS),
    })
}

/// Where runs keep their files: ignored by git, inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = match args.workload.as_str() {
        "campaign" => campaign::THREADS,
        "serve" => serve::THREADS,
        "live_rw" => live_rw::THREADS,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    // Pin the kernel thread count before anything reads it: it is read
    // once per process, and auto-detection would tie results to the host.
    std::env::set_var("DAAKG_THREADS", threads.to_string());
    if daakg_parallel::num_threads() != threads {
        eprintln!("perfbench: could not pin DAAKG_THREADS={threads}");
        std::process::exit(1);
    }

    let started = Instant::now();
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(args.seed, args.seconds, args.trace),
        "serve" => serve::run(args.seed, args.seconds, args.trace, args.p99_limit_ms),
        _ => live_rw::run(args.seed, args.seconds, args.trace),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        out.metrics.insert("host.steal_s", out.steal_s);
    } else {
        out.metrics.insert("peak_rss_mb", host::peak_rss_mb());
    }
    for name in out.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "workload reported {name}, which is not in the metric table"
        );
    }
    if !args.trace {
        for (name, _) in table {
            if out.metrics.get(name).is_none_or(|&v| v <= 0.0) {
                out.fail(format!(
                    "end-to-end metric {name} is missing or not positive"
                ));
            }
        }
    }
    if let Some(tracer) = &out.tracer {
        let dir = work_dir();
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| tracer.write_jsonl(&path)) {
            out.fail(format!("writing spans to {}: {e}", path.display()));
        } else {
            out.detail("spans", host::json_str(&path.display().to_string()));
        }
    }

    let mut detail = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"wall_s\":{:.3},\"host\":{}",
        host::json_str(&args.workload),
        args.seed,
        args.trace,
        started.elapsed().as_secs_f64(),
        host::fingerprint_json(threads, out.steal_s)
    );
    for (k, v) in &out.details {
        detail.push_str(&format!(",{}:{v}", host::json_str(k)));
    }
    detail.push_str(&format!(
        ",\"problems\":{}}}",
        host::json_array(out.problems.iter().map(|p| host::json_str(p)))
    ));
    println!("{detail}");

    let metrics = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                host::json_str(name),
                json_number(v),
                host::json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables must match `BENCHMARK.json` at the repo root.
    #[test]
    fn tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let names = text.matches("\"name\":").count();
        let workloads = 3;
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
