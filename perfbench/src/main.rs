//! The repository benchmark. One command runs one workload and prints, as
//! the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Everything is measured from outside the program, by timing calls into
//! the crates' public functions; the traced run additionally reads the
//! spans and counters `lasagne-obs` already records.
//!
//! ```sh
//! python3 perfbench/run.py --workload train-lasagne --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `perfbench/README.md` says what every workload and metric means.

mod common;
mod lazy;
mod serving;
mod stats;
mod train;

use std::path::PathBuf;
use std::time::Instant;

use common::fail;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["train-lasagne", "serve-read", "serve-mutate", "lazy-scan"];

/// End-to-end metrics: every workload reports every one of them, each in
/// that workload's own terms (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cold_start_ms", "ms"),
    ("op_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// exercise reports 0: it did no work there.
pub const PER_LAYER: [(&str, &str); 47] = [
    // Kernels and the thread pool, from lasagne-obs spans and counters.
    ("tensor.matmul_calls", "count"),
    ("sparse.spmm_calls", "count"),
    ("tensor.matmul_ms", "ms"),
    ("sparse.spmm_ms", "ms"),
    ("tensor.gflop", "GFLOP"),
    ("sparse.nnz", "count"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("sparse.spmm_gbs", "GB/s"),
    ("par.busy_frac", "fraction"),
    ("par.inline_frac", "fraction"),
    // One training epoch, phase by phase.
    ("core.forward_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("autograd.adam_ms", "ms"),
    ("train.eval_ms", "ms"),
    ("train.unattributed_pct", "%"),
    // Set-up.
    ("datasets.generate_ms", "ms"),
    ("gnn.context_ms", "ms"),
    ("serve.freeze_ms", "ms"),
    ("serve.save_ms", "ms"),
    // Cold start.
    ("serve.load_ms", "ms"),
    ("serve.frozen_mb", "MiB"),
    ("serve.engine_build_ms", "ms"),
    ("serve.server_start_ms", "ms"),
    ("serve.first_answer_us", "us"),
    // One served read, stage by stage.
    ("serve.parse_us", "us"),
    ("serve.engine_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.hop_us", "us"),
    ("serve.read_p50_us", "us"),
    ("serve.read_p99_us", "us"),
    ("serve.generator_late_p99_us", "us"),
    // The server's queue, from Server::stats.
    ("serve.mean_batch", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    // Streaming mutations, from a direct Engine::apply_mutation replay.
    ("serve.streaming.apply_us", "us"),
    ("serve.streaming.dirty_rows", "count"),
    ("serve.streaming.full_frac", "fraction"),
    ("serve.streaming.us_per_dirty_row", "us"),
    ("serve.read_behind_write_p99_us", "us"),
    // Lazy partitioned serving.
    ("serve.lazy.plan_ms", "ms"),
    ("serve.lazy.materialize_p50_ms", "ms"),
    ("serve.lazy.materialize_max_ms", "ms"),
    ("serve.lazy.demand_ratio", "ratio"),
    ("serve.lazy.nnz_ratio", "ratio"),
    ("serve.resident_eval_ms", "ms"),
    // Traced minus untraced headline.
    ("trace.overhead_pct", "%"),
];

/// Seeds with a fixed role: changes are developed against the first and a
/// claimed gain is confirmed on the second.
pub const DEV_SEED: u64 = 1;
pub const CONFIRM_SEED: u64 = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `Some(role)` when this process is a child of another benchmark run.
    pub child: Option<String>,
    /// Working directory shared between a run and its children.
    pub dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut child, mut dir) = (None, None);
    let mut i = 0;
    while i < argv.len() {
        let Some(value) = argv.get(i + 1) else {
            eprintln!("{}: missing value", argv[i]);
            usage()
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--child" => child = Some(value.clone()),
            "--dir" => dir = Some(PathBuf::from(value)),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("unknown workload '{workload}'");
        usage();
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace: trace.unwrap_or_else(|| usage()),
        child,
        dir,
    }
}

fn main() {
    let args = parse_args();
    // Every kernel runs on as many pool threads as the machine has cores; the
    // header records the count.
    lasagne_par::set_threads(common::nproc());
    if let Some(role) = &args.child {
        lazy::run_child(&args, role);
        return;
    }
    let started = Instant::now();
    common::print_header(&args);
    let dir = common::WorkDir::create(&args);
    let outcome = match args.workload.as_str() {
        "train-lasagne" => train::run(&args, &dir),
        "serve-read" => serving::run_read(&args, &dir),
        "serve-mutate" => serving::run_mutate(&args, &dir),
        "lazy-scan" => lazy::run(&args, &dir),
        _ => unreachable!("validated in parse_args"),
    };
    drop(dir);
    let outcome = outcome.unwrap_or_else(|e| fail(&e));
    outcome.print(&args, started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use lasagne_testkit::Json;

    /// The metric lists above are what the result line carries; they must
    /// be exactly the ones `BENCHMARK.json` declares, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| {
                            m.get(f)
                                .and_then(Json::as_str)
                                .expect("name and unit")
                                .to_string()
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&super::END_TO_END));
        assert_eq!(declared("per_layer"), ours(&super::PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks workloads"),
        };
        assert_eq!(workloads, super::WORKLOADS);
    }
}
