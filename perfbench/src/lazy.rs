//! `lazy-scan`: a `LazyEngine` loaded from disk over a generated dc-SBM
//! graph of 10⁵ nodes, every node queried once in seeded order.
//!
//! Three processes, so peak RSS belongs to the phase it is reported for:
//! the run itself generates the graph, trains nothing, freezes and saves
//! (set-up); a `measure` child loads the artifact and scans it lazily; a
//! `resident` child evaluates the same artifact with the resident `Engine`
//! as the comparison point. The two children's logits are compared bit for
//! bit through dump files in the shared working directory.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_datasets::DatasetId;
use lasagne_gnn::{GraphContext, Hyper};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_graph::{Graph, Partitioning};
use lasagne_obs::TraceSink;
use lasagne_serve::{freeze, Engine, FrozenModel, LazyEngine};
use lasagne_tensor::TensorRng;
use lasagne_testkit::rng::Rng;
use lasagne_testkit::Json;

use crate::common::{fail, ms_since, peak_rss_mb, timed, Outcome, Stopwatch, WorkDir};
use crate::stats::{fastest, median, summarize, windowed_tail};
use crate::train::{file_mb, record_kernels, SETUP_REPS};
use crate::Args;

/// Graph order.
const NODES: usize = 100_000;
/// Mean degree of the generated graph.
const AVG_DEGREE: f64 = 6.0;
/// Input feature width.
const IN_DIM: usize = 16;
/// Hidden width of the served model.
const HIDDEN: usize = 32;
/// Classes (= planted communities).
const CLASSES: usize = 8;
/// Served model depth.
const DEPTH: usize = 2;
/// Partitions the lazy engine splits the graph into.
const PARTS: usize = 8;
/// Queries per window of the windowed tail.
const QUERY_WINDOW: usize = 1_000;

/// Generate the seeded graph and freeze a Lasagne(Weighted) model on it.
fn build_artifact(seed: u64, path: &Path) -> Result<(f64, f64, f64), String> {
    let (ctx, generate_ms) = timed(|| {
        let mut rng = TensorRng::seed_from_u64(seed);
        let cfg = DcSbmConfig {
            nodes: NODES,
            classes: CLASSES,
            avg_degree: AVG_DEGREE,
            homophily: 0.8,
            power_exponent: 2.5,
            max_weight_ratio: 10.0,
        };
        let (graph, labels) = dc_sbm(&cfg, &mut rng);
        let features = rng.normal_tensor(NODES, IN_DIM, 0.0, 1.0);
        GraphContext::new(&graph, features, labels, CLASSES)
    });
    let hyper = Hyper {
        hidden: HIDDEN,
        ..Hyper::for_dataset(DatasetId::Cora).with_depth(DEPTH)
    };
    let cfg = LasagneConfig::from_hyper(&hyper, AggregatorKind::Weighted);
    let model = Lasagne::new(IN_DIM, CLASSES, Some(NODES), &cfg, seed);
    let (frozen, freeze_ms) = timed(|| freeze(&model, &ctx, "dc-sbm-100k"));
    let frozen = frozen.map_err(|e| format!("freeze: {e}"))?;
    let (saved, save_ms) = timed(|| frozen.save(path));
    saved.map_err(|e| format!("save: {e}"))?;
    Ok((generate_ms, freeze_ms, save_ms))
}

/// Run this binary as a child in `role` and parse the JSON object it
/// prints last.
fn child(args: &Args, dir: &WorkDir, role: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--child", role, "--dir"])
        .arg(&dir.path)
        .output()
        .map_err(|e| format!("spawn {role} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{role} child failed ({}): {}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("{role} child printed no result: {e}"))
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result lacks '{key}'"))
}

/// The L of an L-hop demand: the most SpMMs on any path to the output.
fn hops(frozen: &FrozenModel) -> usize {
    let ops = &frozen.program.ops;
    let mut depth = vec![0usize; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let below = op.inputs().iter().map(|&j| depth[j]).max().unwrap_or(0);
        depth[i] = below + usize::from(matches!(op, lasagne_autograd::ProgramOp::SpMM { .. }));
    }
    depth[frozen.program.output]
}

/// Rows of each partition's L-hop demand, summed over partitions, over N.
/// Computed from the graph and the partition cores (the same seeded BFS
/// partitioning `LazyEngine` uses), not measured.
fn demand_ratio(frozen: &FrozenModel) -> Result<f64, String> {
    let adj = &frozen
        .graph
        .as_ref()
        .ok_or("artifact has no graph binding")?
        .adjacency;
    let n = adj.rows();
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| {
            adj.row_indices(u)
                .iter()
                .filter(move |&&v| v as usize > u)
                .map(move |&v| (u as u32, v))
        })
        .collect();
    let graph = Graph::from_edges(n, &edges);
    let parts = Partitioning::new(&graph, PARTS, &mut TensorRng::seed_from_u64(0))
        .map_err(|e| e.to_string())?;
    let l = hops(frozen);
    let mut mark = vec![usize::MAX; n];
    let mut total = 0usize;
    for (p, block) in parts.parts().iter().enumerate() {
        let mut frontier: Vec<usize> = block.core.clone();
        for &v in &frontier {
            mark[v] = p;
        }
        let mut count = frontier.len();
        for _ in 0..l {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in adj.row_indices(u) {
                    if mark[v as usize] != p {
                        mark[v as usize] = p;
                        next.push(v as usize);
                    }
                }
            }
            count += next.len();
            frontier = next;
        }
        total += count;
    }
    Ok(total as f64 / n as f64)
}

pub fn run(args: &Args, dir: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = dir.file("model.frozen.json");
    let (mut setups, mut gens, mut freezes, mut saves) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SETUP_REPS {
        let t = Stopwatch::start();
        let (g, f, s) = build_artifact(args.seed, &path)?;
        setups.push(t.ms() / 1e3);
        gens.push(g);
        freezes.push(f);
        saves.push(s);
    }
    out.set("setup_s", median(&setups));
    out.set("datasets.generate_ms", median(&gens));
    out.set("serve.freeze_ms", median(&freezes));
    out.set("serve.save_ms", median(&saves));
    out.set("serve.frozen_mb", file_mb(&path)?);

    let measured = child(args, dir, "measure", args.trace)?;
    let resident = child(args, dir, "resident", args.trace)?;
    let lazy_rows = std::fs::read(dir.file("lazy.rows")).map_err(|e| e.to_string())?;
    let resident_rows = std::fs::read(dir.file("resident.rows")).map_err(|e| e.to_string())?;
    out.gate(
        "lazy-scan rows == resident evaluation of the same artifact (bitwise, every node)",
        lazy_rows == resident_rows,
    );
    out.attempted += num(&measured, "queries")? as u64;
    out.failed += num(&measured, "failed")? as u64;
    let nodes_per_s = num(&measured, "nodes_per_s")?;
    out.line(format!(
        "scan_nodes_per_s = {nodes_per_s} nodes/s (median of {} cold scans)",
        num(&measured, "scans")?
    ));
    out.line(format!(
        "resident comparison: Engine::new {:.1} ms, peak RSS {:.1} MiB (lazy: {:.1} MiB)",
        num(&resident, "resident_eval_ms")?,
        num(&resident, "peak_rss_mb")?,
        num(&measured, "peak_rss_mb")?
    ));
    out.line(format!(
        "query_p50_us = {} us, query_p{}_us = {} us (median over windows of {QUERY_WINDOW} queries)",
        num(&measured, "op_p50_us")?,
        num(&measured, "query_tail_q")? * 100.0,
        num(&measured, "query_tail_us")?
    ));
    for key in ["cold_start_ms", "op_p50_us", "peak_rss_mb"] {
        let name = crate::END_TO_END
            .iter()
            .find(|(n, _)| *n == key)
            .expect("declared")
            .0;
        out.set(name, num(&measured, key)?);
    }
    out.set("ops_per_s", nodes_per_s);
    if args.trace {
        let plain = child(args, dir, "measure", false)?;
        let plain_rate = num(&plain, "nodes_per_s")?;
        out.set(
            "trace.overhead_pct",
            100.0 * (plain_rate - nodes_per_s) / nodes_per_s,
        );
        let frozen = FrozenModel::load(&path).map_err(|e| e.to_string())?;
        out.set("serve.lazy.demand_ratio", demand_ratio(&frozen)?);
        let scan_nnz = measured
            .get("layers")
            .and_then(|l| l.get("sparse.nnz"))
            .and_then(Json::as_f64)
            .ok_or("traced scan reported no sparse.nnz")?;
        out.set(
            "serve.lazy.nnz_ratio",
            scan_nnz / num(&resident, "spmm_nnz")?,
        );
        out.set(
            "serve.resident_eval_ms",
            num(&resident, "resident_eval_ms")?,
        );
        if let Some(Json::Obj(fields)) = measured.get("layers") {
            for (key, value) in fields {
                let name = crate::PER_LAYER
                    .iter()
                    .find(|(n, _)| n == key)
                    .ok_or(format!("unknown layer metric {key}"))?
                    .0;
                out.set(name, value.as_f64().unwrap_or(f64::NAN));
            }
        }
    }
    Ok(out)
}

/// Entry point of the child processes.
pub fn run_child(args: &Args, role: &str) {
    let dir = args
        .dir
        .clone()
        .unwrap_or_else(|| fail("a child needs --dir"));
    let result = match role {
        "measure" => measure(args, &dir),
        "resident" => resident(args, &dir),
        other => Err(format!("unknown child role '{other}'")),
    };
    match result {
        Ok(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            println!("{{{}}}", body.join(", "));
        }
        Err(e) => fail(&e),
    }
}

/// Logits rows in node order, as raw little-endian f32 bits.
fn dump(
    path: &Path,
    n: usize,
    row: impl Fn(usize) -> Result<Vec<f32>, String>,
) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(n * CLASSES * 4);
    for v in 0..n {
        for x in row(v)? {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    std::fs::write(path, bytes).map_err(|e| e.to_string())
}

/// The measured process: cold start and lazy scans, repeated from a fresh
/// engine until the time is up.
fn measure(args: &Args, dir: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = dir.join("model.frozen.json");
    let sink = args.trace.then(|| TraceSink::start(false));
    let traced_from = Instant::now();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let (mut colds, mut plans, mut rates, mut query_us) = (vec![], vec![], vec![], vec![]);
    let mut materialize_ms = Vec::new();
    let mut failed = 0usize;
    let mut engine = None;
    while colds.len() < 2 || Instant::now() < deadline {
        // The previous scan's engine goes first: one engine at a time.
        drop(engine.take());
        let t0 = Stopwatch::start();
        let frozen = FrozenModel::load(&path).map_err(|e| format!("load: {e}"))?;
        let (lazy, plan_ms) = timed(|| LazyEngine::new(frozen, PARTS));
        let lazy = lazy.map_err(|e| format!("lazy engine: {e}"))?;
        let n = lazy.num_nodes();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seed_from_u64(args.seed ^ 0x5ca9);
        for i in (1..n).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let scan = Stopwatch::start();
        let mut cached = 0;
        for (i, &v) in order.iter().enumerate() {
            let t = Instant::now();
            let answer = lazy.predict(v);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if i == 0 {
                colds.push(t0.ms());
            }
            // A query that grew the cache paid for its partition's first
            // touch.
            if lazy.cached_parts() > cached {
                cached += 1;
                materialize_ms.push(us / 1e3);
            }
            failed += usize::from(answer.is_err());
            query_us.push(us);
        }
        rates.push(n as f64 / (scan.ms() / 1e3));
        plans.push(plan_ms);
        engine = Some(lazy);
    }
    let report = sink.map(TraceSink::finish);
    let lazy = engine.expect("at least two scans");
    dump(&dir.join("lazy.rows"), lazy.num_nodes(), |v| {
        lazy.logits_row(v)
            .map(<[f32]>::to_vec)
            .map_err(|e| e.to_string())
    })?;
    let s = summarize(&query_us)?;
    let (tail_q, tail) = windowed_tail(&query_us, QUERY_WINDOW)?;
    let mut fields = BTreeMap::new();
    let mut put = |k: &str, v: f64| fields.insert(k.to_string(), format!("{v:?}"));
    put("queries", query_us.len() as f64);
    put("failed", failed as f64);
    put("scans", rates.len() as f64);
    put("nodes_per_s", median(&rates));
    put("cold_start_ms", fastest(&colds));
    put("op_p50_us", s.p50);
    put("query_tail_q", tail_q);
    put("query_tail_us", tail);
    put("peak_rss_mb", peak_rss_mb());
    if let Some(report) = report {
        let mut layers = Outcome::default();
        record_kernels(
            &report,
            ms_since(traced_from),
            rates.len() as f64,
            &mut layers,
        );
        layers.set("serve.lazy.plan_ms", median(&plans));
        layers.set("serve.lazy.materialize_p50_ms", median(&materialize_ms));
        layers.set(
            "serve.lazy.materialize_max_ms",
            materialize_ms.iter().copied().fold(0.0, f64::max),
        );
        let body: Vec<String> = layers
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:?}"))
            .collect();
        fields.insert("layers".into(), format!("{{{}}}", body.join(", ")));
    }
    Ok(fields)
}

/// The comparison process: resident evaluation of the same artifact. When
/// traced, it also reports the SpMM nonzeros that evaluation processed.
fn resident(args: &Args, dir: &Path) -> Result<BTreeMap<String, String>, String> {
    let frozen =
        FrozenModel::load(&dir.join("model.frozen.json")).map_err(|e| format!("load: {e}"))?;
    let sink = args.trace.then(|| TraceSink::start(false));
    let (engine, eval_ms) = timed(|| Engine::new(frozen));
    let report = sink.map(TraceSink::finish);
    let engine = engine.map_err(|e| format!("engine: {e}"))?;
    dump(&dir.join("resident.rows"), engine.num_nodes(), |v| {
        engine
            .logits_row(v)
            .map(<[f32]>::to_vec)
            .map_err(|e| e.to_string())
    })?;
    let mut fields = BTreeMap::new();
    fields.insert("resident_eval_ms".to_string(), format!("{eval_ms:?}"));
    fields.insert("peak_rss_mb".to_string(), format!("{:?}", peak_rss_mb()));
    if let Some(report) = report {
        let nnz = report.counter("spmm.nnz").unwrap_or(0) as f64;
        fields.insert("spmm_nnz".to_string(), format!("{nnz:?}"));
    }
    Ok(fields)
}
