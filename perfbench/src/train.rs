//! `train-lasagne`: full-batch Lasagne(Weighted) at depth 10 on cora for a
//! fixed number of epochs per fit, then the export chain
//! (freeze → save → load → engine → first answer).

use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use lasagne_autograd::{Adam, Optimizer, Tape};
use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_datasets::{Dataset, DatasetId};
use lasagne_gnn::sampling::FullBatch;
use lasagne_gnn::{GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_obs::{TraceReport, TraceSink};
use lasagne_serve::{freeze, Engine, FrozenModel};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_train::{evaluate, fit_with_callback, TrainConfig};

use crate::common::{peak_rss_mb, same_bits, timed, Outcome, Stopwatch, WorkDir};
use crate::stats::{fastest, fixed_tail, median, quartiles};
use crate::Args;

/// Lasagne depth: Fig 7's deepest point.
pub const DEPTH: usize = 10;
/// Epochs per fit. Patience is set to the same value, so every fit does
/// exactly this much work whatever the validation curve does.
const EPOCHS: usize = 20;
/// Percentile of the epoch times printed as the epoch tail. It is fixed,
/// not chosen from the number of epochs a run fitted in, so a faster commit
/// is read at the same percentile; the two fits every run makes leave ten
/// epochs beyond it.
const EPOCH_TAIL: f64 = 0.75;
/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 3;
/// Cold starts, the fastest of which is `cold_start_ms`.
pub const COLD_REPS: usize = 5;

/// Cora, its context and a fresh model: everything a fit needs.
pub struct Prepared {
    pub ds: Dataset,
    pub ctx: GraphContext,
    pub generate_ms: f64,
    pub context_ms: f64,
}

/// Generate the seeded cora dataset and its graph context.
pub fn prepare(seed: u64) -> Prepared {
    let (ds, generate_ms) = timed(|| Dataset::generate(DatasetId::Cora, seed));
    let (ctx, context_ms) = timed(|| GraphContext::from_dataset(&ds));
    Prepared {
        ds,
        ctx,
        generate_ms,
        context_ms,
    }
}

/// A Lasagne(Weighted) model of the given depth on the prepared dataset.
pub fn lasagne(p: &Prepared, depth: usize, seed: u64) -> (Lasagne, Hyper) {
    let hyper = Hyper::for_dataset(DatasetId::Cora).with_depth(depth);
    let cfg = LasagneConfig::from_hyper(&hyper, AggregatorKind::Weighted);
    let model = Lasagne::new(
        p.ds.num_features(),
        p.ds.num_classes,
        Some(p.ds.num_nodes()),
        &cfg,
        seed,
    );
    (model, hyper)
}

fn train_config(hyper: &Hyper, epochs: usize) -> TrainConfig {
    TrainConfig {
        max_epochs: epochs,
        patience: epochs,
        ..TrainConfig::from_hyper(hyper)
    }
}

/// One fit from a fresh model: returns the trained model, its test
/// accuracy, the fit's time and each epoch's time (validation included),
/// in ms net of stolen time ([`Stopwatch`]).
pub fn fit_once(
    p: &Prepared,
    depth: usize,
    epochs: usize,
    seed: u64,
) -> (Lasagne, f64, f64, Vec<f64>) {
    let (mut model, hyper) = lasagne(p, depth, seed);
    let cfg = train_config(&hyper, epochs);
    let mut strategy = FullBatch::new(p.ctx.clone(), p.ds.split.train.clone());
    let mut rng = TensorRng::seed_from_u64(seed ^ 0xc11);
    let mut epoch_ms = Vec::with_capacity(epochs);
    let start = Stopwatch::start();
    let mut last = start;
    let mut on_epoch = |_: usize, _: &dyn NodeClassifier, _: &GraphContext| {
        epoch_ms.push(last.ms());
        last = Stopwatch::start();
    };
    let result = fit_with_callback(
        &mut model,
        &mut strategy,
        &p.ctx,
        &p.ds.split,
        &cfg,
        &mut rng,
        Some(&mut on_epoch),
    );
    let fit_ms = start.ms();
    (model, result.test_acc, fit_ms, epoch_ms)
}

/// Freeze `model` and save it to `path`: `(freeze ms, save ms)`.
pub fn export(
    model: &dyn NodeClassifier,
    ctx: &GraphContext,
    path: &Path,
) -> Result<(f64, f64), String> {
    let (frozen, freeze_ms) = timed(|| freeze(model, ctx, "cora"));
    let frozen = frozen.map_err(|e| format!("freeze: {e}"))?;
    let (saved, save_ms) = timed(|| frozen.save(path));
    saved.map_err(|e| format!("save: {e}"))?;
    Ok((freeze_ms, save_ms))
}

/// Gate: the engine built from the saved artifact answers every node with
/// exactly the training side's eval-forward logits.
pub fn gate_frozen(
    model: &dyn NodeClassifier,
    ctx: &GraphContext,
    engine: &Engine,
    out: &mut Outcome,
) {
    let mut rng = TensorRng::seed_from_u64(0);
    let reference = evaluate(model, ctx, &mut rng);
    let n = ctx.num_nodes();
    let equal = engine.num_nodes() == n
        && (0..n).all(|v| {
            engine
                .logits_row(v)
                .is_ok_and(|row| same_bits(row, reference.row(v)))
        });
    out.gate(
        "frozen logits == training eval forward (bitwise, every node)",
        equal,
    );
}

/// Size of a file in MiB.
pub fn file_mb(path: &Path) -> Result<f64, String> {
    Ok(std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len() as f64
        / (1 << 20) as f64)
}

/// The export chain after training: freeze, save, then [`COLD_REPS`] cold
/// starts (load → engine → first answer). Returns the fastest cold start.
fn export_and_cold_start(
    model: &dyn NodeClassifier,
    ctx: &GraphContext,
    dir: &WorkDir,
    out: &mut Outcome,
) -> Result<f64, String> {
    let path = dir.file("model.frozen.json");
    let (freeze_ms, save_ms) = export(model, ctx, &path)?;
    let (mut loads, mut builds, mut firsts, mut colds) = (vec![], vec![], vec![], vec![]);
    let mut engine = None;
    for _ in 0..COLD_REPS {
        let start = Stopwatch::start();
        let (loaded, load_ms) = timed(|| FrozenModel::load(&path));
        let loaded = loaded.map_err(|e| format!("load: {e}"))?;
        let (built, build_ms) = timed(|| Engine::new(loaded));
        let built = built.map_err(|e| format!("engine: {e}"))?;
        let t = Instant::now();
        let first = built.predict(0).map_err(|e| format!("first answer: {e}"))?;
        firsts.push(t.elapsed().as_secs_f64() * 1e6);
        colds.push(start.ms());
        std::hint::black_box(first);
        loads.push(load_ms);
        builds.push(build_ms);
        engine = Some(built);
    }
    gate_frozen(model, ctx, &engine.expect("COLD_REPS >= 1"), out);
    out.set("serve.freeze_ms", freeze_ms);
    out.set("serve.save_ms", save_ms);
    out.set("serve.frozen_mb", file_mb(&path)?);
    out.set("serve.load_ms", median(&loads));
    out.set("serve.engine_build_ms", median(&builds));
    out.set("serve.first_answer_us", median(&firsts));
    Ok(fastest(&colds))
}

pub fn run(args: &Args, dir: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut gens, mut ctxs) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Stopwatch::start();
        let p = prepare(args.seed);
        std::hint::black_box(lasagne(&p, DEPTH, args.seed));
        setups.push(start.ms() / 1e3);
        gens.push(p.generate_ms);
        ctxs.push(p.context_ms);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUP_REPS >= 1");
    out.set("setup_s", median(&setups));
    out.set("datasets.generate_ms", median(&gens));
    out.set("gnn.context_ms", median(&ctxs));

    if args.trace {
        return traced(args, dir, &p, out);
    }

    // Whole fits until the time is up, at least two so the determinism
    // gate has something to compare.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut fit_epoch_ms = Vec::new();
    let mut epochs = Vec::new();
    let mut accs: Vec<f64> = Vec::new();
    let mut last_model = None;
    while accs.len() < 2 || Instant::now() < deadline {
        let (model, acc, fit_ms, epoch_ms) = fit_once(&p, DEPTH, EPOCHS, args.seed);
        out.attempted += EPOCHS as u64;
        if epoch_ms.len() != EPOCHS {
            out.failed += EPOCHS as u64;
        }
        fit_epoch_ms.push(fit_ms / EPOCHS as f64);
        epochs.extend(epoch_ms);
        accs.push(acc);
        last_model = Some(model);
    }
    let model = last_model.expect("at least two fits");
    let same_acc = accs.iter().all(|a| a.to_bits() == accs[0].to_bits());
    out.gate("test_acc identical across fits of the same seed", same_acc);

    let cold_start_ms = export_and_cold_start(&model, &p.ctx, dir, &mut out)?;

    let train_epoch_ms = median(&fit_epoch_ms);
    let (epoch_p50, epoch_tail) = (median(&epochs), fixed_tail(&epochs, EPOCH_TAIL)?);
    let (q1, q3) = if fit_epoch_ms.len() >= 2 {
        quartiles(&fit_epoch_ms)
    } else {
        (train_epoch_ms, train_epoch_ms)
    };
    out.line(format!(
        "train_epoch_ms = {train_epoch_ms} ms (median of {} fits x {EPOCHS} epochs; IQR {q1:.2}..{q3:.2})",
        fit_epoch_ms.len()
    ));
    out.line(format!(
        "test_acc = {} fraction (bits {:016x})",
        accs[0],
        accs[0].to_bits()
    ));
    out.line(format!(
        "cold_start_ms = {cold_start_ms} ms (export chain, fastest of {COLD_REPS})"
    ));
    out.line(format!(
        "op = one epoch incl. validation: n={} p50={epoch_p50:.1} ms p{}={epoch_tail:.1} ms",
        epochs.len(),
        EPOCH_TAIL * 100.0,
    ));
    out.set("cold_start_ms", cold_start_ms);
    out.set("op_p50_us", epoch_p50 * 1e3);
    out.set("ops_per_s", 1e3 / train_epoch_ms);
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Sum of `(count, total ns)` over spans with any of `names`.
fn spans(report: &TraceReport, names: &[&str]) -> (u64, u64) {
    names
        .iter()
        .map(|n| report.total_named(n))
        .fold((0, 0), |(c, t), (c2, t2)| (c + c2, t + t2))
}

/// Time spent in SpMM: every `spmm` span (including the ones a transposed
/// product runs inside `spmm_t`) plus `spmm_t`'s own transposition time.
fn spmm_ns(report: &TraceReport) -> u64 {
    let inner = report.total_named("spmm").1;
    let transpose: u64 = report
        .spans
        .iter()
        .filter(|s| s.name == "spmm_t")
        .map(|s| s.self_ns)
        .sum();
    inner + transpose
}

const MATMULS: [&str; 3] = ["matmul", "matmul_tn", "matmul_nt"];

/// Kernel and pool metrics from a traced stretch of `wall_ms`, divided by
/// `per` (epochs on train-lasagne, 1 elsewhere). Call counts are totals;
/// train-lasagne overwrites them with exact per-forward counts.
pub fn record_kernels(report: &TraceReport, wall_ms: f64, per: f64, out: &mut Outcome) {
    out.set(
        "tensor.matmul_calls",
        spans(report, &MATMULS).0 as f64 / per,
    );
    out.set(
        "sparse.spmm_calls",
        report.total_named("spmm").0 as f64 / per,
    );
    out.set(
        "tensor.matmul_ms",
        spans(report, &MATMULS).1 as f64 / 1e6 / per,
    );
    out.set("sparse.spmm_ms", spmm_ns(report) as f64 / 1e6 / per);
    out.set(
        "tensor.gflop",
        report.counter("matmul.flops").unwrap_or(0) as f64 / 1e9 / per,
    );
    out.set(
        "sparse.nnz",
        report.counter("spmm.nnz").unwrap_or(0) as f64 / per,
    );
    let busy_ns = report.counter("par.busy_ns").unwrap_or(0) as f64;
    let threads = lasagne_par::current_threads() as f64;
    out.set("par.busy_frac", busy_ns / (wall_ms * 1e6 * threads));
    let inline = report.counter("par.jobs_inline").unwrap_or(0) as f64;
    let pooled = report.counter("par.jobs_pooled").unwrap_or(0) as f64;
    out.set("par.inline_frac", inline / (inline + pooled).max(1.0));
}

/// The traced run: per-phase timings of a hand-driven epoch loop, the obs
/// spans and counters of a traced fit, kernel rates at the workload's
/// shapes, and the overhead of tracing itself.
fn traced(args: &Args, dir: &WorkDir, p: &Prepared, mut out: Outcome) -> Result<Outcome, String> {
    // Untraced and traced fits of the same work: the overhead of tracing.
    let (_, _, plain_ms, _) = fit_once(p, DEPTH, EPOCHS, args.seed);
    let sink = TraceSink::start(false);
    let (model, _, traced_ms, _) = fit_once(p, DEPTH, EPOCHS, args.seed);
    let report = sink.finish();
    out.attempted += 2 * EPOCHS as u64;
    let epochs = EPOCHS as f64;
    let plain_epoch_ms = plain_ms / epochs;
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
    );
    record_kernels(&report, traced_ms, epochs, &mut out);

    // Calls per train-mode forward, counted exactly from the spans.
    let mut rng = TensorRng::seed_from_u64(args.seed);
    let sink = TraceSink::start(true);
    {
        let mut tape = Tape::new();
        std::hint::black_box(model.forward(&mut tape, &p.ctx, Mode::Train, &mut rng));
    }
    let one = sink.finish();
    out.set("tensor.matmul_calls", spans(&one, &MATMULS).0 as f64);
    out.set("sparse.spmm_calls", one.total_named("spmm").0 as f64);

    // A hand-driven epoch loop through the public API, each phase timed.
    let (mut model, hyper) = lasagne(p, DEPTH, args.seed);
    let mut opt = Adam::new(model.store(), hyper.lr, hyper.weight_decay);
    let labels = p.ctx.labels.clone();
    let idx = Rc::new(p.ds.split.train.clone());
    let (mut fwd, mut bwd, mut adam, mut eval) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..EPOCHS {
        let mut tape = Tape::new();
        let (logits, f_ms) = timed(|| model.forward(&mut tape, &p.ctx, Mode::Train, &mut rng));
        let lp = tape.log_softmax(logits.logits);
        let loss = tape.nll_masked(lp, labels.clone(), idx.clone());
        model.store_mut().zero_grads();
        let ((), b_ms) = timed(|| tape.backward(loss, model.store_mut()));
        let ((), a_ms) = timed(|| opt.step(model.store_mut()));
        let (logits, e_ms) = timed(|| evaluate(&model, &p.ctx, &mut rng));
        std::hint::black_box(logits);
        fwd.push(f_ms);
        bwd.push(b_ms);
        adam.push(a_ms);
        eval.push(e_ms);
    }
    let phases = [median(&fwd), median(&bwd), median(&adam), median(&eval)];
    out.set("core.forward_ms", phases[0]);
    out.set("autograd.backward_ms", phases[1]);
    out.set("autograd.adam_ms", phases[2]);
    out.set("train.eval_ms", phases[3]);
    out.set(
        "train.unattributed_pct",
        100.0 * (1.0 - phases.iter().sum::<f64>() / plain_epoch_ms),
    );
    out.line(format!(
        "untraced fit: {plain_epoch_ms:.2} ms/epoch; traced: {:.2} ms/epoch",
        traced_ms / epochs
    ));

    kernel_rates(p, &hyper, &mut out);
    export_and_cold_start(&model, &p.ctx, dir, &mut out)?;
    Ok(out)
}

/// Direct kernel calls at the workload's dominant shapes: an `N×h · h×h`
/// matmul (the pair and layer weights) and `Â · (N×h)`. Bytes moved are
/// computed from the shapes, not measured.
fn kernel_rates(p: &Prepared, hyper: &Hyper, out: &mut Outcome) {
    let (n, h) = (p.ctx.num_nodes(), hyper.hidden);
    let mut rng = TensorRng::seed_from_u64(7);
    let x = rng.normal_tensor(n, h, 0.0, 1.0);
    let w = rng.normal_tensor(h, h, 0.0, 0.1);
    let matmul_s = per_call_seconds(|| x.matmul(&w));
    out.set(
        "tensor.matmul_gflops",
        2.0 * (n * h * h) as f64 / matmul_s / 1e9,
    );
    let a = &p.ctx.a_hat;
    let spmm_s = per_call_seconds(|| a.spmm(&x));
    let nnz = a.nnz() as f64;
    let bytes = nnz * (4.0 + 4.0) // values (f32) and column indices (u32)
        + (a.rows() + 1) as f64 * 8.0 // row pointers (usize)
        + nnz * h as f64 * 4.0 // one gathered dense row per stored entry
        + (n * h) as f64 * 4.0; // the output
    out.set("sparse.spmm_gbs", bytes / spmm_s / 1e9);
}

/// Median seconds per call over enough calls to fill about 0.3 s.
fn per_call_seconds(mut f: impl FnMut() -> Tensor) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < 0.3 {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}
