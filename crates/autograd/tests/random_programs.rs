//! Property test: gradient-check randomly-generated tape programs.
//!
//! Instead of checking each op in isolation (see `gradcheck.rs`), build
//! random DAGs of smooth ops and verify the whole composition against
//! central differences — this catches wrong gradient *routing* (missed
//! accumulation when a node fans out, wrong parent order) that per-op
//! tests cannot.
//!
//! Ported from `proptest` to the `lasagne-testkit` harness; the case count
//! (64) exceeds the original 48 and vector shrinking still minimizes the
//! failing op sequence.

use lasagne_autograd::{grad_check, NodeId, ParamStore, Tape};
use lasagne_tensor::TensorRng;
use lasagne_testkit::gens::{vec_of, OneOf};
use lasagne_testkit::{prop_assert, prop_check, Rng};

/// One step of program growth: combine existing nodes with a smooth op.
/// (Only C¹ ops — no ReLU/max — so the numeric derivative is clean.)
#[derive(Debug, Clone)]
enum Step {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Tanh(usize),
    Sigmoid(usize),
    Scale(usize),
    MatMulSquare(usize, usize),
    RowBias(usize),
    SumColsThenBroadcast(usize),
}

fn step_gen() -> OneOf<Step> {
    let pair = |rng: &mut Rng| (rng.index(100), rng.index(100));
    OneOf::new(vec![
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); Step::Add(a, b) }),
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); Step::Sub(a, b) }),
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); Step::Mul(a, b) }),
        Box::new(|rng: &mut Rng| Step::Tanh(rng.index(100))),
        Box::new(|rng: &mut Rng| Step::Sigmoid(rng.index(100))),
        Box::new(|rng: &mut Rng| Step::Scale(rng.index(100))),
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); Step::MatMulSquare(a, b) }),
        Box::new(|rng: &mut Rng| Step::RowBias(rng.index(100))),
        Box::new(|rng: &mut Rng| Step::SumColsThenBroadcast(rng.index(100))),
    ])
}

/// Execute a program over 3×3 nodes; every step's operand indices are
/// reduced modulo the current frontier, so any random sequence is valid.
fn run_program(
    tape: &mut Tape,
    store: &ParamStore,
    params: &[lasagne_autograd::ParamId],
    bias: lasagne_autograd::ParamId,
    steps: &[Step],
) -> NodeId {
    let mut nodes: Vec<NodeId> = params.iter().map(|&p| tape.param(p, store)).collect();
    for step in steps {
        let pick = |i: &usize, len: usize| i % len;
        let n = nodes.len();
        let out = match step {
            Step::Add(a, b) => {
                let (x, y) = (nodes[pick(a, n)], nodes[pick(b, n)]);
                tape.add(x, y)
            }
            Step::Sub(a, b) => {
                let (x, y) = (nodes[pick(a, n)], nodes[pick(b, n)]);
                tape.sub(x, y)
            }
            Step::Mul(a, b) => {
                let (x, y) = (nodes[pick(a, n)], nodes[pick(b, n)]);
                tape.mul(x, y)
            }
            Step::Tanh(a) => {
                let x = nodes[pick(a, n)];
                tape.tanh(x)
            }
            Step::Sigmoid(a) => {
                let x = nodes[pick(a, n)];
                tape.sigmoid(x)
            }
            Step::Scale(a) => {
                let x = nodes[pick(a, n)];
                tape.scale(x, 0.7)
            }
            Step::MatMulSquare(a, b) => {
                let (x, y) = (nodes[pick(a, n)], nodes[pick(b, n)]);
                tape.matmul(x, y)
            }
            Step::RowBias(a) => {
                let x = nodes[pick(a, n)];
                let bn = tape.param(bias, store);
                tape.add_row_broadcast(x, bn)
            }
            Step::SumColsThenBroadcast(a) => {
                let x = nodes[pick(a, n)];
                let c = tape.sum_cols(x); // 3×1
                tape.mul_col_broadcast(x, c)
            }
        };
        nodes.push(out);
    }
    let last = *nodes.last().expect("non-empty");
    // tanh keeps the loss surface bounded so f32 central differences stay
    // accurate even for adversarial programs.
    let squashed = tape.tanh(last);
    let sq = tape.mul(squashed, squashed);
    tape.mean_all(sq)
}

prop_check! {
    cases = 64,
    fn random_dags_pass_gradient_check(
        steps in vec_of(step_gen(), 1..10),
        seed in 0u64..10_000,
    ) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let params: Vec<_> = (0..2)
            .map(|i| store.add(format!("p{i}"), rng.uniform_tensor(3, 3, -0.8, 0.8)))
            .collect();
        let bias = store.add("bias", rng.uniform_tensor(1, 3, -0.5, 0.5));
        let report = grad_check(&mut store, 4e-3, |tape, s| {
            run_program(tape, s, &params, bias, &steps)
        });
        prop_assert!(
            report.passes(3e-2),
            "program {steps:?} failed: {report:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Partitioned evaluation ≡ resident evaluation over random graph programs.
//
// Each case builds a random graph-bearing program (SpMM over a random CSR,
// MatMul against `Param` weights, relu, add, concat_cols, max_stack) on a
// tape, exports it, and checks that the tape's forward value, a one-shot
// `RowPlan::eval_rows` over every row, and `evaluate_program_partitioned`
// over two random covers agree `to_bits`. The input features zero exactly
// the rows of one part, so the zero density a part's rows show differs
// from the whole operand's (and relu makes more such zeros downstream):
// any kernel whose bits depended on operand density would fail here.
// `scripts/verify.sh` runs this suite at LASAGNE_THREADS=1 and 4.

use lasagne_autograd::{evaluate_program_partitioned, ParamId, Program, RowPlan};
use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;
use lasagne_testkit::prop::Config;
use std::rc::Rc;

/// One layer of a random graph program over `n × h` node features.
#[derive(Debug, Clone)]
enum GraphStep {
    Propagate(usize),
    Project(usize),
    Relu(usize),
    Add(usize, usize),
    ConcatProject(usize, usize),
    MaxStack(usize, usize),
    /// `x − mean_rows(x)`: reads its operand whole (not row-local).
    Center(usize),
}

type StepGen = Box<dyn Fn(&mut Rng) -> GraphStep>;

/// Row-local graph steps, plus [`GraphStep::Center`] when `with_center`.
fn graph_step_gen(with_center: bool) -> OneOf<GraphStep> {
    let pair = |rng: &mut Rng| (rng.index(100), rng.index(100));
    let mut steps: Vec<StepGen> = vec![
        Box::new(|rng: &mut Rng| GraphStep::Propagate(rng.index(100))),
        Box::new(|rng: &mut Rng| GraphStep::Project(rng.index(100))),
        Box::new(|rng: &mut Rng| GraphStep::Relu(rng.index(100))),
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); GraphStep::Add(a, b) }),
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); GraphStep::ConcatProject(a, b) }),
        Box::new(move |rng: &mut Rng| { let (a, b) = pair(rng); GraphStep::MaxStack(a, b) }),
    ];
    if with_center {
        steps.push(Box::new(|rng: &mut Rng| GraphStep::Center(rng.index(100))));
    }
    OneOf::new(steps)
}

/// Record `steps` on a tape over `n × h` features `x` and the sparse
/// operator `adj`, then export it. Returns the program, its weight table
/// and the bits of the tape's forward value.
fn record_graph_program(
    steps: &[GraphStep],
    x: Tensor,
    adj: &Rc<Csr>,
    trng: &mut TensorRng,
) -> (Program, Vec<(String, Tensor)>, Vec<u32>) {
    let (n, h) = x.shape();
    let mut store = ParamStore::new();
    let mut weight_ids: Vec<ParamId> = Vec::new();
    let mut tape = Tape::new();
    let mut nodes = vec![tape.constant(x)];
    for (s, step) in steps.iter().enumerate() {
        let len = nodes.len();
        let pick = |i: &usize| nodes[i % len];
        let mut project = |tape: &mut Tape, x: NodeId, rows: usize| {
            let w = store.add(format!("w{s}"), trng.uniform_tensor(rows, h, -0.8, 0.8));
            weight_ids.push(w);
            let wn = tape.param(w, &store);
            tape.matmul(x, wn)
        };
        let out = match step {
            GraphStep::Propagate(a) => tape.spmm(Rc::clone(adj), pick(a)),
            GraphStep::Project(a) => project(&mut tape, pick(a), h),
            GraphStep::Relu(a) => tape.relu(pick(a)),
            GraphStep::Add(a, b) => tape.add(pick(a), pick(b)),
            GraphStep::ConcatProject(a, b) => {
                let cat = tape.concat_cols(&[pick(a), pick(b)]);
                project(&mut tape, cat, 2 * h)
            }
            GraphStep::MaxStack(a, b) => tape.max_stack(&[pick(a), pick(b)]),
            GraphStep::Center(a) => {
                let sum = tape.sum_rows(pick(a));
                let neg_mean = tape.scale(sum, -1.0 / n as f32);
                tape.add_row_broadcast(pick(a), neg_mean)
            }
        };
        nodes.push(out);
    }
    let out = *nodes.last().expect("non-empty");
    let want = bits(tape.value(out));
    let program = tape.export_program(&store, out).expect("export");
    let weights: Vec<(String, Tensor)> = weight_ids
        .iter()
        .map(|&id| (store.name(id).to_string(), store.value(id).clone()))
        .collect();
    (program, weights, want)
}

/// A random cover of `0..n` by `k` non-empty parts (rows in each part
/// ascending, parts in random order of membership).
fn random_cover(rng: &mut Rng, n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (pos, &r) in order.iter().enumerate() {
        // The first k shuffled rows seed one part each; the rest land anywhere.
        let p = if pos < k { pos } else { rng.index(k) };
        parts[p].push(r);
    }
    for part in &mut parts {
        part.sort_unstable();
    }
    parts
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

prop_check! {
    cases = 64,
    fn partitioned_eval_matches_tape_forward_bitwise(
        steps in vec_of(graph_step_gen(false), 1..10),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut trng = TensorRng::seed_from_u64(seed);
        let n = rng.range_usize(8, 120);
        let h = rng.range_usize(2, 7);
        let k = rng.range_usize(2, 6).min(n);

        // Random weighted graph with self loops (every row has a nonzero).
        let mut coo: Vec<(u32, u32, f32)> = Vec::new();
        for i in 0..n {
            coo.push((i as u32, i as u32, rng.range_f32(0.1, 1.0)));
            for _ in 0..rng.range_usize(0, 4) {
                coo.push((i as u32, rng.index(n) as u32, rng.range_f32(-1.0, 1.0)));
            }
        }
        let adj = Rc::new(Csr::from_coo(n, n, &coo));

        // Features whose zero rows are exactly the rows of the first part.
        let covers = [random_cover(&mut rng, n, k), random_cover(&mut rng, n, k)];
        let mut x = trng.uniform_tensor(n, h, -1.0, 1.0);
        for &r in &covers[0][0] {
            x.as_mut_slice()[r * h..(r + 1) * h].fill(0.0);
        }

        let (program, weights, want) = record_graph_program(&steps, x, &adj, &mut trng);

        let plan = RowPlan::new(&program, &weights).expect("graph programs are row-local");
        let all: Vec<usize> = (0..n).collect();
        let resident = plan.eval_rows(&all).expect("eval all rows");
        prop_assert!(bits(&resident) == want, "eval_rows(all) differs from the tape: {steps:?}");
        for (c, parts) in covers.iter().enumerate() {
            let swept = evaluate_program_partitioned(&program, &weights, parts).expect("sweep");
            prop_assert!(
                bits(&swept) == want,
                "cover {c} ({k} parts of {n} rows) differs from the tape: {steps:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Incremental evaluation ≡ cold evaluation over random graph programs.
//
// Each case records a random graph program (the steps above plus `Center`,
// which reads its operand whole, between a first and two last propagations)
// over the symmetric normalization of a
// random symmetric adjacency, evaluates it with every row cached, toggles
// one random undirected edge, and hands the dirty-rows driver the rows in
// which the normalized operator changed. The patched cache must be `to_bits`
// a cold all-rows evaluation against the new operator. A case where the
// driver asks for the full path (a dirty `Center` operand) passes if the
// cache is left untouched; at least half the cases must take the
// incremental path. Features zero a random subset of rows, so a dirty
// row subset's density differs from the whole operand's.

/// `D^{-1/2} A D^{-1/2}` of the symmetric adjacency `edges` (self loops
/// included), positive weights so every degree is positive.
fn normalized(n: usize, edges: &std::collections::BTreeMap<(u32, u32), f32>) -> Rc<Csr> {
    let coo: Vec<(u32, u32, f32)> = edges.iter().map(|(&(i, j), &w)| (i, j, w)).collect();
    Rc::new(Csr::from_coo(n, n, &coo).sym_normalize())
}

/// A whole-graph plan of `program` with every sparse slot bound to `m`.
fn resident<'a>(program: &'a Program, m: &'a Csr, weights: &'a [(String, Tensor)]) -> RowPlan<'a> {
    let sparse = program.sparse.iter().map(|_| m).collect();
    RowPlan::resident(&program.ops, sparse, weights, program.output).expect("plan")
}

fn cache_bits(cache: &[Option<Tensor>]) -> Vec<Option<Vec<u32>>> {
    cache.iter().map(|v| v.as_ref().map(bits)).collect()
}

#[test]
fn dirty_rows_patch_matches_cold_evaluation_bitwise() {
    let (cases, incremental) = (std::cell::Cell::new(0usize), std::cell::Cell::new(0usize));
    let gen = (vec_of(graph_step_gen(true), 1..10), 0u64..1_000_000);
    let (name, cfg) = ("dirty_rows_patch_matches_cold_evaluation_bitwise", Config::cases(64));
    lasagne_testkit::prop::check(name, &cfg, &gen, |value| {
        let (steps, seed) = value.clone();
        let mut rng = Rng::seed_from_u64(seed);
        let mut trng = TensorRng::seed_from_u64(seed);
        let n = rng.range_usize(8, 120);
        let h = rng.range_usize(2, 7);

        let mut edges = std::collections::BTreeMap::new();
        for i in 0..n as u32 {
            edges.insert((i, i), rng.range_f32(0.1, 1.0));
            for _ in 0..rng.range_usize(0, 3) {
                let j = rng.index(n) as u32;
                let w = rng.range_f32(0.1, 1.0);
                edges.insert((i, j), w);
                edges.insert((j, i), w);
            }
        }
        let before = normalized(n, &edges);
        let mut x = trng.uniform_tensor(n, h, -1.0, 1.0);
        for r in 0..n {
            if rng.index(3) == 0 {
                x.as_mut_slice()[r * h..(r + 1) * h].fill(0.0);
            }
        }
        // Propagate the features first and the result twice last, so every
        // program carries a dirty set across at least two SpMM hops.
        let k = steps.len() + 1;
        let steps: Vec<GraphStep> = std::iter::once(GraphStep::Propagate(0))
            .chain(steps)
            .chain([GraphStep::Propagate(k), GraphStep::Propagate(k + 1)])
            .collect();
        let (program, weights, _) = record_graph_program(&steps, x, &before, &mut trng);
        let mut cache = resident(&program, &before, &weights).eval_all();

        // Toggle one undirected edge between distinct nodes.
        let u = rng.index(n) as u32;
        let v = (u + 1 + rng.index(n - 1) as u32) % n as u32;
        if edges.remove(&(u, v)).is_some() {
            edges.remove(&(v, u));
        } else {
            let w = rng.range_f32(0.1, 1.0);
            edges.insert((u, v), w);
            edges.insert((v, u), w);
        }
        let after = normalized(n, &edges);
        let changed: Vec<usize> = (0..n)
            .filter(|&r| {
                before.row_indices(r) != after.row_indices(r)
                    || bits_of(before.row_values(r)) != bits_of(after.row_values(r))
            })
            .collect();
        let seeds = vec![changed; program.sparse.len()];

        let cached = cache_bits(&cache);
        let cold = cache_bits(&resident(&program, &after, &weights).eval_all());
        cases.set(cases.get() + 1);
        match resident(&program, &after, &weights).eval_dirty(&mut cache, &seeds, |_, _| false) {
            Some(_) => {
                incremental.set(incremental.get() + 1);
                prop_assert!(cache_bits(&cache) == cold, "patched cache differs: {steps:?}");
            }
            None => prop_assert!(cache_bits(&cache) == cached, "full path touched the cache"),
        }
        Ok(())
    });
    // A single replayed case (LASAGNE_PROP_SEED) proves nothing about the
    // ratio; a full run must mostly take the incremental path.
    if cases.get() > 1 {
        assert!(
            incremental.get() * 2 >= cases.get(),
            "only {} of {} cases took the incremental path",
            incremental.get(),
            cases.get()
        );
    }
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}
