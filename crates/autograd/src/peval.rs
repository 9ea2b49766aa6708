//! The frozen-program interpreter (DESIGN.md §10, §11, §14).
//!
//! A frozen [`Program`] is served resident, lazily by partition, and under
//! streaming mutations, and all three must agree bitwise, so they share one
//! interpreter:
//!
//! * **One row-rule table** (`reads`) says how each op reads each input:
//!   by the same rows, whole, through an SpMM halo, through a gather, or
//!   whole from a sparse operator. The backward demand pass of
//!   [`RowPlan::eval_rows`], the forward dirty pass of
//!   [`RowPlan::eval_dirty`] and [`RowPlan::row_local`] derive from it.
//! * **One `eval_op`** holds every kernel call. Each op value is stored with
//!   the rows it holds, all or a sorted subset; an operand holding exactly
//!   the rows a reader needs is borrowed (so resident evaluation copies
//!   nothing), otherwise gathered.
//! * **Three drivers**: [`RowPlan::eval_all`] (all rows, keeping every
//!   intermediate), [`RowPlan::eval_rows`] (demanded rows) and
//!   [`RowPlan::eval_dirty`] (dirty rows patched into an all-rows cache).
//!
//! Planning is shape inference that validates — operands are earlier
//! instructions, sparse references exist, operand shapes pass each
//! kernel's asserts — so a malformed program fails typed
//! ([`PevalError::Malformed`]) instead of panicking inside a kernel.
//!
//! Row subsets are bitwise the resident rows because kernels are row-local
//! (output row `r` reads row `r` of its dense inputs, a whole weight, or an
//! SpMM's halo rows); because SpMM row blocks (`Csr::slice` to the columns
//! the operand holds, or `Csr::gather_rows` against a whole operand) keep
//! each row's nonzero order under the ascending-from-+0.0 accumulation
//! contract (DESIGN.md §8); and because `Tensor::matmul`'s zero-skip
//! branch, picked from the density of whatever rows it is handed, is
//! bit-neutral for a finite right operand — a weight, which
//! `lasagne-serve` checks finite at freeze and at load.
//!
//! `SumAll`/`SumRows` and `GatAggregate` read a non-leaf operand whole;
//! [`RowPlan::row_local`] refuses programs where that operand spans the
//! graph with [`PevalError::NotRowLocal`], and callers evaluate them
//! resident (the GAT baseline; GCN and all four Lasagne aggregators plan
//! cleanly, as the partition equivalence suites assert).

use std::borrow::Cow;
use std::fmt;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::export::{Program, ProgramOp};
use crate::ops_graph::gat_attention;

/// Why a program cannot be planned or row-locally evaluated, or an
/// evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PevalError {
    /// A `Param` leaf has no entry in the weight table.
    MissingParam(String),
    /// Instruction `node` (`op`) needs a full graph-sized non-leaf operand;
    /// the program must be evaluated resident.
    NotRowLocal { node: usize, op: &'static str },
    /// A requested output row is outside the program's output.
    RowOutOfRange { row: usize, rows: usize },
    /// The partition list passed to [`evaluate_program_partitioned`] does
    /// not cover every output row exactly once.
    BadPartition(String),
    /// Instruction `node` (`op`) is malformed: it reads a later
    /// instruction, names a sparse operator the table lacks, or hands its
    /// kernel operands of disagreeing shapes.
    Malformed { node: usize, op: &'static str, msg: String },
}

impl fmt::Display for PevalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PevalError::MissingParam(name) => write!(f, "program references unknown weight {name:?}"),
            PevalError::NotRowLocal { node, op } => write!(
                f,
                "instruction {node} ({op}) needs a full graph-sized operand; \
                 the program is not row-local — evaluate it resident"
            ),
            PevalError::RowOutOfRange { row, rows } => {
                write!(f, "requested output row {row} of {rows}")
            }
            PevalError::BadPartition(msg) => write!(f, "bad partition: {msg}"),
            PevalError::Malformed { node, op, msg } => {
                write!(f, "malformed program: instruction {node} ({op}): {msg}")
            }
        }
    }
}

impl std::error::Error for PevalError {}

fn op_name(op: &ProgramOp) -> &'static str {
    use ProgramOp::*;
    match op {
        Constant { .. } => "constant",
        Param { .. } => "param",
        MatMul { .. } => "matmul",
        SpMM { .. } => "spmm",
        Add { .. } => "add",
        Sub { .. } => "sub",
        Mul { .. } => "mul",
        Div { .. } => "div",
        Scale { .. } => "scale",
        AddConst { .. } => "add_const",
        Pow { .. } => "pow",
        Exp { .. } => "exp",
        Relu { .. } => "relu",
        LeakyRelu { .. } => "leaky_relu",
        Sigmoid { .. } => "sigmoid",
        Tanh { .. } => "tanh",
        AddRowBroadcast { .. } => "add_row_broadcast",
        AddColBroadcast { .. } => "add_col_broadcast",
        MulColBroadcast { .. } => "mul_col_broadcast",
        MulScalarNode { .. } => "mul_scalar",
        LogSoftmax { .. } => "log_softmax",
        ConcatCols { .. } => "concat_cols",
        SliceCols { .. } => "slice_cols",
        GatherRows { .. } => "gather_rows",
        SumAll { .. } => "sum_all",
        SumRows { .. } => "sum_rows",
        SumCols { .. } => "sum_cols",
        MaxStack { .. } => "max_stack",
        GatAggregate { .. } => "gat_aggregate",
    }
}

/// How an op reads one of its inputs.
pub(crate) enum Read<'p> {
    /// Output row `r` reads input row `r`.
    Same(usize),
    /// Every output row reads the whole input (weights, biases, 1×1
    /// scalars, reduction operands).
    Whole(usize),
    /// Output row `r` reads the rows of `x` named by row `r` of sparse
    /// operator `m` (the SpMM halo).
    Halo { m: usize, x: usize },
    /// Output row `r` reads input row `idx[r]`.
    Gather { x: usize, idx: &'p [usize] },
    /// Every output row reads the whole sparse operator (GAT attention).
    WholeSparse(usize),
}

/// The row-rule table: how each op reads each of its inputs. Leaves read
/// nothing. An op with no row-wise read (a reduction, GAT attention) is
/// only ever evaluated whole.
pub(crate) fn reads(op: &ProgramOp) -> Vec<Read<'_>> {
    use ProgramOp::*;
    use Read::*;
    match op {
        Constant { .. } | Param { .. } => Vec::new(),
        MatMul { a, b } => vec![Same(*a), Whole(*b)],
        SpMM { m, x } => vec![Halo { m: *m, x: *x }],
        Add { a, b } | Sub { a, b } | Mul { a, b } | Div { a, b } => vec![Same(*a), Same(*b)],
        Scale { x, .. }
        | AddConst { x, .. }
        | Pow { x, .. }
        | Exp { x }
        | Relu { x }
        | LeakyRelu { x, .. }
        | Sigmoid { x }
        | Tanh { x }
        | LogSoftmax { x }
        | SliceCols { x, .. }
        | SumCols { x } => vec![Same(*x)],
        AddRowBroadcast { x, b } => vec![Same(*x), Whole(*b)],
        AddColBroadcast { x, c } | MulColBroadcast { x, c } => vec![Same(*x), Same(*c)],
        MulScalarNode { x, s } => vec![Same(*x), Whole(*s)],
        ConcatCols { parts } | MaxStack { parts } => parts.iter().map(|&p| Same(p)).collect(),
        GatherRows { x, idx } => vec![Gather { x: *x, idx }],
        SumAll { x } | SumRows { x } => vec![Whole(*x)],
        GatAggregate { adj, z, ssrc, sdst, .. } => {
            vec![WholeSparse(*adj), Whole(*z), Whole(*ssrc), Whole(*sdst)]
        }
    }
}

impl Read<'_> {
    /// The instruction this read names (`None`: it names a sparse operator).
    pub(crate) fn input(&self) -> Option<usize> {
        match *self {
            Read::Same(j)
            | Read::Whole(j)
            | Read::Halo { x: j, .. }
            | Read::Gather { x: j, .. } => Some(j),
            Read::WholeSparse(_) => None,
        }
    }
}

fn row_wise(reads: &[Read<'_>]) -> bool {
    reads.iter().any(|r| !matches!(r, Read::Whole(_) | Read::WholeSparse(_)))
}

/// The rows of one op's value: all of them, or a sorted, deduplicated
/// subset.
#[derive(Debug, Clone, PartialEq)]
enum Rows {
    All,
    Some(Vec<usize>),
}

impl Rows {
    fn as_slice(&self) -> Option<&[usize]> {
        match self {
            Rows::All => None,
            Rows::Some(rows) => Some(rows),
        }
    }
}

/// Add `rows` to a demand slot (sorted and deduplicated when the slot's op
/// is reached).
fn merge(slot: &mut Option<Rows>, rows: Rows) {
    match (slot.as_mut(), rows) {
        (None, rows) => *slot = Some(rows),
        (Some(Rows::All), _) => {}
        (Some(have), Rows::All) => *have = Rows::All,
        (Some(Rows::Some(have)), Rows::Some(more)) => have.extend(more),
    }
}

/// Positions of each `wanted` row inside the sorted `held` row list.
/// Demand-pass invariant: every row a consumer reads was propagated into
/// the producer's demand, so the lookup cannot miss.
fn positions(held: &[usize], wanted: &[usize]) -> Vec<usize> {
    wanted
        .iter()
        .map(|w| held.binary_search(w).expect("interpreter: read row missing from demand"))
        .collect()
}

/// A validated evaluation plan for one program against one weight table.
/// Construction performs shape inference and rejects malformed programs;
/// [`RowPlan::row_local`] additionally rejects programs whose output rows
/// cannot be computed without materializing a graph-sized intermediate.
/// The plan is stateless after construction (every driver takes `&self`),
/// so callers can cache one plan and sweep partitions — or threads — over
/// it.
pub struct RowPlan<'a> {
    ops: Cow<'a, [ProgramOp]>,
    sparse: Vec<Cow<'a, Csr>>,
    weights: Cow<'a, [(String, Tensor)]>,
    /// Weight-table index of each `Param` op (0 for every other op).
    param: Vec<usize>,
    output: usize,
    shapes: Vec<(usize, usize)>,
}

impl<'a> RowPlan<'a> {
    /// Plan `program` for row-subset evaluation (convenience over
    /// [`RowPlan::from_parts`]).
    pub fn new(
        program: &'a Program,
        weights: &'a [(String, Tensor)],
    ) -> Result<RowPlan<'a>, PevalError> {
        let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
        RowPlan::from_parts(&program.ops, sparse, weights, program.output)
    }

    /// Plan a raw op list (the form `lasagne-serve` holds: no `Rc`s) for
    /// row-subset evaluation: [`RowPlan::resident`] plus
    /// [`RowPlan::row_local`].
    pub fn from_parts(
        ops: &'a [ProgramOp],
        sparse: Vec<&'a Csr>,
        weights: &'a [(String, Tensor)],
        output: usize,
    ) -> Result<RowPlan<'a>, PevalError> {
        RowPlan::resident(ops, sparse, weights, output)?.row_local()
    }

    /// Plan a raw op list for whole-graph evaluation ([`RowPlan::eval_all`],
    /// [`RowPlan::eval_dirty`]): shape inference only, any program that
    /// validates is accepted.
    pub fn resident(
        ops: &'a [ProgramOp],
        sparse: Vec<&'a Csr>,
        weights: &'a [(String, Tensor)],
        output: usize,
    ) -> Result<RowPlan<'a>, PevalError> {
        let sparse = sparse.into_iter().map(Cow::Borrowed).collect();
        RowPlan::build(Cow::Borrowed(ops), sparse, Cow::Borrowed(weights), output)
    }

    /// [`RowPlan::resident`] over owned parts, for holders that must not
    /// borrow (a plan made once at load and kept for the engine's life).
    pub fn owned(
        ops: Vec<ProgramOp>,
        sparse: Vec<Csr>,
        weights: Vec<(String, Tensor)>,
        output: usize,
    ) -> Result<RowPlan<'static>, PevalError> {
        let sparse = sparse.into_iter().map(Cow::Owned).collect();
        RowPlan::build(Cow::Owned(ops), sparse, Cow::Owned(weights), output)
    }

    fn build(
        ops: Cow<'a, [ProgramOp]>,
        sparse: Vec<Cow<'a, Csr>>,
        weights: Cow<'a, [(String, Tensor)]>,
        output: usize,
    ) -> Result<RowPlan<'a>, PevalError> {
        let mut param = vec![0; ops.len()];
        let mut shapes: Vec<(usize, usize)> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let malformed = |msg: String| PevalError::Malformed { node: i, op: op_name(op), msg };
            let inputs = op.inputs();
            if let Some(j) = inputs.iter().find(|&&j| j >= i) {
                return Err(malformed(format!("operand {j} is not an earlier instruction")));
            }
            let sparse_ref = reads(op).iter().find_map(|r| match *r {
                Read::Halo { m, .. } | Read::WholeSparse(m) => Some(m),
                _ => None,
            });
            let mat = match sparse_ref {
                Some(m) => match sparse.get(m) {
                    Some(mat) => mat.shape(),
                    None => return Err(malformed(format!("no sparse operator {m}"))),
                },
                None => (0, 0),
            };
            let s = |j: &usize| shapes[*j];
            // The kernel's output shape, and whether the operand shapes pass
            // what the kernel asserts.
            let (shape, fits) = match op {
                ProgramOp::Constant { value } => (value.shape(), true),
                ProgramOp::Param { name } => {
                    param[i] = weights
                        .iter()
                        .position(|(n, _)| n == name)
                        .ok_or_else(|| PevalError::MissingParam(name.clone()))?;
                    (weights[param[i]].1.shape(), true)
                }
                ProgramOp::MatMul { a, b } => ((s(a).0, s(b).1), s(a).1 == s(b).0),
                ProgramOp::SpMM { x, .. } => ((mat.0, s(x).1), mat.1 == s(x).0),
                ProgramOp::Add { a, b }
                | ProgramOp::Sub { a, b }
                | ProgramOp::Mul { a, b }
                | ProgramOp::Div { a, b } => (s(a), s(a) == s(b)),
                ProgramOp::Scale { x, .. }
                | ProgramOp::AddConst { x, .. }
                | ProgramOp::Pow { x, .. }
                | ProgramOp::Exp { x }
                | ProgramOp::Relu { x }
                | ProgramOp::LeakyRelu { x, .. }
                | ProgramOp::Sigmoid { x }
                | ProgramOp::Tanh { x }
                | ProgramOp::LogSoftmax { x } => (s(x), true),
                ProgramOp::AddRowBroadcast { x, b } => (s(x), s(b) == (1, s(x).1)),
                ProgramOp::AddColBroadcast { x, c } | ProgramOp::MulColBroadcast { x, c } => {
                    (s(x), s(c) == (s(x).0, 1))
                }
                ProgramOp::MulScalarNode { x, s: k } => (s(x), s(k) == (1, 1)),
                ProgramOp::ConcatCols { parts } => {
                    let rows = parts.first().map_or(0, |p| s(p).0);
                    let cols = parts.iter().map(|p| s(p).1).sum();
                    ((rows, cols), !parts.is_empty() && parts.iter().all(|p| s(p).0 == rows))
                }
                ProgramOp::SliceCols { x, lo, hi } => {
                    ((s(x).0, hi.saturating_sub(*lo)), lo <= hi && *hi <= s(x).1)
                }
                ProgramOp::GatherRows { x, idx } => {
                    ((idx.len(), s(x).1), idx.iter().all(|&r| r < s(x).0))
                }
                ProgramOp::SumAll { .. } => ((1, 1), true),
                ProgramOp::SumRows { x } => ((1, s(x).1), true),
                ProgramOp::SumCols { x } => ((s(x).0, 1), true),
                ProgramOp::MaxStack { parts } => {
                    let shape = parts.first().map_or((0, 0), s);
                    (shape, !parts.is_empty() && parts.iter().all(|p| s(p) == shape))
                }
                ProgramOp::GatAggregate { z, ssrc, sdst, .. } => {
                    let n = mat.0;
                    let fits = mat.1 == n && s(z).0 == n && s(ssrc) == (n, 1) && s(sdst) == (n, 1);
                    (s(z), fits)
                }
            };
            if !fits {
                let operands: Vec<(usize, usize)> = inputs.iter().map(s).collect();
                let sparse = sparse_ref.map(|_| format!(" and sparse {mat:?}")).unwrap_or_default();
                return Err(malformed(format!("operand shapes {operands:?}{sparse} do not fit")));
            }
            shapes.push(shape);
        }
        if output >= ops.len() {
            return Err(PevalError::Malformed {
                node: output,
                op: "output",
                msg: format!("output index out of range ({} instructions)", ops.len()),
            });
        }
        Ok(RowPlan { ops, sparse, weights, param, output, shapes })
    }

    /// Require row locality: refuse (with [`PevalError::NotRowLocal`]) a
    /// program where some instruction the output depends on reads a
    /// graph-sized non-leaf operand whole.
    pub fn row_local(self) -> Result<RowPlan<'a>, PevalError> {
        let n = self.shapes[self.output].0;
        // Which instructions may be fully materialized inside an
        // O(partition) budget: leaves (resident in the program/weight table
        // anyway), and non-leaves that are not graph-row-sized and whose
        // inputs are all materializable themselves.
        let mut full_ok = vec![false; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            full_ok[i] = self.leaf(i).is_some()
                || (self.shapes[i].0 != n && op.inputs().iter().all(|&j| full_ok[j]));
        }
        let mut reachable = vec![false; self.ops.len()];
        let mut stack = vec![self.output];
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut reachable[i], true) {
                stack.extend(self.ops[i].inputs());
            }
        }
        for (i, op) in self.ops.iter().enumerate().filter(|(i, _)| reachable[*i]) {
            for read in reads(op) {
                if matches!(read, Read::Whole(j) if !full_ok[j]) {
                    return Err(PevalError::NotRowLocal { node: i, op: op_name(op) });
                }
            }
        }
        Ok(self)
    }

    /// Output shape `(rows, cols)` of the planned program.
    pub fn output_shape(&self) -> (usize, usize) {
        self.shapes[self.output]
    }

    /// The value of leaf `j` (a constant or a bound weight), or `None` for
    /// a computed op.
    fn leaf(&self, j: usize) -> Option<&Tensor> {
        match &self.ops[j] {
            ProgramOp::Constant { value } => Some(value),
            ProgramOp::Param { .. } => Some(&self.weights[self.param[j]].1),
            _ => None,
        }
    }

    /// Rows `want` of op `j` (`None`: all of them), in `want`'s order:
    /// borrowed when the value holds exactly those rows (`held[j]`; a leaf
    /// holds all of its rows), otherwise gathered (a pure bitwise copy).
    fn take<'s>(
        &'s self,
        j: usize,
        want: Option<&[usize]>,
        vals: &'s [Option<Tensor>],
        held: &[Rows],
    ) -> Cow<'s, Tensor> {
        let value = match self.leaf(j) {
            Some(leaf) => leaf,
            None => vals[j].as_ref().expect("interpreter: operand evaluated before its reader"),
        };
        match (held[j].as_slice(), want) {
            (None, None) => Cow::Borrowed(value),
            (Some(has), Some(want)) if has == want => Cow::Borrowed(value),
            (None, Some(want)) => Cow::Owned(value.gather_rows(want)),
            (Some(has), Some(want)) => Cow::Owned(value.gather_rows(&positions(has, want))),
            (Some(_), None) => unreachable!("interpreter: a whole read of a partial value"),
        }
    }

    /// Evaluate op `i` over `rows` of its output from operands already in
    /// `vals`, each holding the rows `held` names. The one place every
    /// kernel is called, so the three drivers run the same kernels in the
    /// same order as the training tape — same ops, same bits.
    fn eval_op(&self, i: usize, rows: &Rows, vals: &[Option<Tensor>], held: &[Rows]) -> Tensor {
        let d = rows.as_slice();
        let take = |j: usize| self.take(j, d, vals, held);
        let whole = |j: usize| self.take(j, None, vals, held);
        match &self.ops[i] {
            ProgramOp::Constant { .. } | ProgramOp::Param { .. } => take(i).into_owned(),
            ProgramOp::MatMul { a, b } => take(*a).matmul(&whole(*b)),
            ProgramOp::SpMM { m, x } => {
                let m = &*self.sparse[*m];
                let has = &held[*x];
                let block = match (d, has) {
                    (None, Rows::All) => Cow::Borrowed(m),
                    (Some(d), Rows::All) => Cow::Owned(m.gather_rows(d)),
                    (Some(d), Rows::Some(cols)) => Cow::Owned(m.slice(d, cols)),
                    (None, Rows::Some(_)) => {
                        unreachable!("interpreter: a whole SpMM of a partial operand")
                    }
                };
                block.spmm(&self.take(*x, has.as_slice(), vals, held))
            }
            ProgramOp::Add { a, b } => take(*a).add(&take(*b)),
            ProgramOp::Sub { a, b } => take(*a).sub(&take(*b)),
            ProgramOp::Mul { a, b } => take(*a).mul(&take(*b)),
            ProgramOp::Div { a, b } => take(*a).div(&take(*b)),
            ProgramOp::Scale { x, alpha } => take(*x).scale(*alpha),
            ProgramOp::AddConst { x, c } => take(*x).add_scalar(*c),
            ProgramOp::Pow { x, p, eps } => {
                let (p, eps) = (*p, *eps);
                take(*x).map(|t| (t + eps).powf(p))
            }
            ProgramOp::Exp { x } => take(*x).map(f32::exp),
            ProgramOp::Relu { x } => take(*x).relu(),
            ProgramOp::LeakyRelu { x, slope } => take(*x).leaky_relu(*slope),
            ProgramOp::Sigmoid { x } => take(*x).sigmoid(),
            ProgramOp::Tanh { x } => take(*x).tanh(),
            ProgramOp::AddRowBroadcast { x, b } => take(*x).add_row_broadcast(&whole(*b)),
            ProgramOp::AddColBroadcast { x, c } => take(*x).add_col_broadcast(&take(*c)),
            ProgramOp::MulColBroadcast { x, c } => take(*x).mul_col_broadcast(&take(*c)),
            ProgramOp::MulScalarNode { x, s } => take(*x).scale(whole(*s).get(0, 0)),
            ProgramOp::LogSoftmax { x } => take(*x).log_softmax_rows(),
            ProgramOp::ConcatCols { parts } => {
                let parts: Vec<Cow<'_, Tensor>> = parts.iter().map(|&p| take(p)).collect();
                let refs: Vec<&Tensor> = parts.iter().map(|p| &**p).collect();
                Tensor::concat_cols(&refs)
            }
            ProgramOp::SliceCols { x, lo, hi } => take(*x).slice_cols(*lo, *hi),
            ProgramOp::GatherRows { x, idx } => {
                let wanted: Cow<'_, [usize]> = match d {
                    None => Cow::Borrowed(idx),
                    Some(d) => d.iter().map(|&r| idx[r]).collect(),
                };
                self.take(*x, Some(&wanted), vals, held).into_owned()
            }
            ProgramOp::SumAll { x } => Tensor::full(1, 1, whole(*x).sum()),
            ProgramOp::SumRows { x } => whole(*x).sum_rows(),
            ProgramOp::SumCols { x } => take(*x).sum_cols(),
            ProgramOp::MaxStack { parts } => {
                // Mirror of `Tape::max_stack`: fold element-wise max with
                // strict `>` so ties keep the earliest layer.
                let mut acc = take(parts[0]).into_owned();
                for &p in &parts[1..] {
                    for (best, cand) in acc.as_mut_slice().iter_mut().zip(take(p).as_slice()) {
                        if *cand > *best {
                            *best = *cand;
                        }
                    }
                }
                acc
            }
            ProgramOp::GatAggregate { adj, z, ssrc, sdst, slope } => {
                gat_attention(&self.sparse[*adj], &whole(*z), &whole(*ssrc), &whole(*sdst), *slope)
                    .out
            }
        }
    }

    /// All-rows driver: every instruction over all its rows, in program
    /// order — the resident evaluation. Returns the value of every computed
    /// instruction and of the output (other leaves stay in the program and
    /// weight table, `None` here).
    pub fn eval_all(&self) -> Vec<Option<Tensor>> {
        let held = vec![Rows::All; self.ops.len()];
        let mut vals: Vec<Option<Tensor>> = Vec::with_capacity(self.ops.len());
        for i in 0..self.ops.len() {
            let keep = self.leaf(i).is_none() || i == self.output;
            let value = keep.then(|| self.eval_op(i, &Rows::All, &vals, &held));
            vals.push(value);
        }
        vals
    }

    /// Demanded-rows driver: the program restricted to output rows `rows`
    /// (any order, repeats allowed). Returns a `rows.len() × cols` tensor
    /// whose row `r` is bitwise equal to row `rows[r]` of the resident
    /// evaluation. A backward demand pass assigns each instruction the exact
    /// sorted row set the requested rows need; the forward pass evaluates
    /// only those.
    pub fn eval_rows(&self, rows: &[usize]) -> Result<Tensor, PevalError> {
        let (out_rows, out_cols) = self.shapes[self.output];
        if let Some(&row) = rows.iter().find(|&&r| r >= out_rows) {
            return Err(PevalError::RowOutOfRange { row, rows: out_rows });
        }
        if rows.is_empty() {
            return Ok(Tensor::zeros(0, out_cols));
        }
        let n = self.ops.len();
        let mut demand: Vec<Option<Rows>> = vec![None; n];
        demand[self.output] = Some(Rows::Some(rows.to_vec()));
        for i in (0..n).rev() {
            // Leaves are read straight from the program and weight table.
            if self.leaf(i).is_some() {
                continue;
            }
            let Some(d) = demand[i].take() else { continue };
            let reads = reads(&self.ops[i]);
            let d = match d {
                Rows::Some(mut d) if row_wise(&reads) => {
                    d.sort_unstable();
                    d.dedup();
                    Rows::Some(d)
                }
                // Reductions and attention are evaluated whole.
                _ => Rows::All,
            };
            for read in reads {
                let Some(j) = read.input().filter(|&j| self.leaf(j).is_none()) else { continue };
                let wanted = match (read, &d) {
                    (Read::Same(_), d) => d.clone(),
                    (Read::Halo { m, .. }, d) => halo(&self.sparse[m], d),
                    (Read::Gather { idx, .. }, Rows::Some(d)) => {
                        Rows::Some(d.iter().map(|&r| idx[r]).collect())
                    }
                    _ => Rows::All,
                };
                merge(&mut demand[j], wanted);
            }
            demand[i] = Some(d);
        }

        let computed: Vec<bool> =
            (0..n).map(|i| self.leaf(i).is_none() && demand[i].is_some()).collect();
        let held: Vec<Rows> = (demand.into_iter().enumerate())
            .map(|(i, d)| d.filter(|_| self.leaf(i).is_none()).unwrap_or(Rows::All))
            .collect();
        let mut vals: Vec<Option<Tensor>> = vec![None; n];
        for i in (0..n).filter(|&i| computed[i]) {
            vals[i] = Some(self.eval_op(i, &held[i], &vals, &held));
        }
        Ok(self.take(self.output, Some(rows), &vals, &held).into_owned())
    }

    /// Dirty-rows driver: patch `cache` — an [`RowPlan::eval_all`] result
    /// computed against earlier sparse operators — in place so it is
    /// bitwise what `eval_all` computes against the current ones, given
    /// `seeds[m]`, the sorted rows in which sparse operator `m` changed.
    ///
    /// A forward pass pushes dirtiness through the row-rule table; an SpMM
    /// dirties the rows that read a dirty input row, found through the
    /// operator's own rows, which requires structurally symmetric sparse
    /// operators. Dirty rows are then re-evaluated in program order.
    /// Returns the output's dirty rows, or `None` — with `cache` untouched —
    /// when the all-rows driver must run instead: a whole-read input or a
    /// whole-read sparse operator is dirty, or `too_many(dirty, rows)`
    /// holds for some instruction.
    pub fn eval_dirty(
        &self,
        cache: &mut [Option<Tensor>],
        seeds: &[Vec<usize>],
        too_many: impl Fn(usize, usize) -> bool,
    ) -> Option<Vec<usize>> {
        let mut dirty: Vec<Vec<usize>> = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let mut d: Vec<usize> = Vec::new();
            for read in reads(op) {
                match read {
                    Read::Same(j) => d.extend_from_slice(&dirty[j]),
                    Read::Whole(j) if !dirty[j].is_empty() => return None,
                    Read::WholeSparse(m) if !seeds[m].is_empty() => return None,
                    Read::Whole(_) | Read::WholeSparse(_) => {}
                    Read::Halo { m, x } => {
                        d.extend_from_slice(&seeds[m]);
                        for &j in &dirty[x] {
                            d.extend(self.sparse[m].row_indices(j).iter().map(|&c| c as usize));
                        }
                    }
                    Read::Gather { x, idx } => d.extend(
                        (0..idx.len()).filter(|&p| dirty[x].binary_search(&idx[p]).is_ok()),
                    ),
                }
            }
            d.sort_unstable();
            d.dedup();
            if too_many(d.len(), self.shapes[i].0) {
                return None;
            }
            dirty.push(d);
        }

        let held = vec![Rows::All; self.ops.len()];
        for (i, d) in dirty.iter().enumerate().filter(|(_, d)| !d.is_empty()) {
            let rows = Rows::Some(d.clone());
            let patch = self.eval_op(i, &rows, cache, &held);
            let value = cache[i].as_mut().expect("dirty instruction cached");
            for (k, &r) in d.iter().enumerate() {
                value.row_mut(r).copy_from_slice(patch.row(k));
            }
        }
        Some(dirty.swap_remove(self.output))
    }
}

/// The SpMM halo of rows `d` of `m`: the sorted columns those rows touch.
fn halo(m: &Csr, d: &Rows) -> Rows {
    let Rows::Some(d) = d else { return Rows::All };
    let mut cols: Vec<usize> = Vec::new();
    for &r in d {
        cols.extend(m.row_indices(r).iter().map(|&c| c as usize));
    }
    cols.sort_unstable();
    cols.dedup();
    Rows::Some(cols)
}

/// Evaluate `program` over a full partition sweep: each part's rows are
/// computed with [`RowPlan::eval_rows`] — peak additional memory
/// O(largest partition + halo) — and scattered into the `N × cols` output,
/// which is bitwise equal to the resident evaluation. `parts` must cover
/// every output row exactly once (the `partition_bfs` contract).
pub fn evaluate_program_partitioned(
    program: &Program,
    weights: &[(String, Tensor)],
    parts: &[Vec<usize>],
) -> Result<Tensor, PevalError> {
    let plan = RowPlan::new(program, weights)?;
    eval_partitions(&plan, parts)
}

/// The sweep behind [`evaluate_program_partitioned`], reusable with a
/// caller-built [`RowPlan`].
pub fn eval_partitions(plan: &RowPlan<'_>, parts: &[Vec<usize>]) -> Result<Tensor, PevalError> {
    let (n, cols) = plan.output_shape();
    let mut covered = vec![false; n];
    for part in parts {
        for &r in part {
            if r >= n {
                return Err(PevalError::BadPartition(format!("row {r} outside 0..{n}")));
            }
            if std::mem::replace(&mut covered[r], true) {
                return Err(PevalError::BadPartition(format!("row {r} in two parts")));
            }
        }
    }
    if let Some(missing) = covered.iter().position(|&c| !c) {
        return Err(PevalError::BadPartition(format!("row {missing} in no part")));
    }
    let mut out = Tensor::zeros(n, cols);
    for part in parts {
        let rows = plan.eval_rows(part)?;
        for (local, &r) in part.iter().enumerate() {
            out.as_mut_slice()[r * cols..(r + 1) * cols].copy_from_slice(rows.row(local));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamStore, Tape};
    use lasagne_tensor::TensorRng;
    use std::rc::Rc;

    /// A GCN-ish program: relu(Â·(X·W) + b) · W2 → log_softmax, built
    /// straight on a tape so the test owns every shape.
    fn toy_program(n: usize, seed: u64) -> (Program, Vec<(String, Tensor)>) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w = store.add("w", rng.glorot_uniform(6, 4));
        let b = store.add("b", rng.uniform_tensor(1, 4, -0.1, 0.1));
        let w2 = store.add("w2", rng.glorot_uniform(4, 3));
        // A ring adjacency normalized-ish (just weights, structure matters).
        let coo: Vec<(u32, u32, f32)> = (0..n as u32)
            .flat_map(|i| {
                let n = n as u32;
                [(i, i, 0.5f32), (i, (i + 1) % n, 0.25), (i, (i + n - 1) % n, 0.25)]
            })
            .collect();
        let a = Rc::new(Csr::from_coo(n, n, &coo));
        let x = rng.uniform_tensor(n, 6, -1.0, 1.0);

        let mut tape = Tape::new();
        let xn = tape.constant(x);
        let wn = tape.param(w, &store);
        let bn = tape.param(b, &store);
        let w2n = tape.param(w2, &store);
        let xw = tape.matmul(xn, wn);
        let prop = tape.spmm(Rc::clone(&a), xw);
        let biased = tape.add_row_broadcast(prop, bn);
        let act = tape.relu(biased);
        let logits = tape.matmul(act, w2n);
        let out = tape.log_softmax(logits);
        let program = tape.export_program(&store, out).unwrap();
        let weights: Vec<(String, Tensor)> = (0..store.len())
            .map(|i| {
                let id = crate::ParamId::from_index(i);
                (store.name(id).to_string(), store.value(id).clone())
            })
            .collect();
        (program, weights)
    }

    #[test]
    fn row_subsets_match_resident_bitwise() {
        let (program, weights) = toy_program(30, 1);
        // Resident reference via the plan itself at k=1 plus a tape replay
        // is circular; instead evaluate all rows in one go (every kernel
        // then sees full operands, as resident does) and compare subsets.
        let plan = RowPlan::new(&program, &weights).unwrap();
        let all: Vec<usize> = (0..30).collect();
        let resident = plan.eval_rows(&all).unwrap();
        for rows in [vec![0usize], vec![7, 3, 29], (10..20).collect::<Vec<_>>()] {
            let got = plan.eval_rows(&rows).unwrap();
            for (local, &r) in rows.iter().enumerate() {
                let gb: Vec<u32> = got.row(local).iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = resident.row(r).iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "row {r}");
            }
        }
    }

    #[test]
    fn partition_sweep_matches_and_validates_cover() {
        let (program, weights) = toy_program(24, 2);
        let plan = RowPlan::new(&program, &weights).unwrap();
        let all: Vec<usize> = (0..24).collect();
        let resident = plan.eval_rows(&all).unwrap();
        let parts: Vec<Vec<usize>> = vec![(0..8).collect(), (8..16).collect(), (16..24).collect()];
        let swept = evaluate_program_partitioned(&program, &weights, &parts).unwrap();
        let gb: Vec<u32> = swept.as_slice().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = resident.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb);
        // Bad covers are typed.
        let overlapping = vec![(0..9).collect::<Vec<_>>(), (8..24).collect()];
        assert!(matches!(
            evaluate_program_partitioned(&program, &weights, &overlapping),
            Err(PevalError::BadPartition(_))
        ));
        let missing = vec![(0..8).collect::<Vec<_>>(), (9..24).collect()];
        assert!(matches!(
            evaluate_program_partitioned(&program, &weights, &missing),
            Err(PevalError::BadPartition(_))
        ));
    }

    #[test]
    fn missing_weight_and_bad_row_are_typed() {
        let (program, weights) = toy_program(10, 3);
        assert!(matches!(
            RowPlan::new(&program, &weights[1..]),
            Err(PevalError::MissingParam(_))
        ));
        let plan = RowPlan::new(&program, &weights).unwrap();
        assert_eq!(
            plan.eval_rows(&[10]).unwrap_err(),
            PevalError::RowOutOfRange { row: 10, rows: 10 }
        );
    }

    #[test]
    fn leaf_output_rows_are_gathered() {
        let mut rng = TensorRng::seed_from_u64(5);
        let x = rng.uniform_tensor(6, 2, -1.0, 1.0);
        let mut tape = Tape::new();
        let xn = tape.constant(x.clone());
        let program = tape.export_program(&ParamStore::new(), xn).unwrap();
        let plan = RowPlan::new(&program, &[]).unwrap();
        assert_eq!(plan.eval_rows(&[4, 1]).unwrap(), x.gather_rows(&[4, 1]));
        assert_eq!(plan.eval_all()[program.output].as_ref(), Some(&x));
    }

    #[test]
    fn graph_sized_reduction_is_rejected_up_front() {
        let mut rng = TensorRng::seed_from_u64(4);
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.constant(rng.uniform_tensor(12, 3, -1.0, 1.0));
        // A reduction over a resident *leaf* is row-local (the leaf lives in
        // the program anyway); over a graph-sized non-leaf it is not.
        let h = tape.relu(x);
        let s = tape.sum_all(h);
        let scaled = tape.mul_scalar_node(x, s);
        let program = tape.export_program(&store, scaled).unwrap();
        assert!(matches!(
            RowPlan::new(&program, &[]),
            Err(PevalError::NotRowLocal { .. })
        ));
    }
}
