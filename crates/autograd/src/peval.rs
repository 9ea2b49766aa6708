//! Partitioned (out-of-core) evaluation of a frozen [`Program`].
//!
//! The resident evaluator (`lasagne-serve`) materializes **every**
//! intermediate of the program over all `N` graph nodes — O(graph) memory.
//! [`RowPlan`] evaluates any subset of output rows while materializing only
//! the rows each instruction actually contributes to them, so a partition
//! sweep peaks at O(partition + halo), and the answer is **bitwise** equal
//! to the corresponding rows of the resident evaluation. Three facts make
//! that possible:
//!
//! * **Row-local kernels.** Almost every inference op computes output row
//!   `r` from row `r` of its dense inputs (element-wise ops, broadcasts,
//!   activations, row-wise log-softmax) or from an explicit row set:
//!   `MatMul` reads row `r` of the left operand (and the whole right
//!   operand — a weight matrix, small), `SpMM` reads the rows of `x` named
//!   by the sparse row's column indices — the halo exchange. A backward
//!   *demand pass* over the program assigns each instruction the exact
//!   sorted row set the requested output rows need.
//! * **Order-preserving slices.** The SpMM block for demanded rows `R` is
//!   `m.slice(R, C)` with `C` the sorted union of those rows' columns: a
//!   monotone column remap that preserves each row's stored-nonzero order,
//!   which with the ascending-from-+0.0 accumulation contract (DESIGN.md
//!   §8) makes the block product bit-identical to rows `R` of the full
//!   product. Dense row gathers are pure copies.
//! * **Skip-neutral products.** `Tensor::matmul` picks its zero-skip
//!   branch by probing the density of whichever left operand it is given,
//!   so a row subset may take the other branch than the full product. The
//!   branch is bit-neutral: accumulators start at `+0.0` and never become
//!   `-0.0`, so adding a `±0` product (`0 · b` for finite `b`) never changes
//!   one. Only a non-finite right operand (`0 · inf = NaN`) tells the
//!   branches apart, and every shipped model's right operand is a weight,
//!   which `lasagne-serve` checks finite at freeze and at load. So a
//!   partitioned `MatMul` is the plain kernel on the demanded rows.
//!
//! `SumAll`/`SumRows` reductions and `GatAggregate` are not row-local: they
//! need a full non-leaf operand. Plans over programs where such an operand
//! spans the whole graph fail up front with [`PevalError::NotRowLocal`] —
//! callers fall back to resident evaluation (the GAT baseline does; GCN and
//! all four Lasagne aggregators plan cleanly, which the partition
//! equivalence suites assert).

use std::fmt;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::export::{Program, ProgramOp};

/// Why a program cannot be row-locally evaluated, or an evaluation failed.
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

/// Positions of each `wanted` row inside the sorted `union` row list.
/// Demand-pass invariant: every row a consumer asks for was propagated into
/// the producer's union, so the lookup cannot miss.
fn positions(union: &[usize], wanted: &[usize]) -> Vec<usize> {
    wanted
        .iter()
        .map(|w| union.binary_search(w).expect("peval: demanded row missing from union"))
        .collect()
}

fn merge_into(demand: &mut Option<Vec<usize>>, rows: impl IntoIterator<Item = usize>) {
    demand.get_or_insert_with(Vec::new).extend(rows);
}

/// A validated row-local evaluation plan for one program against one weight
/// table. Construction performs shape inference and rejects programs whose
/// output rows cannot be computed without materializing a graph-sized
/// intermediate; [`RowPlan::eval_rows`] then evaluates any output row
/// subset, bitwise equal to the resident path. The plan is stateless after
/// construction (`eval_rows` takes `&self`), so callers can cache one plan
/// and sweep partitions — or threads — over it.
pub struct RowPlan<'a> {
    ops: &'a [ProgramOp],
    sparse: Vec<&'a Csr>,
    weights: &'a [(String, Tensor)],
    output: usize,
    shapes: Vec<(usize, usize)>,
}

impl<'a> RowPlan<'a> {
    /// Plan `program` (convenience over [`RowPlan::from_parts`]).
    pub fn new(
        program: &'a Program,
        weights: &'a [(String, Tensor)],
    ) -> Result<RowPlan<'a>, PevalError> {
        let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
        RowPlan::from_parts(&program.ops, sparse, weights, program.output)
    }

    /// Plan a raw op list (the form `lasagne-serve` holds: no `Rc`s, so the
    /// plan stays `Send`-compatible).
    pub fn from_parts(
        ops: &'a [ProgramOp],
        sparse: Vec<&'a Csr>,
        weights: &'a [(String, Tensor)],
        output: usize,
    ) -> Result<RowPlan<'a>, PevalError> {
        let lookup = |name: &str| -> Result<&Tensor, PevalError> {
            weights
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t)
                .ok_or_else(|| PevalError::MissingParam(name.to_string()))
        };
        // Shape inference (exact: mirrors each kernel's output shape).
        let mut shapes: Vec<(usize, usize)> = Vec::with_capacity(ops.len());
        for op in ops {
            let s = |i: &usize| shapes[*i];
            let shape = match op {
                ProgramOp::Constant { value } => value.shape(),
                ProgramOp::Param { name } => lookup(name)?.shape(),
                ProgramOp::MatMul { a, b } => (s(a).0, s(b).1),
                ProgramOp::SpMM { m, x } => (sparse[*m].shape().0, s(x).1),
                ProgramOp::Add { a, .. }
                | ProgramOp::Sub { a, .. }
                | ProgramOp::Mul { a, .. }
                | ProgramOp::Div { a, .. } => s(a),
                ProgramOp::Scale { x, .. }
                | ProgramOp::AddConst { x, .. }
                | ProgramOp::Pow { x, .. }
                | ProgramOp::Exp { x }
                | ProgramOp::Relu { x }
                | ProgramOp::LeakyRelu { x, .. }
                | ProgramOp::Sigmoid { x }
                | ProgramOp::Tanh { x }
                | ProgramOp::LogSoftmax { x }
                | ProgramOp::AddRowBroadcast { x, .. }
                | ProgramOp::AddColBroadcast { x, .. }
                | ProgramOp::MulColBroadcast { x, .. }
                | ProgramOp::MulScalarNode { x, .. } => s(x),
                ProgramOp::ConcatCols { parts } => {
                    (s(&parts[0]).0, parts.iter().map(|p| s(p).1).sum())
                }
                ProgramOp::SliceCols { x, lo, hi } => (s(x).0, hi - lo),
                ProgramOp::GatherRows { x, idx } => (idx.len(), s(x).1),
                ProgramOp::SumAll { .. } => (1, 1),
                ProgramOp::SumRows { x } => (1, s(x).1),
                ProgramOp::SumCols { x } => (s(x).0, 1),
                ProgramOp::MaxStack { parts } => s(&parts[0]),
                ProgramOp::GatAggregate { z, .. } => s(z),
            };
            shapes.push(shape);
        }
        let n = shapes[output].0;

        // Which instructions may be fully materialized inside an O(partition)
        // budget: leaves (resident in the program/weight table anyway), and
        // non-leaves that are not graph-row-sized and whose inputs are all
        // materializable themselves.
        let mut full_ok = vec![false; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            full_ok[i] = match op {
                ProgramOp::Constant { .. } | ProgramOp::Param { .. } => true,
                _ => shapes[i].0 != n && op.inputs().iter().all(|&j| full_ok[j]),
            };
        }

        // Validate: every reachable instruction's full-demand operands must
        // be materializable.
        let mut reachable = vec![false; ops.len()];
        let mut stack = vec![output];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut reachable[i], true) {
                continue;
            }
            stack.extend(ops[i].inputs());
        }
        for (i, op) in ops.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let full_operands: Vec<usize> = match op {
                ProgramOp::MatMul { b, .. } => vec![*b],
                ProgramOp::AddRowBroadcast { b, .. } => vec![*b],
                ProgramOp::MulScalarNode { s, .. } => vec![*s],
                // Reductions and attention read their operands whole.
                ProgramOp::SumAll { x } | ProgramOp::SumRows { x } => vec![*x],
                ProgramOp::GatAggregate { z, ssrc, sdst, .. } => vec![*z, *ssrc, *sdst],
                _ => Vec::new(),
            };
            for j in full_operands {
                if !full_ok[j] {
                    return Err(PevalError::NotRowLocal { node: i, op: op_name(op) });
                }
            }
        }
        Ok(RowPlan { ops, sparse, weights, output, shapes })
    }

    /// Output shape `(rows, cols)` of the planned program.
    pub fn output_shape(&self) -> (usize, usize) {
        self.shapes[self.output]
    }

    fn lookup(&self, name: &str) -> Result<&Tensor, PevalError> {
        self.weights
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .ok_or_else(|| PevalError::MissingParam(name.to_string()))
    }

    /// Fully materialize instruction `i` (plan-validated small) and its
    /// non-leaf dependencies into `full_vals`, with the exact resident
    /// kernels — same ops, same bits.
    fn eval_full(&self, i: usize, full_vals: &mut [Option<Tensor>]) -> Result<(), PevalError> {
        if full_vals[i].is_some() {
            return Ok(());
        }
        for j in self.ops[i].inputs() {
            if !matches!(self.ops[j], ProgramOp::Constant { .. } | ProgramOp::Param { .. }) {
                self.eval_full(j, full_vals)?;
            }
        }
        // Leaves resolve straight from the program/weight table; everything
        // else from the memo just filled.
        macro_rules! v {
            ($j:expr) => {
                match &self.ops[$j] {
                    ProgramOp::Constant { value } => value,
                    ProgramOp::Param { name } => self.lookup(name)?,
                    _ => full_vals[$j].as_ref().expect("eval_full: input ready"),
                }
            };
        }
        let out = match &self.ops[i] {
            ProgramOp::Constant { value } => value.clone(),
            ProgramOp::Param { name } => self.lookup(name)?.clone(),
            ProgramOp::MatMul { a, b } => v!(*a).matmul(v!(*b)),
            ProgramOp::SpMM { m, x } => self.sparse[*m].spmm(v!(*x)),
            ProgramOp::Add { a, b } => v!(*a).add(v!(*b)),
            ProgramOp::Sub { a, b } => v!(*a).sub(v!(*b)),
            ProgramOp::Mul { a, b } => v!(*a).mul(v!(*b)),
            ProgramOp::Div { a, b } => v!(*a).div(v!(*b)),
            ProgramOp::Scale { x, alpha } => v!(*x).scale(*alpha),
            ProgramOp::AddConst { x, c } => v!(*x).add_scalar(*c),
            ProgramOp::Pow { x, p, eps } => {
                let (p, eps) = (*p, *eps);
                v!(*x).map(|t| (t + eps).powf(p))
            }
            ProgramOp::Exp { x } => v!(*x).map(f32::exp),
            ProgramOp::Relu { x } => v!(*x).relu(),
            ProgramOp::LeakyRelu { x, slope } => v!(*x).leaky_relu(*slope),
            ProgramOp::Sigmoid { x } => v!(*x).sigmoid(),
            ProgramOp::Tanh { x } => v!(*x).tanh(),
            ProgramOp::AddRowBroadcast { x, b } => v!(*x).add_row_broadcast(v!(*b)),
            ProgramOp::AddColBroadcast { x, c } => v!(*x).add_col_broadcast(v!(*c)),
            ProgramOp::MulColBroadcast { x, c } => v!(*x).mul_col_broadcast(v!(*c)),
            ProgramOp::MulScalarNode { x, s } => v!(*x).scale(v!(*s).get(0, 0)),
            ProgramOp::LogSoftmax { x } => v!(*x).log_softmax_rows(),
            ProgramOp::ConcatCols { parts } => {
                let mut tensors: Vec<&Tensor> = Vec::with_capacity(parts.len());
                for &p in parts {
                    tensors.push(v!(p));
                }
                Tensor::concat_cols(&tensors)
            }
            ProgramOp::SliceCols { x, lo, hi } => v!(*x).slice_cols(*lo, *hi),
            ProgramOp::GatherRows { x, idx } => v!(*x).gather_rows(idx),
            ProgramOp::SumAll { x } => Tensor::full(1, 1, v!(*x).sum()),
            ProgramOp::SumRows { x } => v!(*x).sum_rows(),
            ProgramOp::SumCols { x } => v!(*x).sum_cols(),
            ProgramOp::MaxStack { parts } => {
                let mut acc = v!(parts[0]).clone();
                for &p in &parts[1..] {
                    let pv = v!(p);
                    for (best, cand) in acc.as_mut_slice().iter_mut().zip(pv.as_slice()) {
                        if *cand > *best {
                            *best = *cand;
                        }
                    }
                }
                acc
            }
            // Plan validation rejects GatAggregate with graph-sized inputs,
            // and a small one never occurs (attention spans the graph); if a
            // program ever carries one, the plan already errored.
            ProgramOp::GatAggregate { .. } => {
                return Err(PevalError::NotRowLocal { node: i, op: "gat_aggregate" })
            }
        };
        full_vals[i] = Some(out);
        Ok(())
    }

    /// Evaluate the program restricted to output rows `rows` (any order,
    /// repeats allowed). Returns a `rows.len() × cols` tensor whose row `r`
    /// is bitwise equal to row `rows[r]` of the resident evaluation.
    pub fn eval_rows(&self, rows: &[usize]) -> Result<Tensor, PevalError> {
        let (out_rows, out_cols) = self.shapes[self.output];
        for &r in rows {
            if r >= out_rows {
                return Err(PevalError::RowOutOfRange { row: r, rows: out_rows });
            }
        }
        if rows.is_empty() {
            return Ok(Tensor::zeros(0, out_cols));
        }

        // ---- backward demand pass -------------------------------------
        // demand[i]: sorted union of the rows of instruction i any consumer
        // needs; need_full[i]: some consumer reads i whole (weights, biases,
        // 1×1 scalars — plan-validated small).
        let mut demand: Vec<Option<Vec<usize>>> = vec![None; self.ops.len()];
        let mut need_full = vec![false; self.ops.len()];
        // spmm_cols[i]: for an SpMM, the sorted ghost-column set its demanded
        // rows touch — recorded here so the forward pass slices identically.
        let mut spmm_cols: Vec<Option<Vec<usize>>> = vec![None; self.ops.len()];
        {
            let mut sorted = rows.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            demand[self.output] = Some(sorted);
        }
        let mark_full = |need_full: &mut Vec<bool>, j: usize, ops: &[ProgramOp]| {
            // Leaves are served straight from the program/weight table.
            if !matches!(ops[j], ProgramOp::Constant { .. } | ProgramOp::Param { .. }) {
                need_full[j] = true;
            }
        };
        for i in (0..self.ops.len()).rev() {
            let Some(d) = demand[i].take() else { continue };
            let mut d = d;
            d.sort_unstable();
            d.dedup();
            match &self.ops[i] {
                ProgramOp::Constant { .. } | ProgramOp::Param { .. } => {}
                ProgramOp::MatMul { a, b } => {
                    merge_into(&mut demand[*a], d.iter().copied());
                    mark_full(&mut need_full, *b, self.ops);
                }
                ProgramOp::SpMM { m, x } => {
                    let mut cols: Vec<usize> = Vec::new();
                    for &r in &d {
                        cols.extend(self.sparse[*m].row_indices(r).iter().map(|&c| c as usize));
                    }
                    cols.sort_unstable();
                    cols.dedup();
                    merge_into(&mut demand[*x], cols.iter().copied());
                    spmm_cols[i] = Some(cols);
                }
                ProgramOp::Add { a, b }
                | ProgramOp::Sub { a, b }
                | ProgramOp::Mul { a, b }
                | ProgramOp::Div { a, b } => {
                    merge_into(&mut demand[*a], d.iter().copied());
                    merge_into(&mut demand[*b], d.iter().copied());
                }
                ProgramOp::Scale { x, .. }
                | ProgramOp::AddConst { x, .. }
                | ProgramOp::Pow { x, .. }
                | ProgramOp::Exp { x }
                | ProgramOp::Relu { x }
                | ProgramOp::LeakyRelu { x, .. }
                | ProgramOp::Sigmoid { x }
                | ProgramOp::Tanh { x }
                | ProgramOp::LogSoftmax { x }
                | ProgramOp::SliceCols { x, .. }
                | ProgramOp::SumCols { x } => {
                    merge_into(&mut demand[*x], d.iter().copied());
                }
                ProgramOp::AddRowBroadcast { x, b } => {
                    merge_into(&mut demand[*x], d.iter().copied());
                    mark_full(&mut need_full, *b, self.ops);
                }
                ProgramOp::AddColBroadcast { x, c } | ProgramOp::MulColBroadcast { x, c } => {
                    merge_into(&mut demand[*x], d.iter().copied());
                    merge_into(&mut demand[*c], d.iter().copied());
                }
                ProgramOp::MulScalarNode { x, s } => {
                    merge_into(&mut demand[*x], d.iter().copied());
                    mark_full(&mut need_full, *s, self.ops);
                }
                ProgramOp::ConcatCols { parts } | ProgramOp::MaxStack { parts } => {
                    for &p in parts {
                        merge_into(&mut demand[p], d.iter().copied());
                    }
                }
                ProgramOp::GatherRows { x, idx } => {
                    merge_into(&mut demand[*x], d.iter().map(|&r| idx[r]));
                }
                // Served whole from the (plan-validated small) full value.
                ProgramOp::SumAll { .. } | ProgramOp::SumRows { .. } => {
                    need_full[i] = true;
                }
                ProgramOp::GatAggregate { .. } => {
                    return Err(PevalError::NotRowLocal { node: i, op: "gat_aggregate" })
                }
            }
            demand[i] = Some(d);
        }
        // Full-demand closure: the SumAll/SumRows arms above mark their own
        // op, whose *inputs* eval_full materializes recursively.

        // ---- forward pass ---------------------------------------------
        let mut full_vals: Vec<Option<Tensor>> = vec![None; self.ops.len()];
        let mut row_vals: Vec<Option<Tensor>> = vec![None; self.ops.len()];
        for i in 0..self.ops.len() {
            if need_full[i] {
                self.eval_full(i, &mut full_vals)?;
            }
            let Some(d) = demand[i].clone() else { continue };
            // Rows `wanted` of instruction `j`, gathered (a pure bitwise
            // copy) from wherever they live: the leaf itself, the row-subset
            // value, or the full value.
            let take = |j: usize, wanted: &[usize]| -> Result<Tensor, PevalError> {
                match &self.ops[j] {
                    ProgramOp::Constant { value } => Ok(value.gather_rows(wanted)),
                    ProgramOp::Param { name } => Ok(self.lookup(name)?.gather_rows(wanted)),
                    _ => {
                        if let Some(rv) = &row_vals[j] {
                            let union = demand[j].as_ref().expect("row value has a demand set");
                            Ok(rv.gather_rows(&positions(union, wanted)))
                        } else {
                            let fv = full_vals[j].as_ref().expect("peval: operand unevaluated");
                            Ok(fv.gather_rows(wanted))
                        }
                    }
                }
            };
            let full = |j: usize| -> Result<&Tensor, PevalError> {
                match &self.ops[j] {
                    ProgramOp::Constant { value } => Ok(value),
                    ProgramOp::Param { name } => self.lookup(name),
                    _ => Ok(full_vals[j].as_ref().expect("peval: full operand unevaluated")),
                }
            };
            let out = match &self.ops[i] {
                // Leaf rows are gathered lazily by consumers; no value to
                // store (and nothing to compute).
                ProgramOp::Constant { .. } | ProgramOp::Param { .. } => continue,
                ProgramOp::MatMul { a, b } => take(*a, &d)?.matmul(full(*b)?),
                ProgramOp::SpMM { m, x } => {
                    let cols = spmm_cols[i].as_ref().expect("spmm demand recorded");
                    let block = self.sparse[*m].slice(&d, cols);
                    block.spmm(&take(*x, cols)?)
                }
                ProgramOp::Add { a, b } => take(*a, &d)?.add(&take(*b, &d)?),
                ProgramOp::Sub { a, b } => take(*a, &d)?.sub(&take(*b, &d)?),
                ProgramOp::Mul { a, b } => take(*a, &d)?.mul(&take(*b, &d)?),
                ProgramOp::Div { a, b } => take(*a, &d)?.div(&take(*b, &d)?),
                ProgramOp::Scale { x, alpha } => take(*x, &d)?.scale(*alpha),
                ProgramOp::AddConst { x, c } => take(*x, &d)?.add_scalar(*c),
                ProgramOp::Pow { x, p, eps } => {
                    let (p, eps) = (*p, *eps);
                    take(*x, &d)?.map(|t| (t + eps).powf(p))
                }
                ProgramOp::Exp { x } => take(*x, &d)?.map(f32::exp),
                ProgramOp::Relu { x } => take(*x, &d)?.relu(),
                ProgramOp::LeakyRelu { x, slope } => take(*x, &d)?.leaky_relu(*slope),
                ProgramOp::Sigmoid { x } => take(*x, &d)?.sigmoid(),
                ProgramOp::Tanh { x } => take(*x, &d)?.tanh(),
                ProgramOp::AddRowBroadcast { x, b } => {
                    take(*x, &d)?.add_row_broadcast(full(*b)?)
                }
                ProgramOp::AddColBroadcast { x, c } => {
                    take(*x, &d)?.add_col_broadcast(&take(*c, &d)?)
                }
                ProgramOp::MulColBroadcast { x, c } => {
                    take(*x, &d)?.mul_col_broadcast(&take(*c, &d)?)
                }
                ProgramOp::MulScalarNode { x, s } => take(*x, &d)?.scale(full(*s)?.get(0, 0)),
                ProgramOp::LogSoftmax { x } => take(*x, &d)?.log_softmax_rows(),
                ProgramOp::ConcatCols { parts } => {
                    let mut tensors = Vec::with_capacity(parts.len());
                    for &p in parts {
                        tensors.push(take(p, &d)?);
                    }
                    let refs: Vec<&Tensor> = tensors.iter().collect();
                    Tensor::concat_cols(&refs)
                }
                ProgramOp::SliceCols { x, lo, hi } => take(*x, &d)?.slice_cols(*lo, *hi),
                ProgramOp::GatherRows { x, idx } => {
                    let wanted: Vec<usize> = d.iter().map(|&r| idx[r]).collect();
                    take(*x, &wanted)?
                }
                ProgramOp::SumCols { x } => take(*x, &d)?.sum_cols(),
                // Whole value materialized above; its demanded rows are a
                // gather from it.
                ProgramOp::SumAll { .. } | ProgramOp::SumRows { .. } => {
                    full_vals[i].as_ref().expect("reduction evaluated full").gather_rows(&d)
                }
                ProgramOp::MaxStack { parts } => {
                    let mut acc = take(parts[0], &d)?;
                    for &p in &parts[1..] {
                        let pv = take(p, &d)?;
                        for (best, cand) in acc.as_mut_slice().iter_mut().zip(pv.as_slice()) {
                            if *cand > *best {
                                *best = *cand;
                            }
                        }
                    }
                    acc
                }
                ProgramOp::GatAggregate { .. } => {
                    return Err(PevalError::NotRowLocal { node: i, op: "gat_aggregate" })
                }
            };
            row_vals[i] = Some(out);
        }

        // Map the caller's row order onto the sorted union.
        let union = demand[self.output].as_ref().expect("output demanded");
        let value = row_vals[self.output].as_ref().expect("output evaluated");
        Ok(value.gather_rows(&positions(union, rows)))
    }
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
