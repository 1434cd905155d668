//! Static kernel analysis: operation censuses, trip counts, loop-carried
//! dependences.
//!
//! The estimator needs three facts about a kernel: how much arithmetic
//! and memory traffic one iteration of its hot loop performs
//! ([`OpCensus`]), how many iterations run in total (trip counts resolved
//! against scalar argument hints), and whether the hot loop carries a
//! scalar dependence (a reduction like `acc = acc + ...`), which bounds
//! the initiation interval from below.

use std::collections::HashMap;

use crate::ir::{BinOp, Expr, Kernel, Stmt, UnOp};

/// Counts of operations in a block (exclusive of nested loops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// Additions and subtractions.
    pub add_sub: u32,
    /// Multiplications.
    pub mul: u32,
    /// Divisions and remainders.
    pub div: u32,
    /// Transcendental / special ops (sqrt, exp, log).
    pub special: u32,
    /// Comparisons, logic, min/max, abs, floor, neg, select muxes.
    pub simple: u32,
    /// Array element reads.
    pub loads: u32,
    /// Array element writes.
    pub stores: u32,
}

impl OpCensus {
    /// Total arithmetic operations (excluding loads/stores).
    pub fn flops(&self) -> u32 {
        self.add_sub + self.mul + self.div + self.special + self.simple
    }

    /// Total memory operations.
    pub fn mem_ops(&self) -> u32 {
        self.loads + self.stores
    }

    fn add_expr(&mut self, e: &Expr) {
        e.visit(&mut |node| match node {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Load { .. } => self.loads += 1,
            Expr::Unary(op, _) => match op {
                UnOp::Sqrt | UnOp::Exp | UnOp::Log => self.special += 1,
                UnOp::Neg | UnOp::Abs | UnOp::Floor | UnOp::Not => self.simple += 1,
            },
            Expr::Binary(op, _, _) => match op {
                BinOp::Add | BinOp::Sub => self.add_sub += 1,
                BinOp::Mul => self.mul += 1,
                BinOp::Div | BinOp::Rem => self.div += 1,
                _ => self.simple += 1,
            },
            Expr::Select { .. } => self.simple += 1,
        });
    }

    fn merge(&mut self, o: &OpCensus) {
        self.add_sub += o.add_sub;
        self.mul += o.mul;
        self.div += o.div;
        self.special += o.special;
        self.simple += o.simple;
        self.loads += o.loads;
        self.stores += o.stores;
    }
}

/// Facts about one loop in the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// The loop variable.
    pub var: String,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Iterations of this loop (resolved against scalar hints), if
    /// statically resolvable.
    pub trip_count: Option<u64>,
    /// Iterations of this loop times all enclosing loops.
    pub total_iterations: Option<u64>,
    /// Work per iteration, excluding nested loops.
    pub body_census: OpCensus,
    /// `true` if the body carries a scalar reduction dependence.
    pub carried_dependence: bool,
    /// `true` if no loop nests inside this one.
    pub innermost: bool,
}

/// The complete analysis of one kernel.
///
/// # Example
///
/// ```
/// use ecoscale_hls::{parse_kernel, KernelAnalysis};
/// use std::collections::HashMap;
///
/// let k = parse_kernel(
///     "kernel dot(in float a[], in float b[], out float o[], int n) {
///          acc = 0.0;
///          for (i in 0 .. n) { acc = acc + a[i] * b[i]; }
///          o[0] = acc;
///      }",
/// )?;
/// let hints = HashMap::from([("n".to_string(), 1024.0)]);
/// let an = KernelAnalysis::analyze(&k, &hints);
/// let hot = an.hot_loop().expect("has a loop");
/// assert_eq!(hot.trip_count, Some(1024));
/// assert!(hot.carried_dependence); // acc = acc + ...
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAnalysis {
    loops: Vec<LoopInfo>,
    straight_line: OpCensus,
    total: Option<OpCensus64>,
}

/// Whole-kernel operation totals (u64 to survive big trip counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus64 {
    /// Total arithmetic ops.
    pub flops: u64,
    /// Total transcendental ops (subset of `flops`; a software core pays
    /// tens of cycles each where a pipelined datapath pays one slot).
    pub special: u64,
    /// Total memory ops.
    pub mem_ops: u64,
    /// Total loads.
    pub loads: u64,
    /// Total stores.
    pub stores: u64,
}

fn eval_const(e: &Expr, hints: &HashMap<String, f64>) -> Option<f64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(name) => hints.get(name).copied(),
        Expr::Binary(op, a, b) => {
            let x = eval_const(a, hints)?;
            let y = eval_const(b, hints)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Some(op.apply(x, y)),
                _ => None,
            }
        }
        Expr::Unary(UnOp::Neg, a) => Some(UnOp::Neg.apply(eval_const(a, hints)?)),
        _ => None,
    }
}

fn body_carries_dependence(stmts: &[Stmt]) -> bool {
    fn expr_mentions(e: &Expr, var: &str) -> bool {
        let mut found = false;
        e.visit(&mut |n| {
            if let Expr::Var(v) = n {
                if v == var {
                    found = true;
                }
            }
        });
        found
    }
    fn walk(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Assign { var, value } => expr_mentions(value, var),
            Stmt::If { then, els, .. } => walk(then) || walk(els),
            // nested loops are analyzed separately
            _ => false,
        })
    }
    walk(stmts)
}

fn census_of_block(stmts: &[Stmt]) -> OpCensus {
    let mut c = OpCensus::default();
    for s in stmts {
        match s {
            Stmt::Assign { value, .. } => c.add_expr(value),
            Stmt::Store { index, value, .. } => {
                c.stores += 1;
                c.add_expr(index);
                c.add_expr(value);
            }
            Stmt::If { cond, then, els } => {
                c.add_expr(cond);
                // branch bodies execute predicated in hardware: charge both
                c.merge(&census_of_block(then));
                c.merge(&census_of_block(els));
            }
            Stmt::For { .. } => {} // handled by the loop walker
        }
    }
    c
}

impl KernelAnalysis {
    /// Analyzes `kernel`, resolving loop bounds against `scalar_hints`
    /// (typical argument values, e.g. the problem size the runtime is
    /// about to launch).
    pub fn analyze(kernel: &Kernel, scalar_hints: &HashMap<String, f64>) -> KernelAnalysis {
        let mut loops = Vec::new();
        fn walk(
            stmts: &[Stmt],
            depth: u32,
            enclosing: Option<u64>,
            hints: &HashMap<String, f64>,
            out: &mut Vec<LoopInfo>,
        ) {
            for s in stmts {
                match s {
                    Stmt::For {
                        var,
                        start,
                        end,
                        body,
                    } => {
                        let trip = match (eval_const(start, hints), eval_const(end, hints)) {
                            (Some(a), Some(b)) if b >= a => Some((b - a) as u64),
                            (Some(_), Some(_)) => Some(0),
                            _ => None,
                        };
                        let total = match (trip, enclosing) {
                            (Some(t), Some(e)) => Some(t * e),
                            (Some(t), None) => Some(t),
                            _ => None,
                        };
                        let has_inner = body.iter().any(|s| matches!(s, Stmt::For { .. }))
                            || body.iter().any(|s| match s {
                                Stmt::If { then, els, .. } => then
                                    .iter()
                                    .chain(els.iter())
                                    .any(|x| matches!(x, Stmt::For { .. })),
                                _ => false,
                            });
                        out.push(LoopInfo {
                            var: var.clone(),
                            depth,
                            trip_count: trip,
                            total_iterations: total,
                            body_census: census_of_block(body),
                            carried_dependence: body_carries_dependence(body),
                            innermost: !has_inner,
                        });
                        walk(body, depth + 1, total, hints, out);
                    }
                    Stmt::If { then, els, .. } => {
                        walk(then, depth, enclosing, hints, out);
                        walk(els, depth, enclosing, hints, out);
                    }
                    _ => {}
                }
            }
        }
        walk(kernel.body(), 0, None, scalar_hints, &mut loops);

        let straight_line = census_of_block(kernel.body());

        // whole-kernel totals (straight-line + every loop body × its total
        // iterations), None if any loop is unresolved
        let mut total = Some(OpCensus64 {
            flops: straight_line.flops() as u64,
            special: straight_line.special as u64,
            mem_ops: straight_line.mem_ops() as u64,
            loads: straight_line.loads as u64,
            stores: straight_line.stores as u64,
        });
        for l in &loops {
            match (l.total_iterations, &mut total) {
                (Some(iters), Some(t)) => {
                    t.flops += l.body_census.flops() as u64 * iters;
                    t.special += l.body_census.special as u64 * iters;
                    t.mem_ops += l.body_census.mem_ops() as u64 * iters;
                    t.loads += l.body_census.loads as u64 * iters;
                    t.stores += l.body_census.stores as u64 * iters;
                }
                _ => total = None,
            }
        }

        KernelAnalysis {
            loops,
            straight_line,
            total,
        }
    }

    /// Every loop, outermost first.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Operations outside any loop.
    pub fn straight_line(&self) -> &OpCensus {
        &self.straight_line
    }

    /// Whole-kernel totals, if all trip counts resolved.
    pub fn total(&self) -> Option<&OpCensus64> {
        self.total.as_ref()
    }

    /// The innermost loop doing the most total work — the pipelining
    /// target. `None` for loop-free kernels.
    pub fn hot_loop(&self) -> Option<&LoopInfo> {
        self.loops.iter().filter(|l| l.innermost).max_by_key(|l| {
            l.total_iterations
                .map(|t| t * l.body_census.flops().max(1) as u64)
                .unwrap_or(u64::MAX) // unresolved: assume hottest
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;

    fn hints(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn census_counts_ops() {
        let k = parse_kernel(
            "kernel c(in float a[], out float o[], int n) {
                 for (i in 0 .. n) {
                     o[i] = sqrt(a[i]) * 2.0 + a[i] / 3.0;
                 }
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 100.0)]));
        let hot = an.hot_loop().unwrap();
        assert_eq!(hot.body_census.loads, 2);
        assert_eq!(hot.body_census.stores, 1);
        assert_eq!(hot.body_census.special, 1);
        assert_eq!(hot.body_census.mul, 1);
        assert_eq!(hot.body_census.div, 1);
        assert_eq!(hot.body_census.add_sub, 1);
    }

    #[test]
    fn trip_counts_resolve_from_hints() {
        let k = parse_kernel(
            "kernel t(out float o[], int n, int m) {
                 for (i in 0 .. n) {
                     for (j in 0 .. m) { o[i * m + j] = 1.0; }
                 }
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 8.0), ("m", 16.0)]));
        assert_eq!(an.loops().len(), 2);
        assert_eq!(an.loops()[0].trip_count, Some(8));
        assert_eq!(an.loops()[1].trip_count, Some(16));
        assert_eq!(an.loops()[1].total_iterations, Some(128));
        assert!(an.loops()[1].innermost);
        assert!(!an.loops()[0].innermost);
        assert_eq!(an.total().unwrap().stores, 128);
    }

    #[test]
    fn unresolved_trip_counts_are_none() {
        let k =
            parse_kernel("kernel u(out float o[], int n) { for (i in 0 .. n) { o[i] = 0.0; } }")
                .unwrap();
        let an = KernelAnalysis::analyze(&k, &HashMap::new());
        assert_eq!(an.loops()[0].trip_count, None);
        assert!(an.total().is_none());
    }

    #[test]
    fn detects_reduction_dependence() {
        let k = parse_kernel(
            "kernel dot(in float a[], in float b[], out float o[], int n) {
                 acc = 0.0;
                 for (i in 0 .. n) { acc = acc + a[i] * b[i]; }
                 o[0] = acc;
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 64.0)]));
        assert!(an.hot_loop().unwrap().carried_dependence);
        // straight-line part: the init and the final store
        assert_eq!(an.straight_line().stores, 1);
    }

    #[test]
    fn streaming_loop_has_no_dependence() {
        let k = parse_kernel(
            "kernel s(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] * 2.0; }
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 64.0)]));
        assert!(!an.hot_loop().unwrap().carried_dependence);
    }

    #[test]
    fn dependence_inside_if_detected() {
        let k = parse_kernel(
            "kernel c(in float a[], out float o[], int n) {
                 cnt = 0.0;
                 for (i in 0 .. n) {
                     if (a[i] > 0.0) { cnt = cnt + 1.0; }
                 }
                 o[0] = cnt;
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 64.0)]));
        assert!(an.hot_loop().unwrap().carried_dependence);
    }

    #[test]
    fn hot_loop_picks_biggest_innermost() {
        let k = parse_kernel(
            "kernel h(out float o[], int n) {
                 for (i in 0 .. 4) { o[i] = 0.0; }
                 for (j in 0 .. n) { o[j] = o[j] + 1.0; }
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 10_000.0)]));
        assert_eq!(an.hot_loop().unwrap().var, "j");
    }

    #[test]
    fn derived_bounds_resolve() {
        let k = parse_kernel(
            "kernel d(out float o[], int n) {
                 for (i in 0 .. n / 2) { o[i] = 1.0; }
             }",
        )
        .unwrap();
        let an = KernelAnalysis::analyze(&k, &hints(&[("n", 10.0)]));
        assert_eq!(an.loops()[0].trip_count, Some(5));
    }

    #[test]
    fn loop_free_kernel() {
        let k = parse_kernel("kernel f(out float o[]) { o[0] = 1.0 + 2.0; }").unwrap();
        let an = KernelAnalysis::analyze(&k, &HashMap::new());
        assert!(an.hot_loop().is_none());
        assert_eq!(an.straight_line().add_sub, 1);
        assert_eq!(an.total().unwrap().stores, 1);
    }

    #[test]
    fn flops_and_mem_ops_helpers() {
        let c = OpCensus {
            add_sub: 2,
            mul: 3,
            loads: 4,
            stores: 1,
            ..OpCensus::default()
        };
        assert_eq!(c.flops(), 5);
        assert_eq!(c.mem_ops(), 5);
    }
}
