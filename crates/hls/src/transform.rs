//! IR transformations: constant folding and algebraic simplification.
//!
//! The first pass every HLS frontend runs: fold constant subexpressions,
//! strip arithmetic identities (`x·1`, `x+0`, `x/1`), and resolve
//! constant-condition selects. Fewer IR operators means smaller
//! estimated datapaths — the estimator charges what the folded kernel
//! actually contains — while the interpreter guarantees the meaning is
//! unchanged (tested below by running both versions).

use crate::ir::{BinOp, Expr, Kernel, Stmt};

/// Folds constants and algebraic identities in an expression.
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Load { array, index } => Expr::Load {
            array: array.clone(),
            index: Box::new(fold_expr(index)),
        },
        Expr::Unary(op, a) => {
            let a = fold_expr(a);
            if let Expr::Const(v) = a {
                return Expr::Const(op.apply(v));
            }
            Expr::Unary(*op, Box::new(a))
        }
        Expr::Binary(op, a, b) => {
            let a = fold_expr(a);
            let b = fold_expr(b);
            if let (Expr::Const(x), Expr::Const(y)) = (&a, &b) {
                return Expr::Const(op.apply(*x, *y));
            }
            // algebraic identities (floating-point-safe subset: x·0 is
            // NOT folded because x could be NaN/inf in general; the
            // kernel language targets well-behaved numeric data, but we
            // stay conservative anyway)
            match (op, &a, &b) {
                (BinOp::Add, x, Expr::Const(c)) | (BinOp::Add, Expr::Const(c), x) if *c == 0.0 => {
                    return x.clone()
                }
                (BinOp::Sub, x, Expr::Const(c)) if *c == 0.0 => return x.clone(),
                (BinOp::Mul, x, Expr::Const(c)) | (BinOp::Mul, Expr::Const(c), x) if *c == 1.0 => {
                    return x.clone()
                }
                (BinOp::Div, x, Expr::Const(c)) if *c == 1.0 => return x.clone(),
                _ => {}
            }
            Expr::Binary(*op, Box::new(a), Box::new(b))
        }
        Expr::Select { cond, then, els } => {
            let cond = fold_expr(cond);
            if let Expr::Const(c) = cond {
                return if c != 0.0 {
                    fold_expr(then)
                } else {
                    fold_expr(els)
                };
            }
            Expr::Select {
                cond: Box::new(cond),
                then: Box::new(fold_expr(then)),
                els: Box::new(fold_expr(els)),
            }
        }
    }
}

fn fold_block(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { var, value } => Stmt::Assign {
                var: var.clone(),
                value: fold_expr(value),
            },
            Stmt::Store {
                array,
                index,
                value,
            } => Stmt::Store {
                array: array.clone(),
                index: fold_expr(index),
                value: fold_expr(value),
            },
            Stmt::For {
                var,
                start,
                end,
                body,
            } => Stmt::For {
                var: var.clone(),
                start: fold_expr(start),
                end: fold_expr(end),
                body: fold_block(body),
            },
            Stmt::If { cond, then, els } => {
                let cond = fold_expr(cond);
                if let Expr::Const(c) = cond {
                    // statically-resolved branch: keep only the taken side
                    // (wrapped in an always-true If so one statement maps
                    // to one statement)
                    let taken = if c != 0.0 { then } else { els };
                    return Stmt::If {
                        cond: Expr::Const(1.0),
                        then: fold_block(taken),
                        els: Vec::new(),
                    };
                }
                Stmt::If {
                    cond,
                    then: fold_block(then),
                    els: fold_block(els),
                }
            }
        })
        .collect()
}

/// Returns a semantically identical kernel with constants folded.
///
/// # Example
///
/// ```
/// use ecoscale_hls::{fold_kernel, parse_kernel, KernelAnalysis};
/// use std::collections::HashMap;
///
/// let k = parse_kernel(
///     "kernel f(in float a[], out float b[], int n) {
///          for (i in 0 .. n) { b[i] = a[i] * (2.0 * 3.0) + 0.0; }
///      }",
/// )?;
/// let folded = fold_kernel(&k);
/// let hints = HashMap::from([("n".to_string(), 8.0)]);
/// let before = KernelAnalysis::analyze(&k, &hints);
/// let after = KernelAnalysis::analyze(&folded, &hints);
/// // 2.0*3.0 folded, +0.0 stripped: two ops gone
/// assert!(after.hot_loop().unwrap().body_census.flops()
///     < before.hot_loop().unwrap().body_census.flops());
/// # Ok::<(), ecoscale_hls::ParseKernelError>(())
/// ```
pub fn fold_kernel(kernel: &Kernel) -> Kernel {
    Kernel::new(
        kernel.name(),
        kernel.params().to_vec(),
        fold_block(kernel.body()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::KernelArgs;
    use crate::ir::UnOp;
    use crate::parser::parse_kernel;

    fn assert_same_behaviour(src: &str, n: usize) {
        let k = parse_kernel(src).unwrap();
        let folded = fold_kernel(&k);
        let mk_args = || {
            let mut args = KernelArgs::new();
            args.bind_array("a", (0..n).map(|i| i as f64 * 0.37 - 1.0).collect())
                .bind_array("b", vec![0.0; n])
                .bind_scalar("n", n as f64);
            args
        };
        let mut a1 = mk_args();
        a1.run(&k).unwrap();
        let mut a2 = mk_args();
        a2.run(&folded).unwrap();
        assert_eq!(a1.array("b").unwrap(), a2.array("b").unwrap());
    }

    #[test]
    fn folds_constant_subexpressions() {
        let e = fold_expr(&Expr::bin(
            BinOp::Mul,
            Expr::Const(2.0),
            Expr::bin(BinOp::Add, Expr::Const(3.0), Expr::Const(4.0)),
        ));
        assert_eq!(e, Expr::Const(14.0));
    }

    #[test]
    fn folds_unary_and_intrinsics() {
        assert_eq!(
            fold_expr(&Expr::un(UnOp::Sqrt, Expr::Const(9.0))),
            Expr::Const(3.0)
        );
        assert_eq!(
            fold_expr(&Expr::un(UnOp::Not, Expr::Const(0.0))),
            Expr::Const(1.0)
        );
        assert_eq!(
            fold_expr(&Expr::un(UnOp::Neg, Expr::Const(2.5))),
            Expr::Const(-2.5)
        );
    }

    #[test]
    fn strips_identities() {
        let x = Expr::var("x");
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Add, x.clone(), Expr::Const(0.0))),
            x
        );
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Mul, Expr::Const(1.0), x.clone())),
            x
        );
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Div, x.clone(), Expr::Const(1.0))),
            x
        );
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Sub, x.clone(), Expr::Const(0.0))),
            x
        );
        // x*0 is NOT folded (conservative)
        let x0 = Expr::bin(BinOp::Mul, x.clone(), Expr::Const(0.0));
        assert_eq!(fold_expr(&x0), x0);
    }

    #[test]
    fn resolves_constant_selects() {
        let s = Expr::Select {
            cond: Box::new(Expr::bin(BinOp::Lt, Expr::Const(1.0), Expr::Const(2.0))),
            then: Box::new(Expr::var("a")),
            els: Box::new(Expr::var("b")),
        };
        assert_eq!(fold_expr(&s), Expr::var("a"));
    }

    #[test]
    fn folded_kernel_behaves_identically() {
        assert_same_behaviour(
            "kernel f(in float a[], out float b[], int n) {
                 for (i in 0 .. n) {
                     b[i] = a[i] * (2.0 * 3.0) + (1.0 - 1.0);
                     if (1.0 < 2.0) { b[i] = b[i] + 1.0; } else { b[i] = 0.0; }
                 }
             }",
            16,
        );
    }

    #[test]
    fn folding_reduces_estimated_area() {
        use crate::estimate::{estimate, HlsDirectives, OpCosts};
        use std::collections::HashMap;
        let k = parse_kernel(
            "kernel f(in float a[], out float b[], int n) {
                 for (i in 0 .. n) {
                     b[i] = a[i] * sqrt(4.0) + exp(0.0) - 1.0 + 0.0;
                 }
             }",
        )
        .unwrap();
        let folded = fold_kernel(&k);
        let hints = HashMap::from([("n".to_owned(), 1024.0)]);
        let before = estimate(&k, &hints, HlsDirectives::default(), &OpCosts::default()).unwrap();
        let after = estimate(
            &folded,
            &hints,
            HlsDirectives::default(),
            &OpCosts::default(),
        )
        .unwrap();
        assert!(
            after.resources.total() < before.resources.total(),
            "{} !< {}",
            after.resources.total(),
            before.resources.total()
        );
    }

    #[test]
    fn loop_bounds_fold_too() {
        let k = parse_kernel(
            "kernel f(out float b[]) {
                 for (i in (1.0 - 1.0) .. (2.0 * 4.0)) { b[i] = 1.0; }
             }",
        )
        .unwrap();
        let folded = fold_kernel(&k);
        match &folded.body()[0] {
            Stmt::For { start, end, .. } => {
                assert_eq!(*start, Expr::Const(0.0));
                assert_eq!(*end, Expr::Const(8.0));
            }
            other => panic!("{other:?}"),
        }
    }
}
