//! The kernel intermediate representation.
//!
//! A [`Kernel`] is a named function over array and scalar parameters whose
//! body is a tree of counted loops, conditional blocks, scalar
//! assignments, and array stores. This is the common representation for
//! the parser, interpreter, cost estimator and design-space explorer —
//! one definition of the computation, consumed four ways.

use core::fmt;
use std::sync::OnceLock;

use crate::interp::Program;

/// How a kernel parameter is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Read-only array (`in float a[]`).
    ArrayIn,
    /// Write-only array (`out float a[]`).
    ArrayOut,
    /// Read-write array (`inout float a[]`).
    ArrayInOut,
    /// Scalar argument (`float x` / `int n`).
    Scalar,
}

/// A kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Usage kind.
    pub kind: ParamKind,
}

impl Param {
    /// Creates a parameter.
    pub fn new(name: &str, kind: ParamKind) -> Param {
        Param {
            name: name.to_owned(),
            kind,
        }
    }

    /// Returns `true` for the array kinds.
    pub fn is_array(&self) -> bool {
        !matches!(self.kind, ParamKind::Scalar)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Less-than (yields 0.0 / 1.0).
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Logical and (non-zero = true).
    And,
    /// Logical or.
    Or,
    /// Remainder.
    Rem,
}

impl BinOp {
    /// The operator's value on `x` and `y`: comparisons and logic yield
    /// 0.0 / 1.0, and any non-zero operand counts as true.
    #[inline]
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::Rem => x % y,
            BinOp::Lt => (x < y) as u8 as f64,
            BinOp::Le => (x <= y) as u8 as f64,
            BinOp::Gt => (x > y) as u8 as f64,
            BinOp::Ge => (x >= y) as u8 as f64,
            BinOp::Eq => (x == y) as u8 as f64,
            BinOp::And => (x != 0.0 && y != 0.0) as u8 as f64,
            BinOp::Or => (x != 0.0 || y != 0.0) as u8 as f64,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Rem => "%",
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value.
    Abs,
    /// Floor.
    Floor,
    /// Logical not.
    Not,
}

impl UnOp {
    /// The operator's value on `v`; logical not yields 0.0 / 1.0.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            UnOp::Neg => -v,
            UnOp::Sqrt => v.sqrt(),
            UnOp::Exp => v.exp(),
            UnOp::Log => v.ln(),
            UnOp::Abs => v.abs(),
            UnOp::Floor => v.floor(),
            UnOp::Not => (v == 0.0) as u8 as f64,
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Sqrt => "sqrt",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Abs => "abs",
            UnOp::Floor => "floor",
            UnOp::Not => "!",
        })
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Const(f64),
    /// A scalar parameter, local, or loop variable.
    Var(String),
    /// An array element read.
    Load {
        /// Array name.
        array: String,
        /// Element index.
        index: Box<Expr>,
    },
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `select(cond, a, b)`: `a` if `cond` is non-zero else `b`.
    Select {
        /// Condition.
        cond: Box<Expr>,
        /// Taken when the condition is non-zero.
        then: Box<Expr>,
        /// Taken otherwise.
        els: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor: variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_owned())
    }

    /// Convenience constructor: array load.
    pub fn load(array: &str, index: Expr) -> Expr {
        Expr::Load {
            array: array.to_owned(),
            index: Box::new(index),
        }
    }

    /// Convenience constructor: binary op.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor: unary op.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Unary(op, Box::new(e))
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Load { index, .. } => index.visit(f),
            Expr::Unary(_, e) => e.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Select { cond, then, els } => {
                cond.visit(f);
                then.visit(f);
                els.visit(f);
            }
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar assignment (declares the variable on first use).
    Assign {
        /// Target variable.
        var: String,
        /// Right-hand side.
        value: Expr,
    },
    /// Array element store.
    Store {
        /// Target array.
        array: String,
        /// Element index.
        index: Expr,
        /// Stored value.
        value: Expr,
    },
    /// Counted loop over `[start, end)`.
    For {
        /// Loop variable.
        var: String,
        /// Inclusive start.
        start: Expr,
        /// Exclusive end.
        end: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Conditional block.
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then-branch.
        then: Vec<Stmt>,
        /// Else-branch (possibly empty).
        els: Vec<Stmt>,
    },
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Var(name) => f.write_str(name),
            Expr::Load { array, index } => write!(f, "{array}[{index}]"),
            Expr::Unary(op, a) => match op {
                UnOp::Neg => write!(f, "(-{a})"),
                UnOp::Not => write!(f, "(!{a})"),
                UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Abs | UnOp::Floor => {
                    write!(f, "{op}({a})")
                }
            },
            Expr::Binary(op, a, b) => match op {
                BinOp::Min | BinOp::Max => write!(f, "{op}({a}, {b})"),
                _ => write!(f, "({a} {op} {b})"),
            },
            Expr::Select { cond, then, els } => write!(f, "select({cond}, {then}, {els})"),
        }
    }
}

fn write_block(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            Stmt::Assign { var, value } => writeln!(f, "{pad}{var} = {value};")?,
            Stmt::Store {
                array,
                index,
                value,
            } => writeln!(f, "{pad}{array}[{index}] = {value};")?,
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                writeln!(f, "{pad}for ({var} in {start} .. {end}) {{")?;
                write_block(f, body, indent + 1)?;
                writeln!(f, "{pad}}}")?;
            }
            Stmt::If { cond, then, els } => {
                writeln!(f, "{pad}if ({cond}) {{")?;
                write_block(f, then, indent + 1)?;
                if els.is_empty() {
                    writeln!(f, "{pad}}}")?;
                } else {
                    writeln!(f, "{pad}}} else {{")?;
                    write_block(f, els, indent + 1)?;
                    writeln!(f, "{pad}}}")?;
                }
            }
        }
    }
    Ok(())
}

impl fmt::Display for Kernel {
    /// Pretty-prints the kernel as parseable source: for every kernel
    /// `k`, `parse_kernel(&k.to_string())` reproduces `k` up to
    /// redundant parentheses (the round-trip property test lives in
    /// `tests/properties.rs`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match p.kind {
                ParamKind::ArrayIn => write!(f, "in float {}[]", p.name)?,
                ParamKind::ArrayOut => write!(f, "out float {}[]", p.name)?,
                ParamKind::ArrayInOut => write!(f, "inout float {}[]", p.name)?,
                ParamKind::Scalar => write!(f, "float {}", p.name)?,
            }
        }
        writeln!(f, ") {{")?;
        write_block(f, &self.body, 1)?;
        write!(f, "}}")
    }
}

/// A synthesizable kernel.
///
/// # Example
///
/// Building `c[i] = a[i] + b[i]` programmatically:
///
/// ```
/// use ecoscale_hls::ir::{BinOp, Expr, Kernel, Param, ParamKind, Stmt};
///
/// let body = vec![Stmt::For {
///     var: "i".into(),
///     start: Expr::Const(0.0),
///     end: Expr::var("n"),
///     body: vec![Stmt::Store {
///         array: "c".into(),
///         index: Expr::var("i"),
///         value: Expr::bin(
///             BinOp::Add,
///             Expr::load("a", Expr::var("i")),
///             Expr::load("b", Expr::var("i")),
///         ),
///     }],
/// }];
/// let k = Kernel::new(
///     "vadd",
///     vec![
///         Param::new("a", ParamKind::ArrayIn),
///         Param::new("b", ParamKind::ArrayIn),
///         Param::new("c", ParamKind::ArrayOut),
///         Param::new("n", ParamKind::Scalar),
///     ],
///     body,
/// );
/// assert_eq!(k.name(), "vadd");
/// assert_eq!(k.arrays().count(), 3);
/// ```
///
/// A kernel compiles itself for the interpreter on its first run and
/// keeps the program; `Clone`, `PartialEq` and `Debug` ignore it.
pub struct Kernel {
    name: String,
    params: Vec<Param>,
    body: Vec<Stmt>,
    program: OnceLock<Program>,
}

impl Clone for Kernel {
    fn clone(&self) -> Kernel {
        Kernel {
            name: self.name.clone(),
            params: self.params.clone(),
            body: self.body.clone(),
            program: OnceLock::new(),
        }
    }
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Kernel) -> bool {
        self.name == other.name && self.params == other.params && self.body == other.body
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("body", &self.body)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel.
    ///
    /// # Panics
    ///
    /// Panics if two parameters share a name.
    pub fn new(name: &str, params: Vec<Param>, body: Vec<Stmt>) -> Kernel {
        for (i, p) in params.iter().enumerate() {
            for q in &params[..i] {
                assert!(p.name != q.name, "duplicate parameter `{}`", p.name);
            }
        }
        Kernel {
            name: name.to_owned(),
            params,
            body,
            program: OnceLock::new(),
        }
    }

    /// The interpreter's program for this kernel, compiled on first use.
    pub(crate) fn program(&self) -> &Program {
        self.program.get_or_init(|| Program::compile(self))
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All parameters in declaration order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// The body statements.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Iterates over array parameters.
    pub fn arrays(&self) -> impl Iterator<Item = &Param> + '_ {
        self.params.iter().filter(|p| p.is_array())
    }

    /// Iterates over scalar parameters.
    pub fn scalars(&self) -> impl Iterator<Item = &Param> + '_ {
        self.params.iter().filter(|p| !p.is_array())
    }

    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Visits every statement in the body, pre-order, with its loop depth.
    pub fn visit_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt, u32)) {
        fn walk<'a>(stmts: &'a [Stmt], depth: u32, f: &mut impl FnMut(&'a Stmt, u32)) {
            for s in stmts {
                f(s, depth);
                match s {
                    Stmt::For { body, .. } => walk(body, depth + 1, f),
                    Stmt::If { then, els, .. } => {
                        walk(then, depth, f);
                        walk(els, depth, f);
                    }
                    _ => {}
                }
            }
        }
        walk(&self.body, 0, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vadd() -> Kernel {
        Kernel::new(
            "vadd",
            vec![
                Param::new("a", ParamKind::ArrayIn),
                Param::new("b", ParamKind::ArrayIn),
                Param::new("c", ParamKind::ArrayOut),
                Param::new("n", ParamKind::Scalar),
            ],
            vec![Stmt::For {
                var: "i".into(),
                start: Expr::Const(0.0),
                end: Expr::var("n"),
                body: vec![Stmt::Store {
                    array: "c".into(),
                    index: Expr::var("i"),
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::load("a", Expr::var("i")),
                        Expr::load("b", Expr::var("i")),
                    ),
                }],
            }],
        )
    }

    #[test]
    fn kernel_accessors() {
        let k = vadd();
        assert_eq!(k.name(), "vadd");
        assert_eq!(k.params().len(), 4);
        assert_eq!(k.arrays().count(), 3);
        assert_eq!(k.scalars().count(), 1);
        assert_eq!(k.param("c").unwrap().kind, ParamKind::ArrayOut);
        assert!(k.param("zzz").is_none());
        assert!(k.param("a").unwrap().is_array());
        assert!(!k.param("n").unwrap().is_array());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_params_rejected() {
        Kernel::new(
            "k",
            vec![
                Param::new("x", ParamKind::Scalar),
                Param::new("x", ParamKind::Scalar),
            ],
            vec![],
        );
    }

    #[test]
    fn visit_stmts_reports_depth() {
        let k = vadd();
        let mut depths = Vec::new();
        k.visit_stmts(&mut |s, d| {
            depths.push((matches!(s, Stmt::For { .. }), d));
        });
        assert_eq!(depths, vec![(true, 0), (false, 1)]);
    }

    #[test]
    fn expr_visit_counts_nodes() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::un(UnOp::Sqrt, Expr::var("x")),
            Expr::Select {
                cond: Box::new(Expr::Const(1.0)),
                then: Box::new(Expr::Const(2.0)),
                els: Box::new(Expr::load("a", Expr::Const(0.0))),
            },
        );
        let mut n = 0;
        e.visit(&mut |_| n += 1);
        assert_eq!(n, 8);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let src = "kernel f(in float a[], out float b[], float x, float n) {
            acc = 0.0;
            for (i in 0.0 .. n) {
                if ((a[i] > x)) {
                    acc = (acc + sqrt(a[i]));
                } else {
                    b[i] = select((a[i] == 0.0), 1.0, (a[i] / x));
                }
                b[i] = max(acc, min(a[i], x));
            }
        }";
        let k = crate::parser::parse_kernel(src).unwrap();
        let printed = k.to_string();
        let reparsed = crate::parser::parse_kernel(&printed)
            .unwrap_or_else(|e| panic!("printed source did not parse: {e}\n{printed}"));
        assert_eq!(k, reparsed);
    }

    #[test]
    fn display_formats_structure() {
        let k = vadd();
        let s = k.to_string();
        assert!(s.starts_with("kernel vadd(in float a[], in float b[], out float c[], float n)"));
        assert!(s.contains("for (i in 0.0 .. n) {"));
        assert!(s.contains("c[i] = (a[i] + b[i]);"));
        assert!(s.ends_with('}'));
    }

    #[test]
    fn a_kernel_compiles_once_and_a_clone_starts_fresh() {
        let k = crate::parser::parse_kernel("kernel c(out float o[], float f) { o[0] = f * 2.0; }")
            .unwrap();
        assert!(k.program.get().is_none(), "compiled lazily");
        let mut args = crate::interp::KernelArgs::new();
        args.bind_array("o", vec![0.0]).bind_scalar("f", 1.5);
        args.run(&k).unwrap();
        let program: *const crate::interp::Program = k.program();
        args.run(&k).unwrap();
        assert!(std::ptr::eq(program, k.program()), "compiled once");
        let copy = k.clone();
        assert!(copy.program.get().is_none());
        assert_eq!(copy, k, "equality ignores the program");
        assert_eq!(format!("{copy:?}"), format!("{k:?}"));
    }

    #[test]
    fn op_display() {
        assert_eq!(BinOp::Add.to_string(), "+");
        assert_eq!(BinOp::Le.to_string(), "<=");
        assert_eq!(UnOp::Sqrt.to_string(), "sqrt");
    }
}
