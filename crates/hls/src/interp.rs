//! The functional kernel interpreter.
//!
//! The same IR the estimator costs is executed here, so a kernel run "in
//! hardware" by the simulation produces exactly the bytes the software
//! path produces. Array arguments are `Vec<f64>` buffers bound by name;
//! scalars are `f64`.
//!
//! # Compile, then execute
//!
//! [`KernelArgs::run`] works in two steps:
//!
//! 1. **Compile.** After the signature check, the kernel body is lowered
//!    into a private slot-resolved form. Every scalar, local and loop
//!    variable name becomes an index into a `Vec<f64>` with a defined
//!    flag per slot. Every array name becomes an index into a small
//!    vector of buffers, moved out of the argument map for the run and
//!    moved back on every exit path, errors included. Whether a store
//!    targets a read-only (`in`) array is decided here, once.
//! 2. **Execute.** The lowered tree runs with no hashing and no
//!    allocation. Names are looked up again only to build the error
//!    value when a run fails.
//!
//! # Bit-identity contract
//!
//! The lowered form is the IR with names replaced by indices, nothing
//! more, so results are bit-identical to a direct walk of the IR:
//!
//! * the same `f64` operations run in the same order, with no
//!   reassociation and no fused multiply-add;
//! * indices and loop bounds are converted with a saturating `as i64`;
//! * `select` evaluates only the taken arm, while `&&` and `||` always
//!   evaluate both operands;
//! * errors keep their precedence: a missing argument is reported first,
//!   in parameter order; a store checks read-only before it evaluates its
//!   index, and its index before its value; an unbound name is an error
//!   only when execution reaches it;
//! * a loop variable keeps its last value after the loop, and assigning
//!   to a scalar parameter does not write back to the bindings.
//!
//! `tests/properties.rs` checks this contract against a reference
//! tree-walker over fuzzed kernels.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::ir::{BinOp, Expr, Kernel, ParamKind, Stmt, UnOp};

/// A runtime value (everything is numeric in the kernel language).
pub type Value = f64;

/// Errors raised during kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecKernelError {
    /// An argument required by the signature was not bound.
    MissingArg {
        /// Parameter name.
        name: String,
    },
    /// A name was used but never defined.
    UnknownName {
        /// The offending name.
        name: String,
    },
    /// An array index fell outside the bound buffer.
    IndexOutOfBounds {
        /// Array name.
        array: String,
        /// The evaluated index.
        index: i64,
        /// The buffer length.
        len: usize,
    },
    /// A write targeted a read-only (`in`) array.
    WriteToInput {
        /// Array name.
        array: String,
    },
}

impl fmt::Display for ExecKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecKernelError::MissingArg { name } => write!(f, "argument `{name}` not bound"),
            ExecKernelError::UnknownName { name } => write!(f, "unknown name `{name}`"),
            ExecKernelError::IndexOutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` (len {len})")
            }
            ExecKernelError::WriteToInput { array } => {
                write!(f, "kernel writes read-only input `{array}`")
            }
        }
    }
}

impl Error for ExecKernelError {}

/// Argument bindings for one kernel invocation.
///
/// # Example
///
/// ```
/// use ecoscale_hls::{parse_kernel, KernelArgs};
///
/// let k = parse_kernel(
///     "kernel scale(in float a[], out float b[], float f, int n) {
///          for (i in 0 .. n) { b[i] = f * a[i]; }
///      }",
/// )?;
/// let mut args = KernelArgs::new();
/// args.bind_array("a", vec![1.0, 2.0, 3.0]);
/// args.bind_array("b", vec![0.0; 3]);
/// args.bind_scalar("f", 10.0);
/// args.bind_scalar("n", 3.0);
/// args.run(&k)?;
/// assert_eq!(args.array("b").unwrap(), &[10.0, 20.0, 30.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelArgs {
    arrays: HashMap<String, Vec<Value>>,
    scalars: HashMap<String, Value>,
}

impl KernelArgs {
    /// Creates an empty binding set.
    pub fn new() -> KernelArgs {
        KernelArgs::default()
    }

    /// Binds an array buffer, replacing any previous binding.
    pub fn bind_array(&mut self, name: &str, data: Vec<Value>) -> &mut Self {
        self.arrays.insert(name.to_owned(), data);
        self
    }

    /// Binds a scalar.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> &mut Self {
        self.scalars.insert(name.to_owned(), v);
        self
    }

    /// Reads back an array.
    pub fn array(&self, name: &str) -> Option<&[Value]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    /// Reads back a scalar binding.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        self.scalars.get(name).copied()
    }

    /// Takes ownership of an array buffer.
    pub fn take_array(&mut self, name: &str) -> Option<Vec<Value>> {
        self.arrays.remove(name)
    }

    /// Runs `kernel` against these bindings, mutating the bound output
    /// arrays in place.
    ///
    /// # Errors
    ///
    /// Any [`ExecKernelError`].
    pub fn run(&mut self, kernel: &Kernel) -> Result<(), ExecKernelError> {
        for p in kernel.params() {
            let bound = if p.is_array() {
                self.arrays.contains_key(&p.name)
            } else {
                self.scalars.contains_key(&p.name)
            };
            if !bound {
                return Err(ExecKernelError::MissingArg {
                    name: p.name.clone(),
                });
            }
        }
        let mut lower = Lowering {
            kernel,
            args: self,
            machine: Machine::default(),
        };
        let body = lower.block(kernel.body());
        let mut machine = lower.machine;
        let result = machine.exec(&body).map_err(|f| machine.error(f));
        for (name, buf) in machine.buf_names.into_iter().zip(machine.bufs) {
            self.arrays.insert(name, buf);
        }
        result
    }
}

/// A slot-resolved expression: [`Expr`] with names replaced by indices.
enum Node<'k> {
    Const(Value),
    /// Scalar slot.
    Var(usize),
    /// Load from bound buffer `.0`.
    Load(usize, Box<Node<'k>>),
    /// Load from an array name with no binding: fails once the index has
    /// been evaluated.
    LoadUnbound(&'k str, Box<Node<'k>>),
    Unary(UnOp, Box<Node<'k>>),
    Binary(BinOp, Box<Node<'k>>, Box<Node<'k>>),
    Select(Box<Node<'k>>, Box<Node<'k>>, Box<Node<'k>>),
}

/// A slot-resolved statement: [`Stmt`] with names replaced by indices.
enum Op<'k> {
    Assign(usize, Node<'k>),
    /// Store `value` at `index` into bound buffer `buf`.
    Store {
        buf: usize,
        index: Node<'k>,
        value: Node<'k>,
    },
    /// Store into an array name with no binding: fails once the index
    /// and value have been evaluated.
    StoreUnbound {
        array: &'k str,
        index: Node<'k>,
        value: Node<'k>,
    },
    /// Store into a read-only (`in`) array: fails before evaluating
    /// anything.
    StoreToInput(&'k str),
    For {
        slot: usize,
        start: Node<'k>,
        end: Node<'k>,
        body: Vec<Op<'k>>,
    },
    If(Node<'k>, Vec<Op<'k>>, Vec<Op<'k>>),
}

/// Compile step: lowers a kernel body against one set of bindings,
/// assigning scalar slots and moving referenced array buffers out of
/// the bindings into the machine that will run it.
struct Lowering<'k, 'a> {
    kernel: &'k Kernel,
    args: &'a mut KernelArgs,
    machine: Machine<'k>,
}

impl<'k> Lowering<'k, '_> {
    /// The slot of scalar `name`, allocated on first use and initialised
    /// from the scalar bindings.
    fn slot(&mut self, name: &'k str) -> usize {
        let m = &mut self.machine;
        if let Some(s) = m.scalar_names.iter().position(|n| *n == name) {
            return s;
        }
        let bound = self.args.scalars.get(name).copied();
        m.scalar_names.push(name);
        m.slots.push(bound.unwrap_or(0.0));
        m.defined.push(bound.is_some());
        m.scalar_names.len() - 1
    }

    /// The buffer index of array `name`, moving its binding out of the
    /// arguments on first use; `None` if it has no binding.
    fn buf(&mut self, name: &str) -> Option<usize> {
        let m = &mut self.machine;
        if let Some(b) = m.buf_names.iter().position(|n| n == name) {
            return Some(b);
        }
        let (key, buf) = self.args.arrays.remove_entry(name)?;
        m.buf_names.push(key);
        m.bufs.push(buf);
        Some(m.bufs.len() - 1)
    }

    fn read_only(&self, array: &str) -> bool {
        self.kernel
            .params()
            .iter()
            .any(|p| p.kind == ParamKind::ArrayIn && p.name == array)
    }

    fn expr(&mut self, e: &'k Expr) -> Node<'k> {
        match e {
            Expr::Const(v) => Node::Const(*v),
            Expr::Var(name) => Node::Var(self.slot(name)),
            Expr::Load { array, index } => {
                let index = Box::new(self.expr(index));
                match self.buf(array) {
                    Some(b) => Node::Load(b, index),
                    None => Node::LoadUnbound(array, index),
                }
            }
            Expr::Unary(op, a) => Node::Unary(*op, Box::new(self.expr(a))),
            Expr::Binary(op, a, b) => {
                Node::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Select { cond, then, els } => Node::Select(
                Box::new(self.expr(cond)),
                Box::new(self.expr(then)),
                Box::new(self.expr(els)),
            ),
        }
    }

    fn block(&mut self, stmts: &'k [Stmt]) -> Vec<Op<'k>> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign { var, value } => {
                    let value = self.expr(value);
                    Op::Assign(self.slot(var), value)
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    if self.read_only(array) {
                        return Op::StoreToInput(array);
                    }
                    let index = self.expr(index);
                    let value = self.expr(value);
                    match self.buf(array) {
                        Some(buf) => Op::Store { buf, index, value },
                        None => Op::StoreUnbound {
                            array,
                            index,
                            value,
                        },
                    }
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                } => Op::For {
                    slot: self.slot(var),
                    start: self.expr(start),
                    end: self.expr(end),
                    body: self.block(body),
                },
                Stmt::If { cond, then, els } => {
                    Op::If(self.expr(cond), self.block(then), self.block(els))
                }
            })
            .collect()
    }
}

/// Why a run stopped, without allocating; [`Machine::error`] turns it
/// into an [`ExecKernelError`] with owned names.
enum Fault<'k> {
    Unknown(&'k str),
    OutOfBounds { buf: usize, index: i64 },
    WriteToInput(&'k str),
}

/// Execute step: the state of one run over the lowered body.
#[derive(Default)]
struct Machine<'k> {
    scalar_names: Vec<&'k str>,
    slots: Vec<Value>,
    defined: Vec<bool>,
    buf_names: Vec<String>,
    bufs: Vec<Vec<Value>>,
}

fn truthy(v: Value) -> bool {
    v != 0.0
}

impl<'k> Machine<'k> {
    fn error(&self, fault: Fault<'_>) -> ExecKernelError {
        match fault {
            Fault::Unknown(name) => ExecKernelError::UnknownName {
                name: name.to_owned(),
            },
            Fault::OutOfBounds { buf, index } => ExecKernelError::IndexOutOfBounds {
                array: self.buf_names[buf].clone(),
                index,
                len: self.bufs[buf].len(),
            },
            Fault::WriteToInput(array) => ExecKernelError::WriteToInput {
                array: array.to_owned(),
            },
        }
    }

    /// Position `idx` in buffer `buf`, if it is in range.
    fn element(&self, buf: usize, idx: i64) -> Result<usize, Fault<'k>> {
        if idx < 0 || idx as usize >= self.bufs[buf].len() {
            return Err(Fault::OutOfBounds { buf, index: idx });
        }
        Ok(idx as usize)
    }

    fn eval(&self, e: &Node<'k>) -> Result<Value, Fault<'k>> {
        match e {
            Node::Const(v) => Ok(*v),
            Node::Var(s) => {
                if self.defined[*s] {
                    Ok(self.slots[*s])
                } else {
                    Err(Fault::Unknown(self.scalar_names[*s]))
                }
            }
            Node::Load(b, index) => {
                let idx = self.eval(index)? as i64;
                let i = self.element(*b, idx)?;
                Ok(self.bufs[*b][i])
            }
            Node::LoadUnbound(array, index) => {
                self.eval(index)?;
                Err(Fault::Unknown(array))
            }
            Node::Unary(op, a) => Ok(op.apply(self.eval(a)?)),
            Node::Binary(op, a, b) => {
                let x = self.eval(a)?;
                Ok(op.apply(x, self.eval(b)?))
            }
            Node::Select(cond, then, els) => {
                if truthy(self.eval(cond)?) {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
        }
    }

    fn set(&mut self, slot: usize, v: Value) {
        self.slots[slot] = v;
        self.defined[slot] = true;
    }

    fn exec(&mut self, ops: &[Op<'k>]) -> Result<(), Fault<'k>> {
        for op in ops {
            match op {
                Op::Assign(slot, value) => {
                    let v = self.eval(value)?;
                    self.set(*slot, v);
                }
                Op::Store { buf, index, value } => {
                    let idx = self.eval(index)? as i64;
                    let v = self.eval(value)?;
                    let i = self.element(*buf, idx)?;
                    self.bufs[*buf][i] = v;
                }
                Op::StoreUnbound {
                    array,
                    index,
                    value,
                } => {
                    self.eval(index)?;
                    self.eval(value)?;
                    return Err(Fault::Unknown(array));
                }
                Op::StoreToInput(array) => return Err(Fault::WriteToInput(array)),
                Op::For {
                    slot,
                    start,
                    end,
                    body,
                } => {
                    let s0 = self.eval(start)? as i64;
                    let e0 = self.eval(end)? as i64;
                    for i in s0..e0 {
                        self.set(*slot, i as f64);
                        self.exec(body)?;
                    }
                }
                Op::If(cond, then, els) => {
                    if truthy(self.eval(cond)?) {
                        self.exec(then)?;
                    } else {
                        self.exec(els)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;

    #[test]
    fn vadd_executes() {
        let k = parse_kernel(
            "kernel vadd(in float a[], in float b[], out float c[], int n) {
                 for (i in 0 .. n) { c[i] = a[i] + b[i]; }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0, 2.0, 3.0])
            .bind_array("b", vec![10.0, 20.0, 30.0])
            .bind_array("c", vec![0.0; 3])
            .bind_scalar("n", 3.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("c").unwrap(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn gemm_matches_reference() {
        let k = parse_kernel(
            "kernel gemm(in float a[], in float b[], out float c[], int n) {
                 for (i in 0 .. n) {
                     for (j in 0 .. n) {
                         acc = 0.0;
                         for (kk in 0 .. n) {
                             acc = acc + a[i * n + kk] * b[kk * n + j];
                         }
                         c[i * n + j] = acc;
                     }
                 }
             }",
        )
        .unwrap();
        let n = 4usize;
        let a: Vec<f64> = (0..n * n).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i as f64).sin()).collect();
        let mut reference = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for kk in 0..n {
                    reference[i * n + j] += a[i * n + kk] * b[kk * n + j];
                }
            }
        }
        let mut args = KernelArgs::new();
        args.bind_array("a", a)
            .bind_array("b", b)
            .bind_array("c", vec![0.0; n * n])
            .bind_scalar("n", n as f64);
        args.run(&k).unwrap();
        for (got, want) in args.array("c").unwrap().iter().zip(&reference) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn conditionals_and_intrinsics() {
        let k = parse_kernel(
            "kernel relu_sqrt(inout float a[], int n) {
                 for (i in 0 .. n) {
                     if (a[i] < 0.0) { a[i] = 0.0; } else { a[i] = sqrt(a[i]); }
                 }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![-4.0, 9.0, 16.0])
            .bind_scalar("n", 3.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("a").unwrap(), &[0.0, 3.0, 4.0]);
    }

    #[test]
    fn select_and_logic() {
        let k = parse_kernel(
            "kernel s(out float o[], float x) {
                 o[0] = select(x > 1.0 && x < 3.0, 1.0, 0.0);
                 o[1] = select(x == 2.0 || x == 5.0, 7.0, 8.0);
                 o[2] = !(x > 0.0);
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 3]).bind_scalar("x", 2.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[1.0, 7.0, 0.0]);
    }

    #[test]
    fn missing_argument_detected() {
        let k = parse_kernel("kernel m(in float a[], int n) { x = a[0]; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0]);
        let err = args.run(&k).unwrap_err();
        assert_eq!(err, ExecKernelError::MissingArg { name: "n".into() });
    }

    #[test]
    fn bounds_checked() {
        let k = parse_kernel("kernel b(out float o[], int n) { o[n] = 1.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 2]).bind_scalar("n", 5.0);
        let err = args.run(&k).unwrap_err();
        assert!(matches!(
            err,
            ExecKernelError::IndexOutOfBounds {
                index: 5,
                len: 2,
                ..
            }
        ));
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn negative_index_rejected() {
        let k = parse_kernel("kernel b(out float o[]) { o[0 - 1] = 1.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 2]);
        assert!(matches!(
            args.run(&k).unwrap_err(),
            ExecKernelError::IndexOutOfBounds { index: -1, .. }
        ));
    }

    #[test]
    fn write_to_input_rejected() {
        let k = parse_kernel("kernel w(in float a[]) { a[0] = 1.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0]);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::WriteToInput { array: "a".into() }
        );
    }

    #[test]
    fn unknown_name_detected() {
        let k = parse_kernel("kernel u(out float o[]) { o[0] = ghost; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0]);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::UnknownName {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn empty_loop_runs_zero_times() {
        let k = parse_kernel(
            "kernel e(out float o[], int n) {
                 o[0] = 0.0;
                 for (i in 0 .. n) { o[0] = o[0] + 1.0; }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![9.0]).bind_scalar("n", 0.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[0.0]);
    }

    #[test]
    fn take_array_transfers_ownership() {
        let mut args = KernelArgs::new();
        args.bind_array("x", vec![1.0, 2.0]);
        let v = args.take_array("x").unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert!(args.array("x").is_none());
    }

    #[test]
    fn buffers_are_returned_after_an_error() {
        let k = parse_kernel(
            "kernel e(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = a[i] * 2.0; }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0, 2.0])
            .bind_array("b", vec![0.0; 3])
            .bind_array("spare", vec![7.0])
            .bind_scalar("n", 3.0);
        assert!(matches!(
            args.run(&k).unwrap_err(),
            ExecKernelError::IndexOutOfBounds {
                index: 2,
                len: 2,
                ..
            }
        ));
        // the stores made before the fault stay, as with any in-place run
        assert_eq!(args.array("a").unwrap(), &[1.0, 2.0]);
        assert_eq!(args.array("b").unwrap(), &[2.0, 4.0, 0.0]);
        assert_eq!(args.array("spare").unwrap(), &[7.0]);
    }

    #[test]
    fn loop_variable_outlives_its_loop() {
        let k = parse_kernel(
            "kernel l(out float o[], int n) {
                 for (i in 0 .. n) { t = i; }
                 o[0] = i;
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0]).bind_scalar("n", 4.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[3.0]);
        // a loop that never runs never defines its variable
        args.bind_scalar("n", 0.0);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::UnknownName { name: "i".into() }
        );
    }

    #[test]
    fn scalar_assignment_does_not_write_back() {
        let k = parse_kernel(
            "kernel s(out float o[], float f) {
                 f = f + 1.0;
                 o[0] = f;
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0]).bind_scalar("f", 2.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[3.0]);
        assert_eq!(args.scalar("f"), Some(2.0));
    }

    #[test]
    fn unbound_names_in_untaken_branches_are_fine() {
        let k = parse_kernel(
            "kernel u(out float o[], float f) {
                 if (f > 0.0) { o[0] = ghost + phantom[0]; } else { o[0] = 1.0; }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0]).bind_scalar("f", -1.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[1.0]);
        args.bind_scalar("f", 1.0);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::UnknownName {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn arrays_outside_the_signature_are_usable() {
        let k =
            parse_kernel("kernel x(out float o[]) { o[0] = extra[1]; extra[0] = 5.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0])
            .bind_array("extra", vec![0.0, 9.0]);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[9.0]);
        assert_eq!(args.array("extra").unwrap(), &[5.0, 9.0]);
    }

    #[test]
    fn repeated_runs_agree() {
        let k = parse_kernel(
            "kernel r(in float a[], out float b[], int n) {
                 for (i in 0 .. n) { b[i] = exp(a[i]) / (1.0 + a[i] * a[i]); }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![0.5, -1.25, 3.0])
            .bind_array("b", vec![0.0; 3])
            .bind_scalar("n", 3.0);
        args.run(&k).unwrap();
        let first = args.array("b").unwrap().to_vec();
        args.run(&k).unwrap();
        assert_eq!(args.array("b").unwrap(), first.as_slice());
        assert_eq!(args.array("a").unwrap(), &[0.5, -1.25, 3.0]);
    }
}
