//! The functional kernel interpreter.
//!
//! The same IR the estimator costs is executed here, so a kernel run "in
//! hardware" by the simulation produces exactly the bytes the software
//! path produces. Array arguments are `Vec<f64>` buffers bound by name;
//! scalars are `f64`.
//!
//! # Compile, then execute
//!
//! 1. **Compile, once per kernel.** On its first run a [`Kernel`] is
//!    compiled into a flat register program, which the kernel keeps for
//!    every later run (a clone starts without one). One `f64` register
//!    file holds every scalar, local and loop variable first, then the
//!    kernel's constants, then the temporaries of expression evaluation.
//!    The program is a `Vec` of instructions over those registers:
//!    * add, sub, mul and div have their own instructions; every other
//!      operator goes through [`BinOp::apply`] / [`UnOp::apply`];
//!    * an assignment computes straight into its variable's register;
//!    * loads and stores check their bounds, and a store to an `in`
//!      array is a fault instruction;
//!    * `if` and `select` are conditional jumps, and a loop is a start
//!      and a next instruction around its body, counting in `i64`;
//!    * a read checks that its variable is defined only where compiling
//!      cannot prove it: signature scalars are defined once the
//!      argument check passes, a loop variable inside its own body, and
//!      a local once it is assigned on every path to the read.
//!
//!    Nothing that depends on the bindings is compiled in.
//! 2. **Execute, once per run.** [`KernelArgs::run`] checks the
//!    signature, then sets up the registers from this run's bindings:
//!    every variable takes its bound scalar, if any, as its initial value
//!    and definedness. The buffers of the arrays the body names are moved
//!    out of the bindings for the run and moved back on every exit path,
//!    errors included; an unbound array runs as an empty buffer, so its
//!    first access faults. One `pc` loop then runs the program with no
//!    recursion, no hashing and no allocation. Names are looked up again
//!    only to build the error value when a run fails.
//!
//! # Bit-identity contract
//!
//! The program evaluates the IR's operations in the IR's order, nothing
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
//! tree-walker over fuzzed kernels, including one compiled program run
//! under changing bindings.

use std::collections::{HashMap, HashSet};
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
    /// arrays in place. The kernel is compiled on its first run.
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
        kernel.program().run(self)
    }
}

/// A register index.
type Reg = u32;

/// One VM instruction. Operands are registers, destination first; `buf`
/// is an index into [`Program::arrays`], `counter` a loop's counter pair,
/// and a jump target an index into the code.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// `dst = a + b`, and so on for the next three.
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    Mul(Reg, Reg, Reg),
    Div(Reg, Reg, Reg),
    /// `dst = op.apply(a, b)`.
    Binary(BinOp, Reg, Reg, Reg),
    /// `dst = op.apply(a)`.
    Unary(UnOp, Reg, Reg),
    /// `dst = src`.
    Mov(Reg, Reg),
    /// `dst = buf[index]`.
    Load(Reg, u32, Reg),
    /// `buf[index] = value`.
    Store(u32, Reg, Reg),
    /// Jumps to the target when the register holds zero (false).
    JumpIfZero(Reg, u32),
    Jump(u32),
    /// Faults with an unknown name unless the variable is defined.
    Need(Reg),
    /// Marks the variable defined, after an assignment to it.
    Define(Reg),
    /// Enters a loop over `[start, end)`: sets `var` to the first value
    /// and falls into the body, or jumps to `exit` if there is none.
    LoopStart {
        var: Reg,
        start: Reg,
        end: Reg,
        counter: u32,
        exit: u32,
    },
    /// Steps a loop: sets `var` to the next value and jumps back to
    /// `body`, or falls through when the range is done.
    LoopNext {
        var: Reg,
        counter: u32,
        body: u32,
    },
    /// A store to the read-only array `buf`.
    WriteToInput(u32),
}

/// Why a run stopped, without allocating; [`Program::error`] turns it
/// into an [`ExecKernelError`] with owned names.
enum Fault {
    Unknown(Reg),
    /// An index outside buffer `buf`, or any index into an unbound one.
    Index {
        buf: u32,
        index: i64,
    },
    WriteToInput(u32),
}

/// A kernel compiled to register bytecode: what [`Kernel`] caches.
#[derive(Debug)]
pub(crate) struct Program {
    code: Vec<Instr>,
    /// The name of each variable; variable `v` lives in register `v`.
    vars: Vec<String>,
    /// The constants, loaded into the registers after the variables.
    consts: Vec<Value>,
    /// Registers in all: variables, constants, then temporaries.
    regs: usize,
    /// The arrays the body names, in buffer order.
    arrays: Vec<String>,
    /// Loops, each with one counter pair.
    loops: usize,
}

impl Program {
    /// Compiles `kernel` in two passes. The first lays out the variables
    /// and constants and finds the variables some read must check; its
    /// code is discarded. The second emits the program over that layout,
    /// marking exactly those variables defined when they are assigned.
    pub(crate) fn compile(kernel: &Kernel) -> Program {
        let mut first = Compiler::new(kernel, Vec::new(), Vec::new(), HashSet::new());
        first.block(kernel.body());
        let mut second = Compiler::new(kernel, first.vars, first.consts, first.checked);
        second.block(kernel.body());
        second.finish()
    }

    /// Runs the program against `args`; the signature is already checked.
    fn run(&self, args: &mut KernelArgs) -> Result<(), ExecKernelError> {
        let mut regs = vec![0.0; self.regs];
        let mut defined = vec![false; self.vars.len()];
        for (v, name) in self.vars.iter().enumerate() {
            if let Some(&x) = args.scalars.get(name) {
                regs[v] = x;
                defined[v] = true;
            }
        }
        let base = self.vars.len();
        regs[base..base + self.consts.len()].copy_from_slice(&self.consts);
        let (keys, mut bufs): (Vec<_>, Vec<_>) = self
            .arrays
            .iter()
            .map(|name| match args.arrays.remove_entry(name) {
                Some((key, buf)) => (Some(key), buf),
                None => (None, Vec::new()),
            })
            .unzip();
        let mut counters = vec![(0, 0); self.loops];
        let result = self
            .exec(&mut regs, &mut defined, &mut counters, &mut bufs)
            .map_err(|f| self.error(f, &keys, &bufs));
        for (key, buf) in keys.into_iter().zip(bufs) {
            if let Some(key) = key {
                args.arrays.insert(key, buf);
            }
        }
        result
    }

    fn error(&self, fault: Fault, keys: &[Option<String>], bufs: &[Vec<Value>]) -> ExecKernelError {
        match fault {
            Fault::Unknown(var) => ExecKernelError::UnknownName {
                name: self.vars[var as usize].clone(),
            },
            Fault::Index { buf, .. } if keys[buf as usize].is_none() => {
                ExecKernelError::UnknownName {
                    name: self.arrays[buf as usize].clone(),
                }
            }
            Fault::Index { buf, index } => ExecKernelError::IndexOutOfBounds {
                array: self.arrays[buf as usize].clone(),
                index,
                len: bufs[buf as usize].len(),
            },
            Fault::WriteToInput(buf) => ExecKernelError::WriteToInput {
                array: self.arrays[buf as usize].clone(),
            },
        }
    }

    fn exec(
        &self,
        regs: &mut [Value],
        defined: &mut [bool],
        counters: &mut [(i64, i64)],
        bufs: &mut [Vec<Value>],
    ) -> Result<(), Fault> {
        let mut pc = 0;
        while let Some(&instr) = self.code.get(pc) {
            pc += 1;
            match instr {
                Instr::Add(dst, a, b) => regs[dst as usize] = regs[a as usize] + regs[b as usize],
                Instr::Sub(dst, a, b) => regs[dst as usize] = regs[a as usize] - regs[b as usize],
                Instr::Mul(dst, a, b) => regs[dst as usize] = regs[a as usize] * regs[b as usize],
                Instr::Div(dst, a, b) => regs[dst as usize] = regs[a as usize] / regs[b as usize],
                Instr::Binary(op, dst, a, b) => {
                    regs[dst as usize] = op.apply(regs[a as usize], regs[b as usize])
                }
                Instr::Unary(op, dst, a) => regs[dst as usize] = op.apply(regs[a as usize]),
                Instr::Mov(dst, src) => regs[dst as usize] = regs[src as usize],
                Instr::Load(dst, buf, index) => {
                    let index = regs[index as usize] as i64;
                    match usize::try_from(index)
                        .ok()
                        .and_then(|i| bufs[buf as usize].get(i))
                    {
                        Some(&v) => regs[dst as usize] = v,
                        None => return Err(Fault::Index { buf, index }),
                    }
                }
                Instr::Store(buf, index, value) => {
                    let index = regs[index as usize] as i64;
                    match usize::try_from(index)
                        .ok()
                        .and_then(|i| bufs[buf as usize].get_mut(i))
                    {
                        Some(slot) => *slot = regs[value as usize],
                        None => return Err(Fault::Index { buf, index }),
                    }
                }
                Instr::JumpIfZero(cond, target) => {
                    if regs[cond as usize] == 0.0 {
                        pc = target as usize;
                    }
                }
                Instr::Jump(target) => pc = target as usize,
                Instr::Need(var) => {
                    if !defined[var as usize] {
                        return Err(Fault::Unknown(var));
                    }
                }
                Instr::Define(var) => defined[var as usize] = true,
                Instr::LoopStart {
                    var,
                    start,
                    end,
                    counter,
                    exit,
                } => {
                    let (first, end) = (regs[start as usize] as i64, regs[end as usize] as i64);
                    if first < end {
                        counters[counter as usize] = (first, end);
                        regs[var as usize] = first as f64;
                        defined[var as usize] = true;
                    } else {
                        pc = exit as usize;
                    }
                }
                Instr::LoopNext { var, counter, body } => {
                    let (i, end) = &mut counters[counter as usize];
                    // `i < end` held on entry to the body: this cannot overflow
                    *i += 1;
                    if *i < *end {
                        regs[var as usize] = *i as f64;
                        pc = body as usize;
                    }
                }
                Instr::WriteToInput(buf) => return Err(Fault::WriteToInput(buf)),
            }
        }
        Ok(())
    }
}

/// An operand index as instructions hold it: 32 bits keep them small.
fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("a kernel has fewer than 2^32 registers, arrays and instructions")
}

/// The position of `name` in `names`, appended on first sight.
fn intern<'k>(names: &mut Vec<&'k str>, name: &'k str) -> usize {
    names.iter().position(|n| *n == name).unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    })
}

/// One compile pass: the code so far, the register layout, and what is
/// proven at the current point.
struct Compiler<'k> {
    kernel: &'k Kernel,
    code: Vec<Instr>,
    /// Variables in register order, then constants (compared by bits).
    vars: Vec<&'k str>,
    consts: Vec<Value>,
    arrays: Vec<&'k str>,
    loops: usize,
    /// The variables proven defined here.
    known: HashSet<&'k str>,
    /// The variables some read had to check.
    checked: HashSet<&'k str>,
    /// The variables whose assignments mark them defined.
    tracked: HashSet<&'k str>,
    /// Temporaries live here, and at most.
    temps: usize,
    max_temps: usize,
}

impl<'k> Compiler<'k> {
    /// A pass over the given layout, which it extends with what it has
    /// not seen yet.
    fn new(
        kernel: &'k Kernel,
        vars: Vec<&'k str>,
        consts: Vec<Value>,
        tracked: HashSet<&'k str>,
    ) -> Compiler<'k> {
        Compiler {
            kernel,
            code: Vec::new(),
            vars,
            consts,
            arrays: Vec::new(),
            loops: 0,
            // signature scalars are defined once the argument check passes
            known: kernel.scalars().map(|p| p.name.as_str()).collect(),
            checked: HashSet::new(),
            tracked,
            temps: 0,
            max_temps: 0,
        }
    }

    fn finish(self) -> Program {
        Program {
            code: self.code,
            vars: self.vars.iter().map(|n| (*n).to_owned()).collect(),
            regs: self.vars.len() + self.consts.len() + self.max_temps,
            consts: self.consts,
            arrays: self.arrays.iter().map(|n| (*n).to_owned()).collect(),
            loops: self.loops,
        }
    }

    fn var(&mut self, name: &'k str) -> Reg {
        narrow(intern(&mut self.vars, name))
    }

    fn constant(&mut self, v: Value) -> Reg {
        let c = match self.consts.iter().position(|c| c.to_bits() == v.to_bits()) {
            Some(c) => c,
            None => {
                self.consts.push(v);
                self.consts.len() - 1
            }
        };
        narrow(self.vars.len() + c)
    }

    fn temp(&mut self) -> Reg {
        let r = narrow(self.vars.len() + self.consts.len() + self.temps);
        self.temps += 1;
        self.max_temps = self.max_temps.max(self.temps);
        r
    }

    fn buf(&mut self, name: &'k str) -> u32 {
        narrow(intern(&mut self.arrays, name))
    }

    fn emit(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.code.len() - 1
    }

    /// Points the jump at `at` to the next instruction.
    fn patch(&mut self, at: usize) {
        let here = narrow(self.code.len());
        match &mut self.code[at] {
            Instr::JumpIfZero(_, target) | Instr::Jump(target) => *target = here,
            Instr::LoopStart { exit, .. } => *exit = here,
            _ => unreachable!("only jumps are patched"),
        }
    }

    /// Keeps proven only what is proven on both paths into a join.
    fn meet(&mut self, other: &HashSet<&'k str>) {
        self.known.retain(|n| other.contains(n));
    }

    /// The value in `r`, copied into `dst` if one is asked for.
    fn place(&mut self, r: Reg, dst: Option<Reg>) -> Reg {
        match dst {
            Some(d) if d != r => {
                self.emit(Instr::Mov(d, r));
                d
            }
            _ => r,
        }
    }

    /// Compiles `e` and returns the register holding its value: `dst` if
    /// given, which only the last instruction on each path writes, else a
    /// temporary or the register of a variable or constant.
    fn expr(&mut self, e: &'k Expr, dst: Option<Reg>) -> Reg {
        let mark = self.temps;
        match e {
            Expr::Const(v) => {
                let r = self.constant(*v);
                self.place(r, dst)
            }
            Expr::Var(name) => {
                let var = self.var(name);
                if self.known.insert(name) {
                    self.emit(Instr::Need(var));
                    self.checked.insert(name);
                }
                self.place(var, dst)
            }
            Expr::Load { array, index } => {
                let index = self.expr(index, None);
                self.temps = mark;
                let dst = dst.unwrap_or_else(|| self.temp());
                let buf = self.buf(array);
                self.emit(Instr::Load(dst, buf, index));
                dst
            }
            Expr::Unary(op, a) => {
                let a = self.expr(a, None);
                self.temps = mark;
                let dst = dst.unwrap_or_else(|| self.temp());
                self.emit(Instr::Unary(*op, dst, a));
                dst
            }
            Expr::Binary(op, a, b) => {
                let a = self.expr(a, None);
                let b = self.expr(b, None);
                self.temps = mark;
                let dst = dst.unwrap_or_else(|| self.temp());
                self.emit(match op {
                    BinOp::Add => Instr::Add(dst, a, b),
                    BinOp::Sub => Instr::Sub(dst, a, b),
                    BinOp::Mul => Instr::Mul(dst, a, b),
                    BinOp::Div => Instr::Div(dst, a, b),
                    _ => Instr::Binary(*op, dst, a, b),
                });
                dst
            }
            Expr::Select { cond, then, els } => {
                let cond = self.expr(cond, None);
                self.temps = mark;
                let dst = dst.unwrap_or_else(|| self.temp());
                let to_els = self.emit(Instr::JumpIfZero(cond, 0));
                let known = self.known.clone();
                self.expr(then, Some(dst));
                let to_end = self.emit(Instr::Jump(0));
                self.patch(to_els);
                let after_then = std::mem::replace(&mut self.known, known);
                self.expr(els, Some(dst));
                self.patch(to_end);
                self.meet(&after_then);
                dst
            }
        }
    }

    fn block(&mut self, stmts: &'k [Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign { var: name, value } => {
                    let var = self.var(name);
                    self.expr(value, Some(var));
                    if self.tracked.contains(name.as_str()) {
                        self.emit(Instr::Define(var));
                    }
                    self.known.insert(name);
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    let buf = self.buf(array);
                    let param = self.kernel.param(array);
                    if param.is_some_and(|p| p.kind == ParamKind::ArrayIn) {
                        self.emit(Instr::WriteToInput(buf));
                        continue;
                    }
                    let index = self.expr(index, None);
                    let value = self.expr(value, None);
                    self.emit(Instr::Store(buf, index, value));
                }
                Stmt::For {
                    var: name,
                    start,
                    end,
                    body,
                } => {
                    let start = self.expr(start, None);
                    let end = self.expr(end, None);
                    // the body may reuse the bounds' temporaries
                    self.temps = 0;
                    let var = self.var(name);
                    let counter = narrow(self.loops);
                    self.loops += 1;
                    let head = self.emit(Instr::LoopStart {
                        var,
                        start,
                        end,
                        counter,
                        exit: 0,
                    });
                    let known = self.known.clone();
                    self.known.insert(name);
                    self.block(body);
                    self.emit(Instr::LoopNext {
                        var,
                        counter,
                        body: narrow(head + 1),
                    });
                    self.patch(head);
                    // the body may not have run at all
                    self.known = known;
                }
                Stmt::If { cond, then, els } => {
                    let cond = self.expr(cond, None);
                    self.temps = 0;
                    let to_els = self.emit(Instr::JumpIfZero(cond, 0));
                    let known = self.known.clone();
                    self.block(then);
                    let after_then = std::mem::replace(&mut self.known, known);
                    if els.is_empty() {
                        self.patch(to_els);
                    } else {
                        let to_end = self.emit(Instr::Jump(0));
                        self.patch(to_els);
                        self.block(els);
                        self.patch(to_end);
                    }
                    self.meet(&after_then);
                }
            }
            self.temps = 0;
        }
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

    #[test]
    fn definedness_is_checked_only_where_unproven() {
        let needs = |src: &str| {
            let k = parse_kernel(src).unwrap();
            let code = &k.program().code;
            let count = |f: fn(&Instr) -> bool| code.iter().filter(|i| f(i)).count();
            (
                count(|i| matches!(i, Instr::Need(_))),
                count(|i| matches!(i, Instr::Define(_))),
            )
        };
        // signature scalars, loop variables in their bodies and locals
        // assigned on every path need no checks
        assert_eq!(
            needs(
                "kernel fir(in float x[], in float h[], out float y[], int n, int taps) {
                     for (i in 0 .. n) {
                         acc = 0.0;
                         for (k in 0 .. taps) { acc = acc + h[k] * x[i + k]; }
                         y[i] = acc;
                     }
                 }"
            ),
            (0, 0)
        );
        assert_eq!(
            needs(
                "kernel b(out float o[], float f) {
                     if (f > 0.0) { t = 1.0; } else { t = 2.0; }
                     o[0] = select(f > 1.0, t, t + 1.0);
                 }"
            ),
            (0, 0)
        );
        // assigned on one path only, or after a loop that may not run: the
        // reads check, and the assignments mark the variable defined
        assert_eq!(
            needs(
                "kernel p(out float o[], float f, int n) {
                     if (f > 0.0) { t = 1.0; }
                     for (i in 0 .. n) { u = i; }
                     o[0] = t + u + i;
                 }"
            ),
            (3, 2)
        );
    }

    #[test]
    fn one_program_resolves_each_runs_bindings() {
        let k = parse_kernel("kernel r(out float o[]) { o[0] = extra + ghost[0]; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0])
            .bind_array("ghost", vec![2.0])
            .bind_scalar("extra", 1.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[3.0]);
        args.take_array("ghost");
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::UnknownName {
                name: "ghost".into()
            }
        );
        let mut fresh = KernelArgs::new();
        fresh
            .bind_array("o", vec![0.0])
            .bind_array("ghost", vec![2.0]);
        assert_eq!(
            fresh.run(&k).unwrap_err(),
            ExecKernelError::UnknownName {
                name: "extra".into()
            }
        );
    }
}
