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
//! 2. **Plan columns, once per kernel.** Each outermost loop whose
//!    iterations are independent gets a column plan, which replaces its
//!    header with a `Columns` instruction; a loop that fails the rule
//!    stays scalar and its inner loops are tried in turn. The rule, in
//!    `ColumnPlan::new`: no jump, definedness check or `in`-array store
//!    in the body; every store indexed by the loop variable; no load
//!    from an array the loop stores to; every register written before it
//!    is read in each iteration, unless the body never writes it; and
//!    inner loops with the same bounds in every lane. The plan runs the
//!    loop a chunk of up to 256 iterations at a time, one per lane, each
//!    instruction over the whole chunk before the next:
//!    * a value every lane shares (constants, registers the body does not
//!      write, inner loop variables, loads at such an index, and anything
//!      computed from them alone) stays in its register and is computed
//!      once per chunk, by the scalar VM; the rest live in columns;
//!    * loads check every lane's bounds, and stores are staged per array
//!      and committed when the chunk ends;
//!    * on any fault the chunk's stores are dropped and the scalar VM
//!      takes over at the chunk's first iteration, so it meets the fault
//!      with the state a scalar run would have there;
//!    * after the loop, every variable holds its last lane's value.
//!
//!    The columns are chunk-sized, whatever the trip count.
//! 3. **Execute, once per run.** [`KernelArgs::run`] checks the
//!    signature, then sets up the registers from this run's bindings:
//!    every variable takes its bound scalar, if any, as its initial value
//!    and definedness. The buffers of the arrays the body names are moved
//!    out of the bindings for the run and moved back on every exit path,
//!    errors included; an unbound array runs as an empty buffer, so its
//!    first access faults. One `pc` loop then runs the program with no
//!    recursion and no hashing; a column loop allocates its chunk's
//!    columns when it starts. Names are looked up again only to build the
//!    error value when a run fails.
//!
//! # Bit-identity contract
//!
//! The program evaluates the IR's operations in the IR's order, nothing
//! more, so results are bit-identical to a direct walk of the IR:
//!
//! * the same `f64` operations run in the same order for each iteration,
//!   with no reassociation and no fused multiply-add; a value computed
//!   once per chunk for every lane is the one each iteration computes,
//!   as the same operation on the same inputs gives the same bits;
//! * a column loop commits only whole chunks that ran without a fault,
//!   and iterations share no state, so the scalar VM resuming at a
//!   faulting chunk raises the error, and leaves the stores, a scalar
//!   run does;
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

use std::borrow::Cow;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use ecoscale_sim::hash::FxHashMap;

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
/// Bindings are keyed by `Cow<'static, str>`, so binding under a literal
/// name allocates nothing.
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
    arrays: FxHashMap<Cow<'static, str>, Vec<Value>>,
    scalars: FxHashMap<Cow<'static, str>, Value>,
}

impl KernelArgs {
    /// Creates an empty binding set.
    pub fn new() -> KernelArgs {
        KernelArgs::default()
    }

    /// Binds an array buffer, replacing any previous binding.
    pub fn bind_array(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        data: Vec<Value>,
    ) -> &mut Self {
        self.arrays.insert(name.into(), data);
        self
    }

    /// Binds a scalar.
    pub fn bind_scalar(&mut self, name: impl Into<Cow<'static, str>>, v: Value) -> &mut Self {
        self.scalars.insert(name.into(), v);
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
                self.arrays.contains_key(p.name.as_str())
            } else {
                self.scalars.contains_key(p.name.as_str())
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
    /// A loop header with a column plan, in place of its `LoopStart`:
    /// runs the loop by [`ColumnPlan::run`].
    Columns(u32),
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
    /// The column plans that `Columns` instructions name.
    plans: Vec<ColumnPlan>,
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
        let mut program = second.finish();
        // outermost loops first: a planned loop runs its inner loops itself
        let mut pc = 0;
        while let Some(&instr) = program.code.get(pc) {
            pc = match instr {
                Instr::LoopStart { exit, .. } => match ColumnPlan::new(&program, pc) {
                    Some(plan) => {
                        program.code[pc] = Instr::Columns(narrow(program.plans.len()));
                        program.plans.push(plan);
                        exit as usize
                    }
                    None => pc + 1,
                },
                _ => pc + 1,
            };
        }
        program
    }

    /// How many loops have a column plan.
    pub(crate) fn column_loops(&self) -> usize {
        self.plans.len()
    }

    /// Runs the program against `args`; the signature is already checked.
    fn run(&self, args: &mut KernelArgs) -> Result<(), ExecKernelError> {
        let mut regs = vec![0.0; self.regs];
        let mut defined = vec![false; self.vars.len()];
        for (v, name) in self.vars.iter().enumerate() {
            if let Some(&x) = args.scalars.get(name.as_str()) {
                regs[v] = x;
                defined[v] = true;
            }
        }
        let base = self.vars.len();
        regs[base..base + self.consts.len()].copy_from_slice(&self.consts);
        let (keys, mut bufs): (Vec<_>, Vec<_>) = self
            .arrays
            .iter()
            .map(|name| match args.arrays.remove_entry(name.as_str()) {
                Some((key, buf)) => (Some(key), buf),
                None => (None, Vec::new()),
            })
            .unzip();
        let mut counters = vec![(0, 0); self.loops];
        let result = self
            .exec(
                &self.code,
                &mut regs,
                &mut defined,
                &mut counters,
                &mut bufs,
            )
            .map_err(|f| self.error(f, &keys, &bufs));
        for (key, buf) in keys.into_iter().zip(bufs) {
            if let Some(key) = key {
                args.arrays.insert(key, buf);
            }
        }
        result
    }

    fn error(
        &self,
        fault: Fault,
        keys: &[Option<Cow<'static, str>>],
        bufs: &[Vec<Value>],
    ) -> ExecKernelError {
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

    /// Runs `code`: the program's own, or a run of a column plan's
    /// lane-uniform instructions.
    fn exec(
        &self,
        code: &[Instr],
        regs: &mut [Value],
        defined: &mut [bool],
        counters: &mut [(i64, i64)],
        bufs: &mut [Vec<Value>],
    ) -> Result<(), Fault> {
        let mut pc = 0;
        while let Some(&instr) = code.get(pc) {
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
                    if !enter_loop(regs, defined, counters, var, start, end, counter) {
                        pc = exit as usize;
                    }
                }
                Instr::LoopNext { var, counter, body } => {
                    if next_iteration(regs, counters, var, counter) {
                        pc = body as usize;
                    }
                }
                Instr::WriteToInput(buf) => return Err(Fault::WriteToInput(buf)),
                Instr::Columns(plan) => {
                    pc = self.plans[plan as usize].run(self, regs, defined, counters, bufs);
                }
            }
        }
        Ok(())
    }
}

/// Enters loop `counter` over `[regs[start], regs[end])`, counting in
/// `i64`: sets `var` to the first value and returns true, or returns
/// false if the range is empty.
fn enter_loop(
    regs: &mut [Value],
    defined: &mut [bool],
    counters: &mut [(i64, i64)],
    var: Reg,
    start: Reg,
    end: Reg,
    counter: u32,
) -> bool {
    let (first, end) = (regs[start as usize] as i64, regs[end as usize] as i64);
    if first < end {
        counters[counter as usize] = (first, end);
        regs[var as usize] = first as f64;
        defined[var as usize] = true;
    }
    first < end
}

/// Steps loop `counter`: sets `var` to the next value and returns true,
/// or returns false when the range is done.
fn next_iteration(regs: &mut [Value], counters: &mut [(i64, i64)], var: Reg, counter: u32) -> bool {
    let (i, end) = &mut counters[counter as usize];
    // `i < end` held on entry to the body: this cannot overflow
    *i += 1;
    if *i < *end {
        regs[var as usize] = *i as f64;
    }
    *i < *end
}

/// Lanes in a chunk of a column loop: a column is never longer, whatever
/// the trip count.
const CHUNK: usize = 256;

/// An operand of a column step: a register, whose one value every lane
/// shares, or a column, which holds one value per lane.
#[derive(Debug, Clone, Copy)]
enum Opnd {
    Reg(Reg),
    Col(u32),
}

/// One step of a column plan, run once per chunk. Destinations are
/// columns, indices into the chunk's scratch.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Runs the plan's lane-uniform instructions `[from, to)` once, on
    /// the registers, with the scalar VM.
    Scalar(u32, u32),
    /// `dst = op(a, b)` in every lane; add, sub, mul and div included.
    Binary(BinOp, u32, Opnd, Opnd),
    /// `dst = op(src)` in every lane.
    Unary(UnOp, u32, u32),
    /// `dst = src` in every lane.
    Mov(u32, u32),
    /// Fills the column with the register's value.
    Splat(u32, Reg),
    /// `dst = buf[i + off]`, where `i` is the lane's iteration and `off`
    /// a register every lane shares, or 0: the add that computed the
    /// index, as `f64`, and the load in one.
    LoadLanes(u32, u32, Option<Reg>),
    /// `dst = buf[index]` in every lane.
    Gather(u32, u32, u32),
    /// Stages `value` for `buf[i]` in store slot `slot`, where `i` is the
    /// lane's iteration.
    Store(u32, Opnd),
    /// An inner loop's start and next, as the scalar instructions, with
    /// jump targets into the steps.
    LoopStart {
        var: Reg,
        start: Reg,
        end: Reg,
        counter: u32,
        exit: u32,
    },
    LoopNext {
        var: Reg,
        counter: u32,
        body: u32,
    },
}

/// A loop whose iterations are independent, compiled to run a chunk of
/// up to [`CHUNK`] iterations at a time, one per lane: each step runs
/// over the whole chunk before the next starts. Values that are the same
/// in every lane stay in the registers and are computed once per chunk.
#[derive(Debug)]
struct ColumnPlan {
    /// The header of the scalar loop, whose body starts at `body`.
    var: Reg,
    start: Reg,
    end: Reg,
    counter: u32,
    body: u32,
    exit: u32,
    steps: Vec<Step>,
    /// The code of the `Scalar` steps.
    uniform: Vec<Instr>,
    /// The loop variable's column, if the plan gave it one: each lane's
    /// iteration, as `f64`.
    lanes: Option<u32>,
    /// Each store slot's array and the column its values are staged in.
    stored: Vec<(u32, u32)>,
    /// The variables the body leaves in a column, with that column: after
    /// the loop each holds its last lane's value.
    outs: Vec<(Reg, u32)>,
    /// Columns in all.
    cols: usize,
}

impl ColumnPlan {
    /// The plan of the loop whose `LoopStart` is at `head`, if it has
    /// one. The rule, decided here once:
    /// * the body has no jump, `Need`, `Define` or `WriteToInput`;
    /// * every store's index is the loop variable, which nothing in the
    ///   body writes;
    /// * the loop loads from no array it stores to;
    /// * each iteration writes every register before reading it, unless
    ///   the body never writes it;
    /// * an inner loop's bounds are the same in every lane, and only loop
    ///   headers write its variable.
    ///
    /// So lanes share no state, and a value computed from constants,
    /// registers the body does not write, inner loop variables and loads
    /// at such an index is the same in every lane and in every chunk.
    fn new(program: &Program, head: usize) -> Option<ColumnPlan> {
        let (code, vars) = (&program.code[..], program.vars.len());
        let Instr::LoopStart {
            var,
            start,
            end,
            counter,
            exit,
        } = code[head]
        else {
            unreachable!("a plan starts at a loop header")
        };
        // the last instruction before `exit` is the loop's `LoopNext`
        let body = head + 1..exit as usize - 1;
        let mut writes = vec![false; program.regs];
        let (mut loads, mut stores, mut inner) = (Vec::new(), Vec::new(), Vec::new());
        for instr in &code[body.clone()] {
            match *instr {
                Instr::Add(d, ..)
                | Instr::Sub(d, ..)
                | Instr::Mul(d, ..)
                | Instr::Div(d, ..)
                | Instr::Binary(_, d, ..)
                | Instr::Unary(_, d, _)
                | Instr::Mov(d, _) => writes[d as usize] = true,
                Instr::Load(d, buf, _) => {
                    writes[d as usize] = true;
                    loads.push(buf);
                }
                Instr::Store(buf, index, _) if index == var => stores.push(buf),
                Instr::LoopStart { var, .. } => inner.push(var),
                Instr::LoopNext { .. } => {}
                _ => return None,
            }
        }
        if writes[var as usize]
            || inner.contains(&var)
            || inner.iter().any(|&v| writes[v as usize])
            || loads.iter().any(|b| stores.contains(b))
        {
            return None;
        }
        for v in inner {
            writes[v as usize] = true;
        }
        let mut planner = Planner {
            code,
            vars,
            temps: vars + program.consts.len(),
            var,
            writes,
            written: vec![false; program.regs],
            varying: vec![false; program.regs],
            col_of: vec![None; program.regs],
            cols: 0,
            stored: Vec::new(),
            steps: Vec::new(),
            uniform: Vec::new(),
        };
        planner.written[var as usize] = true;
        planner.varying[var as usize] = true;
        planner.block(body.start, body.end)?;
        let outs = (0..vars)
            .filter(|&r| r != var as usize && planner.varying[r])
            .map(|r| {
                (
                    narrow(r),
                    planner.col_of[r].expect("a varying register has a column"),
                )
            })
            .collect();
        Some(ColumnPlan {
            var,
            start,
            end,
            counter,
            body: narrow(body.start),
            exit,
            lanes: planner.col_of[var as usize],
            outs,
            cols: planner.cols as usize,
            steps: planner.steps,
            uniform: planner.uniform,
            stored: planner.stored,
        })
    }

    /// Runs the loop from its header and returns where the scalar code
    /// goes on: past the loop, or, if a chunk faulted, into the body at
    /// that chunk's first iteration, with the chunk's stores dropped. The
    /// chunks before it are committed, as the scalar VM would have left
    /// them, so it meets the fault exactly as a scalar run does.
    fn run(
        &self,
        program: &Program,
        regs: &mut [Value],
        defined: &mut [bool],
        counters: &mut [(i64, i64)],
        bufs: &mut [Vec<Value>],
    ) -> usize {
        let (var, counter) = (self.var, self.counter);
        if !enter_loop(regs, defined, counters, var, self.start, self.end, counter) {
            return self.exit as usize;
        }
        let (first, end) = counters[counter as usize];
        let width = end.saturating_sub(first).min(CHUNK as i64) as usize;
        let mut chunk = Chunk {
            first,
            n: width,
            width,
            cols: vec![0.0; self.cols * width],
            staged: vec![false; self.stored.len()],
        };
        while chunk.first < end {
            chunk.n = end.saturating_sub(chunk.first).min(width as i64) as usize;
            if self
                .chunk(program, &mut chunk, regs, defined, counters, bufs)
                .is_none()
            {
                counters[counter as usize].0 = chunk.first;
                regs[var as usize] = chunk.first as f64;
                return self.body as usize;
            }
            chunk.first += chunk.n as i64;
        }
        for &(r, c) in &self.outs {
            regs[r as usize] = chunk.col(c)[chunk.n - 1];
        }
        regs[var as usize] = (end - 1) as f64;
        self.exit as usize
    }

    /// Runs the steps over one chunk and commits its stores, or returns
    /// `None` at the first fault, committing nothing.
    fn chunk(
        &self,
        program: &Program,
        ch: &mut Chunk,
        regs: &mut [Value],
        defined: &mut [bool],
        counters: &mut [(i64, i64)],
        bufs: &mut [Vec<Value>],
    ) -> Option<()> {
        let (first, n) = (ch.first, ch.n);
        // the lanes' slice of a buffer, if they are all in bounds
        fn lanes(buf: &[Value], first: i64, n: usize) -> Option<&[Value]> {
            buf.get(usize::try_from(first).ok()?..)?.get(..n)
        }
        // the element at an index, converted as a scalar load does
        fn at(buf: &[Value], index: Value) -> Option<&Value> {
            buf.get(usize::try_from(index as i64).ok()?)
        }
        ch.staged.fill(false);
        if let Some(c) = self.lanes {
            for (l, v) in ch.col_mut(c).iter_mut().enumerate() {
                *v = (first + l as i64) as f64;
            }
        }
        let mut pc = 0;
        while let Some(&step) = self.steps.get(pc) {
            pc += 1;
            match step {
                Step::Scalar(from, to) => {
                    let code = &self.uniform[from as usize..to as usize];
                    program.exec(code, regs, defined, counters, bufs).ok()?;
                }
                Step::Binary(op, d, a, b) => {
                    let (dst, others) = ch.split(d);
                    let (a, b) = (others.arg(a, regs), others.arg(b, regs));
                    match op {
                        BinOp::Add => zip(dst, a, b, |x, y| x + y),
                        BinOp::Sub => zip(dst, a, b, |x, y| x - y),
                        BinOp::Mul => zip(dst, a, b, |x, y| x * y),
                        BinOp::Div => zip(dst, a, b, |x, y| x / y),
                        op => zip(dst, a, b, |x, y| op.apply(x, y)),
                    }
                }
                Step::Unary(op, d, a) => {
                    let (dst, others) = ch.split(d);
                    map(dst, others.col(a), |x| op.apply(x));
                }
                Step::Mov(d, s) => {
                    let (dst, others) = ch.split(d);
                    map(dst, others.col(s), |x| x);
                }
                Step::Splat(d, r) => ch.col_mut(d).fill(regs[r as usize]),
                Step::LoadLanes(d, buf, off) => {
                    let buf = &bufs[buf as usize];
                    let off = off.map_or(0.0, |r| regs[r as usize]);
                    // below 2^51 in magnitude, `(first + l) as f64 + off` is
                    // exact: an integral offset moves the lanes' slice
                    const EXACT: f64 = (1u64 << 51) as f64;
                    let dst = ch.col_mut(d);
                    if off.fract() == 0.0
                        && off.abs() < EXACT
                        && (first.unsigned_abs() as f64) < EXACT
                    {
                        dst.copy_from_slice(lanes(buf, first + off as i64, n)?);
                    } else {
                        for (l, v) in dst.iter_mut().enumerate() {
                            *v = *at(buf, (first + l as i64) as f64 + off)?;
                        }
                    }
                }
                Step::Gather(d, buf, index) => {
                    let buf = &bufs[buf as usize];
                    let (dst, others) = ch.split(d);
                    match others.col(index) {
                        Some(index) => {
                            for (v, &x) in dst.iter_mut().zip(index) {
                                *v = *at(buf, x)?;
                            }
                        }
                        None => {
                            for v in dst {
                                *v = *at(buf, *v)?;
                            }
                        }
                    }
                }
                Step::Store(slot, value) => {
                    let (buf, col) = self.stored[slot as usize];
                    lanes(&bufs[buf as usize], first, n)?;
                    ch.staged[slot as usize] = true;
                    let (dst, others) = ch.split(col);
                    match others.arg(value, regs) {
                        Arg::Reg(v) => dst.fill(v),
                        Arg::Col(src) => dst.copy_from_slice(src),
                        Arg::Dst => unreachable!("a staging column holds no operand"),
                    }
                }
                Step::LoopStart {
                    var,
                    start,
                    end,
                    counter,
                    exit,
                } => {
                    if !enter_loop(regs, defined, counters, var, start, end, counter) {
                        pc = exit as usize;
                    }
                }
                Step::LoopNext { var, counter, body } => {
                    if next_iteration(regs, counters, var, counter) {
                        pc = body as usize;
                    }
                }
            }
        }
        // a store checked its lanes' bounds, so `first` is not negative
        for (&(buf, col), _) in self.stored.iter().zip(&ch.staged).filter(|(_, s)| **s) {
            bufs[buf as usize][first as usize..][..n].copy_from_slice(ch.col(col));
        }
        Some(())
    }
}

/// The scratch of a column loop: one chunk's position and its columns.
struct Chunk {
    /// The chunk's first iteration, and how many it runs.
    first: i64,
    n: usize,
    /// The columns' stride, at least `n`.
    width: usize,
    cols: Vec<Value>,
    /// Which store slots this chunk has written.
    staged: Vec<bool>,
}

impl Chunk {
    fn col(&self, c: u32) -> &[Value] {
        &self.cols[c as usize * self.width..][..self.n]
    }

    fn col_mut(&mut self, c: u32) -> &mut [Value] {
        &mut self.cols[c as usize * self.width..][..self.n]
    }

    /// Column `d` to write, and the other columns to read.
    fn split(&mut self, d: u32) -> (&mut [Value], Others<'_>) {
        let (lo, rest) = self.cols.split_at_mut(d as usize * self.width);
        let (dst, hi) = rest.split_at_mut(self.width);
        let others = Others {
            lo,
            hi,
            d,
            width: self.width,
            n: self.n,
        };
        (&mut dst[..self.n], others)
    }
}

/// The columns around the one a step writes.
struct Others<'a> {
    lo: &'a [Value],
    hi: &'a [Value],
    d: u32,
    width: usize,
    n: usize,
}

impl<'a> Others<'a> {
    /// Column `c`, or `None` if it is the one being written.
    fn col(&self, c: u32) -> Option<&'a [Value]> {
        let (c, d) = (c as usize, self.d as usize);
        match c.cmp(&d) {
            std::cmp::Ordering::Less => Some(&self.lo[c * self.width..][..self.n]),
            std::cmp::Ordering::Greater => Some(&self.hi[(c - d - 1) * self.width..][..self.n]),
            std::cmp::Ordering::Equal => None,
        }
    }

    fn arg(&self, o: Opnd, regs: &[Value]) -> Arg<'a> {
        match o {
            Opnd::Reg(r) => Arg::Reg(regs[r as usize]),
            Opnd::Col(c) => self.col(c).map_or(Arg::Dst, Arg::Col),
        }
    }
}

/// An operand's values for one step: one shared value, another column,
/// or the column being written.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Reg(Value),
    Col(&'a [Value]),
    Dst,
}

/// `dst = f(a, b)` in every lane.
fn zip(dst: &mut [Value], a: Arg<'_>, b: Arg<'_>, f: impl Fn(Value, Value) -> Value) {
    match (a, b) {
        (Arg::Col(a), Arg::Col(b)) => {
            for ((v, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *v = f(x, y);
            }
        }
        (Arg::Col(a), Arg::Reg(y)) => {
            for (v, &x) in dst.iter_mut().zip(a) {
                *v = f(x, y);
            }
        }
        (Arg::Reg(x), Arg::Col(b)) => {
            for (v, &y) in dst.iter_mut().zip(b) {
                *v = f(x, y);
            }
        }
        (Arg::Dst, Arg::Col(b)) => {
            for (v, &y) in dst.iter_mut().zip(b) {
                *v = f(*v, y);
            }
        }
        (Arg::Col(a), Arg::Dst) => {
            for (v, &x) in dst.iter_mut().zip(a) {
                *v = f(x, *v);
            }
        }
        (Arg::Dst, Arg::Reg(y)) => dst.iter_mut().for_each(|v| *v = f(*v, y)),
        (Arg::Reg(x), Arg::Dst) => dst.iter_mut().for_each(|v| *v = f(x, *v)),
        (Arg::Dst, Arg::Dst) => dst.iter_mut().for_each(|v| *v = f(*v, *v)),
        (Arg::Reg(x), Arg::Reg(y)) => dst.fill(f(x, y)),
    }
}

/// `dst = f(src)` in every lane; `None` is `dst` itself.
fn map(dst: &mut [Value], src: Option<&[Value]>, f: impl Fn(Value) -> Value) {
    match src {
        Some(src) => {
            for (v, &x) in dst.iter_mut().zip(src) {
                *v = f(x);
            }
        }
        None => dst.iter_mut().for_each(|v| *v = f(*v)),
    }
}

/// What building a column plan knows at a point of the loop body.
struct Planner<'c> {
    code: &'c [Instr],
    /// Registers below this hold variables, and from this on temporaries.
    vars: usize,
    temps: usize,
    /// The loop variable.
    var: Reg,
    /// The registers the body writes somewhere.
    writes: Vec<bool>,
    /// The registers written on every path so far in this iteration.
    written: Vec<bool>,
    /// The registers that hold a column here, not a shared value.
    varying: Vec<bool>,
    /// The column of every register that has held one.
    col_of: Vec<Option<u32>>,
    cols: u32,
    stored: Vec<(u32, u32)>,
    steps: Vec<Step>,
    uniform: Vec<Instr>,
}

impl Planner<'_> {
    fn column(&mut self, r: Reg) -> u32 {
        *self.col_of[r as usize].get_or_insert_with(|| {
            self.cols += 1;
            self.cols - 1
        })
    }

    fn opnd(&mut self, r: Reg) -> Opnd {
        if self.varying[r as usize] {
            Opnd::Col(self.column(r))
        } else {
            Opnd::Reg(r)
        }
    }

    /// Fails unless `r` is written before it is read in this iteration,
    /// or never written in the body at all.
    fn read(&self, r: Reg) -> Option<()> {
        (!self.writes[r as usize] || self.written[r as usize]).then_some(())
    }

    fn write(&mut self, r: Reg, varying: bool) {
        self.written[r as usize] = true;
        self.varying[r as usize] = varying;
    }

    fn emit(&mut self, step: Step) -> usize {
        self.steps.push(step);
        self.steps.len() - 1
    }

    /// If the last step computed the temporary `index` as the loop
    /// variable plus a register every lane shares, drops that step and
    /// returns the register: a temporary has one reader, the load.
    fn lane_offset(&mut self, index: Reg) -> Option<Reg> {
        let lanes = self.col_of[self.var as usize]?;
        let Some(&Step::Binary(BinOp::Add, sum, a, b)) = self.steps.last() else {
            return None;
        };
        if (index as usize) < self.temps || self.col_of[index as usize] != Some(sum) {
            return None;
        }
        let off = match (a, b) {
            (Opnd::Col(c), Opnd::Reg(r)) | (Opnd::Reg(r), Opnd::Col(c)) if c == lanes => r,
            _ => return None,
        };
        self.steps.pop();
        Some(off)
    }

    /// Appends a lane-uniform instruction, to the last `Scalar` step if
    /// it directly precedes.
    fn scalar(&mut self, instr: Instr) {
        self.uniform.push(instr);
        let to = narrow(self.uniform.len());
        match self.steps.last_mut() {
            Some(Step::Scalar(_, end)) if *end + 1 == to => *end = to,
            _ => {
                self.emit(Step::Scalar(to - 1, to));
            }
        }
    }

    /// Moves each variable `cols` has in a column, and that is not in one
    /// here, into its column.
    fn splat_into(&mut self, cols: &[bool]) {
        for (r, &col) in cols.iter().enumerate() {
            if col && !self.varying[r] {
                let r = narrow(r);
                let c = self.column(r);
                self.emit(Step::Splat(c, r));
            }
        }
    }

    /// Plans `code[from..to]`; `None` if it breaks the rule.
    fn block(&mut self, from: usize, to: usize) -> Option<()> {
        let mut pc = from;
        while pc < to {
            let instr = self.code[pc];
            pc += 1;
            let (dst, op, a, b) = match instr {
                Instr::Add(d, a, b) => (d, BinOp::Add, a, b),
                Instr::Sub(d, a, b) => (d, BinOp::Sub, a, b),
                Instr::Mul(d, a, b) => (d, BinOp::Mul, a, b),
                Instr::Div(d, a, b) => (d, BinOp::Div, a, b),
                Instr::Binary(op, d, a, b) => (d, op, a, b),
                Instr::Unary(_, d, a) | Instr::Mov(d, a) | Instr::Load(d, _, a) => {
                    self.read(a)?;
                    let varying = self.varying[a as usize];
                    if !varying {
                        self.scalar(instr);
                    } else {
                        let dst = self.column(d);
                        let step = match instr {
                            Instr::Load(_, buf, index) if index == self.var => {
                                Step::LoadLanes(dst, buf, None)
                            }
                            Instr::Load(_, buf, index) => match self.lane_offset(index) {
                                Some(off) => Step::LoadLanes(dst, buf, Some(off)),
                                None => Step::Gather(dst, buf, self.column(a)),
                            },
                            Instr::Unary(op, ..) => Step::Unary(op, dst, self.column(a)),
                            _ => Step::Mov(dst, self.column(a)),
                        };
                        self.emit(step);
                    }
                    self.write(d, varying);
                    continue;
                }
                Instr::Store(buf, _, value) => {
                    self.read(value)?;
                    let value = self.opnd(value);
                    let slot = match self.stored.iter().position(|&(b, _)| b == buf) {
                        Some(slot) => slot,
                        None => {
                            self.cols += 1;
                            self.stored.push((buf, self.cols - 1));
                            self.stored.len() - 1
                        }
                    };
                    self.emit(Step::Store(narrow(slot), value));
                    continue;
                }
                Instr::LoopStart { exit, .. } => {
                    self.inner_loop(pc - 1)?;
                    pc = exit as usize;
                    continue;
                }
                _ => unreachable!("the body was screened"),
            };
            self.read(a)?;
            self.read(b)?;
            let varying = self.varying[a as usize] || self.varying[b as usize];
            if varying {
                let (a, b) = (self.opnd(a), self.opnd(b));
                let dst = self.column(dst);
                self.emit(Step::Binary(op, dst, a, b));
            } else {
                self.scalar(instr);
            }
            self.write(dst, varying);
        }
        Some(())
    }

    /// Plans the inner loop whose header is at `head`. A variable holds a
    /// column at the loop's head if it does on entry or at the end of the
    /// body, to a fixed point; a splat moves it there from its register on
    /// entry, and at the end of a body that left it in one.
    fn inner_loop(&mut self, head: usize) -> Option<()> {
        let Instr::LoopStart {
            var,
            start,
            end,
            counter,
            exit,
        } = self.code[head]
        else {
            unreachable!("an inner loop starts at its header")
        };
        self.read(start)?;
        self.read(end)?;
        if self.varying[start as usize] || self.varying[end as usize] {
            return None;
        }
        let (written, varying) = (self.written.clone(), self.varying.clone());
        let (steps, uniform) = (self.steps.len(), self.uniform.len());
        let mut at_head = varying[..self.vars].to_vec();
        loop {
            self.steps.truncate(steps);
            self.uniform.truncate(uniform);
            self.written.clone_from(&written);
            self.varying.clone_from(&varying);
            self.splat_into(&at_head);
            self.varying[..self.vars].copy_from_slice(&at_head);
            self.written[var as usize] = true;
            let start_at = self.emit(Step::LoopStart {
                var,
                start,
                end,
                counter,
                exit: 0,
            });
            self.block(head + 1, exit as usize - 1)?;
            let mut grew = false;
            for (r, at_head) in at_head.iter_mut().enumerate() {
                grew |= self.varying[r] && !*at_head;
                *at_head |= self.varying[r];
            }
            if grew {
                continue;
            }
            self.splat_into(&at_head);
            self.emit(Step::LoopNext {
                var,
                counter,
                body: narrow(start_at + 1),
            });
            let after = narrow(self.steps.len());
            if let Step::LoopStart { exit, .. } = &mut self.steps[start_at] {
                *exit = after;
            }
            break;
        }
        // the body may not have run: only what was written on entry is
        // written on every path, and no temporary outlives its statement
        self.written.clone_from(&written);
        self.written[self.temps..].fill(false);
        self.varying[..self.vars].copy_from_slice(&at_head);
        Some(())
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
            plans: Vec::new(),
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

    #[test]
    fn column_plans_go_to_independent_loops_only() {
        let program = |src: &str| {
            let k = parse_kernel(src).unwrap();
            k.program();
            k
        };
        let plans = |src: &str| program(src).program().plans.len();
        // the kernels the serving mix and the heaviest experiments run
        let fir = program(
            "kernel fir(in float x[], in float h[], out float y[], int n, int taps) {
                 for (i in 0 .. n) {
                     acc = 0.0;
                     for (k in 0 .. taps) { acc = acc + h[k] * x[i + k]; }
                     y[i] = acc;
                 }
             }",
        );
        let blackscholes = program(
            "kernel blackscholes(in float spot[], in float strike[], out float price[], float r, float sigma, float t, int n) {
                 for (i in 0 .. n) {
                     s = spot[i];
                     k = strike[i];
                     d1 = (log(s / k) + (r + 0.5 * sigma * sigma) * t) / (sigma * sqrt(t));
                     d2 = d1 - sigma * sqrt(t);
                     nd1 = 1.0 / (1.0 + exp(0.0 - 1.702 * d1));
                     nd2 = 1.0 / (1.0 + exp(0.0 - 1.702 * d2));
                     price[i] = s * nd1 - k * exp(0.0 - r * t) * nd2;
                 }
             }",
        );
        let uniform = |k: &Kernel| {
            let [plan] = &k.program().plans[..] else {
                panic!("one plan")
            };
            plan.uniform.clone()
        };
        // `h[k]` is loaded once per tap and chunk, and `x[i + k]` as one
        // slice; 11 of Black–Scholes' 33 body instructions, both `sqrt`s
        // and one `exp`, run once per chunk
        assert!(matches!(
            uniform(&fir)[..],
            [Instr::Mov(..), Instr::Load(..)]
        ));
        let steps = &fir.program().plans[0].steps;
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::LoadLanes(_, _, Some(_)))));
        assert!(!steps.iter().any(|s| matches!(s, Step::Gather(..))));
        assert_eq!(blackscholes.program().code.len(), 35);
        assert_eq!(uniform(&blackscholes).len(), 11);
        let scale = "kernel scale(in float a[], out float b[], int n) {
                         for (i in 0 .. n) { b[i] = sqrt(a[i] + 1.0) * 2.0; }
                     }";
        let mc_payoff = "kernel mc_payoff(in float z[], out float payoff[], float s0, float strike, float r, float sigma, float t, int n) {
                             for (i in 0 .. n) {
                                 st = s0 * exp((r - 0.5 * sigma * sigma) * t + sigma * sqrt(t) * z[i]);
                                 payoff[i] = max(st - strike, 0.0);
                             }
                         }";
        assert_eq!((plans(scale), plans(mc_payoff)), (1, 1));
        // a rejected outer loop leaves its inner loops to be planned
        assert_eq!(
            plans(
                "kernel o(in float x[], out float y[], int n, int m) {
                     for (j in 0 .. m) { for (i in 0 .. n) { y[i] = x[i] * j; } }
                 }"
            ),
            1
        );
        for rejected in [
            // loads from the array it stores to
            "kernel r(inout float a[], int n) { for (i in 0 .. n) { a[i] = a[i] * 2.0; } }",
            // reads a local before this iteration writes it
            "kernel p(in float x[], out float y[], int n) {
                 s = 0.0;
                 for (i in 0 .. n) { y[i] = s; s = x[i]; }
             }",
            // an inner loop's bound differs between lanes
            "kernel v(out float y[], int n) {
                 for (i in 0 .. n) {
                     acc = 0.0;
                     for (k in 0 .. i) { acc = acc + k; }
                     y[i] = acc;
                 }
             }",
            // branches on a lane's value
            "kernel s(in float x[], out float y[], int n) {
                 for (i in 0 .. n) { y[i] = select(x[i] > 0.0, x[i], 0.0); }
             }",
            "kernel f(in float x[], out float y[], int n) {
                 for (i in 0 .. n) { if (x[i] > 0.0) { y[i] = 1.0; } }
             }",
            // stores elsewhere than at the loop variable
            "kernel d(in float x[], out float y[], int n) {
                 for (i in 0 .. n) { y[i + 1] = x[i]; }
             }",
        ] {
            assert_eq!(plans(rejected), 0, "{rejected}");
        }
    }

    #[test]
    fn a_faulting_chunk_resumes_the_scalar_loop_at_its_start() {
        let k = parse_kernel(
            "kernel g(in float a[], out float b[], out float c[], float f, int n) {
                 c[0] = c[0] + 1.0;
                 for (i in 0 .. n) { t = a[i] * f; b[i] = t + a[i * 2]; }
             }",
        )
        .unwrap();
        assert_eq!(k.column_loops(), 1);
        let a: Vec<f64> = (0..600).map(|i| i as f64 * 0.25).collect();
        let mut args = KernelArgs::new();
        args.bind_array("a", a.clone())
            .bind_array("b", vec![-1.0; 600])
            .bind_array("c", vec![5.0])
            .bind_scalar("f", 3.0)
            .bind_scalar("n", 600.0);
        // `a[i * 2]` leaves `a` at i = 300, in the second chunk
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::IndexOutOfBounds {
                array: "a".into(),
                index: 600,
                len: 600
            }
        );
        let b = args.array("b").unwrap();
        for (i, &v) in b.iter().enumerate() {
            let want = if i < 300 { a[i] * 3.0 + a[i * 2] } else { -1.0 };
            assert_eq!(v.to_bits(), want.to_bits(), "b[{i}]");
        }
        // the statement before the loop ran once
        assert_eq!(args.array("c").unwrap(), &[6.0]);
    }

    #[test]
    fn a_column_loop_leaves_its_last_lane_in_the_registers() {
        let k = parse_kernel(
            "kernel l(in float a[], out float b[], out float o[], int n) {
                 t = 0.0;
                 u = 0.0;
                 for (i in 0 .. n) { t = a[i] * 2.0; u = 7.0; b[i] = t; }
                 o[0] = t + u + i;
             }",
        )
        .unwrap();
        assert_eq!(k.column_loops(), 1);
        for n in [1usize, 255, 256, 257, 515] {
            let mut args = KernelArgs::new();
            args.bind_array("a", (0..n).map(|i| i as f64).collect())
                .bind_array("b", vec![0.0; n])
                .bind_array("o", vec![0.0])
                .bind_scalar("n", n as f64);
            args.run(&k).unwrap();
            let last = (n - 1) as f64;
            assert_eq!(
                args.array("o").unwrap(),
                &[last * 2.0 + 7.0 + last],
                "n = {n}"
            );
            assert_eq!(args.array("b").unwrap()[n - 1], last * 2.0);
        }
    }
}
