//! Fork/join task graphs.
//!
//! §4.1: "Each Worker is an independent computing unit that can execute,
//! fork, and join tasks or threads of an HPC application in parallel
//! with the other Workers." A [`TaskGraph`] is a DAG of [`Task`]s with
//! dependency edges; [`GraphRun`] executes it over a worker pool with
//! locality-aware placement (tasks prefer their data home) and reports
//! makespan, critical path, and per-worker utilization.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use ecoscale_sim::{Duration, Time, TimingWheel};

use crate::device::CpuModel;
use crate::task::{Task, TaskId};

/// A dependency-ordered collection of tasks.
///
/// # Example
///
/// ```
/// use ecoscale_noc::NodeId;
/// use ecoscale_runtime::graph::TaskGraph;
/// use ecoscale_runtime::{Task, TaskId};
///
/// let mut g = TaskGraph::new();
/// let a = g.add(Task::new(TaskId(0), "fork", vec![], 1000, 100, NodeId(0)));
/// let b = g.add(Task::new(TaskId(1), "work", vec![], 9000, 100, NodeId(1)));
/// let c = g.add(Task::new(TaskId(2), "join", vec![], 1000, 100, NodeId(0)));
/// g.depend(b, a)?; // b after a
/// g.depend(c, b)?;
/// assert_eq!(g.len(), 3);
/// # Ok::<(), ecoscale_runtime::graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// deps[i] = indices task i waits for
    deps: Vec<Vec<usize>>,
}

/// Handle to a node in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle(usize);

/// Task-graph construction/execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A handle referenced a node not in this graph.
    BadHandle,
    /// The dependency edges form a cycle.
    Cycle,
    /// Execution was asked to run on zero workers.
    NoWorkers,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadHandle => f.write_str("handle does not belong to this graph"),
            GraphError::Cycle => f.write_str("dependency edges form a cycle"),
            GraphError::NoWorkers => f.write_str("execution needs at least one worker"),
        }
    }
}

impl Error for GraphError {}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Adds a task, returning its handle.
    pub fn add(&mut self, task: Task) -> NodeHandle {
        self.tasks.push(task);
        self.deps.push(Vec::new());
        NodeHandle(self.tasks.len() - 1)
    }

    /// Declares that `after` must wait for `before`.
    ///
    /// # Errors
    ///
    /// [`GraphError::BadHandle`] for foreign handles.
    pub fn depend(&mut self, after: NodeHandle, before: NodeHandle) -> Result<(), GraphError> {
        if after.0 >= self.tasks.len() || before.0 >= self.tasks.len() {
            return Err(GraphError::BadHandle);
        }
        self.deps[after.0].push(before.0);
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Builds a fork/join fan of `width` parallel tasks between a fork
    /// and a join node — the canonical pattern the paper names.
    pub fn fork_join(width: usize, flops: u64, homes: usize) -> TaskGraph {
        use ecoscale_noc::NodeId;
        let mut g = TaskGraph::new();
        let fork = g.add(Task::new(TaskId(0), "fork", vec![], 1_000, 100, NodeId(0)));
        let mut mids = Vec::new();
        for i in 0..width {
            let t = g.add(Task::new(
                TaskId(1 + i as u64),
                "work",
                vec![flops as f64],
                flops,
                flops / 10,
                NodeId(i % homes.max(1)),
            ));
            g.depend(t, fork).expect("fresh handles");
            mids.push(t);
        }
        let join = g.add(Task::new(
            TaskId(1 + width as u64),
            "join",
            vec![],
            1_000,
            100,
            NodeId(0),
        ));
        for m in mids {
            g.depend(join, m).expect("fresh handles");
        }
        g
    }

    /// Topological order, or a cycle error.
    fn topo_order(&self) -> Result<Vec<usize>, GraphError> {
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ds) in self.deps.iter().enumerate() {
            indeg[i] += ds.len();
            for &d in ds {
                out[d].push(i);
            }
        }
        let mut ready: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop_front() {
            order.push(i);
            for &s in &out[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push_back(s);
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::Cycle);
        }
        Ok(order)
    }

    /// Critical-path length (sum of task times along the longest
    /// dependency chain) for `cpu` — the lower bound on makespan with
    /// unlimited workers.
    ///
    /// # Errors
    ///
    /// [`GraphError::Cycle`] for cyclic graphs.
    pub fn critical_path(&self, cpu: &CpuModel) -> Result<Duration, GraphError> {
        let order = self.topo_order()?;
        let mut finish = vec![Duration::ZERO; self.tasks.len()];
        for &i in &order {
            let start = self.deps[i]
                .iter()
                .map(|&d| finish[d])
                .max()
                .unwrap_or(Duration::ZERO);
            let (t, _) = cpu.exec(self.tasks[i].flops(), self.tasks[i].mem_ops());
            finish[i] = start + t;
        }
        Ok(finish.into_iter().max().unwrap_or(Duration::ZERO))
    }

    /// Executes the graph on `workers` workers (locality-first greedy
    /// list scheduling): a ready task runs on its data-home worker if
    /// idle, else on the earliest-free worker.
    ///
    /// # Errors
    ///
    /// [`GraphError::NoWorkers`] if `workers` is zero, and
    /// [`GraphError::Cycle`] for cyclic graphs.
    pub fn execute(&self, workers: usize, cpu: &CpuModel) -> Result<GraphRun, GraphError> {
        if workers == 0 {
            return Err(GraphError::NoWorkers);
        }
        self.topo_order()?; // validates acyclicity
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = self.deps.iter().map(|d| d.len()).collect();
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                out[d].push(i);
            }
        }
        let mut worker_free = vec![Time::ZERO; workers];
        let mut busy_time = vec![Duration::ZERO; workers];
        let mut finish_at = vec![Time::ZERO; n];
        let mut q: TimingWheel<usize> = TimingWheel::new();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut completed = 0usize;

        // Greedy dispatch helper.
        let dispatch = |i: usize,
                        now: Time,
                        worker_free: &mut [Time],
                        busy_time: &mut [Duration],
                        q: &mut TimingWheel<usize>,
                        finish_at: &mut [Time]| {
            let dep_ready = self.deps[i]
                .iter()
                .map(|&d| finish_at[d])
                .max()
                .unwrap_or(Time::ZERO)
                .max(now);
            let home = self.tasks[i].data_home().0 % worker_free.len();
            // locality-first: home worker unless another is free much
            // earlier
            let best = (0..worker_free.len())
                .min_by_key(|&w| worker_free[w])
                .expect("workers > 0");
            let w = if worker_free[home] <= worker_free[best] + Duration::from_us(5) {
                home
            } else {
                best
            };
            let start = worker_free[w].max(dep_ready);
            let (t, _) = cpu.exec(self.tasks[i].flops(), self.tasks[i].mem_ops());
            worker_free[w] = start + t;
            busy_time[w] += t;
            finish_at[i] = start + t;
            q.schedule(start + t, q.scheduled_total(), i);
        };

        for i in ready.drain(..) {
            dispatch(
                i,
                Time::ZERO,
                &mut worker_free,
                &mut busy_time,
                &mut q,
                &mut finish_at,
            );
        }
        while let Some((now, _, i)) = q.pop() {
            completed += 1;
            for &s in &out[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    dispatch(
                        s,
                        now,
                        &mut worker_free,
                        &mut busy_time,
                        &mut q,
                        &mut finish_at,
                    );
                }
            }
        }
        debug_assert_eq!(completed, n);
        let makespan = finish_at.iter().copied().max().unwrap_or(Time::ZERO);
        let span = makespan.saturating_since(Time::ZERO);
        let utils: Vec<f64> = busy_time
            .iter()
            .map(|b| if span.is_zero() { 0.0 } else { *b / span })
            .collect();
        Ok(GraphRun {
            makespan: span,
            mean_utilization: utils.iter().sum::<f64>() / utils.len() as f64,
            tasks: n,
        })
    }
}

/// What one graph execution produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphRun {
    /// End-to-end time.
    pub makespan: Duration,
    /// Mean worker busy fraction.
    pub mean_utilization: f64,
    /// Tasks executed.
    pub tasks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_noc::NodeId;

    fn cpu() -> CpuModel {
        CpuModel::a53_default()
    }

    fn task(id: u64, flops: u64, home: usize) -> Task {
        Task::new(TaskId(id), "t", vec![], flops, flops / 10, NodeId(home))
    }

    #[test]
    fn chain_runs_serially() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, 100_000, 0));
        let b = g.add(task(1, 100_000, 1));
        let c = g.add(task(2, 100_000, 2));
        g.depend(b, a).unwrap();
        g.depend(c, b).unwrap();
        let run = g.execute(8, &cpu()).unwrap();
        let cp = g.critical_path(&cpu()).unwrap();
        // a chain's makespan equals its critical path regardless of
        // worker count
        assert_eq!(run.makespan, cp);
        assert_eq!(run.tasks, 3);
    }

    #[test]
    fn fork_join_scales_with_workers() {
        let g = TaskGraph::fork_join(32, 500_000, 8);
        let one = g.execute(1, &cpu()).unwrap();
        let eight = g.execute(8, &cpu()).unwrap();
        assert!(eight.makespan.as_ns() * 5 < one.makespan.as_ns());
        // lower-bounded by the critical path
        let cp = g.critical_path(&cpu()).unwrap();
        assert!(eight.makespan >= cp);
    }

    #[test]
    fn unlimited_workers_hit_critical_path() {
        let g = TaskGraph::fork_join(16, 200_000, 16);
        let run = g.execute(64, &cpu()).unwrap();
        let cp = g.critical_path(&cpu()).unwrap();
        // fork + one mid + join; with ≥width workers makespan == cp
        assert_eq!(run.makespan, cp);
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, 100, 0));
        let b = g.add(task(1, 100, 0));
        g.depend(a, b).unwrap();
        g.depend(b, a).unwrap();
        assert_eq!(g.execute(2, &cpu()).unwrap_err(), GraphError::Cycle);
        assert_eq!(g.critical_path(&cpu()).unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let g = TaskGraph::fork_join(4, 1_000, 2);
        assert_eq!(g.execute(0, &cpu()).unwrap_err(), GraphError::NoWorkers);
        assert_eq!(
            GraphError::NoWorkers.to_string(),
            "execution needs at least one worker"
        );
    }

    #[test]
    fn bad_handle_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, 100, 0));
        let foreign = NodeHandle(7);
        assert_eq!(g.depend(a, foreign), Err(GraphError::BadHandle));
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        let run = g.execute(4, &cpu()).unwrap();
        assert_eq!(run.makespan, Duration::ZERO);
        assert_eq!(run.tasks, 0);
    }

    #[test]
    fn independent_tasks_spread_over_workers() {
        let mut g = TaskGraph::new();
        for i in 0..16 {
            g.add(task(i, 1_000_000, i as usize));
        }
        let run = g.execute(16, &cpu()).unwrap();
        assert!(run.mean_utilization > 0.9);
    }
}
