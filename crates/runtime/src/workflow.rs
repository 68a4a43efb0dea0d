//! Workflow construction and DAG analysis (§3.1 of the paper).
//!
//! The builder mirrors how PyCOMPSs turns an application into a DAG: the
//! application submits tasks with directional parameters, and edges are
//! derived automatically from data versions — read-after-write,
//! write-after-write, and write-after-read. The resulting DAG's *width*
//! is the degree of task parallelism and its *height* the degree of task
//! dependency (Fig. 6).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::data::{DataId, DataRegistry, Direction};
use crate::task::{CostProfile, Param, TaskId, TaskSpec, TaskType};

/// A fully built workflow: tasks, dependencies, registry, and DAG shape.
/// It is read-only data: the builder's version bookkeeping (current
/// versions, last writers, readers since the last write) does not outlive
/// [`WorkflowBuilder::build`].
///
/// Dependency edges are stored in CSR (compressed sparse row) form — one
/// flat edge array per direction plus an offsets array — so a million-task
/// DAG costs two allocations per direction instead of a `Vec` per task,
/// and `successors`/`predecessors` are contiguous slices the executor can
/// walk without pointer chasing.
#[derive(Debug, Clone)]
pub struct Workflow {
    tasks: Vec<TaskSpec>,
    registry: DataRegistry,
    /// CSR offsets into `succ_edges`, length `tasks + 1`.
    succ_off: Vec<u32>,
    /// Successor edge array, grouped by source task.
    succ_edges: Vec<TaskId>,
    /// CSR offsets into `pred_edges`, length `tasks + 1`.
    pred_off: Vec<u32>,
    /// Predecessor edge array, grouped by target task.
    pred_edges: Vec<TaskId>,
    /// Longest-path level of each task (0-based).
    levels: Vec<u32>,
    /// Interned task-type table, in first-submission order.
    types: Vec<TaskType>,
    /// Index into `types` per task.
    type_ids: Vec<u32>,
}

/// Shape statistics of a DAG (Table 1 parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagShape {
    /// Number of tasks.
    pub tasks: usize,
    /// Maximum number of tasks on one level — the degree of task
    /// parallelism.
    pub max_width: usize,
    /// Number of levels — the degree of task dependency.
    pub height: usize,
}

impl Workflow {
    /// All tasks in generation order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// One task.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.0 as usize]
    }

    /// The data registry (sizes, names).
    pub fn registry(&self) -> &DataRegistry {
        &self.registry
    }

    /// Direct successors of `id`.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        let i = id.0 as usize;
        &self.succ_edges[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Direct predecessors of `id`.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        let i = id.0 as usize;
        &self.pred_edges[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// The interned task-type table, in first-submission order.
    pub fn task_types(&self) -> &[TaskType] {
        &self.types
    }

    /// Index of `id`'s task type in [`Workflow::task_types`]; lets hot
    /// paths compare and group types by `u32` instead of by string.
    pub fn type_id(&self, id: TaskId) -> u32 {
        self.type_ids[id.0 as usize]
    }

    /// Longest-path level of `id` (0 for source tasks).
    pub fn level(&self, id: TaskId) -> u32 {
        self.levels[id.0 as usize]
    }

    /// DAG shape statistics.
    pub fn shape(&self) -> DagShape {
        let height = self
            .levels
            .iter()
            .map(|&l| l as usize + 1)
            .max()
            .unwrap_or(0);
        let mut per_level = vec![0usize; height];
        for &l in &self.levels {
            per_level[l as usize] += 1;
        }
        DagShape {
            tasks: self.tasks.len(),
            max_width: per_level.iter().copied().max().unwrap_or(0),
            height,
        }
    }

    /// Renders the DAG in Graphviz DOT, with `dNvM` edge labels like the
    /// PyCOMPSs dumps in Fig. 6.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        for t in &self.tasks {
            let _ = writeln!(
                out,
                "  t{} [label=\"{} #{}\" shape=ellipse];",
                t.id.0, t.task_type, t.id.0
            );
        }
        for from_idx in 0..self.tasks.len() {
            for to in self.successors(TaskId(from_idx as u32)) {
                let _ = writeln!(out, "  t{from_idx} -> t{};", to.0);
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Lower bound on any schedule's makespan: the longest chain of
    /// estimated task costs (user code on `cpu`), ignoring all resource
    /// limits and data movement. The advisor reports it beside simulated
    /// makespans.
    pub fn critical_path_seconds(&self, cpu: &gpuflow_cluster::CpuModel) -> f64 {
        let mut longest = vec![0.0f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let est =
                cpu.time(&t.cost.serial).as_secs_f64() + cpu.time(&t.cost.parallel).as_secs_f64();
            let pred_max = self
                .predecessors(TaskId(i as u32))
                .iter()
                .map(|p| longest[p.0 as usize])
                .fold(0.0, f64::max);
            longest[i] = pred_max + est;
        }
        longest.into_iter().fold(0.0, f64::max)
    }

    /// Verifies structural invariants (used by tests): edges point
    /// forward in generation order (acyclicity by construction), levels
    /// are consistent with predecessors.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.tasks.len() {
            for s in self.successors(TaskId(i as u32)) {
                if s.0 as usize <= i {
                    return Err(format!("edge t{} -> t{} is not forward", i, s.0));
                }
            }
        }
        for i in 0..self.tasks.len() {
            let expected = self
                .predecessors(TaskId(i as u32))
                .iter()
                .map(|p| self.levels[p.0 as usize] + 1)
                .max()
                .unwrap_or(0);
            if self.levels[i] != expected {
                return Err(format!(
                    "task t{i} has level {} but predecessors imply {expected}",
                    self.levels[i]
                ));
            }
        }
        Ok(())
    }
}

/// Builds a [`Workflow`] by registering data and submitting tasks.
///
/// ```
/// use gpuflow_cluster::KernelWork;
/// use gpuflow_runtime::{CostProfile, Direction, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new();
/// let x = b.input("x", 1 << 20);
/// let y = b.intermediate("y", 1 << 20);
/// let cost = CostProfile::fully_parallel(KernelWork::data_parallel(1e9, 1e6));
/// let producer = b
///     .submit("produce", cost, &[(x, Direction::In), (y, Direction::Out)], false)
///     .unwrap();
/// let consumer = b.submit("consume", cost, &[(y, Direction::In)], false).unwrap();
/// let wf = b.build();
/// // The read-after-write dependency was derived automatically.
/// assert_eq!(wf.predecessors(consumer), &[producer]);
/// ```
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    registry: DataRegistry,
    /// Version state per registered object, indexed by [`DataId`].
    versions: Vec<VersionState>,
    /// Every read access as `(reader, previous read of the same object)`:
    /// one arena threading each object's reads since its last write into
    /// a list, so no object needs a reader list of its own.
    reads: Vec<(TaskId, Option<u32>)>,
    tasks: Vec<TaskSpec>,
    succs: Vec<Vec<TaskId>>,
    preds: Vec<Vec<TaskId>>,
    /// Interned task types; workflows have a handful, so a linear scan
    /// beats a hash map.
    type_pool: Vec<TaskType>,
    /// Index into `type_pool` per task.
    type_ids: Vec<u32>,
}

/// What the builder knows of one object while tasks are submitted.
#[derive(Debug, Default)]
struct VersionState {
    /// Current version number; 0 is the initial (on-storage) version.
    current: u32,
    /// Task that produced the current version.
    last_writer: Option<TaskId>,
    /// Newest read of the current version since the last write, an
    /// index into the builder's `reads`.
    last_read: Option<u32>,
}

/// One merge of [`WorkflowBuilder::reduce`]: the object it writes and the
/// task that writes it.
#[derive(Debug, Clone)]
pub struct Merge<'a> {
    /// Debug name of the merged object.
    pub name: String,
    /// Payload size of the merged object.
    pub bytes: u64,
    /// Type of the merge task.
    pub task_type: &'a str,
    /// Cost of the merge task.
    pub cost: CostProfile,
    /// Whether the merge task must run on a CPU.
    pub cpu_only: bool,
}

impl WorkflowBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset block (exists on storage before the run).
    pub fn input(&mut self, name: impl Into<String>, bytes: u64) -> DataId {
        self.register(name.into(), bytes, true)
    }

    /// Registers an intermediate object (must be written before read).
    pub fn intermediate(&mut self, name: impl Into<String>, bytes: u64) -> DataId {
        self.register(name.into(), bytes, false)
    }

    fn register(&mut self, name: String, bytes: u64, initial: bool) -> DataId {
        self.versions.push(VersionState::default());
        self.registry.register(name, bytes, initial)
    }

    /// Number of tasks submitted so far (the next task id).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Submits a task; dependencies are derived from the parameter
    /// directions and the current data versions.
    ///
    /// # Errors
    /// Fails on read-before-write.
    pub fn submit(
        &mut self,
        task_type: impl AsRef<str>,
        cost: CostProfile,
        accesses: &[(DataId, Direction)],
        cpu_only: bool,
    ) -> Result<TaskId, String> {
        let (task_type, type_id) = self.intern_type(task_type.as_ref());
        self.type_ids.push(type_id);
        let id = TaskId(self.tasks.len() as u32);
        let mut deps: BTreeSet<TaskId> = BTreeSet::new();
        let mut params = Vec::with_capacity(accesses.len());
        for &(data, dir) in accesses {
            let mut version = 0;
            if dir.reads() {
                let (v, raw) = self.note_read(data, id)?;
                version = v;
                deps.extend(raw);
            }
            if dir.writes() {
                let (v, waw, war) = self.note_write(data, id);
                version = v;
                deps.extend(waw);
                deps.extend(war.into_iter().filter(|&t| t != id));
            }
            params.push(Param { data, dir, version });
        }
        self.tasks.push(TaskSpec {
            id,
            task_type,
            params,
            cost,
            cpu_only,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        for dep in deps {
            self.succs[dep.0 as usize].push(id);
            self.preds[id.0 as usize].push(dep);
        }
        Ok(id)
    }

    /// Records that `task` reads `id`, returning the version read and the
    /// RAW dependency (the last writer), if any.
    ///
    /// # Errors
    /// Fails when the object has no initial version and was never written
    /// (read-before-write is a workflow construction bug).
    fn note_read(&mut self, id: DataId, task: TaskId) -> Result<(u32, Option<TaskId>), String> {
        let v = &mut self.versions[id.0 as usize];
        let obj = self.registry.object(id);
        if v.current == 0 && !obj.initial {
            return Err(format!(
                "task {task} reads {} (d{}) before any task wrote it",
                obj.name, id.0
            ));
        }
        self.reads.push((task, v.last_read));
        v.last_read = Some(self.reads.len() as u32 - 1);
        Ok((v.current, v.last_writer))
    }

    /// Records that `task` writes `id`, returning the new version and the
    /// WAW/WAR dependencies (previous writer, readers of the previous
    /// version).
    fn note_write(&mut self, id: DataId, task: TaskId) -> (u32, Option<TaskId>, Vec<TaskId>) {
        let v = &mut self.versions[id.0 as usize];
        v.current += 1;
        let waw = v.last_writer.replace(task);
        let mut war = Vec::new();
        let mut read = v.last_read.take();
        while let Some(i) = read {
            let (reader, previous) = self.reads[i as usize];
            war.push(reader);
            read = previous;
        }
        war.reverse();
        (v.current, waw, war)
    }

    /// Folds `frontier` down to one object in rounds: each group of up to
    /// `arity` consecutive objects becomes one task that reads the group
    /// and writes a new object, and a lone trailing object passes through
    /// to the next round. `merge(round, index, len)` describes the merge of
    /// the `index`-th group of `len` objects in `round` (both from 0).
    /// Returns the one object left.
    ///
    /// # Panics
    /// Panics on an empty frontier, an `arity` below 2, or a frontier
    /// object that is not readable yet.
    pub fn reduce<'a>(
        &mut self,
        mut frontier: Vec<DataId>,
        arity: usize,
        mut merge: impl FnMut(u32, usize, usize) -> Merge<'a>,
    ) -> DataId {
        assert!(arity >= 2, "a merge reads at least two objects");
        let mut round = 0;
        while frontier.len() > 1 {
            let mut next = Vec::with_capacity(frontier.len().div_ceil(arity));
            for (index, group) in frontier.chunks(arity).enumerate() {
                if let [lone] = group {
                    next.push(*lone);
                    continue;
                }
                let m = merge(round, index, group.len());
                let out = self.intermediate(m.name, m.bytes);
                let mut accesses: Vec<_> = group.iter().map(|&d| (d, Direction::In)).collect();
                accesses.push((out, Direction::Out));
                self.submit(m.task_type, m.cost, &accesses, m.cpu_only)
                    .expect("a merge reads what the frontier holds");
                next.push(out);
            }
            frontier = next;
            round += 1;
        }
        *frontier.first().expect("a reduction needs an object")
    }

    /// Returns the interned [`TaskType`] for `name` and its table index,
    /// creating it on first sight.
    fn intern_type(&mut self, name: &str) -> (TaskType, u32) {
        if let Some(i) = self.type_pool.iter().position(|t| t.as_str() == name) {
            return (self.type_pool[i].clone(), i as u32);
        }
        let t = TaskType::from(name);
        self.type_pool.push(t.clone());
        (t, self.type_pool.len() as u32 - 1)
    }

    /// Inserts an explicit synchronisation barrier, as PyCOMPSs
    /// applications do between algorithm phases (the `barrier` nodes in
    /// the paper's Fig. 6b): a zero-cost bookkeeping task that reads the
    /// current version of every object written so far, so every task
    /// submitted afterwards with a write on any of them orders behind it.
    ///
    /// Returns the barrier task id, or `None` when there is nothing to
    /// wait on.
    pub fn barrier(&mut self) -> Option<TaskId> {
        use gpuflow_cluster::KernelWork;
        let written: Vec<(DataId, Direction)> = (0..self.versions.len())
            .filter(|&i| self.versions[i].last_writer.is_some())
            .map(|i| (DataId(i as u32), Direction::In))
            .collect();
        if written.is_empty() {
            return None;
        }
        Some(
            self.submit(
                "barrier",
                CostProfile::serial_only(KernelWork::NONE),
                &written,
                true,
            )
            .expect("barrier reads only written data"),
        )
    }

    /// Finalises the workflow, computing DAG levels and packing the
    /// dependency lists into CSR form. The version state is dropped here.
    pub fn build(self) -> Workflow {
        let mut levels = vec![0u32; self.tasks.len()];
        // Tasks are in topological order by construction (edges forward).
        for i in 0..self.tasks.len() {
            levels[i] = self.preds[i]
                .iter()
                .map(|p| levels[p.0 as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        let (succ_off, succ_edges) = pack_csr(&self.succs);
        let (pred_off, pred_edges) = pack_csr(&self.preds);
        Workflow {
            tasks: self.tasks,
            registry: self.registry,
            succ_off,
            succ_edges,
            pred_off,
            pred_edges,
            levels,
            types: self.type_pool,
            type_ids: self.type_ids,
        }
    }
}

/// Flattens per-task adjacency lists into a CSR offsets/edges pair,
/// preserving per-task edge order.
fn pack_csr(lists: &[Vec<TaskId>]) -> (Vec<u32>, Vec<TaskId>) {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut edges = Vec::with_capacity(total);
    off.push(0u32);
    for l in lists {
        edges.extend_from_slice(l);
        off.push(edges.len() as u32);
    }
    (off, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_cluster::KernelWork;

    fn cost() -> CostProfile {
        CostProfile::fully_parallel(KernelWork::data_parallel(1e6, 1e6))
    }

    fn tid(n: u32) -> TaskId {
        TaskId(n)
    }

    fn version(b: &WorkflowBuilder, d: DataId) -> u32 {
        b.versions[d.0 as usize].current
    }

    #[test]
    fn versions_start_at_zero_and_bump_on_write() {
        let mut b = WorkflowBuilder::new();
        let d = b.input("block", 100);
        assert_eq!(version(&b, d), 0);
        let (v, waw, war) = b.note_write(d, tid(1));
        assert_eq!(v, 1);
        assert_eq!(waw, None);
        assert!(war.is_empty());
        assert_eq!(version(&b, d), 1);
    }

    #[test]
    fn raw_dependency_points_at_last_writer() {
        let mut b = WorkflowBuilder::new();
        let d = b.intermediate("x", 8);
        b.note_write(d, tid(1));
        let (version, dep) = b.note_read(d, tid(2)).unwrap();
        assert_eq!(version, 1);
        assert_eq!(dep, Some(tid(1)));
    }

    #[test]
    fn war_dependencies_cover_readers_since_write() {
        let mut b = WorkflowBuilder::new();
        let d = b.input("block", 100);
        b.note_read(d, tid(1)).unwrap();
        b.note_read(d, tid(2)).unwrap();
        let (v, waw, war) = b.note_write(d, tid(3));
        assert_eq!(v, 1);
        assert_eq!(waw, None);
        assert_eq!(war, vec![tid(1), tid(2)]);
        // Readers list resets after the write.
        let (_, waw2, war2) = b.note_write(d, tid(4));
        assert_eq!(waw2, Some(tid(3)));
        assert!(war2.is_empty());
    }

    #[test]
    fn read_before_write_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let d = b.intermediate("out", 8);
        assert!(b.note_read(d, tid(1)).is_err());
    }

    #[test]
    fn initial_data_readable_at_version_zero() {
        let mut b = WorkflowBuilder::new();
        let d = b.input("block", 100);
        let (version, dep) = b.note_read(d, tid(1)).unwrap();
        assert_eq!((version, dep), (0, None));
    }

    /// A diamond: t0 writes x; t1 and t2 read x, write y1/y2; t3 reads both.
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let x = b.intermediate("x", 8);
        let y1 = b.intermediate("y1", 8);
        let y2 = b.intermediate("y2", 8);
        let t0 = b
            .submit("produce", cost(), &[(x, Direction::Out)], false)
            .unwrap();
        let t1 = b
            .submit(
                "branch",
                cost(),
                &[(x, Direction::In), (y1, Direction::Out)],
                false,
            )
            .unwrap();
        let t2 = b
            .submit(
                "branch",
                cost(),
                &[(x, Direction::In), (y2, Direction::Out)],
                false,
            )
            .unwrap();
        let t3 = b
            .submit(
                "join",
                cost(),
                &[(y1, Direction::In), (y2, Direction::In)],
                false,
            )
            .unwrap();
        assert_eq!((t0.0, t1.0, t2.0, t3.0), (0, 1, 2, 3));
        b.build()
    }

    #[test]
    fn diamond_has_expected_edges_and_levels() {
        let wf = diamond();
        assert_eq!(wf.successors(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(wf.predecessors(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(wf.level(TaskId(0)), 0);
        assert_eq!(wf.level(TaskId(1)), 1);
        assert_eq!(wf.level(TaskId(2)), 1);
        assert_eq!(wf.level(TaskId(3)), 2);
        wf.check_invariants().unwrap();
    }

    #[test]
    fn diamond_shape() {
        let shape = diamond().shape();
        assert_eq!(
            shape,
            DagShape {
                tasks: 4,
                max_width: 2,
                height: 3
            }
        );
    }

    #[test]
    fn war_edge_orders_reader_before_overwriter() {
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", 8);
        let y = b.intermediate("y", 8);
        let reader = b
            .submit(
                "read",
                cost(),
                &[(x, Direction::In), (y, Direction::Out)],
                false,
            )
            .unwrap();
        let writer = b
            .submit("overwrite", cost(), &[(x, Direction::Out)], false)
            .unwrap();
        let wf = b.build();
        assert_eq!(wf.predecessors(writer), &[reader]);
    }

    #[test]
    fn waw_edge_orders_writers() {
        let mut b = WorkflowBuilder::new();
        let x = b.intermediate("x", 8);
        let w1 = b
            .submit("w1", cost(), &[(x, Direction::Out)], false)
            .unwrap();
        let w2 = b
            .submit("w2", cost(), &[(x, Direction::Out)], false)
            .unwrap();
        let wf = b.build();
        assert_eq!(wf.predecessors(w2), &[w1]);
    }

    #[test]
    fn inout_chains_serialise() {
        // The Matmul-FMA accumulation pattern: C += A·B per k, in a chain.
        let mut b = WorkflowBuilder::new();
        let a = b.input("a", 8);
        let c = b.intermediate("c", 8);
        let init = b
            .submit("init", cost(), &[(c, Direction::Out)], false)
            .unwrap();
        let f1 = b
            .submit(
                "fma",
                cost(),
                &[(a, Direction::In), (c, Direction::InOut)],
                false,
            )
            .unwrap();
        let f2 = b
            .submit(
                "fma",
                cost(),
                &[(a, Direction::In), (c, Direction::InOut)],
                false,
            )
            .unwrap();
        let wf = b.build();
        assert_eq!(wf.predecessors(f1), &[init]);
        assert_eq!(wf.predecessors(f2), &[f1]);
        assert_eq!(wf.shape().height, 3);
        wf.check_invariants().unwrap();
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = WorkflowBuilder::new();
        let xs: Vec<_> = (0..8).map(|i| b.input(format!("x{i}"), 8)).collect();
        for x in &xs {
            b.submit("map", cost(), &[(*x, Direction::In)], false)
                .unwrap();
        }
        let wf = b.build();
        let shape = wf.shape();
        assert_eq!(
            shape,
            DagShape {
                tasks: 8,
                max_width: 8,
                height: 1
            }
        );
    }

    #[test]
    fn read_before_write_propagates_error() {
        let mut b = WorkflowBuilder::new();
        let x = b.intermediate("x", 8);
        let err = b
            .submit("bad", cost(), &[(x, Direction::In)], false)
            .unwrap_err();
        assert!(err.contains("before any task wrote it"));
    }

    #[test]
    fn dot_export_mentions_tasks_and_edges() {
        let dot = diamond().to_dot("diamond");
        assert!(dot.contains("digraph \"diamond\""));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("join #3"));
    }

    #[test]
    fn critical_path_estimate_tracks_chain_length() {
        use gpuflow_cluster::{ClusterSpec, KernelWork};
        let cpu = ClusterSpec::minotauro().node.cpu;
        let chain_cost = CostProfile::fully_parallel(KernelWork {
            flops: 15e9, // exactly one second on the Minotauro core
            bytes: 1.0,
            parallelism: 1.0,
        });
        let mut b = WorkflowBuilder::new();
        let mut prev = b.input("x", 8);
        for i in 0..3 {
            let out = b.intermediate(format!("c{i}"), 8);
            b.submit(
                "step",
                chain_cost,
                &[(prev, Direction::In), (out, Direction::Out)],
                false,
            )
            .unwrap();
            prev = out;
        }
        // A parallel sibling does not extend the path.
        let y = b.input("y", 8);
        b.submit("side", chain_cost, &[(y, Direction::In)], false)
            .unwrap();
        let wf = b.build();
        let cp = wf.critical_path_seconds(&cpu);
        assert!((cp - 3.0).abs() < 1e-6, "three-second chain, got {cp}");
    }

    #[test]
    fn barrier_orders_phases() {
        let mut b = WorkflowBuilder::new();
        let xs: Vec<_> = (0..4).map(|i| b.intermediate(format!("x{i}"), 8)).collect();
        for x in &xs {
            b.submit("phase1", cost(), &[(*x, Direction::Out)], false)
                .unwrap();
        }
        let barrier = b.barrier().expect("four writes to wait on");
        // Phase 2 overwrites one object; it must order behind the barrier
        // (write-after-read), not just behind its own producer.
        let t = b
            .submit("phase2", cost(), &[(xs[0], Direction::Out)], false)
            .unwrap();
        let wf = b.build();
        assert_eq!(wf.predecessors(barrier).len(), 4);
        assert!(wf.predecessors(t).contains(&barrier));
        assert_eq!(wf.task(barrier).task_type, "barrier");
        wf.check_invariants().unwrap();
    }

    #[test]
    fn barrier_on_pristine_workflow_is_none() {
        let mut b = WorkflowBuilder::new();
        b.input("untouched", 8);
        assert!(b.barrier().is_none());
    }

    #[test]
    fn reads_see_version_written_by_dependency() {
        let wf = diamond();
        // t1 reads x at version 1 (written by t0).
        let reads: Vec<_> = wf.task(TaskId(1)).reads().collect();
        assert_eq!(reads[0].1, 1);
    }
}
