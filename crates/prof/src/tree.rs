//! The hierarchical attribution tree, recorded in per-thread arenas.
//!
//! Each recording thread owns one arena of nodes and tracks its *current*
//! node in a thread-local. [`frame`] descends to (or creates) a child of
//! the current node, and [`record`] adds weight to it; both lock only the
//! calling thread's arena, a lock no other thread takes while recording,
//! so threads never wait on each other. The [`Handoff`]/[`enter`] pair
//! carries the current frame *path* across the `dcb-fleet` pool boundary:
//! the submitting thread captures the path in program order, and each
//! worker re-enters it in its own arena before evaluating, so the
//! attribution path — like trace lane claims — never depends on which
//! worker ran the item or when.
//!
//! Arenas register in a process-wide list on first use. [`snapshot`]
//! merges them by path: weights only add, and a node exists in the merge
//! when it exists in any arena, so the canonical, name-sorted profile is
//! the one a single shared tree would hold, under any interleaving of
//! recording threads — the root of the byte-identical guarantee across
//! `DCB_THREADS`. An arena whose thread has exited (fleet workers are
//! scoped threads spawned per batch) is folded into one retired arena and
//! dropped when the next thread registers, and at [`snapshot`] and
//! [`reset`], so the list does not grow with the number of threads that
//! ever recorded.

use crate::{enabled, WorkKind};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const KINDS: usize = WorkKind::ALL.len();
const ROOT: usize = 0;

struct Node {
    name: &'static str,
    parent: usize,
    /// `(name, node)` in creation order; a node has few children, so a
    /// scan beats a map, and [`snapshot`] sorts them.
    children: Vec<(&'static str, usize)>,
    weights: [u64; KINDS],
}

impl Node {
    fn new(name: &'static str, parent: usize) -> Self {
        Node {
            name,
            parent,
            children: Vec::new(),
            weights: [0; KINDS],
        }
    }
}

struct Arena {
    nodes: Vec<Node>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            nodes: vec![Node::new("", ROOT)],
        }
    }

    fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[ROOT] = Node::new("", ROOT);
    }

    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        let found = self.nodes[parent]
            .children
            .iter()
            .find(|&&(child, _)| child == name);
        if let Some(&(_, id)) = found {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node::new(name, parent));
        self.nodes[parent].children.push((name, id));
        id
    }

    /// `node` if it is in this arena, else the root: a thread-local left
    /// stale by [`reset`] falls back to root attribution instead of
    /// panicking inside model code.
    fn valid(&self, node: usize) -> usize {
        if node < self.nodes.len() {
            node
        } else {
            ROOT
        }
    }

    /// Adds `other`'s subtree at `from` to this arena's subtree at `to`.
    fn merge(&mut self, to: usize, other: &Arena, from: usize) {
        let source = &other.nodes[from];
        for (sum, w) in self.nodes[to].weights.iter_mut().zip(source.weights) {
            *sum += w;
        }
        for &(name, child) in &source.children {
            let id = self.child(to, name);
            self.merge(id, other, child);
        }
    }

    fn copy(&self, id: usize) -> ProfNode {
        let node = &self.nodes[id];
        let mut children: Vec<ProfNode> = node
            .children
            .iter()
            .map(|&(_, child)| self.copy(child))
            .collect();
        children.sort_by(|a, b| a.name.cmp(&b.name));
        ProfNode {
            name: node.name.to_owned(),
            weights: node.weights,
            children,
        }
    }
}

type Shared = Arc<Mutex<Arena>>;

/// Every live thread's arena, and the sum of the arenas of exited ones.
struct Registry {
    live: Vec<Shared>,
    retired: Arena,
}

impl Registry {
    /// Folds the arenas whose threads have exited (the list holds the
    /// only handle) into `retired` and drops them.
    fn retire_exited(&mut self) {
        let retired = &mut self.retired;
        self.live.retain(|shared| {
            if Arc::strong_count(shared) > 1 {
                return true;
            }
            retired.merge(ROOT, &lock(shared), ROOT);
            false
        });
    }
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Locks a mutex, recovering from poisoning: every update is a whole
/// node push or a weight add, so a panicked holder leaves no torn value.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn registry() -> MutexGuard<'static, Option<Registry>> {
    lock(&REGISTRY)
}

thread_local! {
    /// This thread's arena, registered on first use.
    static ARENA: Shared = register();
    static CURRENT: Cell<usize> = const { Cell::new(ROOT) };
}

/// Creates the calling thread's arena and adds it to the registry.
fn register() -> Shared {
    let shared = Arc::new(Mutex::new(Arena::new()));
    let mut registry = registry();
    let registry = registry.get_or_insert_with(|| Registry {
        live: Vec::new(),
        retired: Arena::new(),
    });
    registry.retire_exited();
    registry.live.push(Arc::clone(&shared));
    shared
}

/// Runs `f` on the calling thread's arena.
fn with_arena<R>(f: impl FnOnce(&mut Arena) -> R) -> R {
    ARENA.with(|shared| f(&mut lock(shared)))
}

/// RAII guard returned by [`frame`] and [`enter`]; restores the thread's
/// previous attribution node when dropped.
#[must_use = "dropping the guard immediately pops the frame"]
pub struct FrameGuard {
    prev: usize,
    active: bool,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Pushes a named attribution frame for the current thread. A no-op
/// (beyond one relaxed load) when profiling is disabled. Frame names
/// become collapsed-stack frames, so they must avoid `;`, whitespace,
/// and brackets — the exporters reject offending names defensively.
pub fn frame(name: &'static str) -> FrameGuard {
    if !enabled() {
        return FrameGuard {
            prev: ROOT,
            active: false,
        };
    }
    let prev = CURRENT.with(Cell::get);
    let id = with_arena(|arena| {
        let parent = arena.valid(prev);
        arena.child(parent, name)
    });
    CURRENT.with(|c| c.set(id));
    FrameGuard { prev, active: true }
}

/// Adds `amount` units of `kind` to the current thread's attribution
/// node (the root if no frame is open). A no-op when disabled or when
/// `amount` is zero.
pub fn record(kind: WorkKind, amount: u64) {
    if !enabled() || amount == 0 {
        return;
    }
    let node = CURRENT.with(Cell::get);
    with_arena(|arena| {
        let id = arena.valid(node);
        arena.nodes[id].weights[kind.index()] += amount;
    });
}

/// A captured attribution path, used to carry the submitting thread's
/// current frames across a thread-pool boundary (mirroring trace-lane
/// claiming). Capture with [`handoff`] in program order on the
/// submitting thread; [`enter`] it on whichever worker runs the item.
#[derive(Debug, Clone)]
pub struct Handoff {
    /// Frame names from the root down to the captured node.
    path: Vec<&'static str>,
}

/// Captures the current thread's attribution path for handoff to a
/// worker thread. `None` when profiling is disabled, so the fleet pool
/// pays nothing in the common case.
#[must_use]
pub fn handoff() -> Option<Handoff> {
    if !enabled() {
        return None;
    }
    let node = CURRENT.with(Cell::get);
    let path = with_arena(|arena| {
        let mut path = Vec::new();
        let mut id = arena.valid(node);
        while id != ROOT {
            path.push(arena.nodes[id].name);
            id = arena.nodes[id].parent;
        }
        path.reverse();
        path
    });
    Some(Handoff { path })
}

/// Makes a captured [`Handoff`]'s path the current attribution node on
/// this thread, creating it in this thread's arena if needed, and
/// returns a guard that restores the previous node.
pub fn enter(h: &Handoff) -> FrameGuard {
    if !enabled() {
        return FrameGuard {
            prev: ROOT,
            active: false,
        };
    }
    let prev = CURRENT.with(Cell::get);
    let node = with_arena(|arena| {
        h.path
            .iter()
            .fold(ROOT, |node, name| arena.child(node, name))
    });
    CURRENT.with(|c| c.set(node));
    FrameGuard { prev, active: true }
}

/// One node of a captured [`Profile`]: a frame name, its *self* weights
/// per [`WorkKind`] (in [`WorkKind::ALL`] order), and its children
/// sorted by name. The sort plus the additive weights make the whole
/// structure canonical: equal work → equal profile, bytes included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Frame name (empty for the root).
    pub name: String,
    /// Self weights, indexed in [`WorkKind::ALL`] order.
    pub weights: [u64; 5],
    /// Child frames, sorted by name.
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    /// Self weight of one kind at this node (children excluded).
    #[must_use]
    pub fn self_weight(&self, kind: WorkKind) -> u64 {
        self.weights[kind.index()]
    }

    /// Inclusive weight of one kind: self plus all descendants.
    #[must_use]
    pub fn inclusive_weight(&self, kind: WorkKind) -> u64 {
        self.self_weight(kind)
            + self
                .children
                .iter()
                .map(|c| c.inclusive_weight(kind))
                .sum::<u64>()
    }

    /// Inclusive weight summed over every kind — the flamegraph's
    /// horizontal extent for this node.
    #[must_use]
    pub fn inclusive_total(&self) -> u64 {
        WorkKind::ALL
            .into_iter()
            .map(|k| self.inclusive_weight(k))
            .sum()
    }
}

/// A canonical point-in-time copy of the attribution tree, produced by
/// [`snapshot`]. This is the fenced read surface: only report edges may
/// take one (`observe-in-result` lint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// The root node; its own weights hold work recorded outside any
    /// frame.
    pub root: ProfNode,
}

impl Profile {
    /// Total weight of one kind across the whole tree — the number that
    /// must reconcile exactly with the mirrored telemetry counter.
    #[must_use]
    pub fn total(&self, kind: WorkKind) -> u64 {
        self.root.inclusive_weight(kind)
    }

    /// True when no work at all has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.inclusive_total() == 0 && self.root.children.is_empty()
    }
}

/// Captures the attribution tree as a canonical [`Profile`]: every
/// arena merged by path, children sorted by name. Report edges only
/// (read fence).
#[must_use]
pub fn snapshot() -> Profile {
    let mut guard = registry();
    let Some(registry) = guard.as_mut() else {
        return Profile {
            root: Arena::new().copy(ROOT),
        };
    };
    registry.retire_exited();
    let mut merged = Arena::new();
    merged.merge(ROOT, &registry.retired, ROOT);
    for shared in &registry.live {
        merged.merge(ROOT, &lock(shared), ROOT);
    }
    Profile {
        root: merged.copy(ROOT),
    }
}

/// Discards all recorded attribution: clears every live arena and drops
/// the exited threads' work. Report edges and tests only. Threads still
/// inside a frame fall back to root attribution (ids are validated
/// against the cleared arena) rather than misattributing.
pub fn reset() {
    if let Some(registry) = registry().as_mut() {
        registry.live.retain(|shared| Arc::strong_count(shared) > 1);
        for shared in &registry.live {
            lock(shared).clear();
        }
        registry.retired.clear();
    }
    CURRENT.with(|c| c.set(ROOT));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, test_guard};

    #[test]
    fn frames_nest_and_weights_attribute_to_current_node() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        {
            let _a = frame("alpha");
            record(WorkKind::Cycles, 10);
            {
                let _b = frame("beta");
                record(WorkKind::Cycles, 5);
                record(WorkKind::Segments, 2);
            }
            record(WorkKind::Cycles, 1);
        }
        record(WorkKind::NodeSteps, 4); // outside any frame → root self
        set_enabled(false);
        let p = snapshot();
        assert_eq!(p.total(WorkKind::Cycles), 16);
        assert_eq!(p.total(WorkKind::Segments), 2);
        assert_eq!(p.root.self_weight(WorkKind::NodeSteps), 4);
        let alpha = &p.root.children[0];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.self_weight(WorkKind::Cycles), 11);
        let beta = &alpha.children[0];
        assert_eq!(beta.name, "beta");
        assert_eq!(beta.self_weight(WorkKind::Cycles), 5);
        assert_eq!(beta.self_weight(WorkKind::Segments), 2);
        reset();
    }

    #[test]
    fn children_are_name_sorted_regardless_of_creation_order() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        for name in ["zeta", "alpha", "mid"] {
            let _f = frame(name);
            record(WorkKind::Cycles, 1);
        }
        set_enabled(false);
        let p = snapshot();
        let names: Vec<&str> = p.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        reset();
    }

    #[test]
    fn handoff_carries_path_across_threads() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        let h = {
            let _lane = frame("lane-7");
            handoff().expect("enabled → handoff")
        };
        let worker = std::thread::spawn(move || {
            let _in = enter(&h);
            let _phase = frame("worker-phase");
            record(WorkKind::Segments, 3);
        });
        worker.join().unwrap();
        set_enabled(false);
        let p = snapshot();
        let lane = &p.root.children[0];
        assert_eq!(lane.name, "lane-7");
        assert_eq!(lane.children[0].name, "worker-phase");
        assert_eq!(lane.children[0].self_weight(WorkKind::Segments), 3);
        reset();
    }

    #[test]
    fn totals_are_invariant_under_thread_interleaving() {
        let _g = test_guard();
        for threads in [1usize, 4] {
            reset();
            set_enabled(true);
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    std::thread::spawn(|| {
                        let _f = frame("shared");
                        for _ in 0..1000 {
                            record(WorkKind::LocateIters, 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            set_enabled(false);
            let p = snapshot();
            assert_eq!(p.total(WorkKind::LocateIters), 1000 * threads as u64);
            assert_eq!(p.root.children.len(), 1);
        }
        reset();
    }

    #[test]
    fn stale_current_after_reset_falls_back_to_root() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        let deep = frame("gone");
        reset(); // arena discarded while a frame guard is still live
        record(WorkKind::Cycles, 2); // must not panic; lands on root
        drop(deep);
        set_enabled(false);
        let p = snapshot();
        assert_eq!(p.root.self_weight(WorkKind::Cycles), 2);
        reset();
    }

    #[test]
    fn snapshot_of_untouched_tree_is_empty() {
        let _g = test_guard();
        reset();
        assert!(snapshot().is_empty());
    }
}
