//! The hierarchical attribution tree.
//!
//! One process-global arena of nodes guarded by a mutex; each thread
//! tracks its *current* node in a thread-local. [`frame`] descends (or
//! creates) a child, [`record`] adds weight to the current node, and the
//! [`Handoff`]/[`enter`] pair carries the current path across the
//! `dcb-fleet` pool boundary: the submitting thread captures the handoff
//! in program order, each worker enters it before evaluating, so the
//! attribution path — like trace lane claims — never depends on which
//! worker ran the item or when.
//!
//! All weights are additive and commutative, so the tree's totals (and
//! its canonical, name-sorted [`snapshot`]) are invariant under any
//! interleaving of recording threads — the root of the byte-identical
//! guarantee across `DCB_THREADS`.

use crate::{enabled, WorkKind};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

const KINDS: usize = WorkKind::ALL.len();
const ROOT: usize = 0;

struct Node {
    name: &'static str,
    children: BTreeMap<&'static str, usize>,
    weights: [u64; KINDS],
}

struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn new() -> Self {
        Tree {
            nodes: vec![Node {
                name: "",
                children: BTreeMap::new(),
                weights: [0; KINDS],
            }],
        }
    }

    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&id) = self.nodes[parent].children.get(name) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: BTreeMap::new(),
            weights: [0; KINDS],
        });
        self.nodes[parent].children.insert(name, id);
        id
    }
}

static TREE: Mutex<Option<Tree>> = Mutex::new(None);

fn lock() -> MutexGuard<'static, Option<Tree>> {
    TREE.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(ROOT) };
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
    let mut guard = lock();
    let tree = guard.get_or_insert_with(Tree::new);
    let parent = if prev < tree.nodes.len() { prev } else { ROOT };
    let id = tree.child(parent, name);
    drop(guard);
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
    let mut guard = lock();
    let tree = guard.get_or_insert_with(Tree::new);
    // A stale thread-local after reset() points past the arena; fall back
    // to the root rather than panicking inside model code.
    let id = if node < tree.nodes.len() { node } else { ROOT };
    tree.nodes[id].weights[kind.index()] += amount;
}

/// A captured attribution path, used to carry the submitting thread's
/// current frame across a thread-pool boundary (mirroring trace-lane
/// claiming). Capture with [`handoff`] in program order on the
/// submitting thread; [`enter`] it on whichever worker runs the item.
#[derive(Debug, Clone, Copy)]
pub struct Handoff {
    node: usize,
}

/// Captures the current thread's attribution node for handoff to a
/// worker thread. `None` when profiling is disabled, so the fleet pool
/// pays nothing in the common case.
#[must_use]
pub fn handoff() -> Option<Handoff> {
    if !enabled() {
        return None;
    }
    Some(Handoff {
        node: CURRENT.with(Cell::get),
    })
}

/// Makes a captured [`Handoff`] the current attribution node on this
/// thread, returning a guard that restores the previous node.
pub fn enter(h: &Handoff) -> FrameGuard {
    if !enabled() {
        return FrameGuard {
            prev: ROOT,
            active: false,
        };
    }
    let prev = CURRENT.with(Cell::get);
    let node = {
        let mut guard = lock();
        let tree = guard.get_or_insert_with(Tree::new);
        if h.node < tree.nodes.len() {
            h.node
        } else {
            ROOT
        }
    };
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

fn copy_node(tree: &Tree, id: usize) -> ProfNode {
    let node = &tree.nodes[id];
    ProfNode {
        name: node.name.to_string(),
        weights: node.weights,
        // BTreeMap iteration is already name-sorted — canonical order.
        children: node
            .children
            .values()
            .map(|&child| copy_node(tree, child))
            .collect(),
    }
}

/// Captures the attribution tree as a canonical [`Profile`]. Report
/// edges only (read fence).
#[must_use]
pub fn snapshot() -> Profile {
    let guard = lock();
    match guard.as_ref() {
        Some(tree) => Profile {
            root: copy_node(tree, ROOT),
        },
        None => Profile {
            root: ProfNode {
                name: String::new(),
                weights: [0; KINDS],
                children: Vec::new(),
            },
        },
    }
}

/// Discards all recorded attribution. Report edges and tests only.
/// Threads still inside a frame fall back to root attribution (ids are
/// validated against the fresh arena) rather than misattributing.
pub fn reset() {
    *lock() = None;
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
