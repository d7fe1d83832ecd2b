//! The BDD manager: complement-edged nodes in a unique-table arena.
//!
//! Three engineering decisions define this manager (all standard in
//! industrial BDD packages, cf. Brace–Rudell–Bryant):
//!
//! * **complement edges** — a [`NodeId`] is a node index plus a complement
//!   bit, so negation is a tag flip: no traversal, no `not` cache, and `f`
//!   and `¬f` share every node. Canonicity is kept by never storing a
//!   complemented *then*-edge: `mk` rewrites `(v, l, ¬h)` to
//!   `¬(v, ¬l, h)`. There is a single terminal node (⊤); ⊥ is its
//!   complement.
//! * **a unified unique-table arena** — node data lives in one insertion
//!   ordered arena (`nodes`), and the unique table is an open-addressed
//!   slot array over it (`table`), probed linearly. No per-node `HashMap`
//!   entries, no tuple keys: a lookup hashes `(var, lo, hi)` and compares
//!   against arena rows in place.
//! * **one generational operation cache** — `ite`, `shift`, `exists` and
//!   `and_exists` share a single direct-mapped cache
//!   ([`crate::cache::OpCache`]) whose whole contents are dropped in O(1)
//!   by bumping a generation. [`Bdd::reset`] relies on it to make one
//!   long-lived manager reusable across unrelated problems without
//!   reallocating the arena.

use crate::cache::{OpCache, OP_ITE, OP_SHIFT};
use crate::hash::{FastMap, SEED};

/// Handle to a BDD node (a boolean function) within one [`Bdd`] manager.
///
/// The low bit is the complement mark, the remaining bits the arena index;
/// [`Bdd::one`] is the uncomplemented terminal and [`Bdd::zero`] its
/// complement. Two `NodeId`s of one manager are equal iff they denote the
/// same boolean function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// The ⊤ terminal: arena index 0, uncomplemented.
const ONE: NodeId = NodeId(0);
/// The ⊥ terminal: the complement edge onto the same node.
const ZERO: NodeId = NodeId(1);
/// Sentinel level for the terminal: larger than any real variable.
const TERMINAL_VAR: u32 = u32::MAX;

impl NodeId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    #[inline]
    fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complement edge — negation as a tag flip.
    #[inline]
    fn neg(self) -> NodeId {
        NodeId(self.0 ^ 1)
    }

    /// Applies another edge's complement bit to this one.
    #[inline]
    fn xor_complement(self, other: NodeId) -> NodeId {
        NodeId(self.0 ^ (other.0 & 1))
    }

    #[inline]
    fn regular(self) -> NodeId {
        NodeId(self.0 & !1)
    }
}

/// One arena row. `hi` is always a regular (uncomplemented) edge — that is
/// the canonical-form invariant complement edges require; `lo` may carry a
/// complement bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    lo: NodeId,
    hi: NodeId,
}

#[inline]
fn unique_hash(var: u32, lo: NodeId, hi: NodeId) -> u64 {
    let mut h = (u64::from(var).rotate_left(5) ^ u64::from(lo.0)).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ u64::from(hi.0)).wrapping_mul(SEED);
    h
}

/// Counters describing one manager's run since construction or the last
/// [`Bdd::reset`] — the raw material of the symbolic solver's telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Nodes live in the arena right now (terminal included).
    pub live_nodes: usize,
    /// High-water mark of live nodes over the run.
    pub peak_nodes: usize,
    /// Nodes allocated over the run (monotone; survives garbage
    /// collection, unlike `live_nodes`).
    pub created_nodes: usize,
    /// Open-addressed unique-table slots (capacity, not occupancy).
    pub table_capacity: usize,
    /// Operation-cache lookups that found their result.
    pub cache_hits: u64,
    /// Operation-cache lookups in total.
    pub cache_lookups: u64,
}

impl BddStats {
    /// Unique-table load factor at the run's high-water mark:
    /// `peak_nodes / table_capacity`. Bounded by the table's 3/4 growth
    /// invariant (capacity only grows, and grows before the bound is
    /// crossed), and — unlike a live-node ratio — still meaningful after
    /// garbage collection and when runs are merged.
    pub fn load_factor(&self) -> f64 {
        if self.table_capacity == 0 {
            return 0.0;
        }
        self.peak_nodes as f64 / self.table_capacity as f64
    }

    /// Operation-cache hit rate over the run (0 when nothing was looked
    /// up).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.cache_lookups as f64
    }
}

/// A BDD manager: the node arena, its unique table and the operation
/// cache.
///
/// Variables are `u32` levels; the variable order is the numeric order.
/// Reduction invariants (no redundant node, shared structure, canonical
/// complement placement) are maintained by construction, so two
/// [`NodeId`]s are equal iff they denote the same boolean function.
#[derive(Debug)]
pub struct Bdd {
    /// The arena: nodes in creation order (children precede parents).
    nodes: Vec<Node>,
    /// Open-addressed unique table over the arena: a slot holds
    /// `arena index + 1`, `0` meaning empty. Power-of-two sized.
    table: Vec<u32>,
    pub(crate) cache: OpCache,
    pub(crate) quant_sets: Vec<Vec<u32>>,
    created: usize,
    peak: usize,
    /// Budget on live arena nodes, checked at allocation (`mk_raw`).
    node_budget: Option<usize>,
    /// Sticky: the arena size at the allocation that pushed it past
    /// `node_budget`. The solver polls this between operations; it stays
    /// set (even across a node-count-reducing GC) until the budget is
    /// re-armed or the manager reset, so a run that crossed its budget
    /// reliably reports it, with the count that crossed.
    budget_hit: Option<usize>,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

const MIN_TABLE: usize = 1 << 10;

impl Bdd {
    /// Creates a manager containing only the terminal.
    pub fn new() -> Self {
        Bdd {
            nodes: vec![Node {
                var: TERMINAL_VAR,
                lo: ONE,
                hi: ONE,
            }],
            table: vec![0; MIN_TABLE],
            cache: OpCache::new(),
            quant_sets: Vec::new(),
            created: 0,
            peak: 1,
            node_budget: None,
            budget_hit: None,
        }
    }

    /// Clears the manager back to the empty state *without* releasing its
    /// memory: the arena, unique table and operation cache keep their
    /// capacity, the cache is invalidated generationally in O(1), and the
    /// run counters restart. This is what lets a long-lived worker reuse
    /// one manager across unrelated problems instead of reallocating.
    pub fn reset(&mut self) {
        self.nodes.truncate(1);
        self.table.fill(0);
        self.cache.invalidate();
        self.cache.reset_counters();
        self.quant_sets.clear();
        self.created = 0;
        self.peak = 1;
        self.node_budget = None;
        self.budget_hit = None;
    }

    /// Arms (or disarms, with `None`) the live-node budget. Allocation
    /// checks it: once the arena grows past the budget,
    /// [`Bdd::budget_exceeded`] reports the overrun until the budget is
    /// re-armed or the manager [`reset`](Bdd::reset). Arming against an
    /// already-over-budget arena trips immediately.
    pub fn set_node_budget(&mut self, budget: Option<usize>) {
        self.node_budget = budget;
        self.budget_hit = Some(self.nodes.len()).filter(|&n| budget.is_some_and(|b| n > b));
    }

    /// `Some((nodes_at_crossing, budget))` once an allocation has pushed
    /// the arena past the armed budget — the solver's poll point for
    /// turning a memory overrun into a typed `unknown` verdict instead of
    /// an unbounded run. The count is the arena size when the budget was
    /// crossed, not when this is polled: a GC in between can shrink the
    /// arena far below the budget.
    pub fn budget_exceeded(&self) -> Option<(usize, usize)> {
        self.budget_hit
            .map(|at_crossing| (at_crossing, self.node_budget.unwrap_or(0)))
    }

    /// The constant false function.
    pub fn zero(&self) -> NodeId {
        ZERO
    }

    /// The constant true function.
    pub fn one(&self) -> NodeId {
        ONE
    }

    /// Number of live nodes (the terminal included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Counters of this run: live/peak/created nodes, unique-table
    /// capacity, operation-cache hit statistics.
    pub fn stats(&self) -> BddStats {
        BddStats {
            live_nodes: self.nodes.len(),
            peak_nodes: self.peak,
            created_nodes: self.created,
            table_capacity: self.table.len(),
            cache_hits: self.cache.hits(),
            cache_lookups: self.cache.lookups(),
        }
    }

    pub(crate) fn var_of(&self, f: NodeId) -> u32 {
        self.nodes[f.index()].var
    }

    /// The children of `f` with `f`'s complement bit pushed onto them —
    /// the edges one actually follows when traversing a complemented
    /// function.
    #[inline]
    pub(crate) fn children(&self, f: NodeId) -> (NodeId, NodeId) {
        let n = self.nodes[f.index()];
        (n.lo.xor_complement(f), n.hi.xor_complement(f))
    }

    /// Whether `f` is one of the two constant functions.
    pub fn is_terminal(&self, f: NodeId) -> bool {
        f.index() == 0
    }

    /// Open-addressed lookup-or-insert of the (canonical) row
    /// `(var, lo, hi)`; `hi` must be regular.
    fn mk_raw(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        debug_assert!(!hi.is_complement());
        let mask = self.table.len() - 1;
        let mut slot = (unique_hash(var, lo, hi) >> 32) as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                break;
            }
            let idx = (entry - 1) as usize;
            let n = &self.nodes[idx];
            if n.var == var && n.lo == lo && n.hi == hi {
                return NodeId((idx as u32) << 1);
            }
            slot = (slot + 1) & mask;
        }
        let idx = self.nodes.len();
        assert!(idx < (1 << 31), "bdd node overflow");
        self.nodes.push(Node { var, lo, hi });
        self.table[slot] = idx as u32 + 1;
        self.created += 1;
        self.peak = self.peak.max(self.nodes.len());
        if let Some(budget) = self.node_budget {
            if self.nodes.len() > budget && self.budget_hit.is_none() {
                self.budget_hit = Some(self.nodes.len());
            }
        }
        // Keep the load factor under 3/4; growth rehashes every arena row.
        if (self.nodes.len() + 1) * 4 > self.table.len() * 3 {
            self.grow_table();
        }
        self.cache.maybe_grow(self.nodes.len());
        NodeId((idx as u32) << 1)
    }

    fn grow_table(&mut self) {
        self.table = vec![0; self.table.len() * 2];
        self.rehash();
    }

    /// Reinserts every arena row into the (zeroed) unique table — the one
    /// probe-insert loop shared by table growth and GC compaction.
    fn rehash(&mut self) {
        let mask = self.table.len() - 1;
        for (idx, n) in self.nodes.iter().enumerate().skip(1) {
            let mut slot = (unique_hash(n.var, n.lo, n.hi) >> 32) as usize & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = idx as u32 + 1;
        }
    }

    /// Creates (or reuses) the node `(var, lo, hi)`, normalizing the
    /// complement placement: a complemented then-edge moves the mark to
    /// the result.
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        debug_assert!(var < self.var_of(lo) && var < self.var_of(hi));
        if hi.is_complement() {
            self.mk_raw(var, lo.neg(), hi.neg()).neg()
        } else {
            self.mk_raw(var, lo, hi)
        }
    }

    /// The single-variable function `v`.
    pub fn var(&mut self, v: u32) -> NodeId {
        self.mk(v, ZERO, ONE)
    }

    /// The negated single-variable function `¬v`.
    pub fn nvar(&mut self, v: u32) -> NodeId {
        self.var(v).neg()
    }

    #[inline]
    fn cofactor(&self, f: NodeId, v: u32) -> (NodeId, NodeId) {
        if self.var_of(f) == v {
            self.children(f)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `f ? g : h`.
    ///
    /// This is the one recursive operation; conjunction, disjunction,
    /// implication, equivalence and exclusive-or are single `ite` calls.
    /// The triple is canonicalized before the cache lookup (constant and
    /// equal-argument collapses, commutative-argument ordering, and the
    /// two complement rules `ite(¬f,g,h) = ite(f,h,g)` and
    /// `ite(f,¬g,¬h) = ¬ite(f,g,h)`), so equivalent calls share one cache
    /// line and the stored result is always complement-canonical.
    ///
    /// # Example
    ///
    /// ```
    /// use bdd::Bdd;
    ///
    /// let mut m = Bdd::new();
    /// let (x, y, z) = (m.var(0), m.var(1), m.var(2));
    /// let f = m.ite(x, y, z);
    /// // f is y where x holds and z where it does not.
    /// assert!(m.eval(f, &[true, true, false]));
    /// assert!(!m.eval(f, &[false, true, false]));
    /// assert!(m.eval(f, &[false, true, true]));
    /// ```
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        let (mut f, mut g, mut h) = (f, g, h);
        // Constant and equal-argument collapses.
        if f == ONE {
            return g;
        }
        if f == ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if f == g {
            g = ONE;
        } else if f == g.neg() {
            g = ZERO;
        }
        if f == h {
            h = ZERO;
        } else if f == h.neg() {
            h = ONE;
        }
        if g == ONE && h == ZERO {
            return f;
        }
        if g == ZERO && h == ONE {
            return f.neg();
        }
        if g == h {
            return g;
        }
        // Commutative-argument ordering: pick the lower-index function
        // first so e.g. f∧g and g∧f share one cache key.
        if g == ONE && h.index() < f.index() {
            std::mem::swap(&mut f, &mut h); // ite(f,1,h) = ite(h,1,f)
        } else if h == ZERO && g.index() < f.index() {
            std::mem::swap(&mut f, &mut g); // ite(f,g,0) = ite(g,f,0)
        } else if g == ZERO && h.index() < f.index() {
            let (nf, nh) = (f.neg(), h.neg()); // ite(f,0,h) = ite(¬h,0,¬f)
            f = nh;
            h = nf;
        } else if h == ONE && g.index() < f.index() {
            let (nf, ng) = (f.neg(), g.neg()); // ite(f,g,1) = ite(¬g,¬f,1)
            f = ng;
            g = nf;
        }
        // Complement canonicalization: regular f, regular g.
        if f.is_complement() {
            f = f.neg();
            std::mem::swap(&mut g, &mut h);
        }
        let flip = g.is_complement();
        if flip {
            g = g.neg();
            h = h.neg();
        }
        if let Some(r) = self.cache.get(OP_ITE, f.0, g.0, h.0) {
            return NodeId(r).xor_complement(NodeId(flip as u32));
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactor(f, v);
        let (g0, g1) = self.cofactor(g, v);
        let (h0, h1) = self.cofactor(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.cache.put(OP_ITE, f.0, g.0, h.0, r.0);
        if flip {
            r.neg()
        } else {
            r
        }
    }

    /// Conjunction.
    ///
    /// # Example
    ///
    /// ```
    /// use bdd::Bdd;
    ///
    /// let mut m = Bdd::new();
    /// let (x, y) = (m.var(0), m.var(1));
    /// let f = m.and(x, y);
    /// assert_eq!(m.and(y, x), f); // canonical: same function, same id
    /// let nx = m.not(x);
    /// assert_eq!(m.and(f, nx), m.zero());
    /// ```
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, ZERO)
    }

    /// Disjunction.
    ///
    /// # Example
    ///
    /// ```
    /// use bdd::Bdd;
    ///
    /// let mut m = Bdd::new();
    /// let (x, y) = (m.var(0), m.var(1));
    /// let f = m.or(x, y);
    /// // De Morgan, node-for-node: ¬(x ∨ y) = ¬x ∧ ¬y.
    /// let (nx, ny) = (m.not(x), m.not(y));
    /// let g = m.and(nx, ny);
    /// assert_eq!(m.not(f), g);
    /// ```
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, ONE, g)
    }

    /// Complement — with complement edges this is a constant-time tag
    /// flip: no traversal, no new nodes, no cache.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        f.neg()
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, ONE)
    }

    /// Equivalence `f ↔ g`.
    pub fn iff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, g.neg())
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g.neg(), g)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g.neg(), ZERO)
    }

    /// Checks `f → g` as a decision (no new nodes beyond the cache).
    pub fn implies_check(&mut self, f: NodeId, g: NodeId) -> bool {
        self.implies(f, g) == ONE
    }

    /// Renames every variable `v` of `f` to `v + delta`.
    ///
    /// The map is monotone, so the result is a well-ordered BDD built in
    /// one traversal. Used to move set functions between the interleaved
    /// `x̄` (even) and `ȳ` (odd) rails.
    ///
    /// # Panics
    ///
    /// Panics if a shifted variable would be negative.
    pub fn shift(&mut self, f: NodeId, delta: i32) -> NodeId {
        if self.is_terminal(f) || delta == 0 {
            return f;
        }
        // Shift commutes with complement: memoize on the regular part.
        let reg = f.regular();
        let shifted = if let Some(r) = self.cache.get(OP_SHIFT, reg.0, delta as u32, 0) {
            NodeId(r)
        } else {
            let v = self.var_of(reg);
            let nv = u32::try_from(i64::from(v) + i64::from(delta)).expect("negative variable");
            let (lo, hi) = self.children(reg);
            let nlo = self.shift(lo, delta);
            let nhi = self.shift(hi, delta);
            let r = self.mk(nv, nlo, nhi);
            self.cache.put(OP_SHIFT, reg.0, delta as u32, 0, r.0);
            r
        };
        shifted.xor_complement(f)
    }

    /// The set of variables on which `f` depends.
    pub fn support(&self, f: NodeId) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.index()];
        while let Some(i) = stack.pop() {
            if i == 0 || !seen.insert(i) {
                continue;
            }
            let n = &self.nodes[i];
            vars.insert(n.var);
            stack.push(n.lo.index());
            stack.push(n.hi.index());
        }
        vars.into_iter().collect()
    }

    /// Number of arena nodes reachable from `f` (its size as a diagram,
    /// the shared terminal included). `f` and `¬f` have the same size.
    pub fn size(&self, f: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.index()];
        let mut n = 0;
        while let Some(i) = stack.pop() {
            if !seen.insert(i) {
                continue;
            }
            n += 1;
            if i != 0 {
                let node = &self.nodes[i];
                stack.push(node.lo.index());
                stack.push(node.hi.index());
            }
        }
        n
    }

    /// One satisfying assignment of `f` as `(variable, value)` pairs for
    /// the variables along the chosen path, or `None` if `f` is
    /// unsatisfiable.
    ///
    /// Variables absent from the result are don't-cares.
    pub fn sat_one(&self, f: NodeId) -> Option<Vec<(u32, bool)>> {
        if f == ZERO {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = f;
        while cur != ONE {
            let v = self.var_of(cur);
            let (lo, hi) = self.children(cur);
            // A canonical node is non-redundant, so at most one branch can
            // be the constant ⊥.
            if lo != ZERO {
                out.push((v, false));
                cur = lo;
            } else {
                debug_assert_ne!(hi, ZERO);
                out.push((v, true));
                cur = hi;
            }
        }
        Some(out)
    }

    /// Number of satisfying assignments of `f` over variables `0..nvars`.
    ///
    /// Returns `f64` because counts are astronomically large for wide
    /// leans; used for statistics only.
    pub fn sat_count(&self, f: NodeId, nvars: u32) -> f64 {
        // Satisfaction probability under uniform assignments: complement
        // edges make this the natural recursion (p(¬f) = 1 − p(f)), and it
        // is insensitive to skipped levels.
        fn p(bdd: &Bdd, f: NodeId, memo: &mut FastMap<u32, f64>) -> f64 {
            if f.index() == 0 {
                return if f.is_complement() { 0.0 } else { 1.0 };
            }
            let reg = f.regular();
            let pr = if let Some(&c) = memo.get(&reg.0) {
                c
            } else {
                let (lo, hi) = bdd.children(reg);
                let c = (p(bdd, lo, memo) + p(bdd, hi, memo)) / 2.0;
                memo.insert(reg.0, c);
                c
            };
            if f.is_complement() {
                1.0 - pr
            } else {
                pr
            }
        }
        let mut memo = FastMap::default();
        p(self, f, &mut memo) * 2f64.powi(nvars as i32)
    }

    /// Mark-compact garbage collection.
    ///
    /// Keeps exactly the nodes reachable from `roots` (and the terminal),
    /// compacts the arena, rebuilds the unique table, rewrites every root
    /// in place — complement bits preserved — and invalidates the
    /// operation cache (one generation bump). Handles *not* passed as
    /// roots are invalidated; callers own the root inventory.
    pub fn gc(&mut self, roots: &mut [&mut NodeId]) {
        let n = self.nodes.len();
        let mut live = vec![false; n];
        live[0] = true;
        let mut stack: Vec<usize> = roots.iter().map(|r| r.index()).collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            stack.push(self.nodes[i].lo.index());
            stack.push(self.nodes[i].hi.index());
        }
        // Children precede parents in the arena (nodes are created bottom
        // up), so a single forward pass can remap in place.
        let mut remap: Vec<u32> = vec![0; n];
        let mut new_nodes: Vec<Node> = Vec::with_capacity(live.iter().filter(|&&b| b).count());
        new_nodes.push(self.nodes[0]);
        for i in 1..n {
            if !live[i] {
                continue;
            }
            let old = self.nodes[i];
            let idx = new_nodes.len() as u32;
            new_nodes.push(Node {
                var: old.var,
                lo: NodeId(remap[old.lo.index()] << 1).xor_complement(old.lo),
                hi: NodeId(remap[old.hi.index()] << 1),
            });
            remap[i] = idx;
        }
        for r in roots.iter_mut() {
            **r = NodeId(remap[r.index()] << 1).xor_complement(**r);
        }
        self.nodes = new_nodes;
        self.table.fill(0);
        self.rehash();
        self.cache.invalidate();
    }

    /// Evaluates `f` under a total assignment (`assignment[v]` for var
    /// `v`).
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !self.is_terminal(cur) {
            let v = self.var_of(cur) as usize;
            let (lo, hi) = self.children(cur);
            cur = if assignment[v] { hi } else { lo };
        }
        cur == ONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let m = Bdd::new();
        assert_ne!(m.zero(), m.one());
        assert!(m.is_terminal(m.zero()));
        assert!(m.is_terminal(m.one()));
        assert_eq!(m.node_count(), 1); // one shared terminal node
    }

    #[test]
    fn boolean_laws() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let nx = m.not(x);
        assert_eq!(m.and(x, nx), m.zero());
        assert_eq!(m.or(x, nx), m.one());
        assert_eq!(m.not(nx), x);
        let xy = m.and(x, y);
        let yx = m.and(y, x);
        assert_eq!(xy, yx);
        // De Morgan.
        let lhs = m.not(xy);
        let ny = m.not(y);
        let rhs = m.or(nx, ny);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn complement_is_free() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        let before = m.node_count();
        let nf = m.not(f);
        // Negation allocates nothing and is undone by a second flip.
        assert_eq!(m.node_count(), before);
        assert_eq!(m.not(nf), f);
        assert_ne!(nf, f);
        // f and ¬f share every arena node.
        assert_eq!(m.size(f), m.size(nf));
    }

    #[test]
    fn iff_xor() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let e = m.iff(x, y);
        let xo = m.xor(x, y);
        assert_eq!(m.not(e), xo);
        let ee = m.iff(x, x);
        assert_eq!(ee, m.one());
    }

    #[test]
    fn ite_commutative_normalization_shares_cache_lines() {
        let mut m = Bdd::new();
        let x = m.var(3);
        let y = m.var(5);
        let a = m.and(x, y);
        let hits_before = m.stats().cache_hits;
        let b = m.and(y, x); // same canonical triple → cache hit
        assert_eq!(a, b);
        assert!(m.stats().cache_hits > hits_before);
    }

    #[test]
    fn shift_is_monotone_rename() {
        let mut m = Bdd::new();
        let x0 = m.var(0);
        let x2 = m.var(2);
        let f = m.and(x0, x2);
        let g = m.shift(f, 1);
        assert_eq!(m.support(g), vec![1, 3]);
        let back = m.shift(g, -1);
        assert_eq!(back, f);
        // Shift commutes with complement.
        let nf = m.not(f);
        let ng = m.shift(nf, 1);
        assert_eq!(ng, m.not(g));
    }

    #[test]
    fn sat_one_and_eval() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let ny = m.not(y);
        let f = m.and(x, ny);
        let sat = m.sat_one(f).unwrap();
        let mut assignment = vec![false; 2];
        for (v, b) in sat {
            assignment[v as usize] = b;
        }
        assert!(m.eval(f, &assignment));
        assert!(m.sat_one(m.zero()).is_none());
        // A complemented root still yields a valid witness.
        let nf = m.not(f);
        let sat = m.sat_one(nf).unwrap();
        let mut assignment = vec![false; 2];
        for (v, b) in sat {
            assignment[v as usize] = b;
        }
        assert!(m.eval(nf, &assignment));
    }

    #[test]
    fn sat_count_small() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.or(x, y);
        assert_eq!(m.sat_count(f, 2), 3.0);
        assert_eq!(m.sat_count(m.one(), 3), 8.0);
        assert_eq!(m.sat_count(m.zero(), 3), 0.0);
        assert_eq!(m.sat_count(x, 2), 2.0);
        let nf = m.not(f);
        assert_eq!(m.sat_count(nf, 2), 1.0);
    }

    #[test]
    fn support_and_size() {
        let mut m = Bdd::new();
        let x = m.var(3);
        let y = m.var(7);
        let f = m.xor(x, y);
        assert_eq!(m.support(f), vec![3, 7]);
        // Complement edges: one terminal, one shared y-node, one x-node.
        assert_eq!(m.size(f), 3);
    }

    #[test]
    fn stats_track_the_run() {
        let mut m = Bdd::new();
        let s0 = m.stats();
        assert_eq!(s0.live_nodes, 1);
        assert_eq!(s0.created_nodes, 0);
        let x = m.var(0);
        let y = m.var(1);
        let _ = m.and(x, y);
        let s = m.stats();
        assert!(s.created_nodes >= 3);
        assert_eq!(s.peak_nodes, s.live_nodes);
        assert!(s.load_factor() > 0.0 && s.load_factor() < 0.75);
        assert!(s.cache_lookups > 0);
    }

    #[test]
    fn reset_keeps_capacity_and_clears_state() {
        let mut m = Bdd::new();
        for v in 0..64 {
            let a = m.var(v);
            let b = m.var(v + 64);
            let _ = m.xor(a, b);
        }
        let cap = m.stats().table_capacity;
        assert!(m.node_count() > 100);
        m.reset();
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.stats().created_nodes, 0);
        assert_eq!(m.stats().table_capacity, cap);
        // The manager is fully usable after reset, with canonicity intact.
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        let g = m.and(y, x);
        assert_eq!(f, g);
        assert!(m.eval(f, &[true, true]));
        assert!(!m.eval(f, &[true, false]));
    }

    #[test]
    fn node_budget_is_checked_at_allocation_and_sticky() {
        let mut m = Bdd::new();
        m.set_node_budget(Some(4));
        assert!(m.budget_exceeded().is_none());
        let mut acc = m.one();
        for v in 0..16 {
            let x = m.var(v);
            acc = m.and(acc, x);
        }
        let (live, budget) = m.budget_exceeded().expect("budget crossed");
        assert!(live > budget);
        assert_eq!(budget, 4);
        // Sticky across a GC that shrinks the arena back under budget…
        let mut keep = m.one();
        m.gc(&mut [&mut keep]);
        assert!(m.node_count() <= 4);
        assert!(m.budget_exceeded().is_some());
        // …cleared by re-arming or reset.
        m.set_node_budget(Some(1024));
        assert!(m.budget_exceeded().is_none());
        m.set_node_budget(Some(4));
        // Arming against an already-oversized arena trips immediately.
        let mut m2 = Bdd::new();
        for v in 0..16 {
            let a = m2.var(v);
            let b = m2.var(v + 16);
            let _ = m2.xor(a, b);
        }
        m2.set_node_budget(Some(2));
        assert!(m2.budget_exceeded().is_some());
        m2.reset();
        assert!(m2.budget_exceeded().is_none());
    }

    #[test]
    fn budget_report_keeps_the_count_at_the_crossing_across_gc() {
        let mut m = Bdd::new();
        m.set_node_budget(Some(8));
        let mut acc = m.one();
        for v in 0..32 {
            let x = m.var(v);
            acc = m.and(acc, x);
        }
        let (crossed, budget) = m.budget_exceeded().expect("budget crossed");
        // A GC keeping nothing but the terminal leaves the live arena far
        // below the budget; the report still names the crossing.
        let mut keep = m.one();
        m.gc(&mut [&mut keep]);
        assert!(m.node_count() < budget);
        let (reported, _) = m.budget_exceeded().expect("sticky across gc");
        assert_eq!(reported, crossed);
        assert!(reported > budget, "{reported} vs {budget}");
    }

    #[test]
    fn unique_table_grows_past_initial_capacity() {
        let mut m = Bdd::new();
        // Force > MIN_TABLE nodes: a chain of distinct conjunctions.
        let mut acc = m.one();
        for v in 0..2048 {
            let x = m.var(v);
            acc = m.and(acc, x);
        }
        assert!(m.node_count() > MIN_TABLE / 2);
        assert!(m.stats().table_capacity > MIN_TABLE);
        // Canonicity survives growth rehashes.
        let mut acc2 = m.one();
        for v in 0..2048 {
            let x = m.var(v);
            acc2 = m.and(acc2, x);
        }
        assert_eq!(acc, acc2);
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;

    #[test]
    fn gc_preserves_roots_and_semantics() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let mut f = m.and(x, y);
        let mut g = m.or(f, z);
        // Garbage: a function we drop.
        let ny = m.not(y);
        let _dead = m.xor(ny, z);
        let before = m.node_count();
        m.gc(&mut [&mut f, &mut g]);
        assert!(m.node_count() < before);
        // Semantics preserved: f = x∧y, g = x∧y ∨ z.
        assert!(m.eval(f, &[true, true, false]));
        assert!(!m.eval(f, &[true, false, false]));
        assert!(m.eval(g, &[false, false, true]));
        // New operations still work and hash-consing still holds.
        let x2 = m.var(0);
        let y2 = m.var(1);
        let f2 = m.and(x2, y2);
        assert_eq!(f2, f);
    }

    #[test]
    fn gc_preserves_complemented_roots() {
        let mut m = Bdd::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        let mut nf = m.not(f);
        let _dead = m.xor(x, y);
        m.gc(&mut [&mut nf]);
        // nf is still ¬(x∧y).
        assert!(m.eval(nf, &[true, false]));
        assert!(!m.eval(nf, &[true, true]));
        let x2 = m.var(0);
        let y2 = m.var(1);
        let f2 = m.and(x2, y2);
        assert_eq!(m.not(f2), nf);
    }

    #[test]
    fn gc_with_no_roots_keeps_terminal() {
        let mut m = Bdd::new();
        let x = m.var(5);
        let _ = m.not(x);
        m.gc(&mut []);
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.zero(), NodeId(1));
        assert_eq!(m.one(), NodeId(0));
    }
}
