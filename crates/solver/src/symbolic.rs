//! The symbolic BDD-based solver (§7.1–§7.4) — the paper's production
//! algorithm.
//!
//! Sets of ψ-types are characteristic functions over one BDD variable per
//! lean atom. Two variable rails are interleaved: lean atom `i` is BDD
//! variable `2·π(i)` on the `x̄` rail (the candidate type) and `2·π(i)+1`
//! on the `ȳ` rail (the witness type), where π is the variable order —
//! breadth-first by default (§7.4).
//!
//! One fixpoint iteration computes
//!
//! ```text
//! Upd(T)(x̄) = T(x̄) ∨ (χTypes(x̄) ∧ ⋀_{a∈{1,2}} Wit_a(T)(x̄))
//! Wit_a(T)(x̄) = isparent_a(x̄) → ∃ȳ (T(ȳ) ∧ ischild_a(ȳ) ∧ ∆_a(x̄,ȳ))
//! ```
//!
//! with the relational product computed by conjunctive partitioning and
//! early quantification (§7.3): `∆_a` is kept as one equivalence clause per
//! lean modality and folded with [`bdd::Bdd::and_exists`], quantifying each
//! `ȳ` variable as soon as no remaining clause mentions it; the clause
//! order follows the greedy min-cost heuristic. The start-mark uniqueness of
//! Fig 16 is kept by running the fixpoint on a *pair* of sets — unmarked
//! `T°` and marked `T•` — with the four update cases of the paper.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bdd::{Bdd, NodeId, QuantSet};
use ftree::BinaryTree;
use mulogic::{status, BoolAlg, Formula, Logic, Program};

use obs::Recorder;

use crate::kernel::{limit_event, run_fixpoint_traced, Backend, SolveError, StepObservation};
use crate::limits::{CancelToken, Exhausted, Limits, Resource};
use crate::outcome::{Model, Solved, Telemetry};
use crate::prepare::Prepared;

/// Variable-order choice for the lean → BDD variable mapping (§7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Breadth-first formula order — the paper's recommendation.
    #[default]
    Bfs,
    /// The reverse order; exists for the ablation benchmarks.
    Reversed,
}

/// Tuning knobs of the symbolic solver (all paper-faithful by default).
#[derive(Debug, Clone, Default)]
pub struct SymbolicOptions {
    /// Compute relational products by folding individual `∆_a` clauses with
    /// early quantification (§7.3). When disabled, the full `∆_a` relation
    /// is materialized and quantified in one step (the ablation baseline).
    pub monolithic_delta: bool,
    /// Variable order (§7.4).
    pub var_order: VarOrder,
    /// Node-count threshold that triggers garbage collection (default: a
    /// few million, or half the run's node budget when that is smaller).
    /// Tests set it very low to exercise collection on every step.
    pub gc_threshold: Option<usize>,
}

/// A [`BoolAlg`] producing BDDs over the `x̄` rail.
struct XRail<'b> {
    bdd: &'b mut Bdd,
    xvar: &'b [u32],
}

impl BoolAlg for XRail<'_> {
    type Value = NodeId;
    fn tt(&mut self) -> NodeId {
        self.bdd.one()
    }
    fn ff(&mut self) -> NodeId {
        self.bdd.zero()
    }
    fn var(&mut self, i: usize) -> NodeId {
        self.bdd.var(self.xvar[i])
    }
    fn not(&mut self, v: NodeId) -> NodeId {
        self.bdd.not(v)
    }
    fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bdd.and(a, b)
    }
    fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bdd.or(a, b)
    }
}

/// The partitioned (or monolithic) relation `∆_a` with its quantification
/// schedule.
struct DeltaRelation {
    /// Clauses in fold order.
    clauses: Vec<NodeId>,
    /// Variables quantified immediately after conjoining each clause.
    quants: Vec<QuantSet>,
    /// `ȳ` variables appearing in no clause: quantified up front.
    pre_quant: QuantSet,
}

/// Mutable fixpoint state: the two type sets, the cumulative relational
/// images, the per-iteration snapshots, and the adaptive GC threshold.
/// Kept as a struct so garbage collection can reach every live handle even
/// in the middle of a relational-product fold.
struct FixpointState {
    un: NodeId,
    mk: NodeId,
    im_un: [NodeId; 2],
    im_mk: [NodeId; 2],
    done_un: NodeId,
    done_mk: NodeId,
    snapshots: Vec<(NodeId, NodeId)>,
    gc_limit: usize,
    gc_floor: usize,
    /// Steps taken so far (the `XSAT_DEBUG` trace labels lines with it).
    round: usize,
}

/// Collect when the store first exceeds this many nodes (or half the
/// node budget, when that is smaller).
const GC_FLOOR: usize = 2_000_000;

struct Sym<'m> {
    prep: Prepared,
    /// The caller-owned manager: reset (not reallocated) per run, so a
    /// long-lived worker reuses its arena, unique table and operation
    /// cache across problems.
    bdd: &'m mut Bdd,
    /// Lean index → x-rail BDD variable.
    xvar: Vec<u32>,
    /// Status BDDs (x̄ rail) of each lean diamond argument, by lean index.
    arg_status: HashMap<usize, NodeId>,
    psi_status: NodeId,
    types: NodeId,
    delta: [DeltaRelation; 2],
    /// Lean entries `(lean index, program)` of the diamonds.
    diams: Vec<(usize, Program)>,
    state: FixpointState,
    /// When the run started (for deadline polls inside a step).
    started: Instant,
    /// Wall-clock budget of the run, when one is set.
    deadline: Option<Duration>,
    /// Cooperative cancellation, polled with the deadline: a cancelled
    /// run aborts between relational-product clauses.
    cancel: CancelToken,
}

impl<'m> Sym<'m> {
    /// Builds the backend. `started` is when the *solve* began — before
    /// preparation and this constructor's status-BDD work — so the
    /// deadline polls charge construction time too, and the node budget
    /// armed here already meters the constructor's own allocations.
    fn new(
        lg: &mut Logic,
        prep: Prepared,
        opts: &SymbolicOptions,
        bdd: &'m mut Bdd,
        limits: &Limits,
        started: Instant,
    ) -> Self {
        let n = prep.lean.len();
        let perm: Vec<usize> = match opts.var_order {
            VarOrder::Bfs => (0..n).collect(),
            VarOrder::Reversed => (0..n).rev().collect(),
        };
        let xvar: Vec<u32> = perm.iter().map(|&p| 2 * p as u32).collect();
        // Generational reset: the previous problem's nodes and cache
        // entries vanish in O(1) while the allocations stay warm. The node
        // budget is re-armed per run (reset disarms it).
        bdd.reset();
        bdd.set_node_budget(limits.max_bdd_nodes);

        // Status BDDs for every diamond argument and for ψ, sharing a memo.
        let mut memo: HashMap<Formula, NodeId> = HashMap::new();
        let entries: Vec<(usize, Program, Formula)> = prep.lean.diam_entries().collect();
        let mut arg_status = HashMap::new();
        {
            let mut alg = XRail {
                bdd: &mut *bdd,
                xvar: &xvar,
            };
            for &(i, _, phi) in &entries {
                let s = status(lg, &prep.lean, phi, &mut alg, &mut memo);
                arg_status.insert(i, s);
            }
        }
        let psi_status = {
            let mut alg = XRail {
                bdd: &mut *bdd,
                xvar: &xvar,
            };
            status(lg, &prep.lean, prep.psi, &mut alg, &mut memo)
        };

        // χTypes: modal consistency, child-kind exclusion, one-hot labels.
        let types = {
            let mut acc = bdd.one();
            for &(i, p, _) in &entries {
                let xi = bdd.var(xvar[i]);
                let xt = bdd.var(xvar[prep.lean.diam_true_index(p)]);
                let imp = bdd.implies(xi, xt);
                acc = bdd.and(acc, imp);
            }
            let u1 = bdd.var(xvar[prep.lean.diam_true_index(Program::Up1)]);
            let u2 = bdd.var(xvar[prep.lean.diam_true_index(Program::Up2)]);
            let both = bdd.and(u1, u2);
            let not_both = bdd.not(both);
            acc = bdd.and(acc, not_both);
            // Exactly one atomic proposition.
            let props: Vec<u32> = prep.lean.prop_entries().map(|(i, _)| xvar[i]).collect();
            let mut none = bdd.one();
            let mut one = bdd.zero();
            for &v in props.iter().rev() {
                let pv = bdd.var(v);
                let npv = bdd.not(pv);
                // one' = (v ∧ none) ∨ (¬v ∧ one); none' = ¬v ∧ none
                let t1 = bdd.and(pv, none);
                let t2 = bdd.and(npv, one);
                one = bdd.or(t1, t2);
                none = bdd.and(npv, none);
            }
            bdd.and(acc, one)
        };

        let diams: Vec<(usize, Program)> = entries.iter().map(|&(i, p, _)| (i, p)).collect();
        let delta = [
            Self::build_delta(bdd, &xvar, &arg_status, &entries, Program::Down1, opts),
            Self::build_delta(bdd, &xvar, &arg_status, &entries, Program::Down2, opts),
        ];

        // The node budget meters the whole store, garbage included, so a
        // budgeted run collects by half its budget at the latest: the
        // budget then caps live nodes, not uncollected garbage.
        let gc_floor = opts.gc_threshold.unwrap_or(
            limits
                .max_bdd_nodes
                .map_or(GC_FLOOR, |budget| GC_FLOOR.min(budget / 2)),
        );
        let state = FixpointState {
            un: bdd.zero(),
            mk: bdd.zero(),
            im_un: [bdd.zero(); 2],
            im_mk: [bdd.zero(); 2],
            done_un: bdd.zero(),
            done_mk: bdd.zero(),
            snapshots: Vec::new(),
            gc_limit: gc_floor,
            gc_floor,
            round: 0,
        };
        Sym {
            prep,
            bdd,
            xvar,
            arg_status,
            psi_status,
            types,
            delta,
            diams,
            state,
            started,
            deadline: limits.deadline,
            cancel: limits.cancel.clone(),
        }
    }

    /// The mid-step budget poll: fires on a node-budget overrun recorded
    /// by the manager at allocation, or a blown deadline. Called at the
    /// top of every `Upd` step and between the clauses of each
    /// relational-product fold, so even a single expensive step cannot run
    /// far past its budget.
    fn check_budget(&self) -> Result<(), Exhausted> {
        if let Some((at_crossing, budget)) = self.bdd.budget_exceeded() {
            return Err(Exhausted {
                resource: Resource::BddNodes,
                spent: at_crossing as u64,
                limit: budget as u64,
            });
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed >= deadline {
                return Err(Exhausted::wall_clock(elapsed, deadline));
            }
        }
        if self.cancel.is_cancelled() {
            return Err(Exhausted::cancelled(self.started.elapsed()));
        }
        Ok(())
    }

    /// Builds the clause list and quantification schedule for `∆_a`.
    fn build_delta(
        bdd: &mut Bdd,
        xvar: &[u32],
        arg_status: &HashMap<usize, NodeId>,
        entries: &[(usize, Program, Formula)],
        a: Program,
        opts: &SymbolicOptions,
    ) -> DeltaRelation {
        let conv = a.converse();
        // Build the clauses R_i with their y-supports D_i.
        let mut clauses: Vec<(NodeId, Vec<u32>)> = Vec::new();
        for &(i, p, _) in entries {
            let s = arg_status[&i];
            if p == a {
                // x_i ↔ status_ϕ(ȳ)
                let sy = bdd.shift(s, 1);
                let xi = bdd.var(xvar[i]);
                let c = bdd.iff(xi, sy);
                let dy: Vec<u32> = bdd.support(c).into_iter().filter(|v| v % 2 == 1).collect();
                clauses.push((c, dy));
            } else if p == conv {
                // y_i ↔ status_ϕ(x̄)
                let yi = bdd.var(xvar[i] + 1);
                let c = bdd.iff(yi, s);
                let dy: Vec<u32> = bdd.support(c).into_iter().filter(|v| v % 2 == 1).collect();
                clauses.push((c, dy));
            }
        }
        let all_y: Vec<u32> = (0..xvar.len()).map(|i| xvar[i] + 1).collect();
        if opts.monolithic_delta {
            // Ablation: one big relation, quantified in a single step.
            let mut rel = bdd.one();
            for (c, _) in &clauses {
                rel = bdd.and(rel, *c);
            }
            let all = bdd.quant_set(all_y.iter().copied());
            return DeltaRelation {
                clauses: vec![rel],
                quants: vec![all],
                pre_quant: bdd.quant_set(std::iter::empty::<u32>()),
            };
        }
        // Greedy min-cost elimination order (§7.3): repeatedly pick the
        // variable whose containing clauses are smallest, emitting any
        // not-yet-placed clause that mentions it.
        let mut order: Vec<usize> = Vec::new();
        let mut placed = vec![false; clauses.len()];
        let mut remaining_vars: std::collections::BTreeSet<u32> = clauses
            .iter()
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        while !remaining_vars.is_empty() {
            let (&best, _) = remaining_vars
                .iter()
                .map(|v| {
                    let cost: usize = clauses
                        .iter()
                        .enumerate()
                        .filter(|(i, (_, d))| !placed[*i] && d.contains(v))
                        .map(|(_, (_, d))| d.len())
                        .sum();
                    (v, cost)
                })
                .min_by_key(|&(_, c)| c)
                .expect("nonempty");
            for (i, (_, d)) in clauses.iter().enumerate() {
                if !placed[i] && d.contains(&best) {
                    placed[i] = true;
                    order.push(i);
                }
            }
            remaining_vars.remove(&best);
        }
        for (i, &p) in placed.iter().enumerate() {
            if !p {
                order.push(i); // clauses with no y-support
            }
        }
        // E_i: variables of D_ρ(i) not mentioned by any later clause.
        let mut quants = Vec::with_capacity(order.len());
        for (pos, &ci) in order.iter().enumerate() {
            let later: std::collections::HashSet<u32> = order[pos + 1..]
                .iter()
                .flat_map(|&cj| clauses[cj].1.iter().copied())
                .collect();
            let ei: Vec<u32> = clauses[ci]
                .1
                .iter()
                .copied()
                .filter(|v| !later.contains(v))
                .collect();
            quants.push(bdd.quant_set(ei));
        }
        let in_some: std::collections::HashSet<u32> = clauses
            .iter()
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        let pre: Vec<u32> = all_y
            .iter()
            .copied()
            .filter(|v| !in_some.contains(v))
            .collect();
        DeltaRelation {
            clauses: order.iter().map(|&i| clauses[i].0).collect(),
            quants,
            pre_quant: bdd.quant_set(pre),
        }
    }

    fn xv(&mut self, lean_idx: usize) -> NodeId {
        self.bdd.var(self.xvar[lean_idx])
    }

    fn dt(&self, p: Program) -> usize {
        self.prep.lean.diam_true_index(p)
    }

    /// `∃ȳ (set(ȳ) ∧ ischild_a(ȳ) ∧ ∆_a(x̄,ȳ))`.
    ///
    /// Takes the set by `&mut` so the caller's handle stays valid across
    /// the mid-fold garbage collections. Aborts with the budget hit when
    /// the node budget or deadline runs out mid-fold.
    fn image(&mut self, a: Program, set_x: &mut NodeId) -> Result<NodeId, Exhausted> {
        let ai = if a == Program::Down1 { 0 } else { 1 };
        let set_y = self.bdd.shift(*set_x, 1);
        let ischild = self.bdd.var(self.xvar[self.dt(a.converse())] + 1);
        let mut h = self.bdd.and(set_y, ischild);
        h = self.bdd.exists(h, self.delta[ai].pre_quant);
        // Clauses are re-read from `self.delta` at every step: the mid-fold
        // garbage collection remaps those handles in place.
        for k in 0..self.delta[ai].clauses.len() {
            let clause = self.delta[ai].clauses[k];
            let quant = self.delta[ai].quants[k];
            h = self.bdd.and_exists(h, clause, quant);
            self.maybe_gc(&mut [&mut h, set_x]);
            self.check_budget()?;
        }
        Ok(h)
    }

    /// Mark-compact the BDD store when it exceeds the adaptive threshold,
    /// keeping the solver's persistent handles, the fixpoint state and the
    /// supplied extra roots alive. Callable mid-fold: every live handle is
    /// reachable from `self.state` or `extras`.
    fn maybe_gc(&mut self, extras: &mut [&mut NodeId]) {
        if self.bdd.node_count() <= self.state.gc_limit {
            return;
        }
        let Sym {
            bdd,
            psi_status,
            types,
            arg_status,
            delta,
            state,
            ..
        } = self;
        let mut roots: Vec<&mut NodeId> = vec![
            psi_status,
            types,
            &mut state.un,
            &mut state.mk,
            &mut state.done_un,
            &mut state.done_mk,
        ];
        roots.extend(state.im_un.iter_mut());
        roots.extend(state.im_mk.iter_mut());
        for (a, b) in &mut state.snapshots {
            roots.push(a);
            roots.push(b);
        }
        roots.extend(arg_status.values_mut());
        for d in delta.iter_mut() {
            roots.extend(d.clauses.iter_mut());
        }
        for r in extras.iter_mut() {
            roots.push(r);
        }
        bdd.gc(&mut roots);
        state.gc_limit = (bdd.node_count() * 2).max(state.gc_floor);
        if std::env::var_os("XSAT_DEBUG").is_some() {
            eprintln!("[xsat] gc: {} live nodes", bdd.node_count());
        }
    }

    /// Extracts one concrete type (bits per lean atom) from a set BDD.
    fn pick_type(&mut self, set: NodeId) -> Option<Vec<bool>> {
        let path = self.bdd.sat_one(set)?;
        let mut by_var: HashMap<u32, bool> = path.into_iter().collect();
        Some(
            (0..self.xvar.len())
                .map(|i| by_var.remove(&self.xvar[i]).unwrap_or(false))
                .collect(),
        )
    }

    /// Constraint (over the x̄ rail) that a type is a valid `a`-child of the
    /// concrete parent type `t`.
    fn child_constraint(&mut self, a: Program, t: &[bool]) -> NodeId {
        let conv = a.converse();
        // Assignment of the parent on the x rail, for evaluating status BDDs.
        let max_var = 2 * self.xvar.len();
        let mut assignment = vec![false; max_var + 2];
        for (i, &b) in t.iter().enumerate() {
            assignment[self.xvar[i] as usize] = b;
        }
        let mut c = self.xv(self.dt(conv)); // ischild_a
        let diams = self.diams.clone();
        for (i, p) in diams {
            if p == a {
                // ⟨a⟩ϕ ∈ t ⇔ status_ϕ(child)
                let s = self.arg_status[&i];
                let lit = if t[i] { s } else { self.bdd.not(s) };
                c = self.bdd.and(c, lit);
            } else if p == conv {
                // ⟨ā⟩ϕ ∈ child ⇔ status_ϕ(t)
                let holds = self.bdd.eval(self.arg_status[&i], &assignment);
                let xi = self.xv(i);
                let lit = if holds { xi } else { self.bdd.not(xi) };
                c = self.bdd.and(c, lit);
            }
        }
        c
    }

    /// Finds an `a`-child of `t` in the earliest snapshot (minimal depth).
    fn find_child(
        &mut self,
        snapshots: &[(NodeId, NodeId)],
        a: Program,
        t: &[bool],
        marked: bool,
    ) -> Option<Vec<bool>> {
        let c = self.child_constraint(a, t);
        for &(un, mk) in snapshots {
            let set = if marked { mk } else { un };
            let cand = self.bdd.and(set, c);
            if cand != self.bdd.zero() {
                return self.pick_type(cand);
            }
        }
        None
    }

    /// Rebuilds a minimal satisfying binary tree from the snapshots (§7.2).
    fn rebuild(
        &mut self,
        snapshots: &[(NodeId, NodeId)],
        t: &[bool],
        need_mark: bool,
    ) -> BinaryTree {
        let label = self
            .prep
            .lean
            .prop_entries()
            .find(|&(i, _)| t[i])
            .map(|(_, l)| l)
            .expect("every type carries exactly one label");
        let here_marked = t[self.prep.lean.start_index()];
        let has1 = t[self.dt(Program::Down1)];
        let has2 = t[self.dt(Program::Down2)];
        let below = need_mark && !here_marked;
        // Decide which side holds the mark (both the marked child and the
        // other, unmarked, child must exist for the chosen split).
        let (m1, m2) = if !below {
            (false, false)
        } else {
            let via1 = has1
                && self
                    .find_child(snapshots, Program::Down1, t, true)
                    .is_some()
                && (!has2
                    || self
                        .find_child(snapshots, Program::Down2, t, false)
                        .is_some());
            if via1 {
                (true, false)
            } else {
                (false, true)
            }
        };
        let child1 = if has1 {
            let ct = self
                .find_child(snapshots, Program::Down1, t, m1)
                .expect("1-witness exists by construction");
            Some(self.rebuild(snapshots, &ct, m1))
        } else {
            None
        };
        let child2 = if has2 {
            let ct = self
                .find_child(snapshots, Program::Down2, t, m2)
                .expect("2-witness exists by construction");
            Some(self.rebuild(snapshots, &ct, m2))
        } else {
            None
        };
        BinaryTree::new(label, here_marked, child1, child2)
    }
}

impl Backend for Sym<'_> {
    /// The satisfying root set: `target ∧ final_filter`, nonempty.
    type Hit = NodeId;

    fn step(&mut self) -> Result<bool, Exhausted> {
        let uses_mark = self.prep.uses_mark;
        let s_idx = self.prep.lean.start_index();
        self.state.round += 1;
        self.maybe_gc(&mut []);
        self.check_budget()?;
        // Refresh the cumulative images with the new frontier. These calls
        // may garbage-collect, so every handle used below is created
        // afterwards.
        if self.state.un != self.state.done_un {
            let mut frontier = self.bdd.diff(self.state.un, self.state.done_un);
            for (ai, a) in [Program::Down1, Program::Down2].into_iter().enumerate() {
                let img = self.image(a, &mut frontier)?;
                self.state.im_un[ai] = self.bdd.or(self.state.im_un[ai], img);
            }
            self.state.done_un = self.state.un;
        }
        if uses_mark && self.state.mk != self.state.done_mk {
            let mut frontier = self.bdd.diff(self.state.mk, self.state.done_mk);
            for (ai, a) in [Program::Down1, Program::Down2].into_iter().enumerate() {
                let img = self.image(a, &mut frontier)?;
                self.state.im_mk[ai] = self.bdd.or(self.state.im_mk[ai], img);
            }
            self.state.done_mk = self.state.mk;
        }
        let s_x = self.xv(s_idx);
        let not_s = self.bdd.not(s_x);
        let p1 = self.xv(self.dt(Program::Down1));
        let p2 = self.xv(self.dt(Program::Down2));
        let w1 = self.bdd.implies(p1, self.state.im_un[0]);
        let w2 = self.bdd.implies(p2, self.state.im_un[1]);
        // T° update.
        let mut fresh = self.bdd.and(self.types, not_s);
        fresh = self.bdd.and(fresh, w1);
        fresh = self.bdd.and(fresh, w2);
        let un_next = self.bdd.or(self.state.un, fresh);
        // T• update (three cases), only when the mark matters.
        let mk_next = if uses_mark {
            let case_a = {
                let mut c = self.bdd.and(self.types, s_x);
                c = self.bdd.and(c, w1);
                c = self.bdd.and(c, w2);
                c
            };
            let m1 = self.bdd.and(p1, self.state.im_mk[0]);
            let m2 = self.bdd.and(p2, self.state.im_mk[1]);
            let case_b = {
                let mut c = self.bdd.and(self.types, not_s);
                c = self.bdd.and(c, m1);
                c = self.bdd.and(c, w2);
                c
            };
            let case_c = {
                let mut c = self.bdd.and(self.types, not_s);
                c = self.bdd.and(c, w1);
                c = self.bdd.and(c, m2);
                c
            };
            let bc = self.bdd.or(case_b, case_c);
            let abc = self.bdd.or(case_a, bc);
            self.bdd.or(self.state.mk, abc)
        } else {
            self.state.mk
        };
        self.state.snapshots.push((un_next, mk_next));
        if std::env::var_os("XSAT_DEBUG").is_some() {
            eprintln!(
                "[xsat] iter {}: nodes={} set_size={} marked_size={}",
                self.state.round,
                self.bdd.node_count(),
                self.bdd.size(un_next),
                self.bdd.size(mk_next),
            );
        }
        let changed = un_next != self.state.un || mk_next != self.state.mk;
        self.state.un = un_next;
        self.state.mk = mk_next;
        Ok(changed)
    }

    fn check(&mut self) -> Option<NodeId> {
        // The plunging-formula root filter: no pending backward modality
        // and ψ ∈̇ t (§7.1). Built from persistent handles only, so it is
        // safe against the collections triggered inside `step`.
        let final_filter = {
            let u1 = self.xv(self.dt(Program::Up1));
            let u2 = self.xv(self.dt(Program::Up2));
            let nu1 = self.bdd.not(u1);
            let nu2 = self.bdd.not(u2);
            let root_cond = self.bdd.and(nu1, nu2);
            self.bdd.and(root_cond, self.psi_status)
        };
        let target = if self.prep.uses_mark {
            self.state.mk
        } else {
            self.state.un
        };
        let hit = self.bdd.and(target, final_filter);
        (hit != self.bdd.zero()).then_some(hit)
    }

    fn reconstruct(&mut self, hit: NodeId) -> Model {
        let uses_mark = self.prep.uses_mark;
        let root = self.pick_type(hit).expect("hit is satisfiable");
        let snapshots = std::mem::take(&mut self.state.snapshots);
        let tree = self.rebuild(&snapshots, &root, uses_mark);
        Model::from_binary(&tree)
    }

    fn telemetry(&self) -> Telemetry {
        let s = self.bdd.stats();
        Telemetry::Symbolic {
            bdd_nodes: s.live_nodes,
            counters: s.into(),
        }
    }

    fn observe(&self) -> StepObservation {
        let s = self.bdd.stats();
        // The type sets live on the x̄ rail (even variables); counting
        // satisfying assignments over both rails and dividing out the 2ⁿ
        // unconstrained ȳ variables yields the proved-type cardinality.
        let n = self.xvar.len() as u32;
        let free = 2f64.powi(n as i32);
        let card = |set: NodeId| (self.bdd.sat_count(set, 2 * n) / free).round() as u64;
        StepObservation {
            store_nodes: s.live_nodes as u64,
            proved: card(self.state.un) + card(self.state.mk),
            cache_hits: s.cache_hits,
            cache_lookups: s.cache_lookups,
        }
    }
}

/// Decides satisfiability of `goal` with the symbolic backend and default
/// options.
///
/// # Example
///
/// ```
/// use mulogic::Logic;
/// use solver::solve_symbolic;
///
/// let mut lg = Logic::new();
/// let goal = lg.parse("a & <1>b").unwrap();
/// let solved = solve_symbolic(&mut lg, goal);
/// assert!(solved.outcome.is_satisfiable());
/// ```
pub fn solve_symbolic(lg: &mut Logic, goal: Formula) -> Solved {
    solve_symbolic_with(lg, goal, &SymbolicOptions::default())
}

/// Decides satisfiability with explicit options (ablation hooks).
pub fn solve_symbolic_with(lg: &mut Logic, goal: Formula, opts: &SymbolicOptions) -> Solved {
    let mut bdd = Bdd::new();
    solve_symbolic_in(lg, goal, opts, &mut bdd, &Limits::none())
        .expect("an unbounded symbolic run cannot exhaust")
}

/// Decides satisfiability inside a caller-owned BDD manager, governed by
/// the caller's [`Limits`].
///
/// The manager is [`reset`](Bdd::reset) — not reallocated — before the
/// run: its arena, unique table and operation cache keep their capacity,
/// the previous problem's state is invalidated generationally in O(1),
/// and the node budget (if any) is re-armed for this run. This is the
/// entry point long-lived workers (the engine's batch executor, `xsat
/// serve`) use to amortize allocation across problems; verdicts are
/// identical to a fresh-manager run. Under [`Limits::none`] the run
/// cannot fail; with budgets set, a deadline or node-budget hit comes
/// back as [`SolveError::ResourceExhausted`].
pub fn solve_symbolic_in(
    lg: &mut Logic,
    goal: Formula,
    opts: &SymbolicOptions,
    bdd: &mut Bdd,
    limits: &Limits,
) -> Result<Solved, SolveError> {
    solve_symbolic_traced(lg, goal, opts, bdd, limits, &Recorder::noop())
}

/// [`solve_symbolic_in`] with trace recording: the lean construction and
/// the backend build (binarization, status BDDs, ∆ clauses) each get a
/// phase span, and the fixpoint loop emits per-iteration `step` events.
pub fn solve_symbolic_traced(
    lg: &mut Logic,
    goal: Formula,
    opts: &SymbolicOptions,
    bdd: &mut Bdd,
    limits: &Limits,
    rec: &Recorder,
) -> Result<Solved, SolveError> {
    // The deadline covers the whole solve: preparation and the backend's
    // status-BDD construction are charged against it (the backend's
    // internal polls measure from `started`, and the driver gets only
    // what construction left over).
    let started = Instant::now();
    let prep = {
        let _span = rec.span("lean");
        Prepared::new(lg, goal)
    };
    let (lean_size, closure_size) = (prep.lean.len(), prep.closure.len());
    let backend = {
        let _span = rec.span("build");
        Sym::new(lg, prep, opts, bdd, limits, started)
    };
    let remaining = limits.after(started.elapsed()).inspect_err(|e| {
        limit_event(rec, e);
    })?;
    run_fixpoint_traced(backend, lean_size, closure_size, &remaining, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mulogic::ModelChecker;

    fn solve(src: &str) -> Solved {
        let mut lg = Logic::new();
        let goal = lg.parse(src).unwrap();
        solve_symbolic(&mut lg, goal)
    }

    #[test]
    fn trivial_cases() {
        assert!(solve("a").outcome.is_satisfiable());
        assert!(!solve("a & ~a").outcome.is_satisfiable());
        assert!(!solve("F").outcome.is_satisfiable());
        assert!(solve("T").outcome.is_satisfiable());
    }

    #[test]
    fn structure_and_model_check() {
        let cases = [
            "a & <1>(b & <2>c)",
            "a & ~<1>T",
            "let_mu X = b | <2>X in <1>X",
            "a & <1>(b & <-1>a)",
            "b & <-1>a",
            "a & <1>(let_mu X = d | <1>X | <2>X in X)",
        ];
        for src in cases {
            let mut lg = Logic::new();
            let goal = lg.parse(src).unwrap();
            let s = solve_symbolic(&mut lg, goal);
            let m = s.outcome.model().unwrap_or_else(|| panic!("{src} unsat"));
            let mc = ModelChecker::new(&m.tree());
            assert!(
                !mc.eval(&lg, goal).is_empty(),
                "model of {src} fails model check: {m}"
            );
        }
    }

    #[test]
    fn marks_are_unique() {
        let s = solve("a & <1>(b & s)");
        let m = s.outcome.model().unwrap();
        assert_eq!(m.tree().mark_count(), 1, "{m}");
        assert!(!solve("s & <1>s").outcome.is_satisfiable());
    }

    #[test]
    fn options_do_not_change_verdicts() {
        let cases = ["a & <1>b", "a & ~a", "s & <2>(c & ~s)", "b & <-2>a"];
        for src in cases {
            let mut verdicts = Vec::new();
            for monolithic in [false, true] {
                for order in [VarOrder::Bfs, VarOrder::Reversed] {
                    let mut lg = Logic::new();
                    let goal = lg.parse(src).unwrap();
                    let s = solve_symbolic_with(
                        &mut lg,
                        goal,
                        &SymbolicOptions {
                            monolithic_delta: monolithic,
                            var_order: order,
                            ..SymbolicOptions::default()
                        },
                    );
                    verdicts.push(s.outcome.is_satisfiable());
                }
            }
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "{src}: {verdicts:?}"
            );
        }
    }

    #[test]
    fn gc_stress_preserves_verdicts_and_models() {
        // A tiny GC threshold forces collection after every relational
        // product step; verdicts and witnesses must be unchanged.
        let cases = [
            ("a & <1>(b & <2>c)", true),
            ("s & <2>(c & ~s)", true),
            ("a & ~a", false),
            ("b & <-1>a & <1>(let_mu X = d | <2>X in X)", true),
        ];
        for (src, expect_sat) in cases {
            let mut lg = Logic::new();
            let goal = lg.parse(src).unwrap();
            let s = solve_symbolic_with(
                &mut lg,
                goal,
                &SymbolicOptions {
                    gc_threshold: Some(1),
                    ..SymbolicOptions::default()
                },
            );
            assert_eq!(s.outcome.is_satisfiable(), expect_sat, "{src}");
            if let Some(m) = s.outcome.model() {
                let mc = ModelChecker::new_row(m.roots());
                assert!(!mc.eval(&lg, goal).is_empty(), "{src}: {m}");
            }
        }
    }

    #[test]
    fn stats_report_bdd_nodes() {
        let s = solve("a & <1>b");
        assert!(s.stats.telemetry.bdd_nodes().unwrap() > 10);
        assert_eq!(s.stats.telemetry.backend_name(), "symbolic");
        assert!(s.stats.lean_size > 0);
    }
}
