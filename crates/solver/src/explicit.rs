//! The explicit-state reference solver (the algorithm of §6.2).
//!
//! ψ-types are enumerated as bit vectors and the `Upd` fixpoint of Fig 16
//! runs over concrete sets, split into an unmarked set `T°` and a marked set
//! `T•` (types whose proved subtree contains exactly one start mark) — the
//! four cases of `Upd`. Satisfiability is checked through the plunging
//! formula at root types (§7.1), so witness bookkeeping reduces to the
//! per-iteration snapshots used for model reconstruction.
//!
//! The implementation is word-parallel and frontier-driven:
//!
//! * table construction evaluates `status` 64 types per formula walk
//!   ([`status_columns`]) instead of once per type;
//! * a lean-aware prune removes types carrying a diamond atom no type can
//!   ever witness, shrinking the universe before the fixpoint starts;
//! * the `∆_a` compatibility check is precomputed into packed signature
//!   keys, so finding a witness is one hash lookup instead of an `O(n·d)`
//!   scan — and `Upd` steps are frontier-only: only types added in the
//!   previous iteration update the witness index.
//!
//! This backend is exponential in the number of lean diamonds and exists to
//! cross-validate the symbolic solver on small formulas; production use goes
//! through the symbolic backend.
//!
//! The fixpoint loop itself lives in the shared kernel
//! ([`run_fixpoint`](crate::kernel::run_fixpoint)); this module supplies
//! the enumerated-set [`Backend`] implementation.

use std::collections::HashMap;
use std::time::Instant;

use ftree::BinaryTree;
use mulogic::{Formula, Logic, Program};

use obs::Recorder;

use crate::bits::{status_columns, TypeBits, TypeEnumerator, MAX_EXPLICIT_DIAMONDS};
use crate::kernel::{limit_event, run_fixpoint_traced, Backend, SolveError, StepObservation};
use crate::limits::{Exhausted, Limits};
use crate::outcome::{Model, Solved, Telemetry};
use crate::prepare::Prepared;

/// The forward programs, indexed by the `ai` convention used throughout
/// this module (`ai = 0` → `⟨1⟩`, `ai = 1` → `⟨2⟩`).
const FWD: [Program; 2] = [Program::Down1, Program::Down2];

/// Precomputed per-type data over the (pruned, compacted) type universe.
///
/// The `∆_a(t, t')` relation of Def 6.2 is an equality of two bit strings
/// drawn from the `a`-relevant lean atoms: the parent contributes its
/// `⟨a⟩ϕ` memberships and the `status` of its `⟨ā⟩ϕ` arguments; the child
/// contributes the `status` of the `⟨a⟩ϕ` arguments and its `⟨ā⟩ϕ`
/// memberships. Packing both strings into one `u64` key (`want` on the
/// parent side, `give` on the child side) turns the witness search into a
/// hash-bucket lookup: `∆_a(t, t') ∧ ⟨ā⟩⊤ ∈ t'  ⇔  give[a][t'] = Some(want[a][t])`.
struct Tables {
    /// The surviving well-formed types.
    types: Vec<TypeBits>,
    /// Root candidates: `status_ψ(t)` and no pending backward modality.
    root_ok: TypeBits,
    /// Types carrying the start mark.
    start_bits: TypeBits,
    /// Per forward program, types with `⟨a⟩⊤` (needing an `a`-child).
    down: [TypeBits; 2],
    /// Per forward program, per type: the signature key its `a`-child must
    /// present.
    want: [Vec<u64>; 2],
    /// Per forward program, per type: the signature key the type presents
    /// as an `a`-child (`None` without `⟨ā⟩⊤`).
    give: [Vec<Option<u64>>; 2],
}

impl Tables {
    fn build(
        lg: &mut Logic,
        prep: &Prepared,
        limits: &Limits,
        started: Instant,
    ) -> Result<Tables, Exhausted> {
        let en = TypeEnumerator::new(&prep.lean);
        // Goals that never mention the start proposition only need the
        // unmarked half of the universe: `check` then reads `T°`, whose
        // witnesses are themselves unmarked.
        let types = en.enumerate(prep.uses_mark, limits, started)?;
        let n = types.len();
        let entries: Vec<(usize, Program, Formula)> = prep.lean.diam_entries().collect();
        let formulas: Vec<Formula> = entries
            .iter()
            .map(|&(_, _, phi)| phi)
            .chain([prep.psi])
            .collect();
        let mut cols = status_columns(lg, &prep.lean, &types, &formulas, limits, started)?;
        let psi_col = cols.pop().expect("ψ column");
        let arg_cols = cols;

        // Per-atom membership columns and the four ⟨a⟩⊤ columns.
        let dt_pos: Vec<usize> = Program::ALL
            .iter()
            .map(|&p| prep.lean.diam_true_index(p))
            .collect();
        let start_idx = prep.lean.start_index();
        let mut atom_col: Vec<TypeBits> = entries.iter().map(|_| TypeBits::empty(n)).collect();
        let mut dt_col: [TypeBits; 4] = std::array::from_fn(|_| TypeBits::empty(n));
        let mut start_col = TypeBits::empty(n);
        for (ti, t) in types.iter().enumerate() {
            for (k, &(pos, _, _)) in entries.iter().enumerate() {
                if t.get(pos) {
                    atom_col[k].set(ti, true);
                }
            }
            for (pi, &pos) in dt_pos.iter().enumerate() {
                if t.get(pos) {
                    dt_col[pi].set(ti, true);
                }
            }
            if t.get(start_idx) {
                start_col.set(ti, true);
            }
        }

        // Lean-aware dead-type prune. A diamond atom ⟨p⟩ϕ in a type needs a
        // ∆-partner `u` with `status_ϕ(u)` and `⟨p̄⟩⊤ ∈ u` — the child that
        // proves it when `p` is forward, the parent it attaches under when
        // `p` is backward. When no live type can supply one, every type
        // carrying the atom is dead: it can never enter `T°`/`T•` (forward
        // case) or serve as anyone's witness or as a root (backward case).
        // Each removal can starve further atoms, so iterate to a fixpoint.
        let mut alive = TypeBits::full(n);
        loop {
            limits.poll(started)?;
            let mut changed = false;
            for (k, &(_, p, _)) in entries.iter().enumerate() {
                let conv = Program::ALL
                    .iter()
                    .position(|&q| q == p.converse())
                    .expect("program");
                let mut supply = arg_cols[k].clone();
                supply.intersect_with(&dt_col[conv]);
                supply.intersect_with(&alive);
                if !supply.any() {
                    let mut dead = atom_col[k].clone();
                    dead.intersect_with(&alive);
                    if dead.any() {
                        alive.difference_with(&atom_col[k]);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Compact the survivors and precompute the signature keys. The
        // lean has at most 26 diamonds, so each direction's string fits a
        // 32-bit half: down-part in the low word, up-part in the high one.
        let keep: Vec<usize> = alive.iter_ones().collect();
        let m = keep.len();
        let mut tab = Tables {
            types: Vec::with_capacity(m),
            root_ok: TypeBits::empty(m),
            start_bits: TypeBits::empty(m),
            down: [TypeBits::empty(m), TypeBits::empty(m)],
            want: [Vec::with_capacity(m), Vec::with_capacity(m)],
            give: [Vec::with_capacity(m), Vec::with_capacity(m)],
        };
        for (new_i, &old_i) in keep.iter().enumerate() {
            let t = &types[old_i];
            if start_col.get(old_i) {
                tab.start_bits.set(new_i, true);
            }
            if psi_col.get(old_i) && !dt_col[2].get(old_i) && !dt_col[3].get(old_i) {
                tab.root_ok.set(new_i, true);
            }
            for (ai, &a) in FWD.iter().enumerate() {
                if dt_col[ai].get(old_i) {
                    tab.down[ai].set(new_i, true);
                }
                let conv = a.converse();
                let (mut want, mut give) = (0u64, 0u64);
                let (mut db, mut ub) = (0, 0);
                for (k, &(pos, p, _)) in entries.iter().enumerate() {
                    if p == a {
                        // ⟨a⟩ϕ ∈ t ⇔ ϕ ∈̇ t'
                        want |= u64::from(t.get(pos)) << db;
                        give |= u64::from(arg_cols[k].get(old_i)) << db;
                        db += 1;
                    } else if p == conv {
                        // ⟨ā⟩ϕ ∈ t' ⇔ ϕ ∈̇ t
                        want |= u64::from(arg_cols[k].get(old_i)) << (32 + ub);
                        give |= u64::from(t.get(pos)) << (32 + ub);
                        ub += 1;
                    }
                }
                tab.want[ai].push(want);
                tab.give[ai].push(dt_col[ai + 2].get(old_i).then_some(give));
            }
            tab.types.push(t.clone());
        }
        Ok(tab)
    }
}

/// Per-iteration cumulative snapshots of `(T°, T•)`.
type Snapshot = (TypeBits, TypeBits);

/// The enumerated-set backend state driven by the kernel's fixpoint loop.
struct Explicit {
    prep: Prepared,
    tab: Tables,
    un: TypeBits,
    mk: TypeBits,
    /// Candidate types not yet in `un` / `mk`.
    todo_un: TypeBits,
    todo_mk: TypeBits,
    /// Types added by the previous step, not yet in the witness buckets.
    front_un: Vec<usize>,
    front_mk: Vec<usize>,
    /// Per forward program: signature key → `[T° count, T• count]` of
    /// already-proved types presenting that key as an `a`-child.
    buckets: [HashMap<u64, [u32; 2]>; 2],
    snapshots: Vec<Snapshot>,
}

impl Explicit {
    fn new(
        lg: &mut Logic,
        prep: Prepared,
        limits: &Limits,
        started: Instant,
    ) -> Result<Explicit, Exhausted> {
        let tab = Tables::build(lg, &prep, limits, started)?;
        let n = tab.types.len();
        // Start-marked types never enter T°; without marks in play the
        // marked loop is vacuous and skipped entirely.
        let mut todo_un = TypeBits::full(n);
        todo_un.difference_with(&tab.start_bits);
        let todo_mk = if prep.uses_mark {
            TypeBits::full(n)
        } else {
            TypeBits::empty(n)
        };
        Ok(Explicit {
            prep,
            un: TypeBits::empty(n),
            mk: TypeBits::empty(n),
            todo_un,
            todo_mk,
            front_un: Vec::new(),
            front_mk: Vec::new(),
            buckets: [HashMap::new(), HashMap::new()],
            snapshots: Vec::new(),
            tab,
        })
    }
}

impl Backend for Explicit {
    /// Index of the root type that passed the final check.
    type Hit = usize;

    fn step(&mut self) -> Result<bool, Exhausted> {
        // Flush the previous iteration's additions into the witness index:
        // `Upd(X')` draws witnesses from the previous sets, and only newly
        // proved types can change a bucket — the frontier-only update.
        for (ai, bucket) in self.buckets.iter_mut().enumerate() {
            for &ti in &self.front_un {
                if let Some(key) = self.tab.give[ai][ti] {
                    bucket.entry(key).or_default()[0] += 1;
                }
            }
            for &ti in &self.front_mk {
                if let Some(key) = self.tab.give[ai][ti] {
                    bucket.entry(key).or_default()[1] += 1;
                }
            }
        }
        self.front_un.clear();
        self.front_mk.clear();
        let tab = &self.tab;
        let buckets = &self.buckets;
        let seen = |ai: usize, ti: usize, cls: usize| {
            buckets[ai]
                .get(&tab.want[ai][ti])
                .is_some_and(|c| c[cls] > 0)
        };
        let w_un = |ai: usize, ti: usize| !tab.down[ai].get(ti) || seen(ai, ti, 0);
        let w_mk = |ai: usize, ti: usize| tab.down[ai].get(ti) && seen(ai, ti, 1);
        // T°: unmarked types, witnesses unmarked.
        for ti in self.todo_un.iter_ones() {
            if w_un(0, ti) && w_un(1, ti) {
                self.front_un.push(ti);
            }
        }
        // T•: the three marked cases of Upd.
        for ti in self.todo_mk.iter_ones() {
            let ok = if tab.start_bits.get(ti) {
                // Mark at this node; both subtrees unmarked.
                w_un(0, ti) && w_un(1, ti)
            } else {
                // Mark strictly below, on exactly one side.
                (w_mk(0, ti) && w_un(1, ti)) || (w_un(0, ti) && w_mk(1, ti))
            };
            if ok {
                self.front_mk.push(ti);
            }
        }
        let changed = !(self.front_un.is_empty() && self.front_mk.is_empty());
        for &ti in &self.front_un {
            self.un.set(ti, true);
            self.todo_un.set(ti, false);
        }
        for &ti in &self.front_mk {
            self.mk.set(ti, true);
            self.todo_mk.set(ti, false);
        }
        self.snapshots.push((self.un.clone(), self.mk.clone()));
        Ok(changed)
    }

    fn check(&mut self) -> Option<usize> {
        let target = if self.prep.uses_mark {
            &self.mk
        } else {
            &self.un
        };
        let mut hits = target.clone();
        hits.intersect_with(&self.tab.root_ok);
        hits.first_one()
    }

    fn reconstruct(&mut self, root: usize) -> Model {
        // Top-down minimal-model reconstruction (§7.2): successors are
        // searched in the earliest snapshot first, minimizing depth.
        let bt = build(
            &self.prep,
            &self.tab,
            &self.snapshots,
            root,
            self.prep.uses_mark,
        );
        Model::from_binary(&bt)
    }

    fn telemetry(&self) -> Telemetry {
        Telemetry::Explicit {
            types: self.tab.types.len(),
        }
    }

    fn observe(&self) -> StepObservation {
        StepObservation {
            store_nodes: self.tab.types.len() as u64,
            proved: (self.un.count_ones() + self.mk.count_ones()) as u64,
            ..StepObservation::default()
        }
    }
}

/// Decides satisfiability with the explicit backend, unbounded.
///
/// # Panics
///
/// Panics if the lean has more than
/// [`MAX_EXPLICIT_DIAMONDS`](crate::MAX_EXPLICIT_DIAMONDS) diamonds or if
/// `goal` is open. The budget-governed path ([`crate::solve_with`])
/// reports oversized leans as a typed resource exhaustion instead.
pub fn solve_explicit(lg: &mut Logic, goal: Formula) -> Solved {
    let prep = Prepared::new(lg, goal);
    let diamonds = prep.lean.diam_entries().count();
    assert!(
        diamonds <= MAX_EXPLICIT_DIAMONDS,
        "lean too large for the explicit solver: {diamonds} diamonds (max {MAX_EXPLICIT_DIAMONDS})"
    );
    solve_prepared(lg, prep, &Limits::none(), &Recorder::noop())
        .expect("an unbounded explicit run cannot exhaust")
}

/// Runs the explicit backend on an already-preprocessed goal under the
/// caller's limits (the dispatcher prepares once to bound-check the lean
/// first). The type enumeration is charged against the wall-clock
/// deadline — the driver only gets what construction left over — and the
/// construction itself polls the limits, so a cancelled run aborts
/// instead of finishing a build nobody will read.
pub(crate) fn solve_prepared(
    lg: &mut Logic,
    prep: Prepared,
    limits: &Limits,
    rec: &Recorder,
) -> Result<Solved, SolveError> {
    let started = std::time::Instant::now();
    let (lean_size, closure_size) = (prep.lean.len(), prep.closure.len());
    let backend = {
        let _span = rec.span("enumerate");
        Explicit::new(lg, prep, limits, started)
    }
    .map_err(|e| {
        limit_event(rec, &e);
        SolveError::from(e)
    })?;
    let remaining = limits.after(started.elapsed()).inspect_err(|e| {
        limit_event(rec, e);
    })?;
    run_fixpoint_traced(backend, lean_size, closure_size, &remaining, rec)
}

fn find_child(
    tab: &Tables,
    snapshots: &[Snapshot],
    ti: usize,
    ai: usize,
    marked: bool,
) -> Option<usize> {
    let key = tab.want[ai][ti];
    snapshots.iter().find_map(|(unset, mkset)| {
        let set = if marked { mkset } else { unset };
        set.iter_ones().find(|&tj| tab.give[ai][tj] == Some(key))
    })
}

fn build(
    prep: &Prepared,
    tab: &Tables,
    snapshots: &[Snapshot],
    ti: usize,
    need_mark: bool,
) -> BinaryTree {
    let t = &tab.types[ti];
    let label = prep
        .lean
        .prop_entries()
        .find(|&(i, _)| t.get(i))
        .map(|(_, l)| l)
        .expect("every type has exactly one proposition");
    let here_marked = tab.start_bits.get(ti);
    debug_assert!(!here_marked || need_mark);
    let below = need_mark && !here_marked;

    let has1 = tab.down[0].get(ti);
    let has2 = tab.down[1].get(ti);
    // Decide which side carries the mark when it is strictly below. The
    // chosen split must be *jointly* realizable: a marked child on one side
    // and, if the other side exists, an unmarked child there (a marked
    // 1-child may be ∆-compatible even when the type was added through the
    // mark-on-2 case only).
    let (m1, m2) = if !below {
        (false, false)
    } else {
        let via1 = has1
            && find_child(tab, snapshots, ti, 0, true).is_some()
            && (!has2 || find_child(tab, snapshots, ti, 1, false).is_some());
        if via1 {
            (true, false)
        } else {
            (false, true)
        }
    };
    let child1 = has1.then(|| {
        let tj = find_child(tab, snapshots, ti, 0, m1).expect("witness exists by construction");
        build(prep, tab, snapshots, tj, m1)
    });
    let child2 = has2.then(|| {
        let tj = find_child(tab, snapshots, ti, 1, m2).expect("witness exists by construction");
        build(prep, tab, snapshots, tj, m2)
    });
    BinaryTree::new(label, here_marked, child1, child2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mulogic::ModelChecker;

    fn solve(src: &str) -> Solved {
        let mut lg = Logic::new();
        let goal = lg.parse(src).unwrap();
        solve_explicit(&mut lg, goal)
    }

    #[test]
    fn trivial_sat() {
        let s = solve("a");
        assert!(s.outcome.is_satisfiable());
        let m = s.outcome.model().unwrap();
        assert_eq!(m.roots()[0].label().as_str(), "a");
    }

    #[test]
    fn trivial_unsat() {
        let s = solve("a & ~a");
        assert!(!s.outcome.is_satisfiable());
        let s = solve("F");
        assert!(!s.outcome.is_satisfiable());
    }

    #[test]
    fn child_structure() {
        let s = solve("a & <1>b");
        let m = s.outcome.model().unwrap();
        let t = m.roots()[0].clone();
        assert_eq!(t.label().as_str(), "a");
        assert_eq!(t.children()[0].label().as_str(), "b");
    }

    #[test]
    fn model_checks_out() {
        // Every satisfiable verdict must produce a model that the
        // independent model checker accepts at the root.
        let cases = [
            "a & <1>(b & <2>c)",
            "a & ~<1>T",
            "let_mu X = b | <2>X in <1>X",
            "a & <1>(b & <-1>a)",
        ];
        for src in cases {
            let mut lg = Logic::new();
            let goal = lg.parse(src).unwrap();
            let s = solve_explicit(&mut lg, goal);
            let m = s.outcome.model().unwrap_or_else(|| panic!("{src} unsat"));
            let tree = m.tree();
            let mc = ModelChecker::new(&tree);
            let sat = mc.eval(&lg, goal);
            assert!(!sat.is_empty(), "model of {src} fails model check: {m}");
        }
    }

    #[test]
    fn marked_models_have_one_mark() {
        let s = solve("a & <1>(b & s)");
        let m = s.outcome.model().unwrap();
        assert_eq!(m.tree().mark_count(), 1, "{m}");
        let mc = ModelChecker::new(&m.tree());
        let mut lg = Logic::new();
        let goal = lg.parse("a & <1>(b & s)").unwrap();
        assert!(!mc.eval(&lg, goal).is_empty());
    }

    #[test]
    fn unsat_with_marks() {
        // Two distinct marked nodes cannot exist.
        let s = solve("s & <1>s");
        assert!(!s.outcome.is_satisfiable());
        // A mark must exist somewhere if required positively.
        let s = solve("s & ~s");
        assert!(!s.outcome.is_satisfiable());
    }

    #[test]
    fn backward_modalities() {
        // "b, being a first child of an a" — root must be a.
        let s = solve("b & <-1>a");
        let m = s.outcome.model().unwrap();
        let t = m.tree();
        assert_eq!(t.label().as_str(), "a");
        assert_eq!(t.children()[0].label().as_str(), "b");
    }

    #[test]
    fn other_label_used_when_needed() {
        // ¬a at the root forces the fresh σx label.
        let s = solve("~a & ~<1>T & ~<2>T");
        let m = s.outcome.model().unwrap();
        assert_ne!(m.roots()[0].label().as_str(), "a");
    }

    #[test]
    fn stats_populated() {
        let s = solve("a & <1>b");
        assert!(s.stats.lean_size >= 7);
        assert!(s.stats.iterations >= 2);
        assert!(s.stats.telemetry.explicit_types().unwrap() > 0);
        assert_eq!(s.stats.telemetry.backend_name(), "explicit");
    }

    #[test]
    fn dead_atom_pruning_still_sound() {
        // ⟨1⟩(b ∧ c) can never be witnessed — a node carries exactly one
        // proposition — so the prune removes every type carrying the atom
        // and the verdict must still come out unsat.
        let s = solve("a & <1>(b & c)");
        assert!(!s.outcome.is_satisfiable());
        // A satisfiable goal with the same shape survives the prune.
        let s = solve("a & <1>(b | c)");
        assert!(s.outcome.is_satisfiable());
    }

    #[test]
    fn mark_on_sibling_side_reconstruction() {
        // Regression (found by proptest): ⟨1̄⟩⟨2⟩s — "my parent has a
        // marked next sibling". The mark lives on the 2-side of the root
        // row; a ∆-compatible marked 1-child may exist spuriously and the
        // reconstruction must not commit to it when the 2-side split is the
        // realizable one.
        let mut lg = Logic::new();
        let goal = lg.parse("<-1><2>s").unwrap();
        let s = solve_explicit(&mut lg, goal);
        let m = s.outcome.model().expect("satisfiable");
        let marks: usize = m.roots().iter().map(ftree::Tree::mark_count).sum();
        assert_eq!(marks, 1, "{m}");
    }

    #[test]
    fn fixpoint_queries() {
        // descendant-style: some node below is d (via plunge this is just d
        // reachable): a with first child chain to d.
        let s = solve("a & <1>(let_mu X = d | <1>X | <2>X in X)");
        let m = s.outcome.model().unwrap();
        let xml = m.xml();
        assert!(xml.contains("<d"), "{xml}");
    }
}
