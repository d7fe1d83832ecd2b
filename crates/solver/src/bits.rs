//! Bit-vector ψ-types for the explicit solver, plus the word-parallel
//! machinery behind its table construction: [`TypeBits`] doubles as a
//! packed bitset over the type universe (word-level union, intersection,
//! popcount), and [`status_columns`] evaluates `status_ϕ` over 64 types
//! per formula walk by instantiating the status evaluator's [`BoolAlg`]
//! at `u64`.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use mulogic::{status, BoolAlg, Formula, Lean, Logic, Program};

use crate::limits::{Exhausted, Limits};

/// A ψ-type as a bit vector over the lean (one bit per [`mulogic::LeanAtom`]).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeBits {
    words: Box<[u64]>,
    len: usize,
}

impl TypeBits {
    /// The all-zero vector over a lean of `len` atoms.
    pub fn empty(len: usize) -> Self {
        TypeBits {
            words: vec![0; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Number of atoms (bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        if v {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The bits as a `Vec<bool>` (for the status evaluator).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Builds from a `bool` slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut t = TypeBits::empty(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            t.set(i, b);
        }
        t
    }

    /// The all-one vector of `len` bits (tail bits of the last word stay
    /// zero, preserving the popcount invariant).
    pub fn full(len: usize) -> Self {
        let mut t = TypeBits::empty(len);
        for (w, word) in t.words.iter_mut().enumerate() {
            *word = Self::tail_mask(len, w);
        }
        t
    }

    /// The valid-bit mask of word `w` for a vector of `len` bits.
    fn tail_mask(len: usize, w: usize) -> u64 {
        let lo = w * 64;
        let width = len.saturating_sub(lo).min(64);
        if width == 64 {
            !0
        } else {
            (1u64 << width) - 1
        }
    }

    /// Number of set bits (word-level popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// In-place union (`self |= other`). Both sides must have equal length.
    pub fn union_with(&mut self, other: &TypeBits) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection (`self &= other`).
    pub fn intersect_with(&mut self, other: &TypeBits) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// In-place difference (`self &= !other`) — the complement-free way to
    /// clear bits, so the tail invariant survives.
    pub fn difference_with(&mut self, other: &TypeBits) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// The index of the first set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Iterates the indices of the set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |&w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }
}

impl fmt::Debug for TypeBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeBits[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

/// [`BoolAlg`] at `u64`: one value bit per type of a 64-type block, so a
/// single `status` walk decides a formula for the whole block.
struct WordAlg<'a> {
    /// One word per lean atom: bit `j` is the atom's value at the block's
    /// `j`-th type.
    vars: &'a [u64],
}

impl BoolAlg for WordAlg<'_> {
    type Value = u64;
    fn tt(&mut self) -> u64 {
        !0
    }
    fn ff(&mut self) -> u64 {
        0
    }
    fn var(&mut self, i: usize) -> u64 {
        self.vars[i]
    }
    fn not(&mut self, v: u64) -> u64 {
        !v
    }
    fn and(&mut self, a: u64, b: u64) -> u64 {
        a & b
    }
    fn or(&mut self, a: u64, b: u64) -> u64 {
        a | b
    }
}

/// Evaluates each formula's `status` over every type, 64 types at a time.
///
/// The old table builders walked `status` once per type per formula with
/// a fresh memo each type — the dominant cost of the enumerating
/// backends. This transposes the work: per 64-type block, the lean atoms
/// are gathered into `u64` columns and every formula is evaluated once
/// over the whole block through [`WordAlg`], sharing one memo per block.
/// Returns one bitset over the type universe per formula, in order.
///
/// Polls `limits` (cancel token, then deadline) once per block so a
/// cancelled run aborts mid-construction instead of finishing a build
/// nobody will read.
pub(crate) fn status_columns(
    lg: &mut Logic,
    lean: &Lean,
    types: &[TypeBits],
    formulas: &[Formula],
    limits: &Limits,
    started: Instant,
) -> Result<Vec<TypeBits>, Exhausted> {
    let n = types.len();
    let mut cols: Vec<TypeBits> = formulas.iter().map(|_| TypeBits::empty(n)).collect();
    let mut vars = vec![0u64; lean.len()];
    for block in 0..n.div_ceil(64) {
        limits.poll(started)?;
        let base = block * 64;
        let width = (n - base).min(64);
        for (i, v) in vars.iter_mut().enumerate() {
            let mut w = 0u64;
            for (j, t) in types[base..base + width].iter().enumerate() {
                w |= u64::from(t.get(i)) << j;
            }
            *v = w;
        }
        let mut alg = WordAlg { vars: &vars };
        let mut memo = HashMap::new();
        let valid = TypeBits::tail_mask(n, block);
        for (&f, col) in formulas.iter().zip(cols.iter_mut()) {
            col.words[block] = status(lg, lean, f, &mut alg, &mut memo) & valid;
        }
    }
    Ok(cols)
}

/// Enumerates every well-formed ψ-type of a lean (explicit solver only).
///
/// A ψ-type satisfies (§6.1):
/// * modal consistency: `⟨a⟩ϕ ∈ t ⇒ ⟨a⟩⊤ ∈ t`;
/// * not both `⟨1̄⟩⊤` and `⟨2̄⟩⊤` (a node is not two kinds of child);
/// * exactly one atomic proposition;
/// * the start proposition is free.
///
/// The number of types is exponential in the number of `⟨a⟩ϕ` entries; the
/// explicit solver is a reference implementation for small formulas. The
/// governed entry points ([`solve_with`](crate::solve_with)) refuse leans
/// beyond [`Limits::max_lean_diamonds`](crate::Limits::max_lean_diamonds)
/// — default [`MAX_EXPLICIT_DIAMONDS`] — before this enumerator runs; the
/// enumerator itself only guards the representation limit.
pub struct TypeEnumerator<'l> {
    lean: &'l Lean,
    diam_positions: Vec<(usize, Program)>,
    prop_positions: Vec<usize>,
}

/// Default cap on `⟨a⟩ϕ` lean entries accepted by the explicit enumeration
/// (the value of `Limits::max_lean_diamonds` under `Limits::default()`).
pub const MAX_EXPLICIT_DIAMONDS: usize = 16;

/// Absolute representation limit of the enumeration's `u32` masks. The
/// governed dispatch path clamps `Limits::max_lean_diamonds` to this, so
/// a wire request can never push an oversized lean past the feasibility
/// check into the enumerator's assert; raising the cap past
/// [`MAX_EXPLICIT_DIAMONDS`] at all is already a deliberate act of
/// spending exponential time.
pub(crate) const ENUMERATION_HARD_CAP: usize = 26;

impl<'l> TypeEnumerator<'l> {
    /// Prepares enumeration over the given lean.
    ///
    /// # Panics
    ///
    /// Panics if the lean has more than 26 diamond entries (the `u32`
    /// enumeration-mask limit). Budget-governed callers should bound the
    /// lean with `Limits::max_lean_diamonds` long before this fires.
    pub fn new(lean: &'l Lean) -> Self {
        let diam_positions: Vec<(usize, Program)> =
            lean.diam_entries().map(|(i, p, _)| (i, p)).collect();
        assert!(
            diam_positions.len() <= ENUMERATION_HARD_CAP,
            "lean too large for the explicit solver: {} diamonds (hard cap {})",
            diam_positions.len(),
            ENUMERATION_HARD_CAP
        );
        let prop_positions = lean.prop_entries().map(|(i, _)| i).collect();
        TypeEnumerator {
            lean,
            diam_positions,
            prop_positions,
        }
    }

    /// All well-formed types, materialized.
    pub fn all(&self) -> Vec<TypeBits> {
        self.enumerate(true, &Limits::none(), Instant::now())
            .expect("unbounded enumeration cannot exhaust")
    }

    /// [`all`](TypeEnumerator::all), budget-governed: polls `limits`
    /// (cancel token + deadline) once per diamond mask so a cancelled
    /// run aborts mid-enumeration.
    ///
    /// Two lean-aware prunes run at the mask level, before any type of
    /// the mask materializes:
    /// * masks whose `⟨a⟩ϕ` atoms force both `⟨1̄⟩⊤` and `⟨2̄⟩⊤` are
    ///   dropped wholesale (no well-formed completion exists);
    /// * when `with_mark` is false — the goal never mentions the start
    ///   proposition, so marked type sets cannot contribute to the
    ///   verdict or witness any unmarked type — only `s ∉ t` types are
    ///   emitted, halving the universe.
    pub(crate) fn enumerate(
        &self,
        with_mark: bool,
        limits: &Limits,
        started: Instant,
    ) -> Result<Vec<TypeBits>, Exhausted> {
        let n = self.lean.len();
        let d = self.diam_positions.len();
        let mut out = Vec::new();
        let dt: Vec<usize> = Program::ALL
            .iter()
            .map(|&p| self.lean.diam_true_index(p))
            .collect();
        let up1 = Program::ALL
            .iter()
            .position(|&q| q == Program::Up1)
            .expect("program");
        let up2 = Program::ALL
            .iter()
            .position(|&q| q == Program::Up2)
            .expect("program");
        let marks: &[bool] = if with_mark { &[false, true] } else { &[false] };
        for mask in 0u32..(1 << d) {
            limits.poll(started)?;
            // Which programs are forced to have ⟨a⟩⊤ by modal consistency.
            let mut forced = [false; 4];
            for (k, &(_, p)) in self.diam_positions.iter().enumerate() {
                if mask >> k & 1 == 1 {
                    let pi = Program::ALL.iter().position(|&q| q == p).expect("program");
                    forced[pi] = true;
                }
            }
            // A node cannot be both a first child and a second child; a
            // mask forcing both has no well-formed completion at all.
            if forced[up1] && forced[up2] {
                continue;
            }
            // Free ⟨a⟩⊤ bits: those not forced may be 0 or 1.
            let free: Vec<usize> = (0..4).filter(|&i| !forced[i]).collect();
            for free_mask in 0u32..(1 << free.len()) {
                let mut has = forced;
                for (j, &fi) in free.iter().enumerate() {
                    has[fi] = free_mask >> j & 1 == 1;
                }
                if has[up1] && has[up2] {
                    continue;
                }
                for &prop_i in &self.prop_positions {
                    for &s in marks {
                        let mut t = TypeBits::empty(n);
                        for (k, &(pos, _)) in self.diam_positions.iter().enumerate() {
                            t.set(pos, mask >> k & 1 == 1);
                        }
                        for (pi, &dti) in dt.iter().enumerate() {
                            t.set(dti, has[pi]);
                        }
                        t.set(prop_i, true);
                        t.set(self.lean.start_index(), s);
                        out.push(t);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mulogic::{Closure, Logic};

    #[test]
    fn bit_ops() {
        let mut t = TypeBits::empty(130);
        t.set(0, true);
        t.set(64, true);
        t.set(129, true);
        assert!(t.get(0) && t.get(64) && t.get(129));
        assert!(!t.get(1));
        t.set(64, false);
        assert!(!t.get(64));
        let b = t.to_bools();
        assert_eq!(TypeBits::from_bools(&b), t);
    }

    #[test]
    fn word_level_set_ops() {
        let mut a = TypeBits::empty(130);
        a.set(0, true);
        a.set(64, true);
        a.set(129, true);
        let mut b = TypeBits::empty(130);
        b.set(64, true);
        b.set(100, true);
        assert_eq!(a.count_ones(), 3);
        assert!(a.any());
        assert!(!TypeBits::empty(130).any());
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(a.first_one(), Some(0));
        assert_eq!(TypeBits::empty(8).first_one(), None);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![0, 64, 100, 129]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![64]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
        let f = TypeBits::full(130);
        assert_eq!(f.count_ones(), 130);
        assert!(f.get(129));
    }

    #[test]
    fn status_columns_match_per_type_evaluation() {
        use mulogic::{status, BitsAlg};
        let mut lg = Logic::new();
        let f = lg.parse("a & <1>(b | <-1>a)").unwrap();
        let cl = Closure::compute(&mut lg, f);
        let lean = Lean::compute(&mut lg, &cl);
        let types = TypeEnumerator::new(&lean).all();
        assert!(types.len() > 64, "want multiple blocks: {}", types.len());
        let formulas: Vec<_> = lean.diam_entries().map(|(_, _, phi)| phi).collect();
        let cols = status_columns(
            &mut lg,
            &lean,
            &types,
            &formulas,
            &crate::limits::Limits::none(),
            Instant::now(),
        )
        .unwrap();
        for (ti, t) in types.iter().enumerate() {
            let bools = t.to_bools();
            let mut alg = BitsAlg::new(&bools);
            let mut memo = HashMap::new();
            for (k, &phi) in formulas.iter().enumerate() {
                let want = status(&mut lg, &lean, phi, &mut alg, &mut memo);
                assert_eq!(cols[k].get(ti), want, "formula {k} at type {ti}");
            }
        }
    }

    #[test]
    fn cancelled_enumeration_aborts() {
        use crate::limits::{CancelToken, Limits, Resource};
        let mut lg = Logic::new();
        let f = lg.parse("a & <1>b").unwrap();
        let cl = Closure::compute(&mut lg, f);
        let lean = Lean::compute(&mut lg, &cl);
        let en = TypeEnumerator::new(&lean);
        let token = CancelToken::armed();
        token.cancel();
        let limits = Limits {
            cancel: token,
            ..Limits::none()
        };
        let err = en.enumerate(true, &limits, Instant::now()).unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
    }

    #[test]
    fn markless_enumeration_halves_the_universe() {
        let mut lg = Logic::new();
        let f = lg.parse("a & <1>b").unwrap();
        let cl = Closure::compute(&mut lg, f);
        let lean = Lean::compute(&mut lg, &cl);
        let en = TypeEnumerator::new(&lean);
        let all = en.all();
        let unmarked = en
            .enumerate(false, &crate::limits::Limits::none(), Instant::now())
            .unwrap();
        assert_eq!(unmarked.len() * 2, all.len());
        let s = lean.start_index();
        assert!(unmarked.iter().all(|t| !t.get(s)));
    }

    #[test]
    fn enumeration_respects_constraints() {
        let mut lg = Logic::new();
        let f = lg.parse("a & <1>b").unwrap();
        let cl = Closure::compute(&mut lg, f);
        let lean = Lean::compute(&mut lg, &cl);
        let en = TypeEnumerator::new(&lean);
        let all = en.all();
        assert!(!all.is_empty());
        let props: Vec<usize> = lean.prop_entries().map(|(i, _)| i).collect();
        for t in &all {
            // Exactly one proposition.
            assert_eq!(props.iter().filter(|&&i| t.get(i)).count(), 1);
            // Modal consistency.
            for (i, p, _) in lean.diam_entries() {
                if t.get(i) {
                    assert!(t.get(lean.diam_true_index(p)));
                }
            }
            // Not both kinds of child.
            assert!(
                !(t.get(lean.diam_true_index(Program::Up1))
                    && t.get(lean.diam_true_index(Program::Up2)))
            );
        }
        // All types distinct.
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }
}
