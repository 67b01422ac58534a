//! Abstract domains: integer intervals, reference nullability, and queue
//! emptiness.
//!
//! The interval transfer functions mirror the runtime's *wrapping*
//! arithmetic: when both operands are exact the abstract result is the
//! exact wrapped value, and when a range endpoint computation would
//! overflow the result widens to [`Interval::TOP`] — saturating would be
//! unsound because the concrete semantics wrap.

use crate::bytecode::{AluOp, Cond};

/// A non-empty closed integer interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// No information: [`Interval::TOP`].
impl Default for Interval {
    fn default() -> Interval {
        Interval::TOP
    }
}

impl Interval {
    /// The full `i64` range (no information).
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The boolean range `[0, 1]`.
    pub const BOOL: Interval = Interval { lo: 0, hi: 1 };

    /// A single value.
    pub const fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; callers must keep `lo <= hi`.
    pub const fn new(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    /// The single value, if the interval is a point.
    pub fn as_exact(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` is inside the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Greatest lower bound; `None` when the intervals are disjoint
    /// (an infeasible state).
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Standard widening: bounds that moved since `self` jump to infinity.
    pub fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn lift2(self, rhs: Interval, f: impl Fn(i64, i64) -> Option<i64>) -> Interval {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for a in [self.lo, self.hi] {
            for b in [rhs.lo, rhs.hi] {
                match f(a, b) {
                    Some(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    None => return Interval::TOP,
                }
            }
        }
        Interval { lo, hi }
    }

    /// Abstract `+` under wrapping semantics.
    pub fn add(self, rhs: Interval) -> Interval {
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return Interval::exact(a.wrapping_add(b));
        }
        self.lift2(rhs, i64::checked_add)
    }

    /// Abstract `-` under wrapping semantics.
    pub fn sub(self, rhs: Interval) -> Interval {
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return Interval::exact(a.wrapping_sub(b));
        }
        self.lift2(rhs, i64::checked_sub)
    }

    /// Abstract `*` under wrapping semantics.
    pub fn mul(self, rhs: Interval) -> Interval {
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return Interval::exact(a.wrapping_mul(b));
        }
        self.lift2(rhs, i64::checked_mul)
    }

    /// Abstract `/`; division by zero yields 0 (the runtime semantics).
    pub fn div(self, rhs: Interval) -> Interval {
        if rhs == Interval::exact(0) {
            return Interval::exact(0);
        }
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return Interval::exact(a.wrapping_div(b));
        }
        if rhs.contains(0) {
            // The result mixes real quotients with the by-zero 0 case.
            return Interval::TOP;
        }
        // rhs has one sign throughout, so endpoint quotients bound the
        // result; i64::MIN / -1 overflows (wraps at runtime) -> TOP.
        self.lift2(rhs, i64::checked_div)
    }

    /// Abstract `%`; modulo by zero yields 0.
    pub fn rem(self, rhs: Interval) -> Interval {
        if rhs == Interval::exact(0) {
            return Interval::exact(0);
        }
        if let (Some(a), Some(b)) = (self.as_exact(), rhs.as_exact()) {
            return Interval::exact(a.wrapping_rem(b));
        }
        // |a % b| < max(|b.lo|, |b.hi|); 0 included for the by-zero case.
        let m = rhs.lo.unsigned_abs().max(rhs.hi.unsigned_abs());
        let m = i64::try_from(m.saturating_sub(1)).unwrap_or(i64::MAX);
        Interval::new(-m, m)
    }

    /// Abstract unary negation under wrapping semantics.
    pub fn neg(self) -> Interval {
        if let Some(v) = self.as_exact() {
            return Interval::exact(v.wrapping_neg());
        }
        match (self.hi.checked_neg(), self.lo.checked_neg()) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::TOP,
        }
    }
}

/// Three-valued truth of an abstract comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Holds in every concretization.
    True,
    /// Holds in no concretization.
    False,
    /// Indeterminate.
    Unknown,
}

impl Tri {
    /// As a boolean interval.
    pub fn interval(self) -> Interval {
        match self {
            Tri::True => Interval::exact(1),
            Tri::False => Interval::exact(0),
            Tri::Unknown => Interval::BOOL,
        }
    }

    /// Logical negation.
    pub fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }

    /// From an exact-bool interval.
    pub fn from_interval(iv: Interval) -> Tri {
        match iv.as_exact() {
            Some(0) => Tri::False,
            Some(_) => Tri::True,
            None => Tri::Unknown,
        }
    }
}

impl Interval {
    /// Abstract `<`.
    pub fn lt(self, rhs: Interval) -> Tri {
        if self.hi < rhs.lo {
            Tri::True
        } else if self.lo >= rhs.hi {
            Tri::False
        } else {
            Tri::Unknown
        }
    }

    /// Abstract `<=`.
    pub fn le(self, rhs: Interval) -> Tri {
        if self.hi <= rhs.lo {
            Tri::True
        } else if self.lo > rhs.hi {
            Tri::False
        } else {
            Tri::Unknown
        }
    }

    /// Abstract `==`.
    pub fn eq_ab(self, rhs: Interval) -> Tri {
        match (self.as_exact(), rhs.as_exact()) {
            (Some(a), Some(b)) if a == b => Tri::True,
            _ if self.meet(rhs).is_none() => Tri::False,
            _ => Tri::Unknown,
        }
    }

    /// Refines `(self, rhs)` under the assumption `self < rhs`; `None`
    /// when the assumption is infeasible.
    pub fn assume_lt(self, rhs: Interval) -> Option<(Interval, Interval)> {
        if rhs.hi == i64::MIN || self.lo == i64::MAX {
            return None;
        }
        let a = self.meet(Interval::new(i64::MIN, rhs.hi - 1))?;
        let b = rhs.meet(Interval::new(self.lo + 1, i64::MAX))?;
        Some((a, b))
    }

    /// Refines `(self, rhs)` under `self <= rhs`.
    pub fn assume_le(self, rhs: Interval) -> Option<(Interval, Interval)> {
        let a = self.meet(Interval::new(i64::MIN, rhs.hi))?;
        let b = rhs.meet(Interval::new(self.lo, i64::MAX))?;
        Some((a, b))
    }

    /// Refines `(self, rhs)` under `self == rhs`.
    pub fn assume_eq(self, rhs: Interval) -> Option<(Interval, Interval)> {
        let m = self.meet(rhs)?;
        Some((m, m))
    }

    /// Refines `(self, rhs)` under `self != rhs` (only exact operands can
    /// shave an endpoint).
    pub fn assume_ne(self, rhs: Interval) -> Option<(Interval, Interval)> {
        let shave = |iv: Interval, v: i64| -> Option<Interval> {
            if iv.as_exact() == Some(v) {
                None
            } else if iv.lo == v {
                Some(Interval::new(v + 1, iv.hi))
            } else if iv.hi == v {
                Some(Interval::new(iv.lo, v - 1))
            } else {
                Some(iv)
            }
        };
        let a = match rhs.as_exact() {
            Some(v) => shave(self, v)?,
            None => self,
        };
        let b = match self.as_exact() {
            Some(v) => shave(rhs, v)?,
            None => rhs,
        };
        Some((a, b))
    }
}

/// Abstract result of the bytecode ALU operation `a op b`. Bitwise
/// operations are only tracked for exact operands, an absorbing zero, and
/// the boolean range (the shapes codegen emits for `AND`/`OR`/`NOT`).
pub fn alu(op: AluOp, a: Interval, b: Interval) -> Interval {
    let in_bool = |iv: Interval| iv.lo >= 0 && iv.hi <= 1;
    let bitwise = |f: fn(i64, i64) -> i64| match (a.as_exact(), b.as_exact()) {
        (Some(x), Some(y)) => Interval::exact(f(x, y)),
        (Some(0), _) | (_, Some(0)) if op == AluOp::And => Interval::exact(0),
        _ if in_bool(a) && in_bool(b) => Interval::BOOL,
        _ => Interval::TOP,
    };
    match op {
        AluOp::Add => a.add(b),
        AluOp::Sub => a.sub(b),
        AluOp::Mul => a.mul(b),
        AluOp::Div => a.div(b),
        AluOp::Rem => a.rem(b),
        AluOp::And => bitwise(|x, y| x & y),
        AluOp::Or => bitwise(|x, y| x | y),
        AluOp::Xor => bitwise(|x, y| x ^ y),
    }
}

/// Evaluates the branch condition `lhs cond rhs` as three-valued truth.
pub fn eval_cond(cond: Cond, lhs: Interval, rhs: Interval) -> Tri {
    match cond {
        Cond::Eq => lhs.eq_ab(rhs),
        Cond::Ne => lhs.eq_ab(rhs).not(),
        Cond::Lt => lhs.lt(rhs),
        Cond::Le => lhs.le(rhs),
        Cond::Gt => rhs.lt(lhs),
        Cond::Ge => rhs.le(lhs),
    }
}

/// The condition that holds exactly when `cond` does not.
pub fn negate(cond: Cond) -> Cond {
    match cond {
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
        Cond::Lt => Cond::Ge,
        Cond::Le => Cond::Gt,
        Cond::Gt => Cond::Le,
        Cond::Ge => Cond::Lt,
    }
}

/// Refines `(lhs, rhs)` under the assumption that `lhs cond rhs` holds;
/// `None` exactly when [`eval_cond`] is [`Tri::False`], i.e. the edge is
/// infeasible.
pub fn assume(cond: Cond, lhs: Interval, rhs: Interval) -> Option<(Interval, Interval)> {
    match cond {
        Cond::Eq => lhs.assume_eq(rhs),
        Cond::Ne => lhs.assume_ne(rhs),
        Cond::Lt => lhs.assume_lt(rhs),
        Cond::Le => lhs.assume_le(rhs),
        Cond::Gt => rhs.assume_lt(lhs).map(|(b, a)| (a, b)),
        Cond::Ge => rhs.assume_le(lhs).map(|(b, a)| (a, b)),
    }
}

/// A set of `i64` values represented as normalized disjoint inclusive
/// ranges — the disjunctive extension of the plain interval domain used by
/// the property verifier (`super::props`) to solve guard satisfiability
/// over subflow identities.
///
/// Unlike `Interval`, an `IdSet` can have *holes* (`sbf.ID != 2`
/// excludes exactly one value), can be empty (an infeasible guard), and
/// supports exact complement/union/intersection, so conjunctions and
/// disjunctions of identity predicates solve precisely instead of
/// collapsing to `TOP`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdSet {
    /// Sorted, disjoint, non-adjacent inclusive ranges.
    ranges: Vec<(i64, i64)>,
}

impl IdSet {
    /// The empty set (no identity satisfies the guard).
    pub fn none() -> IdSet {
        IdSet { ranges: Vec::new() }
    }

    /// The universal set (every identity satisfies the guard).
    pub fn any() -> IdSet {
        IdSet {
            ranges: vec![(i64::MIN, i64::MAX)],
        }
    }

    /// The single identity `v`.
    pub fn singleton(v: i64) -> IdSet {
        IdSet {
            ranges: vec![(v, v)],
        }
    }

    /// The inclusive range `[lo, hi]`; empty when `lo > hi`.
    pub fn range(lo: i64, hi: i64) -> IdSet {
        if lo > hi {
            IdSet::none()
        } else {
            IdSet {
                ranges: vec![(lo, hi)],
            }
        }
    }

    /// True when no identity is in the set.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// True when every identity is in the set.
    pub fn is_any(&self) -> bool {
        self.ranges == [(i64::MIN, i64::MAX)]
    }

    /// Membership test.
    pub fn contains(&self, v: i64) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    /// Re-establishes the sorted/disjoint/non-adjacent invariant.
    fn normalize(mut ranges: Vec<(i64, i64)>) -> IdSet {
        ranges.retain(|&(lo, hi)| lo <= hi);
        ranges.sort_unstable();
        let mut out: Vec<(i64, i64)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match out.last_mut() {
                // Merge overlapping or adjacent ranges (hi + 1 == lo).
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => out.push((lo, hi)),
            }
        }
        IdSet { ranges: out }
    }

    /// Set union (`OR` of identity guards).
    pub fn union(&self, other: &IdSet) -> IdSet {
        let mut ranges = self.ranges.clone();
        ranges.extend_from_slice(&other.ranges);
        IdSet::normalize(ranges)
    }

    /// Set intersection (`AND` of identity guards).
    pub fn intersect(&self, other: &IdSet) -> IdSet {
        let mut out = Vec::new();
        for &(alo, ahi) in &self.ranges {
            for &(blo, bhi) in &other.ranges {
                let lo = alo.max(blo);
                let hi = ahi.min(bhi);
                if lo <= hi {
                    out.push((lo, hi));
                }
            }
        }
        IdSet::normalize(out)
    }

    /// Set complement (`NOT` of an identity guard).
    pub fn complement(&self) -> IdSet {
        let mut out = Vec::new();
        let mut next = i64::MIN;
        let mut exhausted = false;
        for &(lo, hi) in &self.ranges {
            if lo > next {
                out.push((next, lo - 1));
            }
            if hi == i64::MAX {
                exhausted = true;
                break;
            }
            next = hi + 1;
        }
        if !exhausted {
            out.push((next, i64::MAX));
        }
        IdSet { ranges: out }
    }

    /// The smallest value in `[0, limit)` *not* in the set — a concrete
    /// starved-identity witness under the verifier's subflow cap.
    pub fn excluded_below(&self, limit: i64) -> Option<i64> {
        (0..limit).find(|&v| !self.contains(v))
    }

    /// Compact human-readable form, e.g. `{0}`, `{0-2, 5}`, `all`, `none`.
    pub fn render(&self) -> String {
        if self.is_any() {
            return "all".into();
        }
        if self.is_empty() {
            return "none".into();
        }
        let parts: Vec<String> = self
            .ranges
            .iter()
            .map(|&(lo, hi)| {
                if lo == hi {
                    format!("{lo}")
                } else if lo == i64::MIN {
                    format!("<={hi}")
                } else if hi == i64::MAX {
                    format!(">={lo}")
                } else {
                    format!("{lo}-{hi}")
                }
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Whether a packet/subflow reference is `NULL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullability {
    /// Provably `NULL`.
    Null,
    /// Provably not `NULL`.
    NonNull,
    /// Either.
    MaybeNull,
}

impl Nullability {
    /// Least upper bound.
    pub fn join(self, other: Nullability) -> Nullability {
        if self == other {
            self
        } else {
            Nullability::MaybeNull
        }
    }
}

/// Whether a queue view holds any packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emptiness {
    /// Provably empty (stays empty: executions never add packets to views).
    Empty,
    /// Provably non-empty (invalidated by any `POP`/`DROP`).
    NonEmpty,
    /// Either.
    Unknown,
}

impl Emptiness {
    /// Least upper bound.
    pub fn join(self, other: Emptiness) -> Emptiness {
        if self == other {
            self
        } else {
            Emptiness::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_arithmetic_mirrors_wrapping() {
        assert_eq!(
            Interval::exact(i64::MAX).add(Interval::exact(1)),
            Interval::exact(i64::MIN)
        );
        assert_eq!(
            Interval::exact(i64::MIN).div(Interval::exact(-1)),
            Interval::exact(i64::MIN)
        );
        assert_eq!(
            Interval::exact(7).rem(Interval::exact(0)),
            Interval::exact(0)
        );
    }

    #[test]
    fn range_overflow_goes_to_top() {
        let near_max = Interval::new(i64::MAX - 1, i64::MAX);
        assert_eq!(near_max.add(Interval::new(0, 5)), Interval::TOP);
        assert_eq!(
            Interval::new(0, 10).add(Interval::new(1, 2)),
            Interval::new(1, 12)
        );
    }

    #[test]
    fn division_semantics() {
        assert_eq!(
            Interval::new(10, 100).div(Interval::new(2, 5)),
            Interval::new(2, 50)
        );
        // Divisor range containing zero mixes quotients with the 0 case.
        assert_eq!(
            Interval::new(10, 100).div(Interval::new(-1, 1)),
            Interval::TOP
        );
        assert_eq!(
            Interval::new(1, 5).rem(Interval::new(1, 10)),
            Interval::new(-9, 9)
        );
    }

    #[test]
    fn comparisons_and_refinement() {
        assert_eq!(Interval::new(0, 3).lt(Interval::new(5, 9)), Tri::True);
        assert_eq!(Interval::new(5, 9).lt(Interval::new(0, 3)), Tri::False);
        assert_eq!(Interval::new(0, 9).lt(Interval::new(3, 5)), Tri::Unknown);
        let (a, b) = Interval::new(0, 10).assume_lt(Interval::new(0, 5)).unwrap();
        assert_eq!(a, Interval::new(0, 4));
        assert_eq!(b, Interval::new(1, 5));
        assert!(Interval::exact(9).assume_lt(Interval::exact(3)).is_none());
        let (a, _) = Interval::new(0, 10).assume_ne(Interval::exact(0)).unwrap();
        assert_eq!(a, Interval::new(1, 10));
        assert!(Interval::exact(4).assume_ne(Interval::exact(4)).is_none());
    }

    #[test]
    fn branch_rules_agree_on_feasibility() {
        // Both bytecode lattices decide edge feasibility by `assume`
        // alone; that is only sound because it is infeasible exactly
        // when the condition is decided the other way.
        let ends = [i64::MIN, -2, 0, 1, 3, i64::MAX];
        let ivs: Vec<Interval> = ends
            .iter()
            .flat_map(|&lo| ends.iter().map(move |&hi| (lo, hi)))
            .filter(|(lo, hi)| lo <= hi)
            .map(|(lo, hi)| Interval::new(lo, hi))
            .collect();
        for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(negate(negate(cond)), cond);
            for &a in &ivs {
                for &b in &ivs {
                    let tri = eval_cond(cond, a, b);
                    assert_eq!(assume(cond, a, b).is_none(), tri == Tri::False);
                    assert_eq!(assume(negate(cond), a, b).is_none(), tri == Tri::True);
                }
            }
        }
    }

    #[test]
    fn alu_bitwise_table() {
        let wide = Interval::new(0, 9);
        assert_eq!(
            alu(AluOp::And, wide, Interval::exact(0)),
            Interval::exact(0)
        );
        assert_eq!(alu(AluOp::Or, wide, Interval::exact(0)), Interval::TOP);
        assert_eq!(
            alu(AluOp::Xor, Interval::BOOL, Interval::exact(1)),
            Interval::BOOL
        );
        assert_eq!(
            alu(AluOp::Or, Interval::exact(4), Interval::exact(1)),
            Interval::exact(5)
        );
        assert_eq!(
            alu(AluOp::Add, wide, Interval::exact(1)),
            Interval::new(1, 10)
        );
    }

    #[test]
    fn idset_algebra_is_exact() {
        let a = IdSet::range(0, 4);
        let b = IdSet::singleton(2).complement();
        let c = a.intersect(&b);
        assert!(c.contains(0) && c.contains(1) && c.contains(3) && c.contains(4));
        assert!(!c.contains(2));
        assert_eq!(c.render(), "{0-1, 3-4}");
        assert_eq!(c.excluded_below(8), Some(2));
        // Union heals the hole back to the original range.
        assert_eq!(c.union(&IdSet::singleton(2)), a);
        // Complement round-trips.
        assert_eq!(b.complement(), IdSet::singleton(2));
        assert!(IdSet::any().complement().is_empty());
        assert!(IdSet::none().complement().is_any());
        // Adjacent ranges merge under normalization.
        assert_eq!(
            IdSet::range(0, 1).union(&IdSet::range(2, 3)),
            IdSet::range(0, 3)
        );
        // Intersection with none is none; empty ranges are empty.
        assert!(a.intersect(&IdSet::none()).is_empty());
        assert!(IdSet::range(5, 3).is_empty());
        assert_eq!(IdSet::any().excluded_below(64), None);
    }

    #[test]
    fn idset_complement_at_extremes() {
        let low = IdSet::range(i64::MIN, 0);
        let c = low.complement();
        assert!(!c.contains(i64::MIN) && !c.contains(0));
        assert!(c.contains(1) && c.contains(i64::MAX));
        assert_eq!(c.complement(), low);
        let hi = IdSet::singleton(i64::MAX);
        assert!(hi.complement().contains(i64::MAX - 1));
        assert!(!hi.complement().contains(i64::MAX));
    }

    #[test]
    fn joins_meets_widen() {
        assert_eq!(
            Interval::new(0, 3).join(Interval::new(7, 9)),
            Interval::new(0, 9)
        );
        assert!(Interval::new(0, 3).meet(Interval::new(7, 9)).is_none());
        let w = Interval::new(0, 3).widen(Interval::new(0, 4));
        assert_eq!(w, Interval::new(0, i64::MAX));
        assert_eq!(
            Nullability::Null.join(Nullability::NonNull),
            Nullability::MaybeNull
        );
        assert_eq!(Emptiness::Empty.join(Emptiness::Empty), Emptiness::Empty);
    }
}

/// Randomized soundness checks for the interval transfer functions at the
/// `i64` boundary, where wrapping, saturation, and endpoint-overflow
/// widening interact: every concrete value drawn from the operand
/// intervals must land inside the abstract result, and refinement under a
/// satisfied guard must keep the satisfying pair.
#[cfg(test)]
mod boundary_props {
    use super::*;
    use proptest::prelude::*;

    /// `i64` values heavily biased toward the overflow-prone extremes.
    fn boundary_i64() -> BoxedStrategy<i64> {
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(i64::MIN + 2),
            Just(-2i64),
            Just(-1i64),
            Just(0i64),
            Just(1i64),
            Just(2i64),
            Just(i64::MAX - 2),
            Just(i64::MAX - 1),
            Just(i64::MAX),
            any::<i64>(),
        ]
        .boxed()
    }

    /// An interval together with one concrete member of it.
    fn interval_and_member() -> BoxedStrategy<(Interval, i64)> {
        (boundary_i64(), boundary_i64(), boundary_i64())
            .prop_map(|(a, b, m)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                (Interval::new(lo, hi), m.clamp(lo, hi))
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn add_sub_mul_are_sound_at_extremes(
            (a, x) in interval_and_member(),
            (b, y) in interval_and_member(),
        ) {
            prop_assert!(a.add(b).contains(x.wrapping_add(y)), "{a:?}+{b:?} vs {x}+{y}");
            prop_assert!(a.sub(b).contains(x.wrapping_sub(y)), "{a:?}-{b:?} vs {x}-{y}");
            prop_assert!(a.mul(b).contains(x.wrapping_mul(y)), "{a:?}*{b:?} vs {x}*{y}");
            prop_assert!(a.neg().contains(x.wrapping_neg()), "-{a:?} vs -{x}");
        }

        #[test]
        fn div_rem_are_sound_at_extremes(
            (a, x) in interval_and_member(),
            (b, y) in interval_and_member(),
        ) {
            // Runtime semantics: by-zero yields 0, i64::MIN / -1 wraps.
            let q = if y == 0 { 0 } else { x.wrapping_div(y) };
            let r = if y == 0 { 0 } else { x.wrapping_rem(y) };
            prop_assert!(a.div(b).contains(q), "{a:?}/{b:?} vs {x}/{y}");
            prop_assert!(a.rem(b).contains(r), "{a:?}%{b:?} vs {x}%{y}");
        }

        #[test]
        fn widening_is_an_upper_bound_that_pins_or_escapes(
            (a, _) in interval_and_member(),
            (b, _) in interval_and_member(),
        ) {
            let w = a.widen(b);
            prop_assert!(w.lo <= a.lo && w.hi >= a.hi, "covers self");
            prop_assert!(w.lo <= b.lo && w.hi >= b.hi, "covers next");
            // Termination: each widened bound is either self's bound
            // (unchanged) or jumped straight to infinity — a bound can
            // move at most once across the whole fixpoint.
            prop_assert!(w.lo == a.lo || w.lo == i64::MIN);
            prop_assert!(w.hi == a.hi || w.hi == i64::MAX);
        }

        #[test]
        fn guard_refinement_keeps_satisfying_pairs(
            (a, x) in interval_and_member(),
            (b, y) in interval_and_member(),
        ) {
            if x < y {
                let (ra, rb) = a.assume_lt(b).expect("x < y is witnessed");
                prop_assert!(ra.contains(x) && rb.contains(y), "lt {a:?} {b:?} {x} {y}");
            }
            if x <= y {
                let (ra, rb) = a.assume_le(b).expect("x <= y is witnessed");
                prop_assert!(ra.contains(x) && rb.contains(y), "le {a:?} {b:?} {x} {y}");
            }
            if x == y {
                let (ra, rb) = a.assume_eq(b).expect("x == y is witnessed");
                prop_assert!(ra.contains(x) && rb.contains(y), "eq {a:?} {b:?} {x} {y}");
            }
            if x != y {
                let (ra, rb) = a.assume_ne(b).expect("x != y is witnessed");
                prop_assert!(ra.contains(x) && rb.contains(y), "ne {a:?} {b:?} {x} {y}");
            }
        }

        #[test]
        fn idset_operations_agree_with_membership(
            (a_lo, a_hi) in (boundary_i64(), boundary_i64()),
            v in boundary_i64(),
            probe in boundary_i64(),
        ) {
            let (lo, hi) = if a_lo <= a_hi { (a_lo, a_hi) } else { (a_hi, a_lo) };
            let a = IdSet::range(lo, hi);
            let b = IdSet::singleton(v).complement();
            for p in [probe, lo, hi, v] {
                prop_assert_eq!(
                    a.union(&b).contains(p),
                    a.contains(p) || b.contains(p)
                );
                prop_assert_eq!(
                    a.intersect(&b).contains(p),
                    a.contains(p) && b.contains(p)
                );
                prop_assert_eq!(a.complement().contains(p), !a.contains(p));
            }
        }
    }
}
