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
/// ranges — the relational extension of the plain interval domain used by
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

/// Absent-constraint sentinel for [`Octagon`] bounds (`+∞`).
const OCT_INF: i64 = i64::MAX;

/// Adds two DBM bounds with `+∞` absorbing. Finite sums saturate, which
/// stays sound in both directions: saturating high lands on `OCT_INF`
/// (the constraint is dropped), saturating low rounds an upper bound *up*
/// toward the representable range (a weaker constraint than the real
/// path sum implies).
fn oct_add(a: i64, b: i64) -> i64 {
    if a == OCT_INF || b == OCT_INF {
        OCT_INF
    } else {
        a.saturating_add(b)
    }
}

/// An octagon abstract element: conjunctions of `±x ± y ≤ c` constraints
/// over `n` integer variables, stored as a difference-bound matrix in
/// Miné's encoding — variable `k` contributes the positive form `V_2k =
/// +v_k` and the negative form `V_2k+1 = -v_k`, and entry `m[i][j]`
/// bounds `V_j - V_i`. Unary bounds ride along as `v ≤ c ⇔ 2v ≤ 2c`.
///
/// The element is the relational half of the verifier's reduced product:
/// intervals are recovered from it by [`Octagon::project`] and every
/// non-relational consumer keeps reading plain [`Interval`]s. All
/// operations saturate at the `i64` rim (see [`oct_add`]) so constraints
/// near `Interval::TOP`'s endpoints degrade to "unconstrained" instead of
/// wrapping.
///
/// Every operation except [`Octagon::widen`] leaves the matrix strongly
/// closed; widening must not close its result or termination breaks, so
/// equality comparison re-closes clones (strong closure is a normal form
/// for non-empty octagons).
#[derive(Debug, Clone)]
pub struct Octagon {
    /// Number of program variables (the matrix is `2n × 2n`).
    n: usize,
    /// Row-major bound matrix; `m[i * 2n + j]` bounds `V_j - V_i`.
    m: Vec<i64>,
    /// True once a negative cycle proved the constraint system empty.
    bottom: bool,
    /// True while the matrix is known strongly closed (perf only).
    closed: bool,
}

impl Octagon {
    /// The unconstrained octagon over `n` variables.
    pub fn top(n: usize) -> Octagon {
        let d = 2 * n;
        let mut m = vec![OCT_INF; d * d];
        for i in 0..d {
            m[i * d + i] = 0;
        }
        Octagon {
            n,
            m,
            bottom: false,
            closed: true,
        }
    }

    /// The empty octagon over `n` variables. Analysis states reach `⊥`
    /// through [`Octagon::close`] instead, so this constructor is
    /// exercised by the lattice test suite only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bottom(n: usize) -> Octagon {
        let mut o = Octagon::top(n);
        o.bottom = true;
        o
    }

    /// True when no valuation satisfies the constraints.
    pub fn is_bottom(&self) -> bool {
        self.bottom
    }

    /// Number of tracked variables.
    pub fn dim(&self) -> usize {
        self.n
    }

    fn d(&self) -> usize {
        2 * self.n
    }

    fn get(&self, i: usize, j: usize) -> i64 {
        self.m[i * self.d() + j]
    }

    fn tighten(&mut self, i: usize, j: usize, c: i64) {
        let d = self.d();
        if c < self.m[i * d + j] {
            self.m[i * d + j] = c;
            self.closed = false;
        }
    }

    /// Records `v_a - v_b ≤ c` (with its coherent mirror). No closure.
    pub fn add_diff_le(&mut self, a: usize, b: usize, c: i64) {
        if a == b {
            if c < 0 {
                self.bottom = true;
            }
            return;
        }
        self.tighten(2 * b, 2 * a, c);
        self.tighten(2 * a + 1, 2 * b + 1, c);
    }

    /// Intersects variable `k` with `iv` (unary bounds; skipped at the
    /// rim where doubling would overflow). No closure.
    pub fn clamp(&mut self, k: usize, iv: Interval) {
        if let Some(two_hi) = iv.hi.checked_mul(2) {
            self.tighten(2 * k + 1, 2 * k, two_hi);
        }
        if let Some(neg_two_lo) = iv.lo.checked_mul(-2) {
            self.tighten(2 * k, 2 * k + 1, neg_two_lo);
        }
    }

    /// The interval implied for variable `k`; `None` when the bounds are
    /// contradictory (callers should treat the state as unreachable).
    /// Precise on strongly-closed matrices, sound on any matrix.
    pub fn project(&self, k: usize) -> Option<Interval> {
        if self.bottom {
            return None;
        }
        let up = self.get(2 * k + 1, 2 * k); // 2v ≤ c
        let dn = self.get(2 * k, 2 * k + 1); // -2v ≤ c
        let hi = if up == OCT_INF {
            i64::MAX
        } else {
            up.div_euclid(2)
        };
        let lo = if dn == OCT_INF {
            i64::MIN
        } else {
            dn.div_euclid(2).checked_neg()?
        };
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Drops every constraint mentioning variable `k` (closure is
    /// restored first so facts implied *through* `k` survive).
    pub fn forget(&mut self, k: usize) {
        if self.bottom {
            return;
        }
        self.close();
        let d = self.d();
        for row in [2 * k, 2 * k + 1] {
            for j in 0..d {
                self.m[row * d + j] = OCT_INF;
                self.m[j * d + row] = OCT_INF;
            }
            self.m[row * d + row] = 0;
        }
        // Removing rows/columns from a closed matrix keeps it closed.
        self.closed = true;
    }

    /// `v_k := c` (exact constant assignment). The caller closes. The
    /// analyzer's assignment transfer inlines this as forget + clamp
    /// with the evaluated interval, so this is test-suite surface.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn assign_const(&mut self, k: usize, c: i64) {
        self.forget(k);
        self.clamp(k, Interval::exact(c));
    }

    /// `v_dest := v_src + c` where the caller has proved the concrete
    /// (wrapping) addition cannot overflow. `dest == src` shifts in
    /// place; otherwise the old `dest` constraints are forgotten. The
    /// caller closes.
    pub fn assign_offset(&mut self, dest: usize, src: usize, c: i64) {
        if self.bottom {
            return;
        }
        if dest == src {
            self.shift(dest, c);
            return;
        }
        self.forget(dest);
        self.add_diff_le(dest, src, c);
        if let Some(neg) = c.checked_neg() {
            self.add_diff_le(src, dest, neg);
        }
    }

    /// `v_k := v_k + c` (no-overflow proved by the caller): bounds
    /// through `+v_k` rise by `c`, bounds through `-v_k` fall by `c`.
    /// Adjusted bounds are computed exactly in `i128`; where the result
    /// leaves the representable range it is weakened (dropped to `+∞`
    /// above, pinned to `i64::MIN` below — both are `≥` the true bound,
    /// so upper-bound semantics stay sound).
    fn shift(&mut self, k: usize, c: i64) {
        let d = self.d();
        let (pos, neg) = (2 * k, 2 * k + 1);
        let c = c as i128;
        let mut saturated = false;
        let mut adjust = |m: &mut Vec<i64>, i: usize, j: usize, delta: i128| {
            let v = m[i * d + j];
            if v == OCT_INF {
                return;
            }
            let s = v as i128 + delta;
            m[i * d + j] = if s >= OCT_INF as i128 {
                saturated = true;
                OCT_INF
            } else if s < i64::MIN as i128 {
                saturated = true;
                i64::MIN
            } else {
                s as i64
            };
        };
        for j in 0..d {
            if j == pos || j == neg {
                continue;
            }
            // m[pos][j] bounds V_j - v_k: after the shift it loosens by -c.
            adjust(&mut self.m, pos, j, -c);
            adjust(&mut self.m, j, pos, c);
            adjust(&mut self.m, neg, j, c);
            adjust(&mut self.m, j, neg, -c);
        }
        adjust(&mut self.m, neg, pos, 2 * c);
        adjust(&mut self.m, pos, neg, -2 * c);
        // An exact uniform shift of one variable preserves strong
        // closure; weakened entries may leave slack for re-closing.
        if saturated {
            self.closed = false;
        }
    }

    /// Strong closure: Floyd–Warshall shortest paths, integer tightening
    /// of unary bounds, then the octagonal strengthening step
    /// `m[i][j] ← min(m[i][j], (m[i][ī] + m[j̄][j]) / 2)`. Detects
    /// emptiness via negative diagonals (including the unary parity
    /// case).
    pub fn close(&mut self) {
        if self.bottom || self.closed {
            return;
        }
        let d = self.d();
        for k in 0..d {
            for i in 0..d {
                let ik = self.m[i * d + k];
                if ik == OCT_INF {
                    continue;
                }
                for j in 0..d {
                    let kj = self.m[k * d + j];
                    if kj == OCT_INF {
                        continue;
                    }
                    let sum = oct_add(ik, kj);
                    if sum < self.m[i * d + j] {
                        self.m[i * d + j] = sum;
                    }
                }
            }
        }
        // Integer tightening: 2v ≤ c ⇒ 2v ≤ 2⌊c/2⌋.
        for i in 0..d {
            let b = self.m[i * d + (i ^ 1)];
            if b != OCT_INF {
                self.m[i * d + (i ^ 1)] = b.div_euclid(2).saturating_mul(2);
            }
        }
        // Strengthening: combine the two unary chains through i and j.
        for i in 0..d {
            let a = self.m[i * d + (i ^ 1)];
            if a == OCT_INF {
                continue;
            }
            for j in 0..d {
                let b = self.m[(j ^ 1) * d + j];
                if b == OCT_INF {
                    continue;
                }
                let half = oct_add(a, b);
                let half = if half == OCT_INF {
                    OCT_INF
                } else {
                    half.div_euclid(2)
                };
                if half < self.m[i * d + j] {
                    self.m[i * d + j] = half;
                }
            }
        }
        for i in 0..d {
            if self.m[i * d + i] < 0
                || oct_add(self.m[i * d + (i ^ 1)], self.m[(i ^ 1) * d + i]) < 0
            {
                self.bottom = true;
                return;
            }
        }
        self.closed = true;
    }

    /// Least upper bound (pointwise max of strongly-closed matrices,
    /// which is itself strongly closed).
    pub fn join(&self, other: &Octagon) -> Octagon {
        debug_assert_eq!(self.n, other.n);
        if self.bottom {
            return other.clone();
        }
        if other.bottom {
            return self.clone();
        }
        let mut a = self.clone();
        a.close();
        let mut b = other.clone();
        b.close();
        if a.bottom {
            return b;
        }
        if b.bottom {
            return a;
        }
        for (x, y) in a.m.iter_mut().zip(&b.m) {
            *x = (*x).max(*y);
        }
        a.closed = true;
        a
    }

    /// Greatest lower bound (pointwise min, then closure). The reduced
    /// product refines through [`Octagon::clamp`] + [`Octagon::close`]
    /// instead, so this is exercised by the lattice test suite only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn meet(&self, other: &Octagon) -> Octagon {
        debug_assert_eq!(self.n, other.n);
        if self.bottom || other.bottom {
            let mut o = self.clone();
            o.bottom = true;
            return o;
        }
        let mut out = self.clone();
        for (x, y) in out.m.iter_mut().zip(&other.m) {
            *x = (*x).min(*y);
        }
        out.closed = false;
        out.close();
        out
    }

    /// Standard octagon widening: every bound `next` fails to keep is
    /// dropped to `+∞`. The result is deliberately *not* closed —
    /// closing a widened matrix can resurrect dropped bounds and break
    /// termination. Each entry either stays or jumps to `+∞`, so a
    /// widening chain stabilizes after finitely many steps.
    pub fn widen(&self, next: &Octagon) -> Octagon {
        debug_assert_eq!(self.n, next.n);
        if self.bottom {
            return next.clone();
        }
        if next.bottom {
            return self.clone();
        }
        let mut out = self.clone();
        for (x, y) in out.m.iter_mut().zip(&next.m) {
            if *y > *x {
                *x = OCT_INF;
            }
        }
        out.closed = false;
        out
    }
}

/// Semantic equality: strong closure is a normal form for non-empty
/// octagons, so clones are closed before the matrices are compared.
impl PartialEq for Octagon {
    fn eq(&self, other: &Octagon) -> bool {
        if self.n != other.n {
            return false;
        }
        let mut a = self.clone();
        a.close();
        let mut b = other.clone();
        b.close();
        if a.bottom || b.bottom {
            return a.bottom == b.bottom;
        }
        a.m == b.m
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
    pub(super) fn boundary_i64() -> BoxedStrategy<i64> {
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
    pub(super) fn interval_and_member() -> BoxedStrategy<(Interval, i64)> {
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

/// Unit tests for the octagon element, mirroring the interval-domain
/// boundary tests: saturation at `Interval`'s endpoints, `⊥` propagation
/// through the lattice operations, and widening termination on a loop
/// that diverges concretely.
#[cfg(test)]
mod octagon_tests {
    use super::*;

    #[test]
    fn oct_add_saturates_and_absorbs_infinity() {
        assert_eq!(oct_add(OCT_INF, -5), OCT_INF);
        assert_eq!(oct_add(-5, OCT_INF), OCT_INF);
        assert_eq!(oct_add(OCT_INF, OCT_INF), OCT_INF);
        // A finite sum that saturates upward collides with the marker:
        // the constraint is simply dropped, which is the sound direction.
        assert_eq!(oct_add(i64::MAX - 1, i64::MAX - 1), OCT_INF);
        // Downward saturation rounds an upper bound *up*, also sound.
        assert_eq!(oct_add(i64::MIN + 1, -2), i64::MIN);
    }

    #[test]
    fn clamp_skips_doubling_overflow_at_interval_bounds() {
        // Unary bounds are stored doubled; at the rim the doubling would
        // overflow, so the constraint is dropped (sound: weaker) rather
        // than wrapped (unsound).
        let mut o = Octagon::top(2);
        o.clamp(0, Interval::new(i64::MIN, i64::MAX - 1));
        o.close();
        assert_eq!(o.project(0), Some(Interval::TOP));
        // Away from the rim the round trip is exact.
        let mut p = Octagon::top(2);
        p.clamp(1, Interval::new(-3, 7));
        p.close();
        assert_eq!(p.project(1), Some(Interval::new(-3, 7)));
    }

    #[test]
    fn shift_saturates_instead_of_wrapping() {
        // v0 = 1, then v0 := v0 + (i64::MAX - 1): the doubled unary bound
        // saturates below OCT_INF and the projection stays an
        // overapproximation instead of wrapping negative.
        let mut o = Octagon::top(1);
        o.assign_const(0, 1);
        o.close();
        o.assign_offset(0, 0, i64::MAX - 1);
        o.close();
        assert!(!o.is_bottom());
        let iv = o.project(0).expect("still satisfiable");
        assert!(iv.contains(i64::MAX), "{iv:?} must cover the true value");
    }

    #[test]
    fn contradictory_constraints_collapse_to_bottom() {
        // a < b and b < a cannot both hold.
        let mut o = Octagon::top(2);
        o.add_diff_le(0, 1, -1);
        o.add_diff_le(1, 0, -1);
        o.close();
        assert!(o.is_bottom());
        assert_eq!(o.project(0), None);
        // Unary parity emptiness: 2v ≤ 1 tightens to v ≤ 0 while
        // -2v ≤ -1 demands v ≥ 1 — no integer satisfies both.
        let mut p = Octagon::top(1);
        p.tighten(1, 0, 1);
        p.tighten(0, 1, -1);
        p.close();
        assert!(p.is_bottom(), "no integer lies in [0.5, 0.5]");
        // Self-difference with a negative bound is immediately empty.
        let mut s = Octagon::top(1);
        s.add_diff_le(0, 0, -1);
        assert!(s.is_bottom());
    }

    #[test]
    fn bottom_propagates_through_lattice_operations() {
        let bot = Octagon::bottom(2);
        assert!(bot.is_bottom());
        let mut top = Octagon::top(2);
        top.clamp(0, Interval::new(0, 9));
        top.close();
        // ⊥ is the identity of join and absorbing for meet.
        assert_eq!(top.join(&bot), top);
        assert_eq!(bot.join(&top), top);
        assert!(top.meet(&bot).is_bottom());
        assert!(bot.meet(&top).is_bottom());
        // Widening from ⊥ jumps to the next state; into ⊥ keeps self.
        assert_eq!(bot.widen(&top), top);
        assert_eq!(top.widen(&bot), top);
        // forget and assign_const keep ⊥ empty.
        let mut b = Octagon::bottom(2);
        b.forget(0);
        assert!(b.is_bottom());
        let mut c = Octagon::bottom(2);
        c.assign_const(0, 3);
        assert!(c.is_bottom());
    }

    #[test]
    fn meet_recovers_relations_join_loses_them_soundly() {
        // x ∈ [0, 10] meets x ∈ [5, 20] at [5, 10].
        let mut a = Octagon::top(2);
        a.clamp(0, Interval::new(0, 10));
        a.close();
        let mut b = Octagon::top(2);
        b.clamp(0, Interval::new(5, 20));
        b.close();
        assert_eq!(a.meet(&b).project(0), Some(Interval::new(5, 10)));
        // Disjoint boxes meet at ⊥.
        let mut c = Octagon::top(2);
        c.clamp(0, Interval::new(50, 60));
        c.close();
        assert!(a.meet(&c).is_bottom());
        // Join covers both operands.
        let j = a.join(&c);
        assert_eq!(j.project(0), Some(Interval::new(0, 60)));
    }

    #[test]
    fn relational_assume_refines_both_operands() {
        // a ∈ [0, 10], b ∈ [0, 5], a < b: closure narrows both sides
        // exactly as the interval guard refinement does.
        let mut o = Octagon::top(2);
        o.clamp(0, Interval::new(0, 10));
        o.clamp(1, Interval::new(0, 5));
        o.add_diff_le(0, 1, -1);
        o.close();
        assert_eq!(o.project(0), Some(Interval::new(0, 4)));
        assert_eq!(o.project(1), Some(Interval::new(1, 5)));
    }

    #[test]
    fn closure_is_transitive_across_variables() {
        // a < b, b < c, c ≤ 10 ⇒ a ≤ 8 — the fact the pure interval
        // domain cannot see and the reason the octagon exists.
        let mut o = Octagon::top(3);
        o.clamp(2, Interval::new(i64::MIN, 10));
        o.add_diff_le(0, 1, -1);
        o.add_diff_le(1, 2, -1);
        o.close();
        assert_eq!(o.project(0).expect("satisfiable").hi, 8);
        assert_eq!(o.project(1).expect("satisfiable").hi, 9);
    }

    #[test]
    fn assign_const_and_offset_track_exact_values() {
        let mut o = Octagon::top(2);
        o.assign_const(0, 7);
        o.close();
        o.assign_offset(1, 0, 3);
        o.close();
        assert_eq!(o.project(0), Some(Interval::exact(7)));
        assert_eq!(o.project(1), Some(Interval::exact(10)));
        // The difference constraint v1 - v0 = 3 survives forgetting
        // nothing and feeds back through closure after re-clamping v0.
        o.clamp(0, Interval::new(0, 5));
        o.close();
        assert!(o.is_bottom(), "v0 = 7 contradicts v0 ≤ 5");
    }

    #[test]
    fn widening_terminates_on_a_diverging_loop() {
        // Crafted diverging loop: every variable starts at 0 and is
        // incremented each iteration, so the concrete chain never
        // stabilizes. The widening chain must.
        let n = 3;
        let mut state = Octagon::top(n);
        for k in 0..n {
            state.clamp(k, Interval::exact(0));
        }
        state.close();
        let entries = (2 * n * 2 * n) as u32;
        let mut steps = 0u32;
        loop {
            let mut body = state.clone();
            for k in 0..n {
                body.assign_offset(k, k, 1);
            }
            body.close();
            let widened = state.widen(&body);
            if widened == state {
                break;
            }
            state = widened;
            steps += 1;
            // Each matrix entry either keeps its value or jumps to +∞
            // exactly once, so the chain length is bounded by the entry
            // count; anything longer means widening resurrected a bound.
            assert!(steps <= entries, "widening chain failed to stabilize");
        }
        // The fixpoint keeps the stable facts (v ≥ 0 and the pairwise
        // equalities, since all variables move in lockstep) and drops
        // only the diverging upper bounds.
        let iv = state.project(0).expect("satisfiable");
        assert_eq!(iv.lo, 0);
        assert_eq!(iv.hi, i64::MAX);
        let mut probe = state.clone();
        probe.add_diff_le(0, 1, -1); // v0 < v1 contradicts v0 = v1
        probe.close();
        assert!(probe.is_bottom(), "lockstep equality must survive widening");
    }
}

/// Randomized soundness and precision checks for the octagon, sharing
/// the extreme-biased generators with the interval boundary tests: a
/// concrete valuation that satisfies every recorded constraint must stay
/// inside every projection, and away from the saturation rim the
/// relational guard must be at least as tight as the interval one.
#[cfg(test)]
mod octagon_props {
    use super::boundary_props::interval_and_member;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn octagon_projection_is_sound_at_extremes(
            (a, x) in interval_and_member(),
            (b, y) in interval_and_member(),
        ) {
            let mut o = Octagon::top(2);
            o.clamp(0, a);
            o.clamp(1, b);
            if x < y {
                o.add_diff_le(0, 1, -1);
            }
            o.close();
            // (x, y) satisfies every constraint fed in, so the octagon
            // must stay non-empty and each projection must contain its
            // coordinate even where clamping saturated.
            prop_assert!(!o.is_bottom(), "{a:?} {b:?} {x} {y}");
            prop_assert!(o.project(0).expect("non-empty").contains(x));
            prop_assert!(o.project(1).expect("non-empty").contains(y));
        }

        #[test]
        fn octagon_guard_is_at_least_as_tight_as_intervals(
            (al, ah) in (-10_000i64..10_000, -10_000i64..10_000),
            (bl, bh) in (-10_000i64..10_000, -10_000i64..10_000),
        ) {
            // Away from the rim nothing saturates, so the projected
            // octagon after `a < b` must refute at least everything the
            // interval refinement refutes (this is the domain-level core
            // of the precision-regression tier).
            let a = Interval::new(al.min(ah), al.max(ah));
            let b = Interval::new(bl.min(bh), bl.max(bh));
            if let Some((ra, rb)) = a.assume_lt(b) {
                let mut o = Octagon::top(2);
                o.clamp(0, a);
                o.clamp(1, b);
                o.add_diff_le(0, 1, -1);
                o.close();
                prop_assert!(!o.is_bottom(), "{a:?} < {b:?} is satisfiable");
                let pa = o.project(0).expect("non-empty");
                let pb = o.project(1).expect("non-empty");
                prop_assert!(
                    ra.lo <= pa.lo && pa.hi <= ra.hi,
                    "lhs {pa:?} wider than interval {ra:?}"
                );
                prop_assert!(
                    rb.lo <= pb.lo && pb.hi <= rb.hi,
                    "rhs {pb:?} wider than interval {rb:?}"
                );
            }
        }

        #[test]
        fn octagon_join_and_widen_cover_both_arguments(
            (a, x) in interval_and_member(),
            (b, y) in interval_and_member(),
        ) {
            let mut oa = Octagon::top(1);
            oa.clamp(0, a);
            oa.close();
            let mut ob = Octagon::top(1);
            ob.clamp(0, b);
            ob.close();
            let j = oa.join(&ob);
            let w = oa.widen(&ob);
            for v in [x, y] {
                prop_assert!(j.project(0).expect("non-empty").contains(v));
                prop_assert!(w.project(0).expect("non-empty").contains(v));
            }
            // Meet keeps every shared member (it may keep more where
            // clamping saturated at the rim, which is the sound side).
            let m = oa.meet(&ob);
            if a.contains(x) && b.contains(x) {
                prop_assert!(!m.is_bottom());
                prop_assert!(m.project(0).expect("non-empty").contains(x));
            }
        }
    }
}
