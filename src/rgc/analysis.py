"""Storage-bandwidth tradeoff bounds and asymptotic exponent analysis.

All tradeoff quantities are exact rationals: per-disk storage and data
size are normalized by the per-helper repair transfer, giving points
(alpha_bar, M_bar) comparable across codes.  Floating point appears
only when converting exact rationals to log-scale exponents for output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import construction
from .designs import BlockDesign, closed_form_Tc, is_complete_design


class ParameterRegimeWarning(UserWarning):
    """The requested block size is outside the regime where the point
    can beat time-sharing."""


@dataclass(frozen=True)
class TradeoffPoint:
    """One (alpha_bar, M_bar) operating point, exact."""

    alpha_bar: Fraction
    M_bar: Fraction
    provenance: str  # constructed | bound | timesharing


def _validate_nkd(n: int, k: int, d: int) -> None:
    if not 1 <= k <= d <= n - 1:
        raise ValueError(f"need 1 <= k <= d <= n-1, got "
                         f"(n,k,d)=({n},{k},{d})")


def cutset_max_M(n: int, k: int, d: int, alpha_bar) -> Fraction:
    """Largest data size allowed by the repair cut-set bound:
    sum_{i<k} min(alpha_bar, d-i)."""
    _validate_nkd(n, k, d)
    ab = Fraction(alpha_bar)
    if ab < 0:
        raise ValueError("alpha_bar must be nonnegative")
    return sum((min(ab, Fraction(d - i)) for i in range(k)),
               start=Fraction(0))


def msr_mbr_points(n: int, k: int, d: int) -> tuple[TradeoffPoint,
                                                    TradeoffPoint]:
    """The two extreme cut-set points: minimum storage and minimum
    bandwidth."""
    _validate_nkd(n, k, d)
    msr = TradeoffPoint(alpha_bar=Fraction(d - k + 1),
                        M_bar=Fraction(k * (d - k + 1)),
                        provenance="bound")
    mbr = TradeoffPoint(alpha_bar=Fraction(d),
                        M_bar=Fraction(k * (2 * d - k + 1), 2),
                        provenance="bound")
    return msr, mbr


def timesharing_M(n: int, k: int, d: int, alpha_bar) -> Fraction:
    """Data size on the time-sharing line between the MSR and MBR
    points, at a given alpha_bar inside the segment."""
    msr, mbr = msr_mbr_points(n, k, d)
    ab = Fraction(alpha_bar)
    if not msr.alpha_bar <= ab <= mbr.alpha_bar:
        raise ValueError(
            f"alpha_bar = {ab} outside the time-sharing segment "
            f"[{msr.alpha_bar}, {mbr.alpha_bar}]")
    if msr.alpha_bar == mbr.alpha_bar:
        return msr.M_bar
    slope = (mbr.M_bar - msr.M_bar) / (mbr.alpha_bar - msr.alpha_bar)
    return msr.M_bar + (ab - msr.alpha_bar) * slope


def regime_threshold(n: int, k: int, d: int) -> Fraction:
    """Block sizes above this leave the time-sharing segment."""
    return Fraction(n - d) + Fraction(d, d - k + 1)


def complete_tradeoff_point(n: int, k: int, d: int,
                            r: int) -> TradeoffPoint:
    """Exact (alpha_bar, M_bar) of the complete-design code with block
    size r; warns when r is too large to beat time-sharing."""
    _validate_nkd(n, k, d)
    t = n - d + 1
    if not t <= r <= n:
        raise ValueError(f"block size r = {r} outside the admissible "
                         f"range {t}..{n}")
    if r > regime_threshold(n, k, d):
        warnings.warn(
            f"r = {r} exceeds (n-d) + d/(d-k+1) = "
            f"{regime_threshold(n, k, d)}; the point falls below the "
            f"minimum-storage regime", ParameterRegimeWarning,
            stacklevel=2)
    m = r - t + 1
    tc = closed_form_Tc(n, k, r, t)
    alpha_bar = Fraction(d, m)
    m_bar = Fraction(n * d, r) - Fraction(d * tc, m * comb(n - 1, r - 1))
    if m_bar <= 0:
        raise ValueError(f"(n,k,d,r)=({n},{k},{d},{r}) gives a "
                         f"nonpositive data size {m_bar}")
    return TradeoffPoint(alpha_bar=alpha_bar, M_bar=m_bar,
                         provenance="constructed")


@dataclass(frozen=True)
class TradeoffRow:
    """One sweep row: a point plus its bound context.  r is None for
    the time-sharing endpoint rows."""

    n: int
    k: int
    d: int
    r: int | None
    point: TradeoffPoint
    cutset_M: Fraction
    timesharing_M: Fraction | None
    above_timesharing: bool


def _row(n, k, d, r, point) -> TradeoffRow:
    msr, mbr = msr_mbr_points(n, k, d)
    if msr.alpha_bar <= point.alpha_bar <= mbr.alpha_bar:
        ts = timesharing_M(n, k, d, point.alpha_bar)
    else:
        ts = None
    return TradeoffRow(
        n=n, k=k, d=d, r=r, point=point,
        cutset_M=cutset_max_M(n, k, d, point.alpha_bar),
        timesharing_M=ts,
        above_timesharing=ts is not None and point.M_bar > ts)


def sweep_tradeoff(n: int, k: int, d: int) -> tuple[TradeoffRow, ...]:
    """Complete-design points for every admissible block size, plus the
    two time-sharing endpoints."""
    _validate_nkd(n, k, d)
    rows = []
    with warnings.catch_warnings():
        # sweep rows carry the regime in their columns instead
        warnings.simplefilter("ignore", ParameterRegimeWarning)
        for r in range(n - d + 1, n + 1):
            rows.append(_row(n, k, d, r, complete_tradeoff_point(n, k, d,
                                                                 r)))
    msr, mbr = msr_mbr_points(n, k, d)
    for pt in (msr, mbr):
        rows.append(_row(n, k, d, None,
                         TradeoffPoint(alpha_bar=pt.alpha_bar,
                                       M_bar=pt.M_bar,
                                       provenance="timesharing")))
    return tuple(rows)


def realized_point(params) -> TradeoffPoint:
    """Normalized point actually achieved by a built code: storage and
    data divided by the per-helper transfer gamma/d."""
    alpha_bar = Fraction(params.alpha * params.d, params.gamma)
    m_bar = Fraction(params.M * params.d, params.gamma)
    return TradeoffPoint(alpha_bar=alpha_bar, M_bar=m_bar,
                         provenance="constructed")


@dataclass(frozen=True)
class CompareReport:
    """Normalized comparison of a design code against the complete-
    design benchmark at the same (n, r, t)."""

    n: int
    r: int
    t: int
    k: int
    alpha_bar: Fraction
    M_bar_design: Fraction
    M_bar_complete: Fraction
    T_design: int
    T_complete: int
    equal: bool
    deficit_uniform: bool


def compare_designs(d1: BlockDesign, d2: BlockDesign,
                    k: int) -> CompareReport:
    """Compare a design code to the complete-design code.

    The benchmark is never worse; equality holds exactly when the first
    design's deficit is the same for every erasure set.
    """
    if (d1.n, d1.r, d1.t) != (d2.n, d2.r, d2.t):
        raise ValueError(
            f"designs must share (n, r, t); got ({d1.n},{d1.r},{d1.t}) "
            f"vs ({d2.n},{d2.r},{d2.t})")
    if not is_complete_design(d2):
        raise ValueError("the second design must be the complete design")
    n, r, t = d1.n, d1.r, d1.t
    d = n - t + 1
    _validate_nkd(n, k, d)
    m = r - t + 1
    t1 = construction.compute_T(d1, k)
    t2 = construction.compute_T(d2, k)
    alpha_bar = Fraction(d, m)

    def m_bar(design, tval):
        return Fraction(d * (m * design.num_blocks - tval),
                        m * design.replication)

    mb1, mb2 = m_bar(d1, t1), m_bar(d2, t2)
    if mb1 > mb2:
        raise RuntimeError(
            f"design point {mb1} exceeds the complete-design benchmark "
            f"{mb2}; this contradicts the averaging bound")
    # uniform exactly when the smallest deficit reaches the worst case
    uniform = min(construction.erasure_deficits(d1, k)) == t1
    return CompareReport(n=n, r=r, t=t, k=k, alpha_bar=alpha_bar,
                         M_bar_design=mb1, M_bar_complete=mb2,
                         T_design=t1, T_complete=t2,
                         equal=mb1 == mb2, deficit_uniform=uniform)


def integer_root(x: int, s: int) -> int:
    """Largest y with y**s <= x, exact for any size."""
    if x < 0 or s < 1:
        raise ValueError("need x >= 0 and s >= 1")
    if s == 1 or x < 2:
        return x
    y = 1 << ((x.bit_length() + s - 1) // s)
    while True:
        z = ((s - 1) * y + x // y ** (s - 1)) // s
        if z >= y:
            break
        y = z
    while y ** s > x:
        y -= 1
    while (y + 1) ** s <= x:
        y += 1
    return y


def ceil_rational_power(n: int, epsilon) -> int:
    """ceil(n**epsilon) computed exactly from integer roots."""
    eps = Fraction(epsilon)
    if n < 1 or eps < 0:
        raise ValueError("need n >= 1 and epsilon >= 0")
    p, s = eps.numerator, eps.denominator
    np_ = n ** p
    root = integer_root(np_, s)
    return root if root ** s == np_ else root + 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _alg_sign(a2: Fraction, a1: Fraction, a0: Fraction, n: int, p: int,
              s: int) -> int:
    """Exact sign of a2*c^2 + a1*c + a0 at c = n**(p/s), gcd(p,s)=1.

    Rational c and rational c^2 are handled closed-form; otherwise c has
    algebraic degree >= 3, no rational-coefficient quadratic vanishes at
    it, and interval refinement around c settles the sign.
    """
    np_ = n ** p
    root = integer_root(np_, s)
    if root ** s == np_:
        c = Fraction(root)
        return _sign(a2 * c * c + a1 * c + a0)
    sq = np_ * np_
    root2 = integer_root(sq, s)
    if root2 ** s == sq:
        # c^2 is the integer root2 while c itself is irrational
        lin = a2 * root2 + a0
        if a1 == 0:
            return _sign(lin)
        if lin == 0 or (lin > 0) == (a1 > 0):
            return _sign(a1) if lin == 0 else _sign(lin)
        if lin * lin == a1 * a1 * root2:
            raise RuntimeError("algebraic degeneracy: irrational c "
                               "satisfied a rational relation")
        return _sign(lin) if lin * lin > a1 * a1 * root2 else _sign(a1)
    if a2 == 0 and a1 == 0:
        return _sign(a0)
    for digits in range(1, 200):
        scale = 10 ** digits
        lo = Fraction(integer_root(np_ * scale ** s, s), scale)
        hi = lo + Fraction(1, scale)
        v_lo = a2 * lo * lo + a1 * lo + a0
        v_hi = a2 * hi * hi + a1 * hi + a0
        if v_lo > 0 and v_hi > 0:
            return 1
        if v_lo < 0 and v_hi < 0:
            return -1
    raise RuntimeError("interval refinement did not converge")


@dataclass(frozen=True)
class ExponentPoint:
    """A finite-n sample of the asymptotic redundancy/data exponents."""

    n: int
    tau1: int
    tau2: int
    epsilon: Fraction
    r: int
    alpha_bar: Fraction
    M_bar: Fraction
    Er: float
    Ed: float


def _log_ratio(x: Fraction, n: int) -> float:
    return ((math.log(x.numerator) - math.log(x.denominator))
            / math.log(n))


def exponent_point(n: int, tau1: int, tau2: int,
                   epsilon) -> ExponentPoint:
    """Complete-design point with r = ceil(n^epsilon), k = n - tau1,
    d = n - tau2, reported as log-scale exponents."""
    if not tau1 >= tau2 >= 1:
        raise ValueError(f"need tau1 >= tau2 >= 1, got ({tau1},{tau2})")
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon = {eps} outside (0, 1)")
    k, d = n - tau1, n - tau2
    if k < 1:
        raise ValueError(f"n = {n} too small for tau1 = {tau1}")
    r = ceil_rational_power(n, eps)
    if not n - d + 1 <= r <= n:
        raise ValueError(f"r = ceil({n}^{eps}) = {r} is inadmissible for "
                         f"(n,k,d)=({n},{k},{d}); need {n - d + 1} <= "
                         f"r <= {n}")
    point = complete_tradeoff_point(n, k, d, r)
    redundancy = n * point.alpha_bar - point.M_bar
    if redundancy <= 0 or point.M_bar <= 0:
        raise ValueError("degenerate point: exponents undefined")
    return ExponentPoint(n=n, tau1=tau1, tau2=tau2, epsilon=eps, r=r,
                         alpha_bar=point.alpha_bar, M_bar=point.M_bar,
                         Er=_log_ratio(redundancy, n),
                         Ed=_log_ratio(point.M_bar, n))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the two achievability inequalities, with the exact
    sides when they are rational."""

    ineq1: bool
    ineq2: bool
    lhs1: Fraction | None = None
    rhs1: Fraction | None = None
    lhs2: Fraction | None = None
    rhs2: Fraction | None = None


def check_realized_bounds(n: int, tau1: int, tau2: int,
                          r: int) -> BoundCheck:
    """Achievability inequalities evaluated at the realized operating
    point, i.e. with the exponent log_n(r) the built code actually has.
    Everything is rational, so the check is exact."""
    if not tau1 >= tau2 >= 1:
        raise ValueError(f"need tau1 >= tau2 >= 1, got ({tau1},{tau2})")
    k, d = n - tau1, n - tau2
    if r <= tau2:
        raise ValueError(f"r = {r} must exceed tau2 = {tau2}")
    point = complete_tradeoff_point(n, k, d, r)
    lhs1 = point.M_bar
    rhs1 = Fraction(n, r) * (n - tau2)
    lhs2 = n * point.alpha_bar - point.M_bar
    rhs2 = Fraction(n, r) * Fraction(tau1 * (n - tau2), r - tau2)
    return BoundCheck(ineq1=lhs1 >= rhs1, ineq2=lhs2 <= rhs2,
                      lhs1=lhs1, rhs1=rhs1, lhs2=lhs2, rhs2=rhs2)


def check_nominal_bounds(n: int, tau1: int, tau2: int,
                         epsilon) -> BoundCheck:
    """Achievability inequalities at the nominal exponent epsilon.

    The bounds involve n^epsilon, which is typically irrational, so
    signs are settled by exact algebraic evaluation: data size against
    n^(1-eps) (n - tau2), and redundancy against
    n^(1-eps) tau1 (n - tau2) / (n^eps - tau2).
    """
    if not tau1 >= tau2 >= 1:
        raise ValueError(f"need tau1 >= tau2 >= 1, got ({tau1},{tau2})")
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon = {eps} outside (0, 1)")
    p, s = eps.numerator, eps.denominator
    if n ** p <= tau2 ** s:
        raise ValueError(f"need n^epsilon > tau2; n = {n} is too small")
    k, d = n - tau1, n - tau2
    r = ceil_rational_power(n, eps)
    point = complete_tradeoff_point(n, k, d, r)
    # ineq1: M_bar >= n^(1-eps) (n - tau2), both sides positive, so
    # compare s-th powers of M_bar/(n - tau2) and n^(s-p)
    ratio = point.M_bar / (n - tau2)
    ok1 = ratio ** s >= n ** (s - p)
    # ineq2 with c = n^eps: (redundancy) c(c - tau2) <= n tau1 (n - tau2)
    g = n * point.alpha_bar - point.M_bar
    ok2 = _alg_sign(g, -g * tau2, -Fraction(n * tau1 * (n - tau2)),
                    n, p, s) <= 0
    return BoundCheck(ineq1=ok1, ineq2=ok2)


@dataclass(frozen=True)
class RegionMembership:
    """Classification against the exponent region and the time-sharing
    region: inside, boundary, or outside each."""

    achievable: str
    timesharing: str
    tight: tuple[str, ...]


def exponent_region_membership(Er, Ed) -> RegionMembership:
    """Classify an exponent pair.

    The achievable region is cut out by Ed <= Er + 1, 2 Ed <= 2 + Er,
    and Ed <= 2; time-sharing of the two extreme points only reaches
    Ed <= max(1, Er).  Comparisons are exact when the inputs are exact.
    """
    constraints = (("Ed<=Er+1", Ed - Er - 1),
                   ("2Ed<=2+Er", 2 * Ed - 2 - Er),
                   ("Ed<=2", Ed - 2))
    if any(slack > 0 for _, slack in constraints):
        member = "outside"
    elif any(slack == 0 for _, slack in constraints):
        member = "boundary"
    else:
        member = "inside"
    tight = tuple(name for name, slack in constraints if slack == 0)
    ts_slack = Ed - max(1, Er)
    if ts_slack > 0:
        ts = "outside"
    elif ts_slack == 0:
        ts = "boundary"
    else:
        ts = "inside"
    return RegionMembership(achievable=member, timesharing=ts,
                            tight=tight)


def format_fraction(x) -> str:
    """Exact decimal-free rendering: '35' or '49/3'."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


TRADEOFF_CSV_HEADER = ("n,k,d,r,alpha_bar_num,alpha_bar_den,M_bar_num,"
                       "M_bar_den,cutset_M,timesharing_M,"
                       "above_timesharing")

EXPONENT_CSV_HEADER = "n,tau1,tau2,epsilon,Er,Ed,region"


def tradeoff_csv(rows) -> str:
    out = [TRADEOFF_CSV_HEADER]
    for row in rows:
        pt = row.point
        out.append(",".join([
            str(row.n), str(row.k), str(row.d),
            "" if row.r is None else str(row.r),
            str(pt.alpha_bar.numerator), str(pt.alpha_bar.denominator),
            str(pt.M_bar.numerator), str(pt.M_bar.denominator),
            format_fraction(row.cutset_M),
            "" if row.timesharing_M is None
            else format_fraction(row.timesharing_M),
            "1" if row.above_timesharing else "0"]))
    return "\n".join(out) + "\n"


def tradeoff_json(rows) -> list[dict]:
    out = []
    for row in rows:
        pt = row.point
        out.append({
            "n": row.n, "k": row.k, "d": row.d, "r": row.r,
            "alpha_bar": {"num": pt.alpha_bar.numerator,
                          "den": pt.alpha_bar.denominator},
            "M_bar": {"num": pt.M_bar.numerator,
                      "den": pt.M_bar.denominator},
            "provenance": pt.provenance,
            "cutset_M": format_fraction(row.cutset_M),
            "timesharing_M": (None if row.timesharing_M is None
                              else format_fraction(row.timesharing_M)),
            "above_timesharing": row.above_timesharing})
    return out


def exponent_csv(entries) -> str:
    """entries: iterable of (ExponentPoint, RegionMembership)."""
    out = [EXPONENT_CSV_HEADER]
    for point, member in entries:
        out.append(",".join([
            str(point.n), str(point.tau1), str(point.tau2),
            format_fraction(point.epsilon),
            f"{point.Er:.6f}", f"{point.Ed:.6f}",
            member.achievable]))
    return "\n".join(out) + "\n"


def exponent_json(entries) -> list[dict]:
    out = []
    for point, member in entries:
        out.append({
            "n": point.n, "tau1": point.tau1, "tau2": point.tau2,
            "epsilon": format_fraction(point.epsilon), "r": point.r,
            "alpha_bar": {"num": point.alpha_bar.numerator,
                          "den": point.alpha_bar.denominator},
            "M_bar": {"num": point.M_bar.numerator,
                      "den": point.M_bar.denominator},
            "Er": point.Er, "Ed": point.Ed,
            "region": member.achievable,
            "timesharing": member.timesharing})
    return out
