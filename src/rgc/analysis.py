"""Storage-bandwidth tradeoff bounds and asymptotic exponent analysis.

All tradeoff quantities are exact rationals: per-disk storage and data
size are normalized by the per-helper repair transfer gamma/d =
m alpha/d, giving points (alpha_bar, M_bar) comparable across codes.
alpha cancels, so one helper, _point, makes that normalization from
(d, m, M/alpha) for built codes, complete designs and design
comparisons alike.  Bounds at a nominal exponent involve c = n^epsilon,
usually irrational; they are settled exactly by integer roots, and the
repair bound, monotone in c, by decimal brackets around c.  Floating
point appears only when converting exact rationals to log-scale
exponents for output.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from math import comb

from . import construction
from ._record import record, require_int
from .designs import BlockDesign, is_complete_design


# Cap on the bits of a power that analysis forms from an exact epsilon:
# n^p, and in check_nominal_bounds each decimal bracket's s-th power.
MAX_POWER_BITS = 2 ** 16

# Decimal digits to which check_nominal_bounds refines n^epsilon.
_BRACKET_DIGITS = 200


class ParameterRegimeWarning(UserWarning):
    """The requested block size is outside the regime where the point
    can beat time-sharing."""


@record
class TradeoffPoint:
    """One (alpha_bar, M_bar) operating point, exact."""

    alpha_bar: Fraction
    M_bar: Fraction
    provenance: str  # constructed | bound | timesharing


def _point(d: int, m: int, per_alpha: Fraction) -> TradeoffPoint:
    """Storage alpha and data size M divided by the per-helper transfer
    gamma/d = m alpha/d, given per_alpha = M/alpha: alpha_bar = d/m and
    M_bar = (d/m) (M/alpha)."""
    scale = Fraction(d, m)
    return TradeoffPoint(alpha_bar=scale, M_bar=scale * per_alpha,
                         provenance="constructed")


def _validate_nkd(n: int, k: int, d: int) -> None:
    for what, v in (("n", n), ("k", k), ("d", d)):
        require_int(what, v)
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


def _falling(x: int, j: int) -> int:
    """The falling factorial x (x-1) ... (x-j+1); 1 when j = 0."""
    return math.prod(range(x - j + 1, x + 1))


def _deficit_per_alpha(n: int, k: int, r: int, t: int) -> Fraction:
    """closed_form_Tc(n, k, r, t) / C(n-1, r-1), formed from small
    numbers: C(n-1, r-1) has about 203,000 digits at n = 10^6 and
    r = ceil(n^(7/8)), and C(k, r-i) as many.

    Term i of T_c is (i-t+1) C(n-k, i) C(k, r-i).  As C(n, r) = C(n-1,
    r-1) n/r, term i over C(n-1, r-1) is (i-t+1) n/r times the
    hypergeometric probability C(n-k, i) C(k, r-i) / C(n, r) of i
    erased disks among r, which is symmetric in n-k and r.  With s the
    smaller of the two and b the larger, it is
    C(s, i) b^(i) (n-b)^(s-i) / n^(s), x^(j) the falling factorial:
    s factors, each at most n, above and below, so at tau1 = n-k = 2
    every term is one product of two small fractions.  A term whose
    C(k, r-i) is 0 gets a factor 0 in (n-b)^(s-i)."""
    s, big = sorted((n - k, r))
    total = sum((i - t + 1) * comb(s, i) * _falling(big, i)
                * _falling(n - big, s - i) for i in range(t, s + 1))
    return Fraction(total * n, r * _falling(n, s))


def complete_tradeoff_point(n: int, k: int, d: int,
                            r: int) -> TradeoffPoint:
    """Exact (alpha_bar, M_bar) of the complete-design code with block
    size r; warns when r is too large to beat time-sharing."""
    _validate_nkd(n, k, d)
    require_int("r", r)
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
    # alpha = C(n-1, r-1) blocks through each disk and C(n, r) = alpha n/r
    # in all, each of m long-layer slots, so M/alpha = m n/r - T_c/alpha
    point = _point(d, m, Fraction(m * n, r) - _deficit_per_alpha(n, k, r, t))
    if point.M_bar <= 0:
        raise ValueError(f"(n,k,d,r)=({n},{k},{d},{r}) gives a "
                         f"nonpositive data size {point.M_bar}")
    return point


@record
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
    return _point(params.d, params.r - params.t + 1,
                  Fraction(params.M, params.alpha))


@record
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
    # one walk gives d1's worst case and uniformity; d2's compute_T is
    # the closed form, with no walk
    deficits = set(construction.erasure_deficits(d1, k))
    t1, t2 = max(deficits), construction.compute_T(d2, k)
    p1, p2 = (_point(d, m, Fraction(m * x.num_blocks - tval,
                                    x.replication))
              for x, tval in ((d1, t1), (d2, t2)))
    if p1.M_bar > p2.M_bar:
        raise RuntimeError(
            f"design point {p1.M_bar} exceeds the complete-design benchmark "
            f"{p2.M_bar}; this contradicts the averaging bound")
    return CompareReport(n=n, r=r, t=t, k=k, alpha_bar=p1.alpha_bar,
                         M_bar_design=p1.M_bar, M_bar_complete=p2.M_bar,
                         T_design=t1, T_complete=t2,
                         equal=p1.M_bar == p2.M_bar,
                         deficit_uniform=len(deficits) == 1)


def integer_root(x: int, s: int) -> int:
    """Largest y with y**s <= x, exact for any size.

    With s >= bits(x), 1 <= x^(1/s) < 2, so the root is 1 with no power
    formed.  Otherwise _root starts Newton from the root of x's top
    bits, at or above the root, and integer Newton started at or above
    the root stops exactly at its floor."""
    if x < 0 or s < 1:
        raise ValueError("need x >= 0 and s >= 1")
    if s == 1 or x < 2:
        return x
    if s >= x.bit_length():
        return 1
    return _root(x, s)


def _root(x: int, s: int) -> int:
    """integer_root(x, s) for 2 <= s < bits(x).

    The root is below 2^h, h = ceil(bits(x)/s).  A root of at most
    2 bits(s) + 4 bits is bisected, in h steps.  A longer one starts
    Newton from the top bits: with c = floor(h/2) and y' the root of
    x' = x >> sc, found the same way, (y'+1)^s >= x'+1 > x / 2^(sc), so
    y0 = (y'+1) 2^c - 1 is at or above the root.  And y' 2^c is at or
    below it, with y' >= 2^(h-c-1) >= 2^(bits(s)+2), so y0 is above the
    root by a fraction at most 1/y' <= 1/(4s): Newton is past its
    linear phase, where a start up to twice the root would shrink by
    only about (s-1)/s a step, and ends in a few quadratic steps."""
    h = (x.bit_length() + s - 1) // s
    if h <= 2 * s.bit_length() + 4:
        lo, hi = 1, 1 << h          # lo^s <= x < hi^s
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if mid ** s <= x:
                lo = mid
            else:
                hi = mid
        return lo
    c = h >> 1
    y = (_root(x >> s * c, s) + 1 << c) - 1
    while True:
        z = ((s - 1) * y + x // y ** (s - 1)) // s
        if z >= y:
            return y
        y = z


def _exponent(epsilon) -> Fraction:
    """epsilon as a Fraction, refusing a float: 0.1 is exactly
    3602879701896397 / 2^55, and n^epsilon would raise n to that top."""
    if isinstance(epsilon, float):
        raise ValueError(f"epsilon {epsilon!r} is a "
                         f"{type(epsilon).__name__}, not an exact rational")
    return Fraction(epsilon)


def _require_power_bits(n: int, eps: Fraction, bits: int) -> None:
    """Refuse epsilon at n before any power is formed when the largest
    power formed from them would have more than MAX_POWER_BITS bits."""
    if bits > MAX_POWER_BITS:
        raise ValueError(f"epsilon = {eps} at n = {n} needs {bits}-bit "
                         f"powers, above the cap {MAX_POWER_BITS}")


def ceil_rational_power(n: int, epsilon) -> int:
    """ceil(n**epsilon) computed exactly from integer roots; n^p, with
    epsilon = p/s, may have at most MAX_POWER_BITS bits."""
    eps = _exponent(epsilon)
    if n < 1 or eps < 0:
        raise ValueError("need n >= 1 and epsilon >= 0")
    p, s = eps.numerator, eps.denominator
    _require_power_bits(n, eps, p * n.bit_length())
    np_ = n ** p
    root = integer_root(np_, s)
    return root if root ** s == np_ else root + 1


@record
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


def _validate_taus(n: int, tau1: int, tau2: int) -> None:
    for what, v in (("n", n), ("tau1", tau1), ("tau2", tau2)):
        require_int(what, v)
    if not tau1 >= tau2 >= 1:
        raise ValueError(f"need tau1 >= tau2 >= 1, got ({tau1},{tau2})")


def exponent_point(n: int, tau1: int, tau2: int,
                   epsilon) -> ExponentPoint:
    """Complete-design point with r = ceil(n^epsilon), k = n - tau1,
    d = n - tau2, reported as log-scale exponents."""
    _validate_taus(n, tau1, tau2)
    eps = _exponent(epsilon)
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


@record
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
    _validate_taus(n, tau1, tau2)
    require_int("r", r)
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

    The bounds compare data size against n^(1-eps) (n - tau2), and
    redundancy against n^(1-eps) tau1 (n - tau2) / (n^eps - tau2).
    n^eps is typically irrational, so both are settled exactly by
    decimal brackets around n^eps, on which each left side is monotone.
    With epsilon = p/s, the brackets are integer s-th roots of numbers
    of up to s (bits(n) + bits(10^199)) bits, and that may not exceed
    MAX_POWER_BITS.
    """
    _validate_taus(n, tau1, tau2)
    eps = _exponent(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon = {eps} outside (0, 1)")
    p, s = eps.numerator, eps.denominator
    top = 10 ** (_BRACKET_DIGITS - 1)     # the last bracket's scale
    _require_power_bits(n, eps, s * (n.bit_length() + top.bit_length()))
    # tau2 >= n > n^eps would form tau2^s past the cap
    if tau2 >= n or n ** p <= tau2 ** s:
        raise ValueError(f"need n^epsilon > tau2; n = {n} is too small")
    k, d = n - tau1, n - tau2
    r = ceil_rational_power(n, eps)
    point = complete_tradeoff_point(n, k, d, r)
    # with c = n^eps, ineq1 is M_bar c >= A = n (n - tau2), and ineq2 is
    # f(c) = g c (c - tau2) <= B, with g the redundancy and B = n tau1
    # (n - tau2).  Decimal brackets lo <= c <= hi settle each: M_bar > 0,
    # so M_bar c grows; lo >= tau2 (an integer below c), where f grows
    # if g > 0, and f(hi) <= 0 < B if g <= 0.  The brackets shrink to c
    # and end unless a side equals its bound at c, which needs a
    # rational, so integer, c, bracketed exactly at digits 0: if c^2 is
    # rational, -g tau2 c is f's one irrational term, and no quadratic
    # vanishes at degree >= 3.
    g = n * point.alpha_bar - point.M_bar
    storage, bound = n * (n - tau2), n * tau1 * (n - tau2)
    ok1 = ok2 = None
    for digits in range(_BRACKET_DIGITS):
        x = n ** p * 10 ** (s * digits)
        root = integer_root(x, s)
        lo = Fraction(root, 10 ** digits)
        hi = lo if root ** s == x else lo + Fraction(1, 10 ** digits)
        if ok1 is None:
            if point.M_bar * lo >= storage:
                ok1 = True
            elif point.M_bar * hi < storage:
                ok1 = False
        if ok2 is None:
            if g * hi * (hi - tau2) <= bound:
                ok2 = True
            elif g * lo * (lo - tau2) > bound:
                ok2 = False
        if ok1 is not None and ok2 is not None:
            return BoundCheck(ineq1=ok1, ineq2=ok2)
    raise RuntimeError("interval refinement did not converge")


@record
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
    slacks = [slack for _, slack in constraints]
    return RegionMembership(
        achievable=_classify(slacks),
        timesharing=_classify([Ed - max(1, Er)]),
        tight=tuple(name for name, slack in constraints if slack == 0))


def _classify(slacks) -> str:
    """outside if any slack is positive, else boundary if any is zero."""
    if any(slack > 0 for slack in slacks):
        return "outside"
    return "boundary" if any(slack == 0 for slack in slacks) else "inside"


def format_fraction(x) -> str:
    """Exact decimal-free rendering: '35' or '49/3'."""
    return str(Fraction(x))


def format_rational(x) -> str:
    """num/den plus 6-place decimal, e.g. '67/5 (13.400000)'."""
    f = Fraction(x)
    return f"{format_fraction(f)} ({float(f):.6f})"


TRADEOFF_CSV_HEADER = ("n,k,d,r,alpha_bar_num,alpha_bar_den,M_bar_num,"
                       "M_bar_den,cutset_M,timesharing_M,"
                       "above_timesharing")

EXPONENT_CSV_HEADER = "n,tau1,tau2,epsilon,Er,Ed,region"


def _csv(header: str, docs) -> str:
    """CSV of JSON rows: each header column names a key of the row, or
    an {num, den} key with _num or _den appended."""
    cols = header.split(",")

    def cell(doc, col):
        value = doc[col] if col in doc else doc[col[:-4]][col[-3:]]
        if isinstance(value, float):
            return f"{value:.6f}"
        if isinstance(value, bool):
            return str(int(value))
        return "" if value is None else str(value)

    return "\n".join([header] + [",".join(cell(doc, col) for col in cols)
                                 for doc in docs]) + "\n"


def _ratio(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def tradeoff_csv(rows) -> str:
    return _csv(TRADEOFF_CSV_HEADER, tradeoff_json(rows))


def tradeoff_json(rows) -> list[dict]:
    return [{"n": row.n, "k": row.k, "d": row.d, "r": row.r,
             "alpha_bar": _ratio(row.point.alpha_bar),
             "M_bar": _ratio(row.point.M_bar),
             "provenance": row.point.provenance,
             "cutset_M": format_fraction(row.cutset_M),
             "timesharing_M": (None if row.timesharing_M is None
                               else format_fraction(row.timesharing_M)),
             "above_timesharing": row.above_timesharing} for row in rows]


def exponent_csv(entries) -> str:
    """entries: iterable of (ExponentPoint, RegionMembership)."""
    return _csv(EXPONENT_CSV_HEADER, exponent_json(entries))


def exponent_json(entries) -> list[dict]:
    return [{"n": point.n, "tau1": point.tau1, "tau2": point.tau2,
             "epsilon": format_fraction(point.epsilon), "r": point.r,
             "alpha_bar": _ratio(point.alpha_bar),
             "M_bar": _ratio(point.M_bar), "Er": point.Er, "Ed": point.Ed,
             "region": member.achievable,
             "timesharing": member.timesharing} for point, member in entries]
