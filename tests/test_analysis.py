"""Tradeoff bounds, design benchmarking, and exponent-region math."""

import contextlib
import hashlib
import json
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc import analysis
from rgc.analysis import (EXPONENT_CSV_HEADER, TRADEOFF_CSV_HEADER,
                          ParameterRegimeWarning, TradeoffPoint,
                          ceil_rational_power, check_nominal_bounds,
                          check_realized_bounds, compare_designs,
                          complete_tradeoff_point,
                          cutset_max_M, exponent_csv, exponent_json,
                          exponent_point, exponent_region_membership,
                          format_fraction, integer_root, msr_mbr_points,
                          realized_point, regime_threshold, sweep_tradeoff,
                          timesharing_M, tradeoff_csv, tradeoff_json)
from rgc.construction import derive_params
from rgc.designs import (S_2_3_7, S_2_3_9, S_2_4_13, closed_form_Tc,
                         gen_complete_design, gen_steiner_triple)

F = Fraction


def test_cutset_saturates_at_high_storage():
    # alpha_bar >= d makes every cut term d - i
    assert cutset_max_M(9, 7, 8, F(8)) == F(35)
    assert cutset_max_M(9, 7, 8, F(2)) == F(2 + 2 + 2 + 2 + 2 + 2 + 2)
    assert cutset_max_M(9, 7, 8, F(4)) == F(4 + 4 + 4 + 4 + 4 + 3 + 2)


def test_extreme_points():
    msr, mbr = msr_mbr_points(24, 23, 23)
    assert (msr.alpha_bar, msr.M_bar) == (F(1), F(23))
    assert (mbr.alpha_bar, mbr.M_bar) == (F(23), F(276))
    assert msr.provenance == mbr.provenance == "bound"


def test_timesharing_segment():
    assert timesharing_M(9, 7, 8, F(4)) == F(21)
    assert timesharing_M(9, 7, 8, F(2)) == F(14)     # MSR endpoint
    assert timesharing_M(9, 7, 8, F(8)) == F(35)     # MBR endpoint
    with pytest.raises(ValueError):
        timesharing_M(9, 7, 8, F(1))
    with pytest.raises(ValueError):
        timesharing_M(9, 7, 8, F(9))


def test_regime_threshold_and_warning():
    assert regime_threshold(9, 7, 8) == F(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        complete_tradeoff_point(9, 7, 8, 5)    # at threshold: quiet
    with pytest.warns(ParameterRegimeWarning):
        complete_tradeoff_point(9, 7, 8, 6)


def test_sweep_has_endpoint_rows():
    rows = sweep_tradeoff(9, 7, 8)
    tail = [row for row in rows if row.r is None]
    assert len(tail) == 2
    assert {row.point.provenance for row in tail} == {"timesharing"}
    assert all(row.point.provenance == "constructed"
               for row in rows if row.r is not None)


def test_realized_point_on_derived_params():
    p = derive_params(gen_steiner_triple(9), 7)
    point = realized_point(p)
    assert (point.alpha_bar, point.M_bar) == (F(4), F(23))
    p2 = derive_params(gen_complete_design(3, 4, 7), 4)
    point2 = realized_point(p2)
    # normalization follows repair volume, not the block parameter
    assert point2.alpha_bar == F(p2.alpha * p2.d, p2.gamma)
    assert point2.M_bar == F(p2.M * p2.d, p2.gamma)


def _against_timesharing(design, k):
    """Where a built code's point lies against the time-sharing line."""
    p = derive_params(design, k)
    point = realized_point(p)
    try:
        line = timesharing_M(p.n, k, p.d, point.alpha_bar)
    except ValueError:
        return "outside"
    if point.M_bar == line:
        return "on"
    return "above" if point.M_bar > line else "below"


def test_timesharing_verdict_depends_on_design_and_k():
    """The README's cases: a design code is not always above the line."""
    s9, c9 = S_2_3_9, gen_complete_design(2, 3, 9)
    s15 = gen_steiner_triple(15)
    cases = {
        "above": ((s9, 7), (c9, 6), (c9, 7), (s15, 11), (s15, 12),
                  (s15, 13), (S_2_4_13, 10), (S_2_4_13, 11)),
        "on": ((s9, 6),),
        "below": ((s9, 5), (gen_complete_design(3, 4, 7), 4),
                  (S_2_4_13, 9)),
        "outside": ((s9, 2), (s9, 3), (s9, 4)),
    }
    for verdict, codes in cases.items():
        for design, k in codes:
            assert _against_timesharing(design, k) == verdict, (design.n, k)


def test_compare_strict_when_deficits_vary():
    rep = compare_designs(gen_steiner_triple(9),
                          gen_complete_design(2, 3, 9), 6)
    assert rep.M_bar_design == F(21)
    assert rep.M_bar_complete == F(148, 7)
    assert not rep.equal
    assert not rep.deficit_uniform
    assert rep.M_bar_design < rep.M_bar_complete


def test_compare_validates_inputs():
    with pytest.raises(ValueError):
        compare_designs(gen_steiner_triple(9), gen_steiner_triple(9), 7)
    with pytest.raises(ValueError):
        compare_designs(gen_steiner_triple(7),
                        gen_complete_design(2, 3, 9), 5)


@given(st.integers(0, 10 ** 12), st.integers(1, 6) | st.integers(7, 50))
@settings(max_examples=120, deadline=None)
def test_integer_root_bounds(x, s):
    root = integer_root(x, s)
    assert root ** s <= x < (root + 1) ** s


def _root_from_a_power_of_two(x, s):
    """integer_root as it was with Newton started at 2^ceil(bits(x)/s),
    up to twice the root: slow for a large s, and the reference here."""
    if s == 1 or x < 2:
        return x
    if s >= x.bit_length():
        return 1
    y = 1 << ((x.bit_length() + s - 1) // s)
    while True:
        z = ((s - 1) * y + x // y ** (s - 1)) // s
        if z >= y:
            return y
        y = z


def test_integer_root_matches_newton_from_a_power_of_two():
    """integer_root, started from the root of x's top bits, agrees with
    Newton started from a power of two on seeded exact powers y^s and
    y^s +- 1, on x of thousands of bits at every kind of s, up to the
    MAX_POWER_BITS cap, and on the nominal bounds' last bracket at
    n = 64, which took 77 Newton steps from a power of two."""
    rng = random.Random(3501)
    cases = [(64 ** 96 * 10 ** (97 * 199), 97)]
    for _ in range(120):
        s = rng.choice((2, 3, 5, rng.randrange(2, 40), rng.randrange(40, 300)))
        y = rng.getrandbits(rng.randrange(1, max(2, 6000 // s))) + 2
        cases += [(y ** s + e, s) for e in (-1, 0, 1)]
    for _ in range(60):
        x = rng.getrandbits(rng.randrange(1000, 9000)) | 1 << 999
        s = rng.choice((2, rng.randrange(2, 100),
                        rng.randrange(2, x.bit_length() + 2)))
        cases.append((x, s))
    cap = analysis.MAX_POWER_BITS
    for s in (cap // 2, cap - 1, cap):
        cases += [(y ** s + e, s) for y in (2, 3) for e in (-1, 0, 1)]
    for x, s in cases:
        root = integer_root(x, s)
        assert root == _root_from_a_power_of_two(x, s), (x.bit_length(), s)
        assert root ** s <= x < (root + 1) ** s


@contextlib.contextmanager
def _peak_bytes():
    """A list that holds, once the block ends, the peak of the memory
    allocated inside it, in bytes."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def test_a_root_degree_past_the_bits_forms_no_power():
    """With s >= bits(x), 1 <= x^(1/s) < 2, so the root is 1 at once:
    a Newton step from 2^ceil(bits/s) would form 2^(s-1), 1.25 MB at
    s = 10^7, and an exact epsilon of denominator 10^11 would need
    about 45 GB."""
    with _peak_bytes() as peak:
        root = integer_root(2 ** 64, 10 ** 7)
    assert root == 1 and peak[0] < 1 << 16
    assert integer_root(2 ** 64, 65) == 1 and integer_root(2 ** 64, 64) == 2


def test_powers_of_n_past_the_cap_are_refused(monkeypatch):
    """Every power formed from epsilon = p/s is capped by
    MAX_POWER_BITS: n^p, charged p bits(n) bits, and in the nominal
    bounds each decimal bracket's s-th power, charged for all of its
    digits up front, so no integer root is taken.  tau2 >= n fails
    n^epsilon > tau2 without forming tau2^s."""
    eps = F(99999, 100000)
    text = ("epsilon = 99999/100000 at n = 64 needs 699993-bit powers, "
            "above the cap 65536")
    for fn, args in ((ceil_rational_power, (64, eps)),
                     (exponent_point, (64, 1, 1, eps))):
        with pytest.raises(ValueError) as err:
            fn(*args)
        assert str(err.value) == text

    def no_root(x, s):
        raise AssertionError(f"took a root of degree {s}")

    monkeypatch.setattr(analysis, "integer_root", no_root)
    with pytest.raises(ValueError) as err:
        check_nominal_bounds(64, 1, 1, F(99, 100))
    assert str(err.value) == ("epsilon = 99/100 at n = 64 needs 66900-bit "
                              "powers, above the cap 65536")
    monkeypatch.undo()
    # the largest s inside the cap still settles both bounds
    assert check_nominal_bounds(64, 1, 1, F(96, 97)).ineq2
    huge = 1 << 10 ** 5
    with _peak_bytes() as peak, pytest.raises(ValueError) as err:
        check_nominal_bounds(64, huge, huge, F(1, 90))
    assert str(err.value) == "need n^epsilon > tau2; n = 64 is too small"
    assert peak[0] < 1 << 16
    assert analysis.MAX_POWER_BITS == 2 ** 16


@pytest.mark.parametrize("fn,args,text", [
    (cutset_max_M, (9, 7, 8, F(-1)), "alpha_bar must be nonnegative"),
    (complete_tradeoff_point, (10, 3, 5, 5),
     "block size r = 5 outside the admissible range 6..10"),
    (complete_tradeoff_point, (10, 3, 5, 11),
     "block size r = 11 outside the admissible range 6..10"),
    (ceil_rational_power, (0, F(1, 2)), "need n >= 1 and epsilon >= 0"),
    (ceil_rational_power, (4, F(-1, 2)), "need n >= 1 and epsilon >= 0"),
    (integer_root, (-1, 2), "need x >= 0 and s >= 1"),
    (integer_root, (8, 0), "need x >= 0 and s >= 1"),
    (check_nominal_bounds, (64, 1, 1, F(0)), "epsilon = 0 outside (0, 1)"),
    (check_nominal_bounds, (64, 1, 1, F(1)), "epsilon = 1 outside (0, 1)"),
    (check_nominal_bounds, (64, 1, 1, F(3, 2)),
     "epsilon = 3/2 outside (0, 1)"),
])
def test_out_of_range_arguments_are_refused(fn, args, text):
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == text


@given(st.integers(2, 500), st.integers(1, 7), st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_ceil_power_is_exact(n, p, s):
    if p >= s:
        return
    r = ceil_rational_power(n, F(p, s))
    assert (r - 1) ** s < n ** p <= r ** s


def test_exponent_point_sample_values():
    point = exponent_point(100, 2, 1, F(2, 3))
    assert point.r == 22
    assert point.alpha_bar == F(33, 7)
    assert point.M_bar == F(449)
    member = exponent_region_membership(point.Er, point.Ed)
    assert member.achievable == "inside"


def test_no_large_binomial_at_small_tau1(monkeypatch):
    """At n = 10^6 and r = ceil(n^(7/8)), C(n-1, r-1) and C(k, r-i) have
    about 203,000 digits.  With k = n - 1 the complete design has
    T_c = 0, and with k = n - 2 its deficit per alpha is one term of
    small factors, so neither binomial is formed, here or through
    designs.closed_form_Tc.  The points are the ones the binomials give
    (taken from the exact formula before it was rewritten)."""
    from rgc import designs

    def small_comb(real):
        def comb(a, b):
            assert a < 10 ** 5, f"comb({a}, {b})"
            return real(a, b)
        return comb

    monkeypatch.setattr(analysis, "comb", small_comb(analysis.comb))
    monkeypatch.setattr(designs, "comb", small_comb(designs.comb))
    point = exponent_point(10 ** 6, 1, 1, F(7, 8))
    assert point.M_bar == F(11904750000, 2117)
    assert point.alpha_bar == F(76923, 13679)
    check_nominal_bounds(10 ** 6, 1, 1, F(7, 8))
    point = exponent_point(10 ** 6, 2, 1, F(7, 8))
    assert point.M_bar == F(11904747883, 2117)
    assert point.alpha_bar == F(76923, 13679)
    check_nominal_bounds(10 ** 6, 2, 1, F(7, 8))
    monkeypatch.undo()
    for n in range(2, 16):
        for k in range(1, n):
            for r in range(2, n + 1):
                for t in range(2, r + 1):
                    assert analysis._deficit_per_alpha(n, k, r, t) == F(
                        closed_form_Tc(n, k, r, t), math.comb(n - 1, r - 1))


def test_exponent_point_validation():
    with pytest.raises(ValueError):
        exponent_point(100, 1, 2, F(1, 2))    # tau1 < tau2
    with pytest.raises(ValueError):
        exponent_point(100, 1, 1, F(3, 2))    # epsilon outside (0,1)
    with pytest.raises(ValueError):
        exponent_point(8, 7, 7, F(1, 2))      # k would vanish


def test_exponent_arguments_are_ints():
    """n, tau1 and tau2 are exactly ints at all three exponent entry
    points: a bool or a float is refused by name, not written out as
    true or met as an AttributeError."""
    cases = (((64, True, True), "tau1 True is a bool"),
             ((64.0, 2, 1), "n 64.0 is a float"),
             ((64, 2, 1.0), "tau2 1.0 is a float"))
    for fn, last in ((exponent_point, F(1, 2)),
                     (check_nominal_bounds, F(1, 2)),
                     (check_realized_bounds, 8)):
        for args, want in cases:
            with pytest.raises(ValueError) as err:
                fn(*args, last)
            assert str(err.value) == f"{want}, not an int"
        with pytest.raises(ValueError, match="need tau1 >= tau2 >= 1"):
            fn(64, 1, 2, last)
    point = exponent_point(64, 1, 1, F(1, 2))
    assert exponent_json([(point, exponent_region_membership(
        point.Er, point.Ed))])[0]["tau1"] == 1


def test_a_float_epsilon_is_refused(monkeypatch):
    """A float epsilon is refused by type at all three entry points that
    take one, before any power is formed: Fraction(0.1) has denominator
    2^55, and its numerator would become an exponent of n.  An exact
    one tenth, a Fraction or its text, still works."""
    with pytest.raises(ValueError) as err:
        ceil_rational_power(1, 0.1)
    assert str(err.value) == "epsilon 0.1 is a float, not an exact rational"

    def no_power(n, epsilon):
        raise AssertionError(f"formed {n}^{epsilon}")

    monkeypatch.setattr(analysis, "ceil_rational_power", no_power)
    for fn in (exponent_point, check_nominal_bounds):
        with pytest.raises(ValueError) as err:
            fn(1, 1, 1, 0.1)
        assert str(err.value) == ("epsilon 0.1 is a float, not an exact "
                                  "rational")
    monkeypatch.undo()
    want = exponent_point(64, 1, 1, F(1, 10))
    assert want.r == ceil_rational_power(64, "1/10") == 2
    for eps in ("1/10", "0.1"):
        assert exponent_point(64, 1, 1, eps) == want
        assert (check_nominal_bounds(64, 1, 1, eps)
                == check_nominal_bounds(64, 1, 1, F(1, 10)))


def test_tradeoff_arguments_are_ints():
    """n, k, d and r are exactly ints wherever a tradeoff point is
    formed: a bool or a float is refused by name, not written out as
    true, rounded into a data size or met as a bare TypeError."""
    cases = (((6, True, 3), "k True is a bool"),
             ((10.0, 3, 5), "n 10.0 is a float"),
             ((10, 3, 5.0), "d 5.0 is a float"))
    for fn, rest in ((sweep_tradeoff, ()), (msr_mbr_points, ()),
                     (cutset_max_M, (2,)), (complete_tradeoff_point, (6,))):
        for args, want in cases:
            with pytest.raises(ValueError) as err:
                fn(*args, *rest)
            assert str(err.value) == f"{want}, not an int"
    for fn, args, want in (
            (complete_tradeoff_point, (10, 3, 5, 6.0), "r 6.0 is a float"),
            (complete_tradeoff_point, (10, 3, 5, True), "r True is a bool"),
            (check_realized_bounds, (64, 2, 1, 8.0), "r 8.0 is a float")):
        with pytest.raises(ValueError) as err:
            fn(*args)
        assert str(err.value) == f"{want}, not an int"
    assert {(type(row.k), row.k) for row in sweep_tradeoff(6, 1, 3)} == {
        (int, 1)}
    assert cutset_max_M(10, 3, 5, 2) == 6


def test_realized_bound_pair_meets_at_matched_taus():
    for n in (50, 100, 200):
        r = ceil_rational_power(n, F(1, 2))
        check = check_realized_bounds(n, 1, 1, r)
        assert check.ineq1 and check.ineq2
        assert check.lhs1 == check.rhs1
        assert check.lhs2 == check.rhs2


def test_nominal_bounds_exact_algebraic_sign():
    # integer n^eps: both literal bounds hold
    check = check_nominal_bounds(256, 1, 1, F(1, 2))
    assert check.ineq1 and check.ineq2
    # irrational n^eps: storage bound cannot survive the ceiling
    check = check_nominal_bounds(128, 1, 1, F(1, 2))
    assert not check.ineq1
    assert check.ineq2
    # quadratic-irrational branch: c = 2^(7/2), c^2 rational
    check = check_nominal_bounds(128, 2, 1, F(1, 2))
    assert check.ineq2


@pytest.mark.parametrize("n,tau2,eps", [
    (256, 1, F(1, 2)),     # c = 16
    (128, 1, F(1, 2)),     # c = 8 sqrt 2, c^2 rational
    (100, 2, F(1, 3)),     # degree-3 c
    (12, 3, F(5, 6)),      # degree-6 c
])
def test_nominal_repair_bound_decided_on_both_sides(monkeypatch, n, tau2,
                                                    eps):
    """ineq2 asks g c (c - tau2) <= n tau1 (n - tau2) at c = n^eps.  With
    the redundancy g set just below and just above the root g* of that
    equation, the check must settle each side exactly."""
    tau1 = tau2 + 1
    bound = n * tau1 * (n - tau2)
    p, s, digits = eps.numerator, eps.denominator, 40
    lo = F(integer_root(n ** p * 10 ** (s * digits), s), 10 ** digits)
    exact = lo ** s == n ** p
    hi = lo if exact else lo + F(1, 10 ** digits)
    g_below, g_above = (bound / (c * (c - tau2)) for c in (hi, lo))
    if exact:
        g_above += F(1, 10 ** digits)

    def with_redundancy(g):
        point = TradeoffPoint(alpha_bar=(g + 1) / n, M_bar=F(1),
                              provenance="constructed")
        monkeypatch.setattr(analysis, "complete_tradeoff_point",
                            lambda *args: point)
        return check_nominal_bounds(n, tau1, tau2, eps).ineq2

    assert with_redundancy(g_below)
    assert not with_redundancy(g_above)
    assert with_redundancy(F(0)) and with_redundancy(F(-3))


def test_region_membership_classification():
    on_edge = exponent_region_membership(F(1), F(3, 2))
    assert on_edge.achievable == "boundary"
    assert on_edge.tight == ("2Ed<=2+Er",)
    assert on_edge.timesharing == "outside"

    inside = exponent_region_membership(F(1, 2), F(1, 2))
    assert inside.achievable == "inside"
    assert inside.timesharing == "inside"

    outside = exponent_region_membership(F(1), F(21, 10))
    assert outside.achievable == "outside"

    corner = exponent_region_membership(F(2), F(2))
    assert corner.achievable == "boundary"
    assert set(corner.tight) == {"2Ed<=2+Er", "Ed<=2"}


def test_repair_exponent_approaches_its_limit():
    """Er drifts toward 2 - 2*eps; the ceiling makes it non-monotone,
    so assert net progress plus a tight final error."""
    for eps in (F(1, 4), F(1, 2), F(3, 4)):
        target = 2 - 2 * float(eps)
        errs = [abs(exponent_point(n, 1, 1, eps).Er - target)
                for n in (50, 100, 200, 400)]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.01


def test_csv_and_json_emitters():
    rows = sweep_tradeoff(9, 7, 8)
    csv = tradeoff_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == TRADEOFF_CSV_HEADER
    assert len(lines) == len(rows) + 1
    assert "9,7,8,5,2,1,67,5,14,14,0" in lines
    doc = tradeoff_json(rows)
    assert len(doc) == len(rows)
    assert doc[1]["r"] == 3 and doc[1]["above_timesharing"] is True
    json.dumps(doc)   # must be serializable as-is

    entries = []
    for n in (64, 128):
        point = exponent_point(n, 1, 1, F(1, 2))
        entries.append((point,
                        exponent_region_membership(point.Er, point.Ed)))
    ecsv = exponent_csv(entries)
    elines = ecsv.strip().split("\n")
    assert elines[0] == EXPONENT_CSV_HEADER
    assert len(elines) == 3
    json.dumps(exponent_json(entries))


def test_fraction_formatting():
    assert format_fraction(F(67, 5)) == "67/5"
    assert format_fraction(F(4)) == "4"
    assert format_fraction(7) == "7"


def _analysis_outcome(fn, *args) -> str:
    """repr of what fn returned, or its exception's class and full text,
    followed by the class and text of every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(fn(*args))
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
    return "\n".join([out] + [f"{w.category.__name__}: {w.message}"
                              for w in caught])


def test_analysis_outcomes_pinned():
    """Exponent points, nominal and realized bound checks, swept tables
    in both formats, and design comparisons, errors included."""
    eps_all = sorted({F(p, s) for s in range(2, 7) for p in range(1, s)})
    outcomes = []
    for n in [*range(4, 65), 128, 256, 512, 1024]:
        for tau2 in (1, 2):
            for tau1 in range(tau2, tau2 + 3):
                for eps in eps_all:
                    r = ceil_rational_power(n, eps)
                    outcomes += [
                        _analysis_outcome(exponent_point, n, tau1, tau2, eps),
                        _analysis_outcome(check_nominal_bounds, n, tau1, tau2,
                                          eps),
                        _analysis_outcome(check_realized_bounds, n, tau1,
                                          tau2, r)]
    assert len(outcomes) == 12870
    for n in range(2, 13):
        for d in range(1, n):
            for k in range(1, d + 1):
                rows = sweep_tradeoff(n, k, d)
                outcomes += [tradeoff_csv(rows),
                             json.dumps(tradeoff_json(rows))]
    for design, ks in ((S_2_3_7, (3, 5)), (S_2_3_9, (6, 7)),
                       (S_2_4_13, (10, 12))):
        complete = gen_complete_design(design.t, design.r, design.n)
        outcomes += [_analysis_outcome(compare_designs, design, complete, k)
                     for k in ks]
    blob = "\n".join(outcomes).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == (
        "244db30d43af5cf80bd58281919977fa"
        "a3456b4bfa41267958d79389582facd4")
