"""End-to-end acceptance checks, one test per shipped criterion.

Every numeric assertion is exact (integer or Fraction); runtime budgets
are printed by the conftest reporter rather than asserted.
"""

import itertools
import math
import random
from fractions import Fraction

from rgc.analysis import (check_nominal_bounds, check_realized_bounds,
                          compare_designs, complete_tradeoff_point,
                          cutset_max_M, exponent_point, msr_mbr_points,
                          realized_point, sweep_tradeoff)
from rgc.codec import MessageVector, encode, reconstruct, repair
from rgc.codespec import CodeSpec, build_layout
from rgc.construction import (closed_form_Tc, erasure_deficits,
                              erasure_system, rank_witness, synthesize_S,
                              verify_S)
from rgc.designs import gen_complete_design, gen_steiner_triple
from rgc.ffield import PrimeField, next_prime
from rgc.storesim import random_failure_soak
from rgc._kernel import mat_rank


def test_criterion_1(golden_spec):
    """Exact parameters, 1-symbol-per-helper repair, 2-erasure decode."""
    spec = golden_spec
    p = spec.params
    assert spec.field.q == 3
    assert spec.phi == (1, 2)
    assert (p.n, p.k, p.d) == (9, 7, 8)
    assert (p.M, p.alpha, p.beta) == (23, 4, 1)
    point = realized_point(p)
    assert point.alpha_bar == Fraction(4)
    assert point.M_bar == Fraction(23)

    base = encode(spec, MessageVector.random(3, 23, seed=11))
    for failed in range(1, 10):
        rebuilt, transcript = repair(spec, failed, base.without(failed))
        assert rebuilt == base.get(failed)
        assert transcript.helper_count == 8
        assert transcript.total_symbols == 8
        for helper, syms in transcript.helpers:
            assert len(syms) == 1

    rng = random.Random(2026)
    pairs = list(itertools.combinations(range(1, 10), 2))
    for _ in range(200):
        msg = MessageVector.random(3, 23, seed=rng.randrange(10 ** 9))
        shares = encode(spec, msg)
        for a in pairs:
            survivors = [d for d in range(1, 10) if d not in a]
            assert reconstruct(spec, shares.subset(survivors)) == msg


def test_criterion_2():
    """Pinned sweep rows, time-sharing comparisons, MBR endpoint."""
    rows = sweep_tradeoff(9, 7, 8)
    by_r = {row.r: row for row in rows if row.r is not None}
    expected = {
        2: (Fraction(8), Fraction(35)),
        3: (Fraction(4), Fraction(23)),
        4: (Fraction(8, 3), Fraction(17)),
        5: (Fraction(2), Fraction(67, 5)),
    }
    for r, (ab, mb) in expected.items():
        assert by_r[r].point.alpha_bar == ab
        assert by_r[r].point.M_bar == mb
    assert by_r[3].timesharing_M == Fraction(21)
    assert by_r[3].above_timesharing
    assert by_r[4].timesharing_M == Fraction(49, 3)
    assert by_r[4].above_timesharing
    assert not by_r[2].above_timesharing
    _, mbr = msr_mbr_points(9, 7, 8)
    assert by_r[2].point.alpha_bar == mbr.alpha_bar
    assert by_r[2].point.M_bar == mbr.M_bar


def test_criterion_3(complete9_spec):
    """Complete-design (9,7) parameters and equality at (4, 23)."""
    p = complete9_spec.params
    assert (p.alpha, p.beta, p.M, p.T) == (28, 7, 161, 7)
    point = realized_point(p)
    assert point.alpha_bar == Fraction(4)
    assert point.M_bar == Fraction(23)

    report = compare_designs(gen_steiner_triple(9),
                             gen_complete_design(2, 3, 9), 7)
    assert report.equal
    assert report.alpha_bar == Fraction(4)
    assert report.M_bar_design == Fraction(23)
    assert report.M_bar_complete == Fraction(23)
    assert report.deficit_uniform


def test_criterion_4(complete9_spec):
    """Synthesis succeeds fast at the threshold field; random draws fail
    no more often than 3x the union bound predicts."""
    spec = complete9_spec
    p = spec.params
    threshold = math.comb(p.n, p.k) * p.T * p.M
    assert threshold == 40572
    q = next_prime(threshold)
    assert q == 40577
    assert spec.field.q == q

    field = PrimeField(q)
    for seed in range(10):
        result = synthesize_S(p, spec.design, field, seed=seed, budget=5)
        assert 1 <= result.attempts <= 5

    draws = 200
    failures = 0
    rng = random.Random(424242)
    layout = build_layout(spec.design)
    for _ in range(draws):
        entries = tuple(rng.randrange(q) for _ in range(p.T * p.M))
        candidate = CodeSpec(params=p, field=field, design=spec.design,
                             layout=layout, s_entries=entries)
        if not verify_S(candidate).ok:
            failures += 1
    assert Fraction(failures, draws) <= 3 * Fraction(threshold, q)


def test_criterion_5(golden_spec, complete9_spec):
    """Per-erasure-set witness reaches full rank on both codes."""
    for spec in (golden_spec, complete9_spec):
        p = spec.params
        for a in itertools.combinations(range(1, p.n + 1), 2):
            witness = rank_witness(spec, a)
            assert len(witness) == p.T * p.M
            probe = CodeSpec(params=p, field=spec.field,
                             design=spec.design, layout=spec.layout,
                             s_entries=witness)
            _, rows = erasure_system(probe, a)
            flat = [x for row in rows for x in row]
            assert mat_rank(flat, len(rows), p.M, spec.field.q) == p.M


def test_criterion_6():
    """Every erasure set of a complete design has the closed-form
    deficit, which compute_T returns without a walk: t = 2 with
    n <= 10 and t = 3 with n <= 8, 397 (design, k) cases."""
    for t, top in ((2, 10), (3, 8)):
        for n in range(t, top + 1):
            for r in range(t, n + 1):
                design = gen_complete_design(t, r, n)
                for k in range(1, n):
                    assert (set(erasure_deficits(design, k))
                            == {closed_form_Tc(n, k, r, t)}), (t, r, n, k)


def test_criterion_7(golden_spec, complete9_spec, t3_spec):
    """Cut-set bound on all swept points and built codes; r=2 collapse."""
    for n in range(2, 13):
        for d in range(1, n):
            for k in range(1, d + 1):
                for row in sweep_tradeoff(n, k, d):
                    assert row.point.M_bar <= row.cutset_M

    for spec in (golden_spec, complete9_spec, t3_spec):
        p = spec.params
        point = realized_point(p)
        assert point.M_bar <= cutset_max_M(p.n, p.k, p.d, point.alpha_bar)

    for n in range(3, 16):
        d = n - 1
        for k in range(1, d + 1):
            point = complete_tradeoff_point(n, k, d, 2)
            assert point.alpha_bar == Fraction(d)
            assert point.M_bar == Fraction(k * (2 * d - k + 1), 2)


def test_criterion_8():
    """Storage/repair bound pair holds exactly; region gap shrinks, out
    to n = 2^30."""
    n_values = (64, 128, 256, 512, 10 ** 6, 10 ** 9, 2 ** 30)
    integer_points = set()
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        gaps = []
        for n in n_values:
            point = exponent_point(n, 1, 1, eps)
            realized = check_realized_bounds(n, 1, 1, point.r)
            assert realized.ineq1 and realized.ineq2
            # tau1 == tau2 kills the deficit, so both bounds are tight
            assert realized.lhs1 == realized.rhs1
            assert realized.lhs2 == realized.rhs2

            nominal = check_nominal_bounds(n, 1, 1, eps)
            p_, s_ = eps.numerator, eps.denominator
            exactly_representable = point.r ** s_ == n ** p_
            assert nominal.ineq1 == exactly_representable
            assert nominal.ineq2
            if exactly_representable:
                integer_points.add((n, eps))
                assert nominal.ineq1 and nominal.ineq2

            gaps.append(2 + point.Er - 2 * point.Ed)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert integer_points == {(64, Fraction(1, 2)), (256, Fraction(1, 4)),
                              (256, Fraction(1, 2)),
                              (256, Fraction(3, 4)),
                              (10 ** 6, Fraction(1, 2)),
                              (2 ** 30, Fraction(1, 2))}


def test_criterion_9(golden_spec):
    """Long failure soak: zero divergence, 8 symbols per repair."""
    msg = MessageVector.random(3, 23, seed=5)
    report = random_failure_soak(golden_spec, msg, 1000, seed=9)
    assert report.repairs == 1000
    assert report.mismatches == 0
    assert report.all_ok
    assert report.durable and report.intact
    repair_events = [ev for ev in report.events
                     if ev.get("event") == "repair"]
    assert len(repair_events) == 1000
    assert all(ev["transferred"] == 8 for ev in repair_events)
    assert sum(report.sent.values()) == 8000
    assert sum(report.received.values()) == 8000
