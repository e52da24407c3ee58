"""Parameter derivation, layout, long-parity synthesis, verification."""

import gc
import hashlib
import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc import construction, designs
from rgc.codec import (CorruptionError, MessageVector, encode, reconstruct,
                       repair)
from rgc.codespec import (CodeSpec, _params, build_layout, group_decoder,
                          short_mds_generator)
from rgc.construction import (BudgetExceededError, SynthesisError,
                              WitnessError, build_code,
                              build_explicit_steiner_code, choose_phi,
                              closed_form_Tc, compute_T, compute_TA,
                              derive_params, _vandermonde_parity,
                              erasure_system, rank_witness, synthesize_S,
                              verify_S)
from rgc.designs import (CATALOG, S_2_4_13, BlockDesign, gen_complete_design,
                         gen_steiner_triple, verify_design)
from rgc.ffield import PrimeField, next_prime
from rgc._kernel import annihilator, echelon_add, mat_mul, mat_rank

from conftest import lost_mask, parity_block, plan

SPECS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "specs"


@pytest.fixture(scope="module")
def steiner9():
    return gen_steiner_triple(9)


def test_derive_params_triple_system(steiner9):
    p = derive_params(steiner9, 7)
    assert (p.n, p.k, p.d, p.t, p.r, p.lam) == (9, 7, 8, 2, 3, 1)
    assert (p.alpha, p.beta, p.gamma) == (4, 1, 8)
    assert (p.M, p.T, p.nstar, p.m) == (23, 1, 12, 2)


def test_derive_params_complete_design():
    p = derive_params(gen_complete_design(2, 3, 9), 7)
    assert (p.alpha, p.beta, p.gamma) == (28, 7, 56)
    assert (p.M, p.T, p.nstar) == (161, 7, 84)


def test_derive_params_rejects_bad_k(steiner9):
    for bad in (0, 9, 42):
        with pytest.raises(ValueError):
            derive_params(steiner9, bad)


def test_deficit_uniform_on_triple_system(steiner9):
    # every disk pair shares exactly one block, so all deficits equal 1
    for a in itertools.combinations(range(1, 10), 2):
        assert compute_TA(steiner9, a) == 1


def test_deficit_rejects_repeated_disk(steiner9):
    with pytest.raises(ValueError, match="disk 1 twice"):
        compute_TA(steiner9, (1, 1, 2))
    with pytest.raises(ValueError, match="ground set"):
        compute_TA(steiner9, (0, 2))


def test_compute_T_refuses_k_outside_1_to_n_minus_1(steiner9):
    for k in (0, 9, -1):
        with pytest.raises(ValueError) as err:
            compute_T(steiner9, k)
        assert str(err.value) == f"k={k} must be in 1..8"


def test_deficit_budget_guard():
    # C(30, 15) = 155,117,520 erasure sets exceed MAX_SUBSETS; the cap is
    # checked before any set is enumerated
    design = gen_complete_design(2, 3, 30)
    with pytest.raises(BudgetExceededError):
        compute_T(design, 15)


def test_a_build_counts_the_design_t_subsets_once(monkeypatch):
    """build_code on a fresh S(2,3,15) counts its blocks' t-subsets
    once: the design check and compute_T's lam_max share the counts
    kept on the design object (t_subset_counts), which are read-only."""
    made = []
    real = designs._count_t_subsets
    monkeypatch.setattr(designs, "_count_t_subsets",
                        lambda design: made.append(design) or real(design))
    design = gen_steiner_triple(15)
    build_code(design, 11)
    assert len(made) == 1 and made[0] is design
    counts = designs.t_subset_counts(design)
    assert len(made) == 1 and set(counts.values()) == {1}
    with pytest.raises(TypeError):
        counts[(1, 2)] = 2


def _random_multiset():
    """25 random triples on 10 points, some repeated: lam = 1 is false,
    as four blocks hold one pair."""
    rng = random.Random(3)
    return BlockDesign(n=10, t=2, r=3, lam=1, blocks=tuple(
        tuple(rng.sample(range(1, 11), 3)) for _ in range(25)))


def _drained_deficits(monkeypatch):
    """Make compute_T read erasure_deficits through a recorder, and
    return a function that drains what compute_T left of the walk and
    gives (the sets compute_T read, the maximum over all sets)."""
    walk = construction.erasure_deficits
    state = {}

    def recorded(design, k):
        widths = walk(design, k)
        state.update(widths=widths, read=0, best=0)

        def read():
            for width in widths:
                state["read"] += 1
                state["best"] = max(state["best"], width)
                yield width
        return read()

    def drain():
        return state["read"], max([state["best"], *state["widths"]])
    monkeypatch.setattr(construction, "erasure_deficits", recorded)
    return drain


def test_compute_T_is_the_maximum_deficit(monkeypatch):
    """compute_T, which stops at the bound lam_max * C(n-k, t), equals
    max(erasure_deficits(d, k)) on every k whose walk has at most 10^5
    sets, and refuses what that refuses with the same error.  Only
    S(2,3,21) k = 7..13 is left out, 1.3 million sets; S(2,3,19) covers
    the same early exits on walks of up to 92,378 sets.  The random
    multiset's lam_max is 4, so a bound taken from design.lam would stop
    too early on k = 1..8."""
    assert max(designs.t_subset_counts(_random_multiset()).values()) == 4
    cases = ([gen_steiner_triple(n) for n in (7, 9, 13, 15, 19, 21)]
             + [gen_complete_design(t, r, n) for t, r, n in (
                 (2, 3, 7), (2, 3, 9), (3, 4, 7), (2, 4, 8), (3, 5, 8),
                 (4, 5, 8))]
             + list(CATALOG.values()) + [_random_multiset()])
    drain = _drained_deficits(monkeypatch)
    for design in cases:
        for k in range(1, design.n):
            if math.comb(design.n, k) <= 10 ** 5:
                assert compute_T(design, k) == drain()[1], (design, k)
    too_many = gen_complete_design(2, 3, 30)
    with pytest.raises(BudgetExceededError) as err:
        compute_T(too_many, 15)
    with pytest.raises(BudgetExceededError) as want:
        max(construction.erasure_deficits(too_many, 15))
    assert str(err.value) == str(want.value)


def test_compute_T_stops_at_the_bound(monkeypatch):
    """On S(2,3,15) k = 11 and S(2,3,27) k = 22 a set reaches the bound
    C(n-k, 2) after a few of the C(15,4) = 1365 and C(27,5) = 80730
    erasure sets."""
    drain = _drained_deficits(monkeypatch)
    for n, k, sets, T in ((15, 11, 13, 6), (27, 22, 279, 10)):
        assert compute_T(gen_steiner_triple(n), k) == T
        assert drain() == (sets, T)


def test_compute_T_takes_complete_designs_from_the_closed_form(monkeypatch):
    """On a complete design compute_T never enters the walk: it checks
    the cap, then returns closed_form_Tc."""
    walk, entered = construction._walk, []

    def spy(*args, **kwargs):
        entered.append(args)
        yield from walk(*args, **kwargs)

    monkeypatch.setattr(construction, "_walk", spy)
    for t, r, n in ((2, 3, 12), (2, 4, 12), (3, 4, 10), (2, 3, 9)):
        design = gen_complete_design(t, r, n)
        for k in range(1, n):
            assert compute_T(design, k) == closed_form_Tc(n, k, r, t)
    assert entered == []
    assert compute_T(gen_steiner_triple(9), 7) == 1
    assert entered


def test_layout_slots(steiner9):
    layout = build_layout(steiner9)
    for j, block in enumerate(layout.groups):
        for i, disk in enumerate(sorted(block)):
            assert layout.groups[j][i] == disk
            assert (j, i) in layout.disk_slots(disk)
    for disk in range(1, 10):
        assert len(layout.disk_slots(disk)) == 4


def test_short_generator_systematic_and_mds():
    """The library never ranks the short generator, so this is its proof
    of record: for every 2 <= t <= r <= 12, over the smallest prime
    q >= r and over GF(31), the generator is systematic and every
    m x m minor of it is invertible (16,332 minors)."""
    minors = 0
    for r in range(2, 13):
        for q in (next_prime(r - 1), 31):
            for t in range(2, r + 1):
                m = r - t + 1
                g = short_mds_generator(r, t, PrimeField(q))
                assert len(g) == r and all(len(row) == m for row in g)
                assert g[:m] == tuple(tuple(int(c == i) for c in range(m))
                                      for i in range(m))
                for sel in itertools.combinations(range(r), m):
                    flat = [x for i in sel for x in g[i]]
                    assert mat_rank(flat, m, m, q) == m, (r, t, q, sel)
                    minors += 1
    assert minors == 16332


def test_short_generator_all_ones_parity_when_t2():
    g = short_mds_generator(4, 2, PrimeField(7))
    assert g[-1] == (1, 1, 1)


def test_short_generator_needs_room():
    with pytest.raises(ValueError):
        short_mds_generator(5, 3, PrimeField(3))   # q < r
    for r, t in ((3, 1), (3, 4)):
        with pytest.raises(ValueError) as err:
            short_mds_generator(r, t, PrimeField(7))
        assert str(err.value) == f"need 2 <= t <= r, got t={t} r={r}"


def test_choose_phi_greedy():
    assert choose_phi(3, PrimeField(3)) == (1, 2)
    assert choose_phi(4, PrimeField(7)) == (1, 2, 3)
    with pytest.raises(ValueError):
        choose_phi(5, PrimeField(3))


def test_explicit_code_equals_generic_build(steiner9):
    params = derive_params(steiner9, 7)
    explicit = build_explicit_steiner_code(params, steiner9, PrimeField(3))
    built = build_code(steiner9, 7, q=3).spec
    assert explicit == built
    assert explicit.phi == (1, 2)
    # a repeated block that still claims lam = 1 is malformed input, not
    # a failure of the construction
    blocks = list(steiner9.blocks)
    blocks[1] = blocks[0]
    bad = BlockDesign(n=9, t=2, r=3, lam=1, blocks=tuple(blocks))
    with pytest.raises(ValueError) as err:
        build_code(bad, 7, q=3)
    assert type(err.value) is ValueError
    assert str(err.value) == ("design is not an S_1(2,3,9): 2-subset "
                              "(1, 2) covered 2 times, expected 1")


# Seven triples on 7 points that claim S(2,3,7): five hold the pair
# (1, 2), so disk 1 holds 5 slots where alpha says 3
NOT_A_DESIGN = BlockDesign(n=7, t=2, r=3, lam=1, blocks=(
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7), (3, 4, 5),
    (5, 6, 7)))
NOT_A_DESIGN_TEXT = ("design is not an S_1(2,3,7): 2-subset (1, 2) "
                     "covered 5 times, expected 1")


def test_a_block_list_that_is_not_a_design_is_refused():
    """build_code, derive_params and CodeSpec, made directly or from a
    spec file, refuse a block list that is not an S_lam(t, r, n), with
    the design verifier's first violation: the parameters derived from
    it would be false."""
    bad = NOT_A_DESIGN
    T = compute_T(bad, 4)
    p = _params(bad, 4, T)
    doc = {"q": 31, "design": json.loads(bad.to_json()),
           "params": {"n": p.n, "k": p.k, "d": p.d, "t": p.t, "r": p.r,
                      "lambda": p.lam, "alpha": p.alpha, "beta": p.beta,
                      "gamma": p.gamma, "M": p.M, "T": p.T,
                      "nstar": p.nstar},
           "layout": [list(b) for b in bad.blocks], "s": ["0"] * (T * p.M)}
    calls = [lambda: build_code(bad, 4), lambda: derive_params(bad, 4),
             lambda: CodeSpec(params=p, field=PrimeField(31), design=bad,
                              layout=build_layout(bad),
                              s_entries=(0,) * (T * p.M)),
             lambda: CodeSpec.from_json(json.dumps(doc))]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == NOT_A_DESIGN_TEXT
    # the report is worked out once per design object, and stays outside
    # its equality, hash and JSON
    assert verify_design(bad) is verify_design(bad)
    again = BlockDesign.from_json(bad.to_json())
    assert again == bad and hash(again) == hash(bad)
    assert verify_design(again) is not verify_design(bad)
    assert again.to_json() == bad.to_json()


def test_explicit_code_refuses_params_at_another_k(steiner9):
    """CodeSpec never derives T again, so params claiming T = 1 at
    k = n-3 would pass it; the closed form is proved only at k = n-2."""
    real = derive_params(steiner9, 6)
    claimed = _params(steiner9, 6, 1)
    assert real.T > 1 and claimed.T == 1
    with pytest.raises(ValueError, match="closed form needs k = n-2"):
        build_explicit_steiner_code(claimed, steiner9, PrimeField(3))


def test_explicit_build_derives_params_once(monkeypatch):
    """build_code walks compute_T once and hands the params to the
    closed-form constructor, which derives nothing again."""
    calls = []
    walk = construction.compute_T

    def counted(*args):
        calls.append(args)
        return walk(*args)
    monkeypatch.setattr(construction, "compute_T", counted)
    build_code(gen_steiner_triple(9), 7, q=3)
    assert len(calls) == 1


def test_spec_json_round_trip(golden_spec, tmp_path):
    text = golden_spec.to_json()
    again = CodeSpec.from_json(text)
    assert again == golden_spec
    assert again.spec_hash == golden_spec.spec_hash
    path = tmp_path / "code.json"
    golden_spec.save(path)
    assert CodeSpec.load(path) == golden_spec


def test_spec_json_rejects_tampered_entries(golden_spec):
    text = golden_spec.to_json().replace('"phi":["1","2"]',
                                         '"phi":["1","1"]')
    with pytest.raises(ValueError):
        CodeSpec.from_json(text)


def test_spec_json_rejects_both_phi_and_s(golden_spec):
    doc = json.loads(golden_spec.to_json())
    doc["s"] = ["1"]
    with pytest.raises(ValueError, match="exactly one of phi and s_entries"):
        CodeSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("key", ["n", "d", "t", "r", "lambda", "alpha",
                                 "beta", "gamma", "M", "nstar"])
def test_spec_json_rejects_a_changed_param_by_name(golden_spec, key):
    """Each derived parameter is checked against the design, and the
    error names the field.  k is left out: k alone within 1..d gives a
    consistent code with extra parity; T alone is caught through M."""
    doc = json.loads(golden_spec.to_json())
    doc["params"][key] += 1
    field = "lam" if key == "lambda" else key
    with pytest.raises(ValueError, match=rf"\bparams\.{field}\b"):
        CodeSpec.from_json(json.dumps(doc))


def test_spec_json_refuses_a_t1_design(complete9_spec):
    """A spec file on a t = 1 design, whose params match it, is refused
    with derive_params's text, before any command can use it."""
    doc = json.loads(complete9_spec.to_json())
    doc["design"] = {"n": 6, "t": 1, "r": 3, "lambda": 1,
                     "blocks": [[1, 2, 3], [4, 5, 6]]}
    doc["layout"] = doc["design"]["blocks"]
    doc["params"] = {"n": 6, "k": 4, "d": 6, "t": 1, "r": 3, "lambda": 1,
                     "alpha": 1, "beta": None, "gamma": 3, "M": 6, "T": 0,
                     "nstar": 2}
    doc["s"] = []
    with pytest.raises(ValueError) as err:
        CodeSpec.from_json(json.dumps(doc))
    assert str(err.value) == ("design strength t must be at least 2; t=1 "
                              "would require all n disks as repair helpers")
    with pytest.raises(ValueError) as again:
        derive_params(BlockDesign.from_doc(doc["design"]), 4)
    assert str(again.value) == str(err.value)


@pytest.mark.parametrize("base,tamper,want", [
    ("golden_spec", lambda doc: doc["params"].update(k=9),
     "params.k out of range"),
    ("golden_spec", lambda doc: doc["params"].update(T=-1),
     "params.T out of range"),
    ("golden_spec", lambda doc: doc["layout"].reverse(),
     "layout does not match the design placement"),
    ("complete9_spec", lambda doc: doc.update(phi=doc.pop("s")[:2]),
     "phi form requires a Steiner design with T = 1"),
    ("golden_spec", lambda doc: doc.update(phi=["1", "2", "3"]),
     "phi needs 2 coefficients"),
    ("golden_spec", lambda doc: doc.update(phi=["1", "3"]),
     "phi coefficients must be nonzero field elements"),
    ("golden_spec", lambda doc: doc.update(phi=["2", "1"]),
     "phi coefficients before the last must not equal -1"),
    ("complete9_spec", lambda doc: doc["s"].pop(),
     "s_entries needs {} values"),
    ("complete9_spec", lambda doc: doc["s"].__setitem__(0, str(doc["q"])),
     "s_entries must be reduced field elements"),
])
def test_spec_json_refusals_pinned(request, base, tamper, want):
    """Each refusal of a tampered spec file, through CodeSpec.from_json,
    names what is wrong: golden (GF(3), phi) or c9 (s entries) with one
    field changed."""
    spec = request.getfixturevalue(base)
    doc = json.loads(spec.to_json())
    tamper(doc)
    with pytest.raises(ValueError) as err:
        CodeSpec.from_json(json.dumps(doc))
    assert str(err.value) == want.format(spec.params.T * spec.params.M)


@pytest.mark.parametrize("base,field,first,want", [
    ("golden_spec", "phi", 1.0, "phi coefficient 1.0 is a float, not an int"),
    ("golden_spec", "phi", True, "phi coefficient True is a bool, not an int"),
    ("golden_spec", "phi", "1", "phi coefficient '1' is a str, not an int"),
    ("complete9_spec", "s_entries", float,
     "s_entries entry {!r} is a float, not an int"),
    ("complete9_spec", "s_entries", True,
     "s_entries entry True is a bool, not an int"),
    ("complete9_spec", "s_entries", str,
     "s_entries entry {!r} is a str, not an int"),
])
def test_spec_refuses_non_int_entries(request, base, field, first, want):
    """A float, bool or str first entry of phi or s_entries is refused
    with a text naming the field, not built as a spec equal to the int
    one whose JSON from_json would refuse.  A type as first makes the
    entry from the spec's own first entry."""
    spec = request.getfixturevalue(base)
    entries = getattr(spec, field)
    if isinstance(first, type):
        first = first(entries[0])
    with pytest.raises(ValueError) as err:
        CodeSpec(params=spec.params, field=spec.field, design=spec.design,
                 layout=spec.layout, **{field: (first, *entries[1:])})
    assert str(err.value) == want.format(first)


def test_verify_full_and_sampled(golden_spec):
    full = verify_S(golden_spec)
    assert full.ok and full.checked == full.total == 36
    assert not full.sampled
    sampled = verify_S(golden_spec, sample=10, seed=4)
    assert sampled.ok and sampled.checked == 10 and sampled.sampled
    again = verify_S(golden_spec, sample=10, seed=4)
    assert sampled.failures == again.failures


def test_sample_may_not_exceed_the_cap(s15_spec, monkeypatch):
    """A sample checks at most MAX_SUBSETS sets, whether it would draw
    them or stand for all C(15,4) = 1365 of s15's; build_code refuses
    such a sample before it derives T.  Past the cap, verify_S walks
    nothing unless a sample is asked for."""
    monkeypatch.setattr(construction, "MAX_SUBSETS", 1000)
    with pytest.raises(BudgetExceededError) as err:
        verify_S(s15_spec)
    assert str(err.value) == ("C(15,4) = 1365 erasure sets exceed the cap "
                              "1000; pass sample= to acknowledge "
                              "incomplete verification")
    assert verify_S(s15_spec, sample=1000).checked == 1000
    for sample in (1300, 2000):
        with pytest.raises(BudgetExceededError) as err:
            verify_S(s15_spec, sample=sample)
        assert str(err.value) == (
            f"a sample of {sample} of the C(15,4) = 1365 erasure sets "
            f"exceeds the cap 1000")
    monkeypatch.setattr(construction, "compute_T", None)
    with pytest.raises(BudgetExceededError, match="a sample of 1300"):
        build_code(s15_spec.design, 11, sample=1300)


def test_synthesis_check_stops_at_the_first_failure():
    """synthesize_S's check of a candidate agrees with verify_S on ok,
    and on a failing candidate stops at verify_S's first failing set."""
    for spec in _small_field_candidates():
        report = verify_S(spec)
        quick = construction._verify(spec, None, 0, True)
        assert quick.ok == report.ok
        assert quick.failures == report.failures[:1]


def test_verification_is_serial_only(golden_spec, steiner9):
    assert verify_S(golden_spec, jobs=1).ok
    with pytest.raises(ValueError, match="jobs"):
        verify_S(golden_spec, jobs=2)
    with pytest.raises(ValueError, match="jobs"):
        build_code(steiner9, 7, q=3, jobs=2)


def test_build_takes_only_auto_or_an_int_modulus(steiner9):
    """A float, bool or str modulus is refused, not truncated or
    parsed."""
    for q, kind in ((7.9, "float"), (True, "bool"), ("11", "str")):
        with pytest.raises(ValueError) as err:
            build_code(steiner9, 7, q=q)
        assert str(err.value) == (f"modulus {q!r} is a {kind}, not 'auto' "
                                  f"or an int")
    assert build_code(steiner9, 7, q=7).spec.field.q == 7


def test_build_checks_budget_and_sample_on_every_path(steiner9):
    # k = n-2 on a Steiner system takes the closed form; T = 0 needs no
    # synthesis: neither path may accept a search it would not run
    t0 = gen_complete_design(2, 3, 6)
    for design, k in ((steiner9, 7), (t0, 5)):
        with pytest.raises(ValueError, match="budget"):
            build_code(design, k, q=3, budget=0)
        with pytest.raises(ValueError, match="sample"):
            build_code(design, k, q=3, sample=0)
    with pytest.raises(ValueError, match="sample"):
        synthesize_S(derive_params(t0, 5), t0, PrimeField(11), sample=0)


def test_verify_flags_broken_parity(golden_spec):
    p = golden_spec.params
    broken = CodeSpec(params=p, field=golden_spec.field,
                      design=golden_spec.design, layout=golden_spec.layout,
                      s_entries=(0,) * (p.T * p.M))
    report = verify_S(broken)
    assert not report.ok
    assert report.failures


def test_synthesis_trivial_when_no_deficit():
    design = gen_complete_design(2, 3, 6)
    params = derive_params(design, 5)   # one erased disk never overlaps
    assert params.T == 0
    result = synthesize_S(params, design, PrimeField(11))
    assert result.attempts == 0
    assert result.spec.s_entries == ()


def test_synthesis_reports_exhausted_budget():
    design = gen_complete_design(2, 3, 9)
    params = derive_params(design, 7)
    with pytest.raises(SynthesisError) as err:
        synthesize_S(params, design, PrimeField(11), budget=2)
    assert "40572" in str(err.value)


def test_structured_candidate_wins_at_large_q(complete9_build):
    assert complete9_build.structured
    assert complete9_build.attempts == 1


@pytest.mark.parametrize("M,T,q", [(1, 1, 2), (2, 1, 3), (3, 2, 5),
                                   (5, 3, 11), (6, 4, 13), (23, 1, 29)])
def test_vandermonde_parity_closed_form(M, T, q):
    """S @ V_top == V_bot for the Vandermonde nodes 0..M+T-1."""
    s = list(_vandermonde_parity(M, T, PrimeField(q)))
    vtop = [pow(i, e, q) for i in range(M) for e in range(M)]
    vbot = [pow(M + i, e, q) for i in range(T) for e in range(M)]
    assert mat_mul(s, T, M, vtop, M, M, q) == vbot


def test_reference_spec_hashes_unchanged(golden_spec, complete9_spec,
                                         t3_spec, s15_spec):
    """Spec bytes of the reference codes built with seed 0 are pinned."""
    pins = (
        (golden_spec, 3, "4d5332ecb962e816dee1d328544b0f58"
                         "b7d9021f2efc5c9b45265233141f252e"),
        (complete9_spec, 40577, "c76e8bbb1e2f6143099c21573fff1d78"
                                "a97f6178ab247c4ad7a291cf98f52fdb"),
        (t3_spec, 9241, "91e3860b47e368997b60e15b16f51f1f"
                        "99ad78250b7d47cebc82c0f7ff4bf915"),
        (s15_spec, 524171, "7cbb176ce4cba73ac89e09ce7214e127"
                           "ec6fb0d1f63f0e2e221cfd6c201e2753"),
    )
    for spec, q, pin in pins:
        assert spec.field.q == q
        assert hashlib.sha256(spec.to_json().encode()).hexdigest() == pin


def test_synthesis_outcomes_pinned():
    """Attempts, structured flag and spec bytes of builds that try
    failing candidates first, and the text of a build whose budget runs
    out, are pinned."""
    c9, s15 = gen_complete_design(2, 3, 9), gen_steiner_triple(15)
    pins = (
        (c9, 7, 11, 6, False, "056c504650b14672441327cd27af85bd"
                              "62ff3b85486ae651f45033c30b8d6bf9"),
        (c9, 7, 31, 4, False, "8741a682e80dcdd5bfc0af4a6f073a83"
                              "4b314012f2394168954b08986a92d6d8"),
        (s15, 11, 211, 1, True, "904d05a3fd757e7c8fd08934561e5e5a"
                                "e2877c478738cdc64f937070d698fc58"),
    )
    for design, k, q, attempts, structured, pin in pins:
        result = build_code(design, k, q=q)
        assert (result.attempts, result.structured) == (attempts, structured)
        assert hashlib.sha256(
            result.spec.to_json().encode()).hexdigest() == pin
    with pytest.raises(SynthesisError) as err:
        build_code(s15, 11, q=101)
    assert str(err.value) == (
        "no admissible S after 8 candidates over GF(101); the existence "
        "guarantee needs q > C(n,k)*T*M = 524160")


def test_benchmark_saved_specs_are_the_built_specs(complete9_spec,
                                                   s15_spec):
    """The specs the benchmark's store workloads load are, byte for
    byte, the saved form of the reference codes built with seed 0."""
    for name, spec in (("c9", complete9_spec), ("s15", s15_spec)):
        path = SPECS / f"{name}.json"
        assert CodeSpec.load(path) == spec
        assert path.read_text(encoding="utf-8") == spec.to_json() + "\n"


def _erasure_sets(spec):
    p = spec.params
    return itertools.combinations(range(1, p.n + 1), p.n - p.k)


def _dense_decodable(spec, a):
    """Rank check of the dense reference system on one erasure set."""
    _, rows = erasure_system(spec, a)
    flat = [x for row in rows for x in row]
    return mat_rank(flat, len(rows), spec.params.M, spec.field.q) \
        == spec.params.M


def _dense_failures(spec):
    """Erasure sets on which the dense reference system loses rank."""
    return tuple(a for a in _erasure_sets(spec)
                 if not _dense_decodable(spec, a))


def _random_candidate(design, k, q, seed):
    params = derive_params(design, k)
    rng = random.Random(seed)
    return CodeSpec(params=params, field=PrimeField(q), design=design,
                    layout=build_layout(design),
                    s_entries=tuple(rng.randrange(q)
                                    for _ in range(params.T * params.M)))


def _small_field_candidates():
    """Seeded candidates over GF(5), GF(7) and GF(31) on which the rank
    condition really fails, with group kernels of dimension 1 to 3."""
    specs = []
    for q in (7, 31):
        for seed in (0, 1):
            specs += [_random_candidate(gen_steiner_triple(9), 7, q, seed),
                      _random_candidate(gen_complete_design(2, 3, 9), 7, q,
                                        seed),
                      _random_candidate(gen_complete_design(3, 4, 7), 4, q,
                                        seed)]
    return specs + [_random_candidate(gen_steiner_triple(15), 11, 7, 0),
                    _random_candidate(gen_complete_design(3, 5, 7), 4, 5, 0),
                    _random_candidate(S_2_4_13, 9, 5, 0)]


def test_structural_rank_matches_dense_reference(golden_spec, complete9_spec,
                                                 t3_spec, s15_spec):
    """verify_S's reduced T x T(A) check fails on exactly the erasure sets
    where the dense (r*N*) x M system loses rank, also where group
    kernels have dimension 2 or more and the short layer has Cauchy
    rows."""
    specs = [golden_spec, complete9_spec, t3_spec, s15_spec]
    failing = 0
    for spec in specs + _small_field_candidates():
        want = _dense_failures(spec)
        assert verify_S(spec).failures == want
        failing += len(want)
    assert failing > 100    # small fields really fail the rank condition


def test_verify_reports_are_pinned(golden_spec, complete9_spec, t3_spec,
                                   s15_spec):
    """Every VerifyReport field, exhaustive and sampled, on the reference
    codes and the small-field candidates, down to the exact reductions
    and pruned counts."""
    specs = [golden_spec, complete9_spec, t3_spec, s15_spec]
    reports = [(verify_S(spec), verify_S(spec, sample=17, seed=3))
               for spec in specs + _small_field_candidates()]
    assert all(sampled.sampled for _, sampled in reports)
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
        "eb96bbc80448c6affb4bf001d1ad2a01"
        "05d3a9f23814b38961fcc1a12a3e1e36")


def test_reconstruct_fails_exactly_where_verify_fails():
    """On small-field candidates a read raises ValueError on exactly
    verify_S's failing sets and returns the message on all others."""
    codes = ((gen_complete_design(3, 4, 7), 4, 7, 1),
             (gen_complete_design(3, 5, 7), 4, 5, 0),
             (gen_complete_design(2, 3, 9), 7, 7, 0),
             (S_2_4_13, 9, 5, 1))
    for design, k, q, seed in codes:
        spec = _random_candidate(design, k, q, seed)
        failing = set(verify_S(spec).failures)
        assert failing
        msg = MessageVector.random(q, spec.params.M, seed=seed)
        shares = encode(spec, msg)
        for a in _erasure_sets(spec):
            held = shares.without(*a)
            if a in failing:
                with pytest.raises(ValueError, match="rank condition") as err:
                    reconstruct(spec, held)
                assert not isinstance(err.value, CorruptionError)
            else:
                assert reconstruct(spec, held) == msg


def _rank_oracle_failures(specs):
    """The erasure sets of specs on one design where the T x T(A) images
    of a set's heavy groups (plan, group_decoder, parity_block), ranked
    from scratch, lose rank; one list per spec."""
    p, layout = specs[0].params, specs[0].layout
    disks = set(range(1, p.n + 1))
    blocks = [{} for _ in specs]      # (group, used rows) -> image columns
    want = [[] for _ in specs]
    for a in _erasure_sets(specs[0]):
        # the heavy groups lie on the erased disks; the plan is q-free
        near = sorted({j for x in a for j in layout.disk_columns(x)[0]})
        heavy = [(j, used) for j, used, _ in plan(specs[0], disks - set(a),
                                                   near) if len(used) < p.m]
        for spec, made, fails in zip(specs, blocks, want):
            cols = []
            for key in heavy:
                if key not in made:
                    made[key] = parity_block(spec, key[0], group_decoder(
                        spec, lost_mask(spec, key[1]))[3])
                cols += made[key]
            if mat_rank([col[u] for u in range(p.T) for col in cols], p.T,
                        len(cols), spec.field.q) < len(cols):
                fails.append(a)
    return want


def test_leaf_decisions_match_a_per_set_rank_oracle(monkeypatch):
    """On STS(19) k=15 candidates over GF(31) and GF(101), and an STS(15)
    k=11 one over GF(13), verify_S fails on exactly the erasure sets
    where a per-set rank oracle does: 102, 35 and 93 sets, every one
    decided at a leaf.  A spy on the leaf decisions, written (s, L, D)
    for path images, leaf images and quotient coordinates, shows each
    branch deciding passing and failing leaves, each as the oracle does:
    the unrolled map and determinant (3, 3, 3), the cross product
    (3, 2, 3) and the elimination at a block head (2, 3, 4).  The
    first-failure check agrees."""
    specs = [_random_candidate(gen_steiner_triple(19), 15, q, 0)
             for q in (31, 101)]
    small = [_random_candidate(gen_steiner_triple(15), 11, 13, 0)]
    want = _rank_oracle_failures(specs) + _rank_oracle_failures(small)
    assert [len(fails) for fails in want] == [102, 35, 93]
    decided, owners = [], []          # ((s, L, D), passed); their sets
    real_decider, real_walk = construction._leaf_decider, construction._walk

    def decider(quotient, q):
        first = real_decider(quotient, q)
        s, dim = len(quotient[0]), len(quotient[1])

        def spy(vs):
            bad = first(vs)
            decided.append(((s, len(vs), dim), bad is None))
            return bad
        return spy

    def walk(*args):
        # verify_S decides a leaf after the walk yields it
        for item in real_walk(*args):
            yield item
            owners.extend([item[0]] * (len(decided) - len(owners)))

    monkeypatch.setattr(construction, "_leaf_decider", decider)
    monkeypatch.setattr(construction, "_walk", walk)
    seen = {}
    for spec, fails in zip(specs + small, want):
        decided.clear()
        owners.clear()
        report = verify_S(spec)
        assert report.failures == tuple(fails) and report.pruned == 0
        failing = set(fails)
        assert len(owners) == len(decided)
        for a, (shape, passed) in zip(owners, decided):
            assert passed == (a not in failing)
            seen.setdefault(shape, set()).add(passed)
        assert not construction._verify(spec, None, 0, True).ok
    for shape in ((3, 3, 3), (3, 2, 3), (2, 3, 4)):
        assert seen[shape] == {True, False}


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7, 31]), cols=st.integers(1, 7),
       data=st.data())
def test_annihilator_cuts_out_the_span(q, cols, data):
    """For an echelon_add basis of s rows over small q, annihilator gives
    the quotient gathered: the s pivots, the cols - s other columns in
    order and, for each, s coefficients on the pivots.  Every quotient
    coordinate of a basis row, or of a combination of them, is 0 mod q,
    and a row v lies in the span exactly when all of v's are."""
    row = st.lists(st.integers(0, 3 * q), min_size=cols, max_size=cols)
    basis = []
    for r in data.draw(st.lists(row, max_size=cols + 2)):
        echelon_add(basis, r, q)
    pivots, free, coef = annihilator(basis, cols, q)
    assert pivots == [piv for piv, _ in basis]
    assert free == [c for c in range(cols) if c not in pivots]
    assert len(coef) == len(free)
    assert all(len(c) == len(basis) and all(0 <= x < q for x in c)
               for c in coef)

    def coords(v):
        return [(v[c] + sum(a * v[i] for a, i in zip(co, pivots))) % q
                for c, co in zip(free, coef)]

    mix = data.draw(st.lists(st.integers(0, q - 1), min_size=len(basis),
                             max_size=len(basis)))
    combo = [sum(a * b[u] for a, (_, b) in zip(mix, basis))
             for u in range(cols)]
    assert not any(coords(combo))
    assert all(not any(coords(b)) for _, b in basis)
    for v in data.draw(st.lists(row, min_size=1, max_size=4)):
        in_span = not echelon_add(list(basis), v, q)
        assert in_span == (not any(coords(v)))


@pytest.mark.parametrize("T,s,L", [(6, 3, 3), (6, 3, 2), (6, 3, 1),
                                   (6, 2, 3), (4, 1, 3), (4, 1, 2),
                                   (3, 0, 3), (3, 0, 2), (2, 0, 2),
                                   (1, 0, 1), (7, 0, 7)])
@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7, 31]), data=st.data())
def test_leaf_decider_matches_echelon_add(T, s, L, q, data):
    """On random small-field path bases of up to s rows and L leaf
    images, each drawn at random or as a combination of the basis and
    the images before it, _leaf_decider names the same first dependent
    image as plain echelon_add, through each of its closed forms (the
    unrolled 3-on-3 map and its determinant, the determinant for
    L = D = 3, the cross product for L = 2 in D = 3) and the
    elimination, which alone decides the smaller shapes."""
    row = st.lists(st.integers(0, 3 * q), min_size=T, max_size=T)
    basis = []
    for r in data.draw(st.lists(row, min_size=s, max_size=s)):
        echelon_add(basis, r, q)
    vs = []
    for _ in range(L):
        if data.draw(st.booleans()):
            mix = [b for _, b in basis] + vs
            co = data.draw(st.lists(st.integers(0, q - 1),
                                    min_size=len(mix), max_size=len(mix)))
            vs.append([sum(a * b[u] for a, b in zip(co, mix))
                       for u in range(T)])
        else:
            vs.append(data.draw(row))
    tried = list(basis)
    want = next((at for at, v in enumerate(vs)
                 if not echelon_add(tried, v, q)), None)
    first = construction._leaf_decider(annihilator(basis, T, q), q)
    assert first(vs) == want


def _prefix_fails(spec, prefix):
    """Rank check of [S | -I] on the kernels of the groups that the
    disks `prefix` hit in t or more disks, made from scratch."""
    t, q, T = spec.params.t, spec.field.q, spec.params.T
    cols = []
    for j, group in enumerate(spec.layout.groups):
        rows = tuple(i for i, disk in enumerate(group) if disk not in prefix)
        if len(group) - len(rows) >= t:
            kernel = group_decoder(spec, lost_mask(spec, rows))[3]
            cols += parity_block(spec, j, kernel)
    width = len(cols)
    return width > 0 and mat_rank([col[u] for u in range(T) for col in cols],
                                  T, width, q) < width


def _walk_bounds(spec):
    """(fewest, most, pruned, failures) for a depth-first walk of the
    erasure sets: the fewest and most kernel vectors it reduces, the
    number of sets a failed shorter prefix decides, and the failing sets.

    A node of the walk is a prefix of an erasure set.  Adding its last
    disk x grows one kernel per block through x that the prefix hits in
    t or more disks.  Below a failed prefix nothing is reduced; at the
    failing node itself at least one vector and at most all of them."""
    p = spec.params
    miss = p.n - p.k
    sets = list(_erasure_sets(spec))
    nodes = sorted({a[:d] for a in sets for d in range(1, miss + 1)})
    fails = {node: _prefix_fails(spec, node) for node in nodes}
    fewest = most = 0
    for node in nodes:
        if any(fails[node[:d]] for d in range(1, len(node))):
            continue
        grown = sum(len(set(block) & set(node)) >= p.t
                    for block in spec.layout.groups if node[-1] in block)
        fewest += 1 if fails[node] else grown
        most += grown
    pruned = sum(any(fails[a[:d]] for d in range(1, miss)) for a in sets)
    return fewest, most, pruned, tuple(a for a in sets if fails[a])


def test_verify_walk_reduces_once_per_heavy_block(t3_spec, monkeypatch):
    """verify_S ranks no matrix: along its walk it reduces at most one
    kernel vector per block that reaches t hits, and none below a failed
    prefix, whose completions it counts as pruned."""
    def no_rank(*args):
        raise AssertionError("verify_S called mat_rank")

    t0 = gen_complete_design(3, 4, 7)
    specs = [synthesize_S(derive_params(t0, 5), t0, PrimeField(7)).spec,
             t3_spec,
             _random_candidate(gen_complete_design(3, 5, 7), 4, 5, 0),
             _random_candidate(gen_steiner_triple(9), 7, 7, 0),
             _zero_s(_random_candidate(gen_complete_design(2, 3, 8), 4, 2,
                                       0))]
    assert specs[0].params.T == 0      # n - k = 2 < t: every T(A) is 0
    for spec in specs:
        fewest, most, pruned, failures = _walk_bounds(spec)
        spec.short_gen                 # cached before the patch
        with monkeypatch.context() as patch:
            patch.setattr(construction, "_krank", no_rank)
            report = verify_S(spec)
        assert fewest <= report.reductions <= most
        assert report.pruned == pruned
        assert report.failures == failures
    assert report.pruned > 0           # the S = 0 code fails on prefixes


def _zero_s(spec, group=None):
    """spec with S zeroed: all of it, or the columns of one group's
    message positions."""
    p = spec.params
    cols = range(p.M) if group is None else range(group * p.m,
                                                  (group + 1) * p.m)
    s = list(spec.s_entries)
    for t in range(p.T):
        for x in cols:
            s[t * p.M + x] = 0
    return _with_s(spec, s)


def _sampled_sets(spec, sample, seed):
    """The erasure sets verify_S(spec, sample=, seed=) checks: the sets
    it draws by rejection or, for a sample of more than half the sets,
    every set but the ones it draws."""
    p = spec.params
    every = set(_erasure_sets(spec))
    want = min(sample, len(every) - sample)
    rng = random.Random(seed)
    drawn = set()
    while len(drawn) < want:
        drawn.add(tuple(sorted(rng.sample(range(1, p.n + 1), p.n - p.k))))
    return drawn if want == sample else every - drawn


def test_verify_prunes_failed_prefixes():
    """Codes that fail on prefixes shorter than n - k: S = 0 on
    complete(2,3,8) k=4 over GF(2), checked against the dense reference,
    and S(2,3,15) k=10 over GF(3) with one group's message columns of S
    zeroed, checked set by set on the reduced system of each set's plan.
    A sampled check fails on exactly the exhaustive failures it draws."""
    zero = _zero_s(_random_candidate(gen_complete_design(2, 3, 8), 4, 2, 0))
    report = verify_S(zero)
    assert report.failures == _dense_failures(zero)
    assert report.pruned > 0
    spec = _zero_s(_random_candidate(gen_steiner_triple(15), 10, 3, 0),
                   group=0)
    report = verify_S(spec)
    p = spec.params
    want = []
    for a in _erasure_sets(spec):
        held = set(range(1, p.n + 1)) - set(a)
        cols = [col for j, used, _ in plan(spec, held) if len(used) < p.m
                for col in parity_block(spec, j, group_decoder(
                    spec, lost_mask(spec, used))[3])]
        matrix = [col[u] for u in range(p.T) for col in cols]
        if mat_rank(matrix, p.T, len(cols), spec.field.q) < len(cols):
            want.append(a)
    assert report.failures == tuple(want)
    assert 0 < report.pruned < len(want) < report.total
    for sample, seed in ((40, 1), (700, 2)):
        sampled = verify_S(spec, sample=sample, seed=seed)
        drawn = _sampled_sets(spec, sample, seed)
        assert sampled.checked == sample and sampled.sampled
        assert sampled.failures == tuple(a for a in want if a in drawn)


def test_sample_near_the_total_draws_the_sets_left_out(monkeypatch):
    """A sample of 1,364 of the 1,365 erasure sets of a failing S(2,3,15)
    k=11 candidate draws the one set it leaves out, with at most one
    rejected draw, where rejection sampling of the sample itself took
    thousands; it fails on exactly the exhaustive failures it checks."""
    spec = _random_candidate(gen_steiner_triple(15), 11, 7, 0)
    want = verify_S(spec).failures
    draws = []

    class Counting(random.Random):
        def sample(self, *args, **kwargs):
            draws.append(args)
            return super().sample(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(construction.random, "Random", Counting)
        report = verify_S(spec, sample=1364, seed=5)
    assert len(draws) - (1365 - 1364) <= 1
    checked = _sampled_sets(spec, 1364, 5)
    assert len(checked) == report.checked == 1364 and report.sampled
    assert report.failures == tuple(a for a in want if a in checked)
    assert report.failures


def test_plan_splits_the_held_rows(golden_spec, t3_spec, s15_spec,
                                  failing_c9_spec):
    """On every erasure set a: used is a group's lowest min(m, held) held
    rows and surplus the rest, a group that a misses uses rows 0..m-1,
    and the heavy groups lack compute_TA(a) rows in all.  A repair plan
    from the n - 1 other disks or from any d of them has no heavy
    group."""
    for spec in (golden_spec, t3_spec, s15_spec, failing_c9_spec):
        p = spec.params
        disks = set(range(1, p.n + 1))
        whole = (tuple(range(p.m)), tuple(range(p.m, p.r)))
        for a in _erasure_sets(spec):
            steps = plan(spec, disks - set(a))
            assert [j for j, _, _ in steps] == list(range(p.nstar))
            deficit = 0
            for (_, used, surplus), block in zip(steps, spec.layout.groups):
                held = tuple(i for i, x in enumerate(block) if x not in a)
                assert (used, surplus) == (held[:p.m], held[p.m:])
                if not set(block) & set(a):
                    assert (used, surplus) == whole
                if len(used) < p.m:
                    deficit += p.m - len(used)
            assert deficit == compute_TA(spec.design, a)
        for failed in disks:
            groups = spec.layout.disk_columns(failed)[0]
            for size in {p.d, p.n - 1}:
                for helpers in itertools.combinations(disks - {failed},
                                                      size):
                    steps = plan(spec, set(helpers), groups)
                    assert tuple(j for j, _, _ in steps) == groups
                    assert all(len(used) == p.m for _, used, _ in steps)


def test_no_cyclic_garbage(s15_spec, complete9_spec):
    """Verification, building and the codec leave no reference cycles,
    which would hold specs and tables until the cyclic collector runs."""
    spec = complete9_spec
    gc.collect()
    gc.disable()
    try:
        verify_S(s15_spec)
        compute_T(spec.design, spec.params.k)
        build_code(spec.design, spec.params.k, q="auto")
        msg = MessageVector.random(spec.field.q, spec.params.M, seed=2)
        shares = encode(spec, msg)
        assert reconstruct(spec, shares.without(1, 2)) == msg
        assert repair(spec, 3, shares.without(3))[0] == shares.get(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _with_s(spec, entries):
    return CodeSpec(params=spec.params, field=spec.field, design=spec.design,
                    layout=spec.layout, s_entries=tuple(entries))


def test_erasure_system_rows_give_stored_symbols(golden_spec, t3_spec):
    """Each dense row applied to the message is the symbol its disk
    stores, and the rows cover every surviving slot."""
    for spec in (golden_spec, t3_spec):
        p, q = spec.params, spec.field.q
        msg = MessageVector.random(q, p.M, seed=3)
        stored = {}
        for share in encode(spec, msg):
            stored.update(share.value_map())
        for a in list(_erasure_sets(spec))[:5]:
            kept, rows = erasure_system(spec, a)
            assert sorted(kept) == sorted(
                c for disk in range(1, p.n + 1) if disk not in a
                for c in spec.layout.disk_slots(disk))
            for c, row in zip(kept, rows):
                assert sum(x * v for x, v in zip(row, msg.values)) % q \
                    == stored[c]


def test_witness_generalizes_to_deeper_overlap(t3_spec):
    for a in _erasure_sets(t3_spec):
        witness = rank_witness(t3_spec, a)
        assert _dense_decodable(_with_s(t3_spec, witness), a)


def test_witness_stacks_heavy_groups_in_ascending_order(s15_spec):
    """The witness greedy stacks the heavy groups' kernels in ascending
    group order, whichever erased disk each group is found through.  On
    S(2,3,15) with four disks erased, heavy groups sit on different
    disks, and a digest pins all 1,365 witnesses."""
    witnesses = [rank_witness(s15_spec, a)
                 for a in itertools.combinations(range(1, 16), 4)]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
        "3e4b39d2434d8c7a5cb2fd6003f6a9ad"
        "3c552e2456914231c01145d341e9edce")


def test_witness_is_zero_one_and_decodes_on_small_fields():
    """Witness rows are zero or unit vectors and reach full dense rank on
    every erasure set, also over fields where random S often fails."""
    codes = ((gen_complete_design(3, 4, 7), 4, 5),
             (gen_complete_design(2, 3, 8), 4, 2),
             (S_2_4_13, 9, 5),
             (gen_complete_design(3, 5, 7), 4, 5))
    for design, k, q in codes:
        spec = _random_candidate(design, k, q, 0)
        for a in _erasure_sets(spec):
            witness = rank_witness(spec, a)
            for row in _with_s(spec, witness).s_rows:
                assert set(row) <= {0, 1} and sum(row) <= 1
            assert _dense_decodable(_with_s(spec, witness), a)


def test_witness_self_check_rejects_a_wrong_structure(golden_spec,
                                                      monkeypatch):
    # with no heavy groups the greedy keeps S = 0, which no erasure set
    # of the golden code survives; the dense self-check must say so
    real = construction.group_decoder
    monkeypatch.setattr(construction, "group_decoder",
                        lambda spec, lost_mask: real(spec, 0))
    with pytest.raises(WitnessError):
        rank_witness(golden_spec, (1, 2))


def test_erasure_checked(golden_spec):
    with pytest.raises(ValueError):
        rank_witness(golden_spec, (1,))         # wrong size
    with pytest.raises(ValueError):
        rank_witness(golden_spec, (0, 3))       # out of range
    with pytest.raises(ValueError):
        erasure_system(golden_spec, (2, 2))     # duplicates


@given(st.integers(2, 8), st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_built_codes_decode_after_worst_erasure(n, seed):
    """Any complete-design code we can build decodes at its design k."""
    import random
    rng = random.Random(seed)
    r = rng.randint(2, n)
    d = n - 1
    k = rng.randint(max(1, n - 4), d)
    design = gen_complete_design(2, r, n)
    try:
        params = derive_params(design, k)
    except ValueError:
        return
    try:
        spec = build_code(design, k, q="auto", seed=seed).spec
    except SynthesisError:
        pytest.fail("auto field must satisfy the existence threshold")
    assert verify_S(spec).ok
    assert spec.params == params
