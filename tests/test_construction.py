"""Parameter derivation, layout, long-parity synthesis, verification."""

import gc
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc import construction
from rgc.codec import (CorruptionError, MessageVector, encode, reconstruct,
                       repair)
from rgc.construction import (BudgetExceededError, CodeSpec, SynthesisError,
                              WitnessError, build_code,
                              build_explicit_steiner_code,
                              build_layout, choose_phi, closed_form_Tc,
                              compute_T, compute_TA, derive_params,
                              _vandermonde_parity, erasure_system,
                              group_decoder, parity_block, rank_witness,
                              reduced_system, short_mds_generator,
                              stack_blocks, synthesize_S, verify_S)
from rgc.designs import S_2_4_13, gen_complete_design, gen_steiner_triple
from rgc.ffield import PrimeField
from rgc._kernel import mat_mul, mat_rank


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


def test_deficit_budget_guard():
    # C(30, 15) = 155,117,520 erasure sets exceed MAX_SUBSETS; the cap is
    # checked before any set is enumerated
    design = gen_complete_design(2, 3, 30)
    with pytest.raises(BudgetExceededError):
        compute_T(design, 15)


def test_closed_form_matches_exhaustive_small():
    for n in (5, 7):
        for r in range(2, n + 1):
            design = gen_complete_design(2, r, n)
            for k in range(1, n):
                assert compute_T(design, k) == closed_form_Tc(n, k, r)


def test_layout_slots(steiner9):
    layout = build_layout(steiner9)
    for j, block in enumerate(layout.groups):
        for i, disk in enumerate(sorted(block)):
            assert layout.groups[j][i] == disk
            assert (j, i) in layout.disk_slots(disk)
    for disk in range(1, 10):
        assert len(layout.disk_slots(disk)) == 4


def test_short_generator_systematic_and_mds():
    field = PrimeField(11)
    g = short_mds_generator(5, 3, field)   # m = 3, r = 5
    assert len(g) == 5 and all(len(row) == 3 for row in g)
    assert g[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # MDS: every 3x3 minor of the 5x3 stack is invertible
    for sel in itertools.combinations(range(5), 3):
        flat = [x for i in sel for x in g[i]]
        assert mat_rank(flat, 3, 3, 11) == 3


def test_short_generator_all_ones_parity_when_t2():
    g = short_mds_generator(4, 2, PrimeField(7))
    assert g[-1] == (1, 1, 1)


def test_short_generator_needs_room():
    with pytest.raises(ValueError):
        short_mds_generator(5, 3, PrimeField(3))   # q < r


def test_choose_phi_greedy():
    assert choose_phi(3, PrimeField(3)) == (1, 2)
    assert choose_phi(4, PrimeField(7)) == (1, 2, 3)
    with pytest.raises(ValueError):
        choose_phi(5, PrimeField(3))


def test_explicit_code_equals_generic_build(steiner9):
    explicit = build_explicit_steiner_code(steiner9, PrimeField(3))
    built = build_code(steiner9, 7, q=3).spec
    assert explicit == built
    assert explicit.phi == (1, 2)


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


def test_verify_full_and_sampled(golden_spec):
    full = verify_S(golden_spec)
    assert full.ok and full.checked == full.total == 36
    assert not full.sampled
    sampled = verify_S(golden_spec, sample=10, seed=4)
    assert sampled.ok and sampled.checked == 10 and sampled.sampled
    again = verify_S(golden_spec, sample=10, seed=4)
    assert sampled.failures == again.failures


def test_verification_is_serial_only(golden_spec, steiner9):
    assert verify_S(golden_spec, jobs=1).ok
    with pytest.raises(ValueError, match="jobs"):
        verify_S(golden_spec, jobs=2)
    with pytest.raises(ValueError, match="jobs"):
        build_code(steiner9, 7, q=3, jobs=2)


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


def _prefix_fails(spec, prefix):
    """Rank check of [S | -I] on the kernels of the groups that the
    disks `prefix` hit in t or more disks, made from scratch."""
    t, q, T = spec.params.t, spec.field.q, spec.params.T
    blocks = []
    for j, group in enumerate(spec.layout.groups):
        rows = tuple(i for i, disk in enumerate(group) if disk not in prefix)
        if len(group) - len(rows) >= t:
            _, kernel = group_decoder(spec, rows)
            blocks.append(parity_block(spec, j, kernel))
    width = sum(map(len, blocks))
    return width > 0 and mat_rank(stack_blocks(blocks, T), T, width,
                                  q) < width


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
        spec.short_gen                 # its MDS check ranks minors
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
    """The erasure sets verify_S(spec, sample=, seed=) draws."""
    p = spec.params
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < sample:
        chosen.add(tuple(sorted(rng.sample(range(1, p.n + 1), p.n - p.k))))
    return chosen


def test_verify_prunes_failed_prefixes():
    """Codes that fail on prefixes shorter than n - k: S = 0 on
    complete(2,3,8) k=4 over GF(2), checked against the dense reference,
    and S(2,3,15) k=10 over GF(3) with one group's message columns of S
    zeroed, checked set by set on the reduced system.  A sampled check
    fails on exactly the exhaustive failures it draws."""
    zero = _zero_s(_random_candidate(gen_complete_design(2, 3, 8), 4, 2, 0))
    report = verify_S(zero)
    assert report.failures == _dense_failures(zero)
    assert report.pruned > 0
    spec = _zero_s(_random_candidate(gen_steiner_triple(15), 10, 3, 0),
                   group=0)
    report = verify_S(spec)
    want = []
    for a in _erasure_sets(spec):
        _, matrix, width = reduced_system(spec, a)
        if mat_rank(matrix, spec.params.T, width, spec.field.q) < width:
            want.append(a)
    assert report.failures == tuple(want)
    assert 0 < report.pruned < len(want) < report.total
    for sample, seed in ((40, 1), (700, 2)):
        sampled = verify_S(spec, sample=sample, seed=seed)
        drawn = _sampled_sets(spec, sample, seed)
        assert sampled.checked == sample and sampled.sampled
        assert sampled.failures == tuple(a for a in want if a in drawn)


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
    monkeypatch.setattr(construction, "reduced_system",
                        lambda spec, a: ({}, [], 0))
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
