"""Share encoding, single-disk repair, and message reconstruction."""

import hashlib
import itertools
import random
import re
import struct
import sys
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc import _kernel
from rgc.codec import (CorruptionError, DiskShare, MessageVector,
                       ShareFormatError, ShareSet, check_share, encode,
                       read_share, reconstruct, repair, share_from_bytes,
                       share_to_bytes, symbol_width, write_share)
from rgc.codespec import CodeSpec, _pack_lanes, group_decoder
from rgc.construction import build_code, compute_TA, verify_S
from rgc.designs import gen_complete_design, gen_steiner_triple
from rgc.ffield import MAX_MODULUS, PrimeField, is_prime

from conftest import lost_mask, parity_block, plan


def _msg(spec, seed):
    return MessageVector.random(spec.field.q, spec.params.M, seed=seed)


def test_message_text_round_trip():
    msg = MessageVector.from_text(7, " 1 2\n3\t4 ")
    assert msg.values == (1, 2, 3, 4)
    assert MessageVector.from_text(7, msg.to_text()) == msg
    with pytest.raises(ValueError):
        MessageVector.from_text(7, "1 2 x")
    with pytest.raises(ValueError):
        MessageVector(7, (7,))


def test_message_modulus_is_an_int():
    """A message's modulus is exactly an int: a float, str, bool or None
    is refused with a ValueError naming it, not kept as a modulus or
    left to a bare TypeError.  An int below 2 is refused too."""
    for q in (7.5, "7", True, None):
        for values in ((1, 2), ()):
            with pytest.raises(ValueError) as err:
                MessageVector(q, values)
            assert str(err.value) == (f"modulus {q!r} is a "
                                      f"{type(q).__name__}, not an int")
    for q in (1, 0, -3):
        with pytest.raises(ValueError) as err:
            MessageVector(q, ())
        assert str(err.value) == "modulus must be at least 2"


def test_random_message_length_is_not_negative():
    """MessageVector.random refuses a negative length instead of
    returning an empty message; length 0 is the empty message."""
    with pytest.raises(ValueError, match="^length -3 is negative$"):
        MessageVector.random(7, -3)
    assert MessageVector.random(7, 0).values == ()


def test_share_set_semantics(golden_spec):
    shares = encode(golden_spec, _msg(golden_spec, 0))
    assert shares.disks() == tuple(range(1, 10))
    assert len(shares.without(3, 7)) == 7
    assert shares.subset([5, 2]).disks() == (2, 5)
    assert shares.subset([2, 2]).disks() == (2,)   # set semantics
    with pytest.raises(ValueError):
        shares.subset([2, 44])
    with pytest.raises(ValueError):
        shares.get(77)
    with pytest.raises(ValueError):
        ShareSet((shares.get(1), shares.get(1)))


def test_share_layout_matches_spec(golden_spec):
    shares = encode(golden_spec, _msg(golden_spec, 1))
    for share in shares:
        check_share(golden_spec, share)
        assert len(share.symbols) == golden_spec.params.alpha
    bad = DiskShare(disk=1, symbols=((0, 0, 1),))
    with pytest.raises(ShareFormatError):
        check_share(golden_spec, bad)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_round_trip_over_random_k_subsets(golden_spec, seed):
    rng = random.Random(seed)
    msg = _msg(golden_spec, rng.randrange(10 ** 9))
    shares = encode(golden_spec, msg)
    keep = rng.sample(range(1, 10), 7)
    assert reconstruct(golden_spec, shares.subset(keep)) == msg


@given(st.integers(1, 9), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_repair_is_exact_and_idempotent(golden_spec, failed, seed):
    shares = encode(golden_spec, _msg(golden_spec, seed))
    rebuilt, transcript = repair(golden_spec, failed,
                                 shares.without(failed))
    assert rebuilt == shares.get(failed)
    again, _ = repair(golden_spec, failed,
                      shares.replace(rebuilt).without(failed))
    assert again == rebuilt
    assert transcript.helper_count == 8


def test_repair_requires_every_helper(golden_spec):
    shares = encode(golden_spec, _msg(golden_spec, 3))
    # disks 4 and 9 share block (3, 4, 9), which keeps 1 of m = 2 rows
    with pytest.raises(ValueError, match=r"group \d+ on disks \(3, 4, 9\)"
                       ) as err:
        repair(golden_spec, 4, shares.without(4, 9))
    assert "missing helpers [9]" in str(err.value)
    with pytest.raises(ValueError):
        repair(golden_spec, 4, shares)   # failed disk among helpers


def test_reconstruct_share_count_guard(golden_spec):
    """Fewer than k shares are refused; all n of them decode."""
    msg = _msg(golden_spec, 4)
    shares = encode(golden_spec, msg)
    with pytest.raises(ValueError):
        reconstruct(golden_spec, shares.subset([1, 2, 3]))
    _raises_exactly("reconstruction needs at least k = 7 shares, got 6",
                    reconstruct, golden_spec, shares.without(1, 2, 3),
                    exc=ValueError)
    assert reconstruct(golden_spec, shares) == msg


def test_reconstruct_names_undecodable_pattern(golden_spec):
    p = golden_spec.params
    broken = CodeSpec(params=p, field=golden_spec.field,
                      design=golden_spec.design, layout=golden_spec.layout,
                      s_entries=(0,) * (p.T * p.M))
    missing = verify_S(broken).failures[0]
    held = encode(broken, _msg(broken, 5)).without(*missing)
    # no flipped symbol may turn the rank failure into a corruption
    cases = [held]
    for share in held:
        for pos, (j, i, v) in enumerate(share.symbols):
            cases.append(held.replace(DiskShare(disk=share.disk, symbols=(
                share.symbols[:pos] + ((j, i, (v + 1) % broken.field.q),)
                + share.symbols[pos + 1:]))))
    for shares in cases:
        with pytest.raises(ValueError,
                           match=re.escape(str(missing))) as err:
            reconstruct(broken, shares)
        assert not isinstance(err.value, CorruptionError)


def test_reconstruct_detects_flip_when_overdetermined(s15_spec):
    """An erasure set holding a whole block leaves the reduced system
    more parity checks T than unknowns T(A), so flipped symbols of the
    heavy groups are caught."""
    spec = s15_spec
    p, q = spec.params, spec.field.q
    block = spec.design.blocks[0]
    missing = tuple(sorted(block + (max(set(range(1, 16)) - set(block)),)))
    heavy = [(j, used, surplus) for j, used, surplus in
             plan(spec, set(range(1, 16)) - set(missing)) if len(used) < p.m]
    columns = [col for j, used, _ in heavy
               for col in parity_block(spec, j, group_decoder(
                   spec, lost_mask(spec, used))[3])]
    width = len(columns)
    assert width == compute_TA(spec.design, missing)
    assert all(len(col) == p.T for col in columns)
    assert p.T > width
    kept = [(j, i) for j, used, surplus in heavy for i in used + surplus]
    assert kept
    msg = _msg(spec, 3)
    shares = encode(spec, msg).without(*missing)
    assert reconstruct(spec, shares) == msg
    caught = set()
    for share in shares:
        for pos, (j, i, v) in enumerate(share.symbols):
            flipped = DiskShare(disk=share.disk, symbols=(
                share.symbols[:pos] + ((j, i, (v + 1) % q),)
                + share.symbols[pos + 1:]))
            try:
                got = reconstruct(spec, shares.replace(flipped))
            except CorruptionError:
                caught.add((j, i))
                continue
            assert got == msg, f"flip of group {j} row {i} decoded wrongly"
    assert set(kept) <= caught


def test_message_validation(golden_spec):
    with pytest.raises(ValueError):
        encode(golden_spec, MessageVector(3, (1,) * 22))   # short
    with pytest.raises(ValueError):
        encode(golden_spec, MessageVector(5, (1,) * 23))   # wrong modulus


def test_uncoded_repair_transmits_stored_symbols(golden_spec):
    """Helpers send verbatim stored values: repair never recodes."""
    shares = encode(golden_spec, _msg(golden_spec, 8))
    _, transcript = repair(golden_spec, 5, shares.without(5))
    for helper, syms in transcript.helpers:
        stored = shares.get(helper).value_map()
        for group, row, value in syms:
            assert stored[(group, row)] == value


def test_deep_overlap_repair_cross_checks(t3_spec):
    """With three-way overlap the spare parity rows audit the transfer."""
    msg = _msg(t3_spec, 2)
    shares = encode(t3_spec, msg)
    rebuilt, _ = repair(t3_spec, 1, shares.without(1))
    assert rebuilt == shares.get(1)

    # corrupt one stored symbol on a helper and repair again
    victim = shares.get(2)
    group, row, value = victim.symbols[0]
    tampered = DiskShare(disk=2, symbols=(
        ((group, row, (value + 1) % t3_spec.field.q),)
        + victim.symbols[1:]))
    polluted = shares.replace(tampered)
    # the error names the group and every disk whose row it read
    assert (group, row) == (0, 1)
    with pytest.raises(CorruptionError) as err:
        repair(t3_spec, 1, polluted.without(1))
    assert str(err.value) == (
        "repair of disk 1: group 0 is inconsistent; its rows copied from "
        "disks [2, 3] disagree with its check rows on disks [4]")


def test_repair_from_every_d_subset_of_helpers(t3_spec):
    """n=7, t=3: any d = 5 of the 6 other disks rebuild the exact share
    by copying m = 2 stored rows per affected group."""
    p = t3_spec.params
    shares = encode(t3_spec, _msg(t3_spec, 4))
    for failed in (1, 5):
        others = [d for d in range(1, p.n + 1) if d != failed]
        for helpers in itertools.combinations(others, p.d):
            rebuilt, transcript = repair(t3_spec, failed,
                                         shares.subset(helpers))
            assert rebuilt == shares.get(failed)
            assert transcript.helper_count == p.d
            assert transcript.total_symbols == p.gamma
            for helper, syms in transcript.helpers:
                stored = shares.get(helper).value_map()
                assert all(stored[(j, i)] == v for j, i, v in syms)


def test_repair_transcript_counts_check_reads(t3_spec):
    """c347: each of disk 1's 20 groups copies m = 2 rows (gamma = 40).
    With all 6 helpers each group also reads its third held row to check
    the result; without disk 2, the 10 groups on disk 2 have none."""
    shares = encode(t3_spec, _msg(t3_spec, 6))
    for helpers, checked in ((shares.without(1), 20),
                             (shares.without(1, 2), 10)):
        rebuilt, transcript = repair(t3_spec, 1, helpers)
        assert rebuilt == shares.get(1)
        assert transcript.total_symbols == 40
        assert transcript.check_symbols == checked
        assert [h for h, _ in transcript.checks] == \
            [h for h, _ in transcript.helpers]
        copied = {(j, i) for _, syms in transcript.helpers
                  for j, i, _ in syms}
        for helper, syms in transcript.checks:
            stored = shares.get(helper).value_map()
            assert all(stored[(j, i)] == v and (j, i) not in copied
                       for j, i, v in syms)


def test_share_bytes_pinned(golden_spec, complete9_spec, t3_spec, s15_spec):
    """Share bytes of the reference codes for the seed-5 message."""
    pins = (
        (golden_spec, "ca6f8d6c582a2d0423c40a5780f1bced"
                      "ba5cad25fde79b9ae42b2f5e0289fe87"),
        (complete9_spec, "ad4817bd0f7f1059a49457a366acc8bd"
                         "c5a1a9c370b6b47fcdba3dbfd187eeae"),
        (t3_spec, "dde83e533889473824be6ff90fb729bb"
                  "70f06eccafdfcc40a7856373589f6b63"),
        (s15_spec, "bfd46ec5371b28fd939b482e4cb03e7c"
                   "845df52ec4ad2342aa7d2daf0cb2abeb"),
    )
    for spec, pin in pins:
        blob = b"".join(share_to_bytes(spec, s)
                        for s in encode(spec, _msg(spec, 5)))
        assert hashlib.sha256(blob).hexdigest() == pin


def _library_shares(spec):
    """The shares encode makes for one message, the share repair makes
    for each disk from the n - 1 others, and each of these read back
    from its bytes."""
    shares = encode(spec, _msg(spec, 9))
    made = list(shares)
    made += [repair(spec, disk, shares.without(disk))[0]
             for disk in shares.disks()]
    return made + [share_from_bytes(spec, share_to_bytes(spec, share))
                   for share in made]


def test_library_shares_equal_checked_rebuilds(golden_spec, complete9_spec,
                                               t3_spec, s15_spec,
                                               monkeypatch):
    """encode, repair and share_from_bytes make their shares without
    DiskShare's checks or check_share's.  On every reference code, each
    such share equals its rebuild through DiskShare, which passes a
    fresh check_share with the same columns.  The files the library
    writes are read back through the share template alone: the naming
    pass, which alone builds a record struct, is never reached."""
    from rgc import codec

    def no_naming_pass(width):
        raise AssertionError("a library share file missed its template")

    monkeypatch.setattr(codec, "_record_struct", no_naming_pass)
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec):
        made = _library_shares(spec)
        assert len(made) == 4 * spec.params.n
        for share in made:
            again = DiskShare(disk=share.disk, symbols=share.symbols)
            assert again == share and hash(again) == hash(share)
            assert again._checked is None
            assert check_share(spec, again) is None
            assert again._checked is spec
            assert (tuple(zip(*again.symbols))[:2]
                    == spec.layout.disk_columns(share.disk))


def _spy_on(monkeypatch, real, note):
    """Route every binding of the kernel function real in the rgc
    modules through a spy; returns the list of note(*args) of its
    calls."""
    calls = []

    def spy(*args):
        calls.append(note(*args))
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name == "rgc" or name.startswith("rgc."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def _is_identity(a, rows, cols):
    return rows == cols and a == tuple(int(r == c) for r in range(rows)
                                       for c in range(cols))


def _repair_rows(spec, failed):
    """The coefficient rows of repairing failed from the n - 1 others,
    built from the short generator and a direct inversion of each
    affected group's m used generator rows, not from group_decoder: per
    affected group one row taking its used symbols to its lost symbol
    and one to each surplus symbol."""
    m, q, gen = spec.params.m, spec.field.q, spec.short_gen
    eye = [int(a == b) for a in range(m) for b in range(m)]
    others = [x for x in range(1, spec.params.n + 1) if x != failed]
    affected, lost = spec.layout.disk_columns(failed)
    rows = []
    for (_, used, surplus), i in zip(plan(spec, others, affected), lost):
        rank, inv = _kernel.mat_solve([v for u in used for v in gen[u]],
                                      m, m, eye, m, q)
        assert rank == m
        rows += [[sum(gen[x][c] * inv[c * m + u] for c in range(m)) % q
                  for u in range(m)] for x in (i, *surplus)]
    return rows


def test_store_path_multiplies_by_no_identity(golden_spec, complete9_spec,
                                              t3_spec, s15_spec,
                                              monkeypatch):
    """The short generator's rows 0..m-1 are the identity, so they are
    copied, never multiplied.  On every reference code, encode makes
    one product, by the parity rows m..r-1 alone, and no read of a k-set
    (every one, or s15's first 200) multiplies by an identity.  A repair
    with a known plan calls neither mat_mul nor mat_solve; repairing
    every disk from the n - 1 others multiplies once per nonzero
    coefficient of the rows the short generator and a direct inversion
    of the used rows give, 72, 504, 560 and 210 times."""
    from rgc import codec
    calls = _spy_on(monkeypatch, _kernel.mat_mul,
                    lambda a, ar, ac, *_: (tuple(a), ar, ac))
    solves = _count_solves(monkeypatch)
    products = [0]
    real_mul = codec.mul

    def counted(a, b):
        products[0] += 1
        return real_mul(a, b)

    for spec, pin in ((golden_spec, 72), (complete9_spec, 504),
                      (t3_spec, 560), (s15_spec, 210)):
        p = spec.params
        msg = _msg(spec, 8)
        calls.clear()
        shares = encode(spec, msg)
        parity = tuple(v for row in spec.short_gen[p.m:] for v in row)
        assert calls == [(parity, p.r - p.m, p.m)]
        pools = [(failed, shares.without(failed))
                 for failed in shares.disks()]
        for failed, pool in pools:
            assert repair(spec, failed, pool)[0] == shares.get(failed)
        coefficients = sum(map(bool, (v for failed, _ in pools
                                      for row in _repair_rows(spec, failed)
                                      for v in row)))
        assert coefficients == pin
        made, solved = len(calls), len(solves)
        products[0] = 0
        monkeypatch.setattr(codec, "mul", counted)
        for failed, pool in pools:
            assert repair(spec, failed, pool)[0] == shares.get(failed)
        monkeypatch.setattr(codec, "mul", real_mul)
        assert (len(calls), len(solves), products) == (made, solved, [pin])
        reads = itertools.islice(
            itertools.combinations(shares.disks(), p.k), 200)
        for keep in reads:
            assert reconstruct(spec, shares.subset(keep)) == msg
        assert calls and not any(_is_identity(*c) for c in calls)


def test_a_share_checked_for_one_spec_is_refused_by_another(
        golden_spec, complete9_spec):
    """A share checked against one spec is checked in full against any
    other: a spec with another layout or another q refuses it with the
    text an unchecked rebuild of it gets, and an equal spec loaded again
    accepts it."""
    c9 = complete9_spec
    small = CodeSpec(params=c9.params, field=PrimeField(3), design=c9.design,
                     layout=c9.layout,
                     s_entries=tuple(v % 3 for v in c9.s_entries))
    for spec, other, text in ((golden_spec, c9, "carries slots"),
                              (c9, golden_spec, "carries slots"),
                              (c9, small, "has a symbol outside GF(3)")):
        for share in _library_shares(spec):
            with pytest.raises(ShareFormatError) as err:
                check_share(other, DiskShare(disk=share.disk,
                                             symbols=share.symbols))
            assert text in str(err.value)
            for fn in (check_share, share_to_bytes):
                _raises_exactly(str(err.value), fn, other, share)
        again = CodeSpec.from_json(spec.to_json())
        assert again is not spec and share._checked is spec
        check_share(again, share)
        assert share._checked is again


def test_share_map_checks_each_share_once(complete9_spec, monkeypatch):
    """repair and reconstruct run no check_share on shares already
    marked with the spec, and one on each share a caller made; a share
    given twice is refused, marked or not."""
    from rgc import codec
    spec = complete9_spec
    calls = []

    def counted(*args):
        calls.append(args[1].disk)
        return check_share(*args)

    monkeypatch.setattr(codec, "check_share", counted)
    shares = encode(spec, _msg(spec, 4))
    held = shares.without(1, 2)
    msg = reconstruct(spec, held)
    repair(spec, 1, shares.without(1))
    assert calls == []
    made = [DiskShare(disk=s.disk, symbols=s.symbols) for s in held.shares]
    assert reconstruct(spec, made) == msg
    assert sorted(calls) == list(range(3, 10))
    assert reconstruct(spec, made) == msg       # now marked
    assert sorted(calls) == list(range(3, 10))
    for twice in (held.shares, made):
        _raises_exactly("duplicate share for disk 3", reconstruct, spec,
                        [twice[0], *twice], exc=ValueError)


def test_repair_refuses_a_non_int_disk_id_before_any_work(golden_spec,
                                                          monkeypatch):
    """repair(spec, 2.0, ...) is refused by its disk id before the
    shares are read, so a call that is also short of helpers names the
    float id, not the short group."""
    from rgc import codec
    spec = golden_spec
    shares = encode(spec, _msg(spec, 2))
    short = shares.without(1, 2)
    _raises_exactly("repair of disk 2: group 0 on disks (1, 2, 3) holds 1 "
                    "of the m = 2 rows it needs; missing helpers [1]",
                    repair, spec, 2, short, exc=ValueError)

    def no_work(*args):
        raise AssertionError("repair read the shares")

    monkeypatch.setattr(codec, "_share_map", no_work)
    for failed, kind in ((2.0, "float"), (True, "bool")):
        _raises_exactly(f"disk id {failed} is a {kind}, not an int", repair,
                        spec, failed, short, exc=ValueError)


def _count_solves(monkeypatch):
    """The (rows, cols, bcols) of every mat_solve call in rgc."""
    return _spy_on(monkeypatch, _kernel.mat_solve,
                   lambda a, rows, cols, b, bcols, q: (rows, cols, bcols))


def test_split_rows_is_the_reference_split(golden_spec, complete9_spec,
                                           t3_spec, s15_spec):
    """group_decoder(spec, h)'s (used, surplus) is the reference plan's
    of a group whose disks at the rows set in h are not held, for every
    group and every lost-row mask 0..2^r-1 of the four codes."""
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec):
        p = spec.params
        every = set(range(1, p.n + 1))
        for j, block in enumerate(spec.layout.groups):
            for h in range(1 << p.r):
                held = every - {block[i] for i in range(p.r) if h >> i & 1}
                assert plan(spec, held, [j]) == [
                    (j, *group_decoder(spec, h)[:2])]
        assert group_decoder(spec, 0)[:2] == (tuple(range(p.m)),
                                              tuple(range(p.m, p.r)))


def test_group_decoder_inverts_each_row_tuple_once(complete9_spec,
                                                   monkeypatch):
    """Once each lost-row mask is worked out, a read makes one solve (the
    T x T(A) system) and a repair none; no mask is inverted twice, and a
    mask whose group uses rows 0..m-1 never."""
    spec = CodeSpec.from_json(complete9_spec.to_json())  # empty table
    p = spec.params
    msg = _msg(spec, 3)
    shares = encode(spec, msg)
    reads = [shares.subset(keep) for keep in
             itertools.combinations(range(1, p.n + 1), p.k)]
    assert len(reads) == 36
    calls = _count_solves(monkeypatch)
    verify_S(spec)
    for held in reads:
        assert reconstruct(spec, held) == msg
    # an inversion solves m generator rows against the m x m identity
    inversions = [c for c in calls if c == (p.m, p.m, p.m)]
    assert inversions and len(inversions) == sum(
        1 for h in spec.group_decoders if h & (1 << p.m) - 1)
    calls.clear()
    for held in reads:
        reconstruct(spec, held)
    assert len(calls) == 36 and all(bcols == 1 for _, _, bcols in calls)
    calls.clear()
    for failed in range(1, p.n + 1):
        rebuilt, _ = repair(spec, failed, shares.without(failed))
        assert rebuilt == shares.get(failed)
    assert calls == []


def test_group_decoder_table_is_keyed_by_lost_row_mask(
        golden_spec, complete9_spec, t3_spec, s15_spec):
    """After verify_S, every k-read and every repair from the n - 1
    others, each reference code's decoder table is keyed by lost-row
    masks, ints in 0..2^r-1, so it has at most 2^r entries."""
    for fixture in (golden_spec, complete9_spec, t3_spec, s15_spec):
        spec = CodeSpec.from_json(fixture.to_json())     # empty table
        p = spec.params
        verify_S(spec)
        msg = _msg(spec, 4)
        shares = encode(spec, msg)
        for keep in itertools.combinations(range(1, p.n + 1), p.k):
            assert reconstruct(spec, shares.subset(keep)) == msg
        for failed in range(1, p.n + 1):
            assert repair(spec, failed, shares.without(failed))[0] == (
                shares.get(failed))
        table = spec.group_decoders
        assert table and all(type(h) is int and 0 <= h < 1 << p.r
                             for h in table)
        assert len(table) <= 1 << p.r


def test_a_read_of_caller_shares_in_reverse_is_the_library_read(
        golden_spec, complete9_spec, t3_spec, s15_spec):
    """A read scatters each share through its disk's positions, so the
    order and the origin of the shares do not matter: every k-set read
    of golden, c9 and c347, and all 1,365 of s15, from unmarked
    DiskShares a caller made, given in reversed disk order, equals the
    read of the library's marked shares and the message."""
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec):
        p = spec.params
        msg = _msg(spec, 11)
        shares = encode(spec, msg)
        count = 0
        for keep in itertools.combinations(shares.disks(), p.k):
            held = shares.subset(keep)
            made = [DiskShare(disk=s.disk, symbols=s.symbols)
                    for s in reversed(held.shares)]
            assert not any(s._checked for s in made)
            assert reconstruct(spec, made) == reconstruct(spec, held) == msg
            count += 1
        assert count == comb(p.n, p.k)
    assert count == 1365


def test_a_read_of_k_or_more_shares_is_the_k_read(
        golden_spec, complete9_spec, t3_spec, s15_spec, monkeypatch):
    """Every share set of k or more disks, all 1,941 of s15's among
    them, reads the message, as its first k disks do.  Its one solve is
    T x T(A) for the disks it misses, so a read missing one disk solves
    for nothing and only checks the T long-layer parities."""
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec):
        p = spec.params
        msg = _msg(spec, 13)
        shares = encode(spec, msg)
        solves = _count_solves(monkeypatch)
        count = 0
        for size in range(p.k, p.n + 1):
            for keep in itertools.combinations(shares.disks(), size):
                assert reconstruct(spec, shares.subset(keep[:p.k])) == msg
                solves.clear()
                assert reconstruct(spec, shares.subset(keep)) == msg
                missing = sorted(set(range(1, p.n + 1)) - set(keep))
                assert solves == [(p.T, compute_TA(spec.design, missing), 1)]
                count += 1
        monkeypatch.undo()
        assert count == sum(comb(p.n, size) for size in range(p.k, p.n + 1))
    assert count == 1941


def test_a_flip_in_a_used_row_of_an_n_minus_1_read_is_caught(
        golden_spec, complete9_spec, t3_spec, s15_spec):
    """With one disk missing no group is heavy, so all T long-layer
    checks are spare: on every reference code, for every missing disk,
    a symbol flipped in any used row of any group (plan's rows used)
    raises CorruptionError."""
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec):
        p, q = spec.params, spec.field.q
        full = encode(spec, _msg(spec, 14))
        flips = 0
        for gone in range(1, p.n + 1):
            shares = full.without(gone)
            used = {(j, i) for j, rows, _ in plan(spec, shares.disks())
                    for i in rows}
            for share in shares:
                for pos, (j, i, v) in enumerate(share.symbols):
                    if (j, i) not in used:
                        continue
                    flipped = DiskShare(disk=share.disk, symbols=(
                        share.symbols[:pos] + ((j, i, (v + 1) % q),)
                        + share.symbols[pos + 1:]))
                    with pytest.raises(CorruptionError):
                        reconstruct(spec, shares.replace(flipped))
                    flips += 1
        # each of the N groups uses m held rows
        assert flips == p.n * p.nstar * p.m


def test_a_warm_read_plans_nothing_multiplies_nothing_and_solves_once(
        golden_spec, complete9_spec, t3_spec, s15_spec, monkeypatch):
    """Once the held-row tuples of its lost groups are inverted, a read
    of any k-set calls no mat_mul and exactly one mat_solve: the
    T x T(A) system."""
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec):
        p = spec.params
        msg = _msg(spec, 12)
        shares = encode(spec, msg)
        reads = [shares.subset(keep) for keep in itertools.islice(
            itertools.combinations(shares.disks(), p.k), 400)]
        for held in reads:
            reconstruct(spec, held)
        muls = _spy_on(monkeypatch, _kernel.mat_mul, lambda *a: a)
        solves = _count_solves(monkeypatch)
        for held in reads:
            solves.clear()
            assert reconstruct(spec, held) == msg
            assert len(solves) == 1 and solves[0][2] == 1
        assert muls == []
        monkeypatch.undo()


def test_group_decoder_row_map_matches_the_short_generator(
        golden_spec, complete9_spec, t3_spec, s15_spec):
    """On every reference code and every held-row tuple U of at most m
    rows, all used and none surplus, the row map agrees with plain
    arithmetic on the short generator: map[u] is the unit vector of u's
    place in U; with m held rows, map[i] applied to the held symbols of
    any column x is row i of the generator applied to x; with fewer, the
    map's rows 0..m-1 give a column whose free symbols are 0, and every
    map[i] is generator row i applied to that column.  Rows 0..m-1 map to
    the generator itself, with no kernel."""
    rng = random.Random(5)
    for fixture in (golden_spec, complete9_spec, t3_spec, s15_spec):
        spec = CodeSpec.from_json(fixture.to_json())     # empty table
        p, q, gen = spec.params, spec.field.q, spec.short_gen
        m, r = p.m, p.r

        def dot(a, b):
            return sum(x * y for x, y in zip(a, b, strict=True)) % q

        for s in range(m + 1):
            for rows in itertools.combinations(range(r), s):
                used, surplus, rowmap, kernel = group_decoder(
                    spec, lost_mask(spec, rows))
                assert (used, surplus) == (rows, ())
                assert len(rowmap) == r
                assert all(len(row) == s for row in rowmap)
                for place, u in enumerate(rows):
                    assert rowmap[u] == tuple(int(b == place)
                                              for b in range(s))
                free = [i for i in range(m) if i not in rows][:m - s]
                for _ in range(3):
                    if s == m:
                        x = [rng.randrange(q) for _ in range(m)]
                        y = [dot(gen[u], x) for u in rows]
                    else:
                        y = [rng.randrange(q) for _ in range(s)]
                        x = [dot(rowmap[c], y) for c in range(m)]
                        assert [x[c] for c in free] == [0] * len(free)
                    assert [dot(row, y) for row in rowmap] == [
                        dot(g, x) for g in gen]
        *_, rowmap, kernel = group_decoder(spec, lost_mask(spec, range(m)))
        assert rowmap is gen and kernel == ()


def test_cold_repair_inverts_each_tuple_once_and_multiplies_nothing(
        golden_spec, complete9_spec, t3_spec, s15_spec, monkeypatch):
    """On an empty decoder table, repairing every disk from the n - 1
    others inverts each lost-row mask at most once and a mask whose group
    uses rows 0..m-1 never, and calls no mat_mul; its shares and
    transcripts equal the warm repairs' and those of the fixture's
    spec."""
    for fixture in (golden_spec, complete9_spec, t3_spec, s15_spec):
        spec = CodeSpec.from_json(fixture.to_json())     # empty tables
        m = spec.params.m
        shares = encode(spec, _msg(spec, 6))
        pools = [(failed, shares.without(failed))
                 for failed in shares.disks()]
        muls = _spy_on(monkeypatch, _kernel.mat_mul, lambda *args: args)
        solves = _spy_on(monkeypatch, _kernel.mat_solve, lambda *args: args)
        cold = [repair(spec, failed, pool) for failed, pool in pools]
        assert muls == []
        identity = tuple(v for row in spec.short_gen[:m] for v in row)
        inverted = [tuple(a) for a, *_ in solves]
        assert identity not in inverted
        assert len(inverted) == sum(1 for h in spec.group_decoders
                                    if h & (1 << m) - 1)
        solves.clear()
        warm = [repair(spec, failed, pool) for failed, pool in pools]
        assert (muls, solves) == ([], [])
        assert cold == warm == [repair(fixture, failed, pool)
                                for failed, pool in pools]
        assert [share for share, _ in cold] == list(shares)
        monkeypatch.undo()


def _flip(held, disk, pos, q):
    """held with symbol `pos` of `disk`'s share raised by one."""
    syms = held.get(disk).symbols
    j, i, v = syms[pos]
    return held.replace(DiskShare(disk=disk, symbols=(
        syms[:pos] + ((j, i, (v + 1) % q),) + syms[pos + 1:])))


def _outcome(fn, *args) -> str:
    """What a read or a repair returned, or its exception's class and
    full text."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, MessageVector):
        return repr(out.values)
    share, transcript = out
    return repr((share.disk, share.symbols, transcript.failed,
                 transcript.helpers, transcript.checks))


def _every_symbol(_, held):
    return [(share.disk, pos) for share in held
            for pos in range(len(share.symbols))]


def _end_symbols(limit):
    def flips(index, held):
        if index >= limit:
            return []
        return [(share.disk, pos) for share in held
                for pos in (0, len(share.symbols) - 1)]
    return flips


def _outcome_digest(spec, flips):
    """sha256 of the outcomes of every k-set read of the seed-7 message,
    each followed by the reads with the symbols flips(index, held)
    flipped, then of every repair of every disk from every set of d - 1
    or more helpers, and from all n - 1 others with each of the symbols
    flips(0, helpers) flipped."""
    p, q = spec.params, spec.field.q
    shares = encode(spec, _msg(spec, 7))
    disks = range(1, p.n + 1)
    outcomes = []
    for index, keep in enumerate(itertools.combinations(disks, p.k)):
        held = shares.subset(keep)
        outcomes.append(_outcome(reconstruct, spec, held))
        outcomes += [_outcome(reconstruct, spec, _flip(held, disk, pos, q))
                     for disk, pos in flips(index, held)]
    for failed in disks:
        others = [x for x in disks if x != failed]
        for size in range(p.d - 1, p.n):
            for helpers in itertools.combinations(others, size):
                outcomes.append(_outcome(repair, spec, failed,
                                         shares.subset(helpers)))
        pool = shares.without(failed)
        outcomes += [_outcome(repair, spec, failed, _flip(pool, disk, pos, q))
                     for disk, pos in flips(0, pool)]
    blob = "\n".join(outcomes).encode("utf-8")
    return len(outcomes), hashlib.sha256(blob).hexdigest()


def test_read_and_repair_outcomes_pinned(golden_spec, t3_spec,
                                         complete9_spec, s15_spec,
                                         failing_c9_spec):
    """Messages, errors, rebuilt shares and transcripts of every read
    and repair of the reference codes, flipped symbols included: golden
    and c347 flip every held symbol, c9 the first and last symbol of
    each held disk, s15 those on its first 50 k-sets and its repairs,
    and the failing GF(31) c9 candidate none.  Each code is digested
    twice on one spec, first with no repair plans and then with the
    plans the first pass made, and both digests equal the pin."""
    cases = (
        (golden_spec, _every_symbol, 1413,
         "c5f30ffb5fc983637f0903dc056fbaef"
         "1ded30e81922e25d590b06b8eaeaeded"),
        (t3_spec, _every_symbol, 3829,
         "a1085bdc09154e34858a0e5353e2f951"
         "399b91a7c858a49b9e613f1394c17d89"),
        (complete9_spec, _end_symbols(36), 765,
         "303e48b92c82f8edf0f1e5ef12315881"
         "61382f4c61bf2fdbf667123df15e5a5e"),
        (s15_spec, _end_symbols(50), 3110,
         "b3ce7f789e260b63e1c012b86c771a42"
         "5363ce4623df8b17c016f43e90afa527"),
        (failing_c9_spec, _end_symbols(0), 117,
         "060cac23160f77974d795ef5cdd5f150"
         "b9d0a212b0f07403139172a45359e4a9"),
    )
    for reference, flips, count, pin in cases:
        spec = CodeSpec.from_json(reference.to_json())
        assert spec.repair_plans == {}
        assert _outcome_digest(spec, flips) == (count, pin)
        # one plan per (failed disk, helper set) repaired
        n, d = spec.params.n, spec.params.d
        plans = dict(spec.repair_plans)
        assert len(plans) == n * sum(comb(n - 1, size)
                                     for size in range(d - 1, n))
        assert _outcome_digest(spec, flips) == (count, pin)
        assert spec.repair_plans == plans


def test_deep_overlap_round_trip(t3_spec):
    msg = _msg(t3_spec, 9)
    shares = encode(t3_spec, msg)
    n, k = t3_spec.params.n, t3_spec.params.k
    for keep in itertools.combinations(range(1, n + 1), k):
        assert reconstruct(t3_spec, shares.subset(keep)) == msg


def test_share_bytes_round_trip(golden_spec, tmp_path):
    shares = encode(golden_spec, _msg(golden_spec, 6))
    share = shares.get(3)
    blob = share_to_bytes(golden_spec, share)
    assert share_from_bytes(golden_spec, blob) == share
    path = tmp_path / "d3.share"
    write_share(golden_spec, share, path)
    assert read_share(golden_spec, path) == share


def test_share_bytes_error_reporting(golden_spec, complete9_spec):
    share = encode(golden_spec, _msg(golden_spec, 7)).get(1)
    blob = share_to_bytes(golden_spec, share)
    with pytest.raises(ShareFormatError, match="magic"):
        share_from_bytes(golden_spec, b"XXXX" + blob[4:])
    with pytest.raises(ShareFormatError, match="truncated"):
        share_from_bytes(golden_spec, blob[:-1])
    with pytest.raises(ShareFormatError, match="different code"):
        share_from_bytes(complete9_spec, blob)
    with pytest.raises(ShareFormatError, match="trailing"):
        share_from_bytes(golden_spec, blob + b"\x00")


def _raises_exactly(message, fn, *args, exc=ShareFormatError):
    with pytest.raises(exc) as err:
        fn(*args)
    assert type(err.value) is exc
    assert str(err.value) == message


def test_share_bytes_every_message(golden_spec, complete9_spec):
    """Each fault of a share file raises its own message, the first in
    file order, although all records are unpacked in one pass."""
    spec, q = golden_spec, golden_spec.field.q       # one-byte symbols
    share = encode(spec, _msg(spec, 7)).get(1)
    blob = share_to_bytes(spec, share)
    assert len(blob) == 44 + 7 * len(share.symbols)

    def parse(raw):
        return share_from_bytes(spec, bytes(raw))

    def patched(pos, value):
        raw = bytearray(blob)
        raw[pos] = value
        return raw

    _raises_exactly("bad magic; not a share file", parse, b"RGC")
    _raises_exactly("truncated share header", parse, blob[:43])
    _raises_exactly("truncated share record", parse, blob[:44 + 5])
    _raises_exactly("truncated share record", parse, blob[:-7 - 3])
    _raises_exactly("record width 2 does not match the field width 1",
                    parse, patched(44 + 7 + 5, 2))
    _raises_exactly("2 trailing bytes after the last record", parse,
                    blob + b"\x00\x00")
    _raises_exactly("5 trailing bytes after the last record", parse,
                    blob[:36] + (1).to_bytes(4, "little")
                    + (len(share.symbols) - 1).to_bytes(4, "little")
                    + blob[44:-2])
    c9 = complete9_spec                              # two-byte symbols
    c9_blob = share_to_bytes(c9, encode(c9, _msg(c9, 7)).get(1))
    _raises_exactly("truncated share value", share_from_bytes, c9,
                    c9_blob[:44 + 6 + 1])
    _raises_exactly("truncated share value", share_from_bytes, c9,
                    c9_blob[:-1])
    cut = bytearray(c9_blob[:-1])                    # last record cut off
    cut[len(c9_blob) - 8 + 5] = 1
    _raises_exactly("record width 1 does not match the field width 2",
                    share_from_bytes, c9, bytes(cut))
    _raises_exactly("7 trailing bytes after the last record", parse,
                    blob[:40] + (0).to_bytes(4, "little") + blob[44:51])
    _raises_exactly("truncated share record", parse,
                    blob[:40] + (2 ** 32 - 1).to_bytes(4, "little")
                    + blob[44:])

    # DiskShare's checks, reached from bytes: a record out of slot order
    first, second = blob[44:51], blob[51:58]
    _raises_exactly("share symbols must be in slot order", parse,
                    blob[:44] + second + first + blob[58:])
    # check_share's checks: a group index moved, a value outside GF(3)
    last_group = 44 + 7 * (len(share.symbols) - 1)
    moved = patched(last_group, 99)
    coords = tuple((j, i) for j, i, _ in share.symbols[:-1]) + (
        (99, share.symbols[-1][1]),)
    _raises_exactly(f"share for disk 1 carries slots {coords}, expected "
                    f"{spec.layout.disk_slots(1)}", parse, moved)
    _raises_exactly(f"share for disk 1 has a symbol outside GF({q})",
                    parse, patched(44 + 6, q))
    _raises_exactly("disk 10 outside 1..9", parse,
                    blob[:36] + (10).to_bytes(4, "little") + blob[40:])


def test_share_validation_messages(golden_spec):
    spec = golden_spec
    share = encode(spec, _msg(spec, 7)).get(1)
    syms = share.symbols
    _raises_exactly("malformed share symbol (0, 1)", DiskShare, 1,
                    ((0, 1),) + syms[1:], exc=ValueError)
    _raises_exactly("malformed share symbol (0, 1, 2, 3)", DiskShare, 1,
                    syms[:1] + ((0, 1, 2, 3),), exc=ValueError)
    _raises_exactly("malformed share symbol (0, 0, -1)", DiskShare, 1,
                    ((0, 0, -1),) + syms[1:], exc=ValueError)
    _raises_exactly("share symbols must be in slot order", DiskShare, 1,
                    syms[::-1], exc=ValueError)
    _raises_exactly("disk ids are 1-based", DiskShare, 0, syms,
                    exc=ValueError)
    off = DiskShare(disk=1, symbols=syms[:-1] + ((5, 0, 0),))
    _raises_exactly(f"share for disk 1 carries slots "
                    f"{tuple((j, i) for j, i, _ in off.symbols)}, expected "
                    f"{spec.layout.disk_slots(1)}", check_share, spec, off)
    _raises_exactly("share for disk 1 carries slots (), expected "
                    f"{spec.layout.disk_slots(1)}", check_share, spec,
                    DiskShare(disk=1, symbols=()))
    big = DiskShare(disk=1, symbols=syms[:-1] + (syms[-1][:2] + (3,),))
    _raises_exactly("share for disk 1 has a symbol outside GF(3)",
                    check_share, spec, big)
    _raises_exactly("disk 10 outside 1..9", check_share, spec,
                    DiskShare(disk=10, symbols=syms))
    for bad in (big, off):
        with pytest.raises(ShareFormatError):
            share_to_bytes(spec, bad)


def test_a_share_built_from_lists_is_the_tuple_share(golden_spec):
    """A share made from a list of symbols, or from list triples, equals
    and hashes as the tuple-built share, and a repair from such shares
    returns a hashable transcript equal to the tuple one.  A malformed
    list triple is named as its tuple."""
    spec = golden_spec
    shares = encode(spec, _msg(spec, 9))
    listed = [DiskShare(s.disk, [list(t) for t in s.symbols])
              for s in shares]
    for made in (listed, [DiskShare(s.disk, list(s.symbols)) for s in shares],
                 [DiskShare(s.disk, tuple(map(list, s.symbols)))
                  for s in shares]):
        assert made == list(shares)
        assert list(map(hash, made)) == list(map(hash, shares))
        assert all(type(t) is tuple for s in made for t in s.symbols)
    held = ShareSet(shares=tuple(listed)).without(4)
    share, transcript = repair(spec, 4, held)
    want_share, want = repair(spec, 4, shares.without(4))
    assert (share, transcript) == (want_share, want)
    assert hash(transcript) == hash(want)
    syms = [list(t) for t in shares.get(1).symbols]
    _raises_exactly("malformed share symbol (0, 1)", DiskShare, 1,
                    [[0, 1]] + syms[1:], exc=ValueError)
    _raises_exactly("malformed share symbol (0, 0, -1)", DiskShare, 1,
                    [[0, 0, -1]] + syms[1:], exc=ValueError)
    _raises_exactly("share symbols must be in slot order", DiskShare, 1,
                    syms[::-1], exc=ValueError)


def test_message_range_error_is_one_text(golden_spec):
    """A symbol outside the field is refused with one text, whether the
    message comes as a plain list or as a MessageVector."""
    values = (0,) * (golden_spec.params.M - 1) + (3,)
    _raises_exactly("message symbol outside GF(3)", encode, golden_spec,
                    list(values), exc=ValueError)
    _raises_exactly("message symbol outside GF(3)", MessageVector, 3,
                    values, exc=ValueError)


def test_a_message_reads_any_iterable_once():
    """A range, a generator or any other iterable of values is read once
    into a tuple, so the message equals and hashes as the tuple-built
    one; a tuple is kept as it is.  Bad values keep the texts they get
    in a tuple, whatever iterable brings them."""
    want = MessageVector(5, (0, 1, 2))
    seen = []

    def once():
        for v in (0, 1, 2):
            seen.append(v)
            yield v

    for values in (range(3), (v for v in (0, 1, 2)), iter([0, 1, 2]),
                   [0, 1, 2], dict.fromkeys((0, 1, 2)), once()):
        got = MessageVector(5, values)
        assert type(got.values) is tuple
        assert got == want and hash(got) == hash(want)
    assert seen == [0, 1, 2]
    assert MessageVector(5, iter(())) == MessageVector(5, ())
    kept = (4, 3)
    assert MessageVector(5, kept).values is kept
    for bad, text in (((1, 7), "message symbol outside GF(5)"),
                      ((-1,), "message symbol outside GF(5)"),
                      ((1, 2.0), "message symbol 2.0 is a float, not an int"),
                      ((True,), "message symbol True is a bool, not an int"),
                      (("1",), "message symbol '1' is a str, not an int")):
        for values in (bad, list(bad), (v for v in bad), iter(bad)):
            _raises_exactly(text, MessageVector, 5, values, exc=ValueError)


def test_non_int_symbols_are_rejected(golden_spec, complete9_spec):
    """A float (or bool, or str) symbol is refused wherever a message or
    a share is made, before any arithmetic can round it."""
    c9 = complete9_spec
    _raises_exactly("message symbol 1.5 is a float, not an int", encode,
                    c9, [1.5] * c9.params.M, exc=ValueError)
    _raises_exactly("message symbol '1' is a str, not an int", encode,
                    c9, ["1"] * c9.params.M, exc=ValueError)
    _raises_exactly("message symbol 1.0 is a float, not an int",
                    MessageVector, 7, (1.0, 2.0), exc=ValueError)
    _raises_exactly("message symbol True is a bool, not an int",
                    MessageVector, 7, (1, True), exc=ValueError)
    assert encode(c9, [1] * c9.params.M) == encode(
        c9, MessageVector(c9.field.q, (1,) * c9.params.M))
    syms = encode(golden_spec, _msg(golden_spec, 7)).get(1).symbols
    floated = syms[:-1] + (syms[-1][:2] + (1.0,),)
    _raises_exactly(f"share symbol {floated[-1]!r}: entry 1.0 is a float, "
                    f"not an int", DiskShare, 1, floated, exc=ValueError)
    _raises_exactly("share symbol (0, '0', 1): entry '0' is a str, not an "
                    "int", DiskShare, 1, ((0, "0", 1),), exc=ValueError)
    _raises_exactly("disk id 1.0 is a float, not an int", DiskShare, 1.0,
                    syms, exc=ValueError)
    shares = encode(golden_spec, _msg(golden_spec, 7))
    for failed, kind in ((2.0, "float"), (True, "bool")):
        _raises_exactly(f"disk id {failed} is a {kind}, not an int", repair,
                        golden_spec, failed, shares.without(failed),
                        exc=ValueError)


def _byte_sweep(spec, blob, positions):
    """Every single-byte change at the given positions: each parse either
    raises ShareFormatError or returns a share that writes back as the
    same bytes."""
    returned = 0
    for pos in positions:
        for value in range(256):
            if value == blob[pos]:
                continue
            raw = blob[:pos] + bytes((value,)) + blob[pos + 1:]
            try:
                share = share_from_bytes(spec, raw)
            except ShareFormatError as exc:
                assert type(exc) is ShareFormatError
                continue
            assert share_to_bytes(spec, share) == raw
            returned += 1
    return returned


def test_share_bytes_sweep(golden_spec, complete9_spec):
    for spec in (golden_spec, complete9_spec):
        share = encode(spec, _msg(spec, 11)).get(2)
        blob = share_to_bytes(spec, share)
        size = 6 + symbol_width(spec.field.q)
        assert len(blob) == 44 + size * len(share.symbols)
        for cut in range(len(blob)):
            with pytest.raises(ShareFormatError) as err:
                share_from_bytes(spec, blob[:cut])
            assert type(err.value) is ShareFormatError
        assert share_from_bytes(spec, blob) == share
        header = range(44)
        records = [*range(44, 44 + size),
                   *range(len(blob) - size, len(blob))]
        assert _byte_sweep(spec, blob, header) == 0
        # only a value byte can change and leave a valid share
        width = size - 6
        returned = _byte_sweep(spec, blob, records)
        value_bytes = 2 * width
        assert 0 < returned <= value_bytes * 255


def _parse_outcome(spec, raw):
    try:
        return repr(share_from_bytes(spec, raw))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _malformed(blob):
    """Every truncation of a share file; every byte set to 0, 1, 2, 3,
    255 and to its value + 1, alone and with the last 1 and 4 bytes cut;
    the header's count set to 0, 1, one less, one more and 2**32 - 1,
    with the records and without them."""
    yield from (blob[:cut] for cut in range(len(blob)))
    for pos, byte in enumerate(blob):
        for value in (0, 1, 2, 3, 255, (byte + 1) % 256):
            raw = blob[:pos] + bytes((value,)) + blob[pos + 1:]
            yield from (raw, raw[:-1], raw[:-4])
    count = int.from_bytes(blob[40:44], "little")
    for c in (0, 1, count - 1, count + 1, 2 ** 32 - 1):
        head = blob[:40] + c.to_bytes(4, "little")
        yield from (head + blob[44:], head)


def test_share_parse_outcomes_pinned(golden_spec, complete9_spec):
    """The parsed share, or the error class and text, of every malformed
    file made from the seed-5 shares of the golden and c9 codes."""
    outcomes = [_parse_outcome(spec, raw)
                for spec in (golden_spec, complete9_spec)
                for share in encode(spec, _msg(spec, 5))
                for raw in _malformed(share_to_bytes(spec, share))]
    blob = "\n".join(outcomes).encode("utf-8")
    assert (len(outcomes), hashlib.sha256(blob).hexdigest()) == (
        58320, "3cd82293d66038de6bfce48b7bc45c60"
               "f586449ac902f1cca3fe98c2c8813c88")


def test_share_template_agrees_with_the_naming_pass(t3_spec, s15_spec,
                                                   monkeypatch):
    """On c347 (2-byte values) and s15 (3-byte values), every
    truncation of one share file per disk and every byte of it XORed
    with 0x01, 0x80 or 0xff parses to the same share, marked alike, or
    raises the same ShareFormatError text with the template on and with
    every template forced to miss."""
    from rgc import codec
    real = codec._template

    def missed(spec, disk):     # one slot too many: no file fits
        header, prefixes, *rest = real(spec, disk)
        return header, prefixes + (b"",), *rest

    def outcomes(spec, blobs):
        out = []
        for raw in blobs:
            try:
                share = share_from_bytes(spec, raw)
            except ShareFormatError as exc:
                assert type(exc) is ShareFormatError
                out.append(str(exc))
            else:
                out.append((share, share._checked is spec))
        return out

    for spec in (t3_spec, s15_spec):
        blobs = []
        for share in encode(spec, _msg(spec, 12)):
            blob = share_to_bytes(spec, share)
            blobs += [blob[:cut] for cut in range(len(blob))]
            blobs += [blob[:pos] + bytes((blob[pos] ^ mask,))
                      + blob[pos + 1:]
                      for pos in range(len(blob)) for mask in (1, 128, 255)]
        fast = outcomes(spec, blobs)
        monkeypatch.setattr(codec, "_template", missed)
        assert outcomes(spec, blobs) == fast
        monkeypatch.setattr(codec, "_template", real)
        parsed = [out for out in fast if isinstance(out, tuple)]
        assert parsed and all(marked for _, marked in parsed)


# sha256 of the golden, c9, c347 and s15 spec JSON
_SPEC_PINS = (
    "4d5332ecb962e816dee1d328544b0f58b7d9021f2efc5c9b45265233141f252e",
    "c76e8bbb1e2f6143099c21573fff1d78a97f6178ab247c4ad7a291cf98f52fdb",
    "91e3860b47e368997b60e15b16f51f1f99ad78250b7d47cebc82c0f7ff4bf915",
    "7cbb176ce4cba73ac89e09ce7214e127ec6fb0d1f63f0e2e221cfd6c201e2753",
)


def test_share_templates_are_lazy_and_outside_identity(
        golden_spec, complete9_spec, t3_spec, s15_spec):
    """A spec fills its share templates on first use, one per disk and
    never more than n, however many files, malformed ones included, it
    reads: writing one disk's file makes that disk's template, and
    encode, which gathers every disk's values through its template,
    makes all n.  They are not part of the spec: equality, hash, JSON
    and the reference spec pins do not see them.  codec keeps no
    module-level table of its own."""
    from rgc import codec
    for reference, pin in zip((golden_spec, complete9_spec, t3_spec,
                               s15_spec), _SPEC_PINS):
        spec = CodeSpec.from_json(reference.to_json())
        n = spec.params.n
        assert spec.share_templates == {}
        shares = encode(reference, _msg(spec, 1))
        blob = share_to_bytes(spec, shares.get(2))
        assert sorted(spec.share_templates) == [2]
        assert encode(spec, _msg(spec, 1)) == shares
        assert sorted(spec.share_templates) == list(range(1, n + 1))
        made = dict(spec.share_templates)
        for share in shares:
            assert share_from_bytes(spec, share_to_bytes(spec, share)) == share
        for disk in (0, n + 1, 2 ** 32 - 1):
            raw = blob[:36] + disk.to_bytes(4, "little") + blob[40:]
            with pytest.raises(ShareFormatError):
                share_from_bytes(spec, raw)
        encode(spec, _msg(spec, 2))
        assert sorted(spec.share_templates) == list(range(1, n + 1))
        assert all(spec.share_templates[d] is made[d] for d in made)
        assert spec == reference and hash(spec) == hash(reference)
        assert spec.to_json() == reference.to_json()
        assert hashlib.sha256(spec.to_json().encode()).hexdigest() == pin
    tables = [name for name, value in vars(codec).items()
              if not name.startswith("__")
              and (isinstance(value, (dict, list, set, bytearray))
                   or hasattr(value, "cache_clear"))]
    assert tables == []


def test_repair_plans_are_per_helper_set_and_outside_identity(
        golden_spec, complete9_spec, t3_spec, s15_spec):
    """A spec makes one repair plan per (failed disk, helper set): a
    ShareSet, a list and a reversed list of the same helpers find one
    plan, and repeated repairs of every disk from the n - 1 others leave
    n and reuse them.  The plans are not part of the spec: a spec loaded
    from its JSON has none, and equality, hash, JSON and the reference
    spec pins do not see them.  A short helper set raises the same
    ValueError on its first and second repair, and a flipped check
    symbol (c347, the code whose repairs from n - 1 helpers read surplus
    rows) the same CorruptionError from a new plan and from a known
    one."""
    flipped = 0
    for reference, pin in zip((golden_spec, complete9_spec, t3_spec,
                               s15_spec), _SPEC_PINS):
        spec = CodeSpec.from_json(reference.to_json())
        p, q = spec.params, spec.field.q
        assert spec.repair_plans == {}
        shares = encode(spec, _msg(spec, 1))
        helpers = shares.without(1)
        for given in (helpers, list(helpers), list(helpers)[::-1]):
            assert repair(spec, 1, given)[0] == shares.get(1)
        key = (1, tuple(range(2, p.n + 1)))
        assert list(spec.repair_plans) == [key]
        known = spec.repair_plans[key]
        for _ in range(3):
            for failed in shares.disks():
                rebuilt, _ = repair(spec, failed, shares.without(failed))
                assert rebuilt == shares.get(failed)
        assert len(spec.repair_plans) == p.n
        assert spec.repair_plans[key] is known
        assert spec == reference and hash(spec) == hash(reference)
        assert spec.to_json() == reference.to_json()
        assert hashlib.sha256(spec.to_json().encode()).hexdigest() == pin
        assert CodeSpec.from_json(spec.to_json()).repair_plans == {}

        short = shares.without(*range(1, p.t + 1))
        with pytest.raises(ValueError) as err:
            repair(spec, 1, short)
        assert "holds 1 of the m = " in str(err.value)
        _raises_exactly(str(err.value), repair, spec, 1, short,
                        exc=ValueError)
        _, transcript = repair(spec, 1, helpers)
        for disk, syms in transcript.checks:
            if syms:
                pos = shares.get(disk).symbols.index(syms[0])
                bad = _flip(helpers, disk, pos, q)
                cold = CodeSpec.from_json(spec.to_json())
                with pytest.raises(CorruptionError) as err:
                    repair(cold, 1, bad)
                assert "is inconsistent" in str(err.value)
                _raises_exactly(str(err.value), repair, spec, 1, bad,
                                exc=CorruptionError)
                flipped += 1
    assert flipped == 4        # c347: disk 1's helpers 4..7 send checks


def _check_lanes(q, M, rows, x):
    """Pack [S | -I] for the T rows of S, each M long, and check each
    lane of the packed sum of x against its row's exact sum, over the
    first M and over all M + T positions."""
    T = len(rows)
    cols = [tuple(row[c] for row in rows) for c in range(M)]
    cols += [tuple(q - 1 if t == u else 0 for t in range(T))
             for u in range(T)]
    full = [tuple(row) + tuple(q - 1 if t == u else 0 for u in range(T))
            for t, row in enumerate(rows)]
    mask, shifts, packed = _pack_lanes(cols, q)
    assert len(packed) == M + T and len(shifts) == T
    for width in (M, M + T):
        total = sum(map(mul, x[:width], packed))
        assert [total >> s & mask for s in shifts] == [
            sum(map(mul, row[:width], x)) for row in full]
        assert [(total >> s & mask) % q for s in shifts] == [
            sum(map(mul, row[:width], x)) % q for row in full]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_lanes_are_the_exact_row_sums(data):
    """Each lane of the packed sum is its row's exact sum of products,
    with no carry between lanes, over q from 2 to 2^61, for the M
    message positions (encode) and for all M + T positions
    (reconstruct), also when every entry is q - 1.  T = 0 gives no
    lanes."""
    q = data.draw(st.one_of(st.integers(2, 2 ** 61),
                            st.sampled_from([2, 3, 40577, 2 ** 61 - 1])))
    M, T = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 8))
    top = data.draw(st.booleans())
    entry = st.just(q - 1) if top else st.integers(0, q - 1)
    rows = [data.draw(st.lists(entry, min_size=M, max_size=M))
            for _ in range(T)]
    _check_lanes(q, M, rows,
                 data.draw(st.lists(entry, min_size=M + T, max_size=M + T)))


def test_packed_lanes_hold_at_their_bound():
    """Every entry at q - 1 with N = M + T = 2^c - 1 positions fills a
    lane to just below 2^L for q - 1 just below a power of two, so a
    lane one bit narrower would carry."""
    for q in (2, 3, 257, 2 ** 31 - 1, 2 ** 61 - 1):
        for M, T in ((1, 0), (3, 4), (55, 8)):
            _check_lanes(q, M, [[q - 1] * M] * T, [q - 1] * (M + T))


def _phi_and_zero_T_specs():
    """A phi-form spec on the Fano plane (k = 5, GF(5)) and a T = 0 spec
    on complete(2, 3, 7) with k = 6 (one erasure never meets a block in
    t = 2 disks)."""
    fano = build_code(gen_steiner_triple(7), 5, q=5).spec
    zero = build_code(gen_complete_design(2, 3, 7), 6, q=7).spec
    assert fano.phi is not None and zero.params.T == 0
    return fano, zero


def test_encode_parity_is_plain_row_arithmetic(golden_spec, complete9_spec,
                                               t3_spec, s15_spec):
    """On every reference code, a phi-form and a T = 0 code, the shares
    encode makes hold the message and, in the long layer's last T
    positions, each row of S times the message mod q, with row 0..m-1
    of group j at position j m + i.  golden is a phi-form spec too."""
    for spec in (golden_spec, complete9_spec, t3_spec, s15_spec,
                 *_phi_and_zero_T_specs()):
        p, q = spec.params, spec.field.q
        for seed in (3, 4):
            msg = _msg(spec, seed)
            held = {(j, i): v for share in encode(spec, msg)
                    for j, i, v in share.symbols}
            w = [held[(j, i)] for j in range(p.nstar) for i in range(p.m)]
            assert tuple(w[:p.M]) == msg.values
            assert w[p.M:] == [sum(c * v for c, v in zip(row, msg.values))
                               % q for row in spec.s_rows]
        assert len(spec.packed_checks[1]) == p.T


def test_packed_checks_are_lazy_and_outside_identity(
        golden_spec, complete9_spec, t3_spec, s15_spec, monkeypatch):
    """A spec packs its checks once, on first use by encode or
    reconstruct, from parity_columns; the table is not part of the
    spec: equality, hash, JSON and the reference spec pins do not see
    it."""
    from rgc import codespec
    made = []
    real = codespec._pack_lanes
    monkeypatch.setattr(codespec, "_pack_lanes",
                        lambda *args: made.append(args) or real(*args))
    for reference, pin in zip((golden_spec, complete9_spec, t3_spec,
                               s15_spec), _SPEC_PINS):
        spec = CodeSpec.from_json(reference.to_json())
        assert "packed_checks" not in vars(spec)
        shares = encode(spec, _msg(spec, 2))
        table = spec.packed_checks
        assert made[-1] == (spec.parity_columns, spec.field.q)
        k = spec.params.k
        for keep in itertools.islice(
                itertools.combinations(shares.disks(), k), 5):
            assert reconstruct(spec, shares.subset(keep)) == _msg(spec, 2)
        encode(spec, _msg(spec, 3))
        assert spec.packed_checks is table
        assert spec == reference and hash(spec) == hash(reference)
        assert spec.to_json() == reference.to_json()
        assert hashlib.sha256(spec.to_json().encode()).hexdigest() == pin
    assert len(made) == 4


def _plain_record_bytes(share, width):
    return b"".join(struct.pack("<IBB", j, i, width)
                    + v.to_bytes(width, "little") for j, i, v in share.symbols)


def _prime_below(x):
    q = x - 1
    while not is_prime(q):
        q -= 1
    return q


def test_share_bytes_by_width_class(golden_spec, complete9_spec, s15_spec):
    """At every value width: 1, 2 and 3 bytes on the reference codes, and
    1 to 8 on the golden closed-form code, S(2,3,9) with k = 7, over the
    largest prime below 2^(8w), or below the 2^61 modulus cap at w = 8;
    the cap leaves no field of width 9.  Native (1, 2, 4, 8) or bytes
    (3, 5, 6, 7), each file is its header and the records written one by
    one, little-endian, reads back as its share, values 0 and q - 1
    included, and a value >= q in it gets the naming pass's text."""
    assert symbol_width(MAX_MODULUS - 1) == 8
    golden = [build_code(golden_spec.design, 7,
                         q=_prime_below(min(1 << 8 * w, MAX_MODULUS))).spec
              for w in range(1, 9)]
    for spec, width in ((golden_spec, 1), (complete9_spec, 2), (s15_spec, 3),
                        *zip(golden, range(1, 9))):
        q = spec.field.q
        assert symbol_width(q) == width
        shares = list(encode(spec, _msg(spec, 8)))
        shares += [DiskShare(s.disk, tuple((j, i, v)
                                           for j, i, _ in s.symbols))
                   for v in (0, q - 1) for s in shares]
        for share in shares:
            blob = share_to_bytes(spec, share)
            assert blob[44:] == _plain_record_bytes(share, width)
            assert blob[:44] == struct.pack(
                "<4s32sII", b"RGC1", spec.spec_hash, share.disk,
                len(share.symbols))
            back = share_from_bytes(spec, blob)
            assert back == share and back._checked is spec
        share = shares[0]
        blob = share_to_bytes(spec, share)
        for at in (44, len(blob) - 6 - width):
            for bad in (q, (1 << 8 * width) - 1):
                raw = (blob[:at + 6] + bad.to_bytes(width, "little")
                       + blob[at + 6 + width:])
                _raises_exactly(f"share for disk {share.disk} has a symbol "
                                f"outside GF({q})", share_from_bytes, spec,
                                raw)


def test_reads_keep_their_steps_per_spec(complete9_spec, monkeypatch):
    """A spec keeps each lost-row mask's read step (spec.read_steps), at
    most 2^r of them, each for a mask that lost a row below m: a second
    read of every one of c9's 36 k-sets makes no step, so it calls
    group_decoder no more.  The table is not part of the spec: equality,
    hash and JSON do not see it."""
    from rgc import codec
    reference = complete9_spec
    spec = CodeSpec.from_json(reference.to_json())
    p = spec.params
    assert "read_steps" not in vars(spec)
    msg = _msg(spec, 6)
    shares = encode(spec, msg)
    keeps = list(itertools.combinations(shares.disks(), p.k))
    assert len(keeps) == 36
    for keep in keeps:
        assert reconstruct(spec, shares.subset(keep)) == msg
    made = dict(spec.read_steps)
    assert made and len(made) <= 2 ** p.r
    assert all(h & (1 << p.m) - 1 for h in made)
    calls = []
    real = codec.group_decoder
    monkeypatch.setattr(codec, "group_decoder",
                        lambda *args: calls.append(args) or real(*args))
    for keep in keeps:
        assert reconstruct(spec, shares.subset(keep)) == msg
    assert calls == []
    assert spec.read_steps.keys() == made.keys()
    assert all(spec.read_steps[h] is made[h] for h in made)
    assert spec == reference and hash(spec) == hash(reference)
    assert spec.to_json() == reference.to_json()


def test_c9_share_faults_keep_their_texts(complete9_spec):
    """A c9 file (2-byte values) with a value of 0xFFFF >= q, a wrong
    width byte, a record cut off in its prefix or its value, or
    trailing bytes raises the naming pass's text."""
    spec, q = complete9_spec, complete9_spec.field.q
    share = encode(spec, _msg(spec, 7)).get(1)
    blob = share_to_bytes(spec, share)
    last = len(blob) - 8

    def patched(pos, value):
        return blob[:pos] + bytes((value,)) + blob[pos + 1:]

    for pos in (44, last):
        raw = blob[:pos + 6] + b"\xff\xff" + blob[pos + 8:]
        _raises_exactly(f"share for disk 1 has a symbol outside GF({q})",
                        share_from_bytes, spec, raw)
        for width in (1, 3, 0):
            _raises_exactly(f"record width {width} does not match the field "
                            f"width 2", share_from_bytes, spec,
                            patched(pos + 5, width))
    _raises_exactly("truncated share record", share_from_bytes, spec,
                    blob[:last + 5])
    _raises_exactly("truncated share value", share_from_bytes, spec,
                    blob[:last + 7])
    _raises_exactly("1 trailing bytes after the last record",
                    share_from_bytes, spec, blob + b"\x00")
    _raises_exactly("8 trailing bytes after the last record",
                    share_from_bytes, spec, blob + blob[44:52])


def test_list_built_records_are_the_tuple_records(complete9_spec,
                                                  golden_spec):
    """A message, or a spec's s_entries or phi, given as a list equals
    and hashes as the tuple-built record, so a correct read of a
    list-built message compares equal to it, and the spec's JSON and
    shares do not change."""
    assert MessageVector(5, [1, 2]) == MessageVector(5, (1, 2))
    assert hash(MessageVector(5, [1, 2])) == hash(MessageVector(5, (1, 2)))
    assert type(MessageVector(5, [1, 2]).values) is tuple
    spec = complete9_spec
    msg = MessageVector(spec.field.q, list(_msg(spec, 4).values))
    shares = encode(spec, msg)
    got = reconstruct(spec, shares.subset(range(1, spec.params.k + 1)))
    assert got == msg and hash(got) == hash(msg)
    for ref, field in ((complete9_spec, "s_entries"), (golden_spec, "phi")):
        listed = CodeSpec(params=ref.params, field=ref.field,
                          design=ref.design, layout=ref.layout,
                          **{field: list(getattr(ref, field))})
        assert type(getattr(listed, field)) is tuple
        assert listed == ref and hash(listed) == hash(ref)
        assert listed.to_json() == ref.to_json()
        assert encode(listed, _msg(ref, 4)) == encode(ref, _msg(ref, 4))
