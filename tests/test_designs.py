"""Block-design generation, verification, and serialization."""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc.designs import (CATALOG, MAX_BLOCKS, BlockDesign,
                         gen_complete_design, gen_steiner_triple,
                         is_complete_design, load_design, save_design,
                         verify_design)


@pytest.mark.parametrize("n", [7, 9, 13, 15, 19, 21, 25, 27])
def test_steiner_triples_verify(n):
    design = gen_steiner_triple(n)
    assert design.num_blocks == n * (n - 1) // 6
    assert design.replication == (n - 1) // 2
    report = verify_design(design)
    assert report.ok, report.first_violation()


def test_steiner_triple_bytes_pinned():
    """The canonical JSON of every triple system on 7..99 points, Bose
    (n = 3 mod 6) and Skolem (n = 1 mod 6) alike, hashed in order."""
    h = hashlib.sha256()
    for n in range(7, 100):
        if n % 6 in (1, 3):
            h.update(gen_steiner_triple(n).to_json().encode())
    assert h.hexdigest() == ("3435ab4a10a15025006cbf88a1e9d6e4"
                             "77f58942f2d7b89b0dc5ea1ab30c575c")


@pytest.mark.parametrize("n", [2, 5, 6, 8, 11, 12, 17])
def test_steiner_triples_reject_bad_sizes(n):
    with pytest.raises(ValueError):
        gen_steiner_triple(n)


@given(st.integers(2, 9))
@settings(max_examples=20, deadline=None)
def test_complete_designs_verify(n):
    for t in range(2, min(n, 4) + 1):
        for r in range(t, n + 1):
            design = gen_complete_design(t, r, n)
            assert design.num_blocks == math.comb(n, r)
            assert design.lam == math.comb(n - t, r - t)
            assert is_complete_design(design)
            assert verify_design(design).ok


def test_complete_check_counts_blocks_before_listing_them(monkeypatch):
    """A design with the complete design's lambda but one block is told
    apart by its block count, without listing all C(n, r) blocks."""
    def refuse(*args):
        raise AssertionError("listed every r-subset")

    monkeypatch.setattr(itertools, "combinations", refuse)
    for n, r in ((22, 8), (40, 12)):
        lone = BlockDesign(n=n, t=2, r=r, lam=math.comb(n - 2, r - 2),
                           blocks=(tuple(range(1, r + 1)),))
        assert not is_complete_design(lone)


def test_generators_refuse_more_blocks_than_the_cap(monkeypatch):
    """An oversized request is refused before any block is listed."""
    def refuse(*args):
        raise AssertionError("listed blocks")

    monkeypatch.setattr(itertools, "combinations", refuse)
    for make, count in ((lambda: gen_complete_design(2, 30, 60),
                         math.comb(60, 30)),
                        (lambda: gen_steiner_triple(2451), 1000825)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == (f"the design would have {count} "
                                  f"blocks, above the cap of {MAX_BLOCKS}")


def test_complete_design_rejects_bad_ranges():
    with pytest.raises(ValueError):
        gen_complete_design(3, 2, 5)   # r < t
    with pytest.raises(ValueError):
        gen_complete_design(2, 6, 5)   # r > n


def test_verification_catches_missing_block():
    good = gen_steiner_triple(9)
    broken = BlockDesign(n=9, t=2, r=3, lam=1, blocks=good.blocks[1:])
    report = verify_design(broken)
    assert not report.ok
    assert "covered 0 times" in " ".join(report.violations) or \
        "block count" in " ".join(report.violations)


def test_blocks_are_canonicalized():
    b = CATALOG["s_2_3_7"]
    scrambled = tuple(tuple(reversed(blk)) for blk in reversed(b.blocks))
    a = BlockDesign(n=7, t=2, r=3, lam=1, blocks=scrambled)
    assert a == b
    assert a.blocks[0] == (1, 2, 3)


def test_design_parameters_out_of_range_are_refused():
    """Out-of-range parameters, and blocks that are not a list of blocks
    of int points, raise a ValueError that names the field, not a
    TypeError from the sort."""
    for n, t, r, lam, blocks, text in (
            (7, 4, 3, 1, (), "need 1 <= t <= r <= n, got t=4 r=3 n=7"),
            (7, 0, 3, 1, (), "need 1 <= t <= r <= n, got t=0 r=3 n=7"),
            (7, 2, 8, 1, (), "need 1 <= t <= r <= n, got t=2 r=8 n=7"),
            (7, 2, 3, 0, (), "lambda must be positive"),
            (3, 1, 1, 1, (1, 2, 3),
             "design blocks entry 1 (int) is not a block of points"),
            (3, 1, 1, 1, None,
             "design blocks None (NoneType) are not a list of blocks"),
            (3, 1, 3, 1, ((1, "2", 3),),
             "block (1, '2', 3) point '2' is a str, not an int")):
        with pytest.raises(ValueError) as err:
            BlockDesign(n=n, t=t, r=r, lam=lam, blocks=blocks)
        assert str(err.value) == text


def test_counts_that_are_not_integers_are_refused():
    """No S(2,3,8) exists: 7/2 blocks would hold each point and 28/3
    blocks in all."""
    design = BlockDesign(n=8, t=2, r=3, lam=1, blocks=())
    with pytest.raises(ValueError) as err:
        design.replication
    assert str(err.value) == "replication count is not an integer"
    with pytest.raises(ValueError) as err:
        design.expected_num_blocks()
    assert str(err.value) == "block count formula is not an integer"
    assert (verify_design(design).first_violation()
            == "block count formula is not an integer")


def test_duplicate_points_in_block_rejected():
    with pytest.raises(ValueError):
        BlockDesign(n=7, t=2, r=3, lam=1, blocks=((1, 1, 2),))


def test_catalog_counts():
    for design in CATALOG.values():
        assert verify_design(design).ok
        assert design.num_blocks == design.expected_num_blocks()


def test_blocks_through_points_and_pairs_match_parameters():
    design = gen_steiner_triple(13)
    for point in range(1, 14):
        assert sum(point in b for b in design.blocks) == design.replication
    for pair in itertools.combinations(range(1, 14), 2):
        assert sum(set(pair) <= set(b) for b in design.blocks) == 1


def test_json_round_trip(tmp_path):
    design = gen_steiner_triple(13)
    path = tmp_path / "d.json"
    save_design(design, path)
    assert load_design(path) == design
    assert BlockDesign.from_json(design.to_json()) == design


def test_json_structural_errors_and_soft_violations():
    design = CATALOG["s_2_3_7"]
    with pytest.raises(ValueError):
        BlockDesign.from_json('{"n":7,"t":2,"r":3}')   # missing keys
    bad_block = design.to_json().replace("[3,5,6]", "[3,5,9]")
    with pytest.raises(ValueError):
        BlockDesign.from_json(bad_block)               # leaves ground set
    # a wrong lambda parses (shape is fine) but fails verification
    relabeled = BlockDesign.from_json(
        design.to_json().replace('"lambda":1', '"lambda":2'))
    assert not verify_design(relabeled).ok
