"""Prime moduli and the exact linear-algebra kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc._kernel import echelon_add, mat_mul, mat_rank, mat_solve
from rgc.ffield import PrimeField, next_prime


def test_next_prime_strictly_greater():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(3) == 5
    assert next_prime(40572) == 40577
    assert next_prime(40576) == 40577
    assert next_prime(40577) == 40583


def test_prime_field_rejects_composites_and_small_moduli():
    for bad in (0, 1, 4, 9, 40572):
        with pytest.raises(ValueError):
            PrimeField(bad)


def _random_flat(rng, rows, cols, q):
    return [rng.randrange(q) for _ in range(rows * cols)]


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_mat_mul_matches_reference(ar, ac, bc, seed):
    q = 11
    rng = random.Random(seed)
    a = _random_flat(rng, ar, ac, q)
    b = _random_flat(rng, ac, bc, q)
    got = mat_mul(a, ar, ac, b, ac, bc, q)
    want = [sum(a[i * ac + t] * b[t * bc + j] for t in range(ac)) % q
            for i in range(ar) for j in range(bc)]
    assert got == want


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_transpose(rows, cols, seed):
    q = 13
    rng = random.Random(seed)
    a = _random_flat(rng, rows, cols, q)
    at = [a[i * cols + j] for j in range(cols) for i in range(rows)]
    assert mat_rank(a, rows, cols, q) == mat_rank(at, cols, rows, q)
    # a tuple input ranks the same
    assert mat_rank(tuple(a), rows, cols, q) == mat_rank(a, rows, cols, q)


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_solve_round_trip(n, bcols, seed):
    q = 40577
    rng = random.Random(seed)
    while True:
        a = _random_flat(rng, n, n, q)
        if mat_rank(list(a), n, n, q) == n:
            break
    b = _random_flat(rng, n, bcols, q)
    rank, x = mat_solve(list(a), n, n, list(b), bcols, q)
    assert rank == n and x is not None
    assert mat_mul(a, n, n, x, n, bcols, q) == b


def test_solve_reports_inconsistency():
    # rows force x = 0 and x = 1 simultaneously
    assert mat_solve([1, 1], 2, 1, [0, 1], 1, 7) == (1, None)


def test_solve_underdetermined_zeroes_free_variables():
    rank, x = mat_solve([1, 1], 1, 2, [4], 1, 7)
    assert rank == 1 and x is not None
    assert mat_mul([1, 1], 1, 2, x, 2, 1, 7) == [4]


@given(st.sampled_from([2, 3, 13]), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_solve_agrees_with_rank_on_rectangular_systems(q, rows, cols,
                                                       bcols, seed):
    """mat_solve's rank is mat_rank's; x is None exactly when [a | b]
    has the larger rank, and otherwise a x = b."""
    rng = random.Random(seed)
    # a product of thin factors is often rank-deficient
    inner = rng.randint(1, min(rows, cols))
    a = mat_mul(_random_flat(rng, rows, inner, q), rows, inner,
                _random_flat(rng, inner, cols, q), inner, cols, q)
    b = _random_flat(rng, rows, bcols, q)
    if rng.random() < 0.5:     # a consistent right-hand side
        b = mat_mul(a, rows, cols, _random_flat(rng, cols, bcols, q), cols,
                    bcols, q)
    ab = [v for i in range(rows) for v in (a[i * cols:(i + 1) * cols]
                                           + b[i * bcols:(i + 1) * bcols])]
    rank, x = mat_solve(a, rows, cols, b, bcols, q)
    assert rank == mat_rank(a, rows, cols, q)
    assert (x is None) == (mat_rank(ab, rows, cols + bcols, q) > rank)
    if x is not None:
        assert mat_mul(a, rows, cols, x, cols, bcols, q) == b


@given(st.sampled_from([2, 3, 13]), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_echelon_add_tracks_rank(q, rows, cols, seed):
    """The k-th echelon_add keeps its row exactly when the first k rows
    have a higher rank than the first k - 1; each kept row is zero at the
    pivots kept before it; unreduced inputs give the same answers."""
    rng = random.Random(seed)
    # a product of thin factors is often rank-deficient
    inner = rng.randint(1, min(rows, cols))
    a = mat_mul(_random_flat(rng, rows, inner, q), rows, inner,
                _random_flat(rng, inner, cols, q), inner, cols, q)
    basis, shifted = [], []
    for k in range(1, rows + 1):
        row = a[(k - 1) * cols:k * cols]
        grew = mat_rank(a, k, cols, q) > mat_rank(a, k - 1, cols, q)
        assert echelon_add(basis, row, q) == grew
        # the same row with entries moved by multiples of q
        unreduced = [x + q * rng.randint(-3, 3) for x in row]
        assert echelon_add(shifted, unreduced, q) == grew
        if grew:
            piv, kept = basis[-1]
            assert kept[piv] and not any(kept[p] for p, _ in basis[:-1])
            piv, kept = shifted[-1]
            assert kept[piv] % q
            assert not any(kept[p] % q for p, _ in shifted[:-1])
    assert [p for p, _ in shifted] == [p for p, _ in basis]
