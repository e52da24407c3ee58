"""Prime-field arithmetic and the exact linear-algebra kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc._kernel import mat_mul, mat_rank, mat_solve
from rgc.ffield import FieldMatrix, PrimeField, next_prime

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 101, 40577])


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


@given(PRIMES, st.integers(), st.integers(), st.integers())
@settings(max_examples=60, deadline=None)
def test_field_axioms(q, a, b, c):
    f = PrimeField(q)
    a, b, c = a % q, b % q, c % q
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_matrix_shapes_and_stacking():
    zero = FieldMatrix.zeros(5, 0, 3)
    assert (zero.rows, zero.cols, zero.to_rows()) == (0, 3, [])
    assert FieldMatrix.zeros(5, 2, 1).to_rows() == [[0], [0]]
    rows = [[1, 2], [3, 4]]
    assert FieldMatrix.from_rows(5, rows).to_rows() == rows
    assert FieldMatrix.from_rows(5, [[6, -1]]).to_rows() == [[1, 4]]
    with pytest.raises(ValueError):
        FieldMatrix.from_rows(5, [[1, 2], [3]])     # ragged


def test_matrix_validation():
    with pytest.raises(ValueError):
        FieldMatrix(5, 2, 2, (0, 1, 2))      # entry count mismatch
    with pytest.raises(ValueError):
        FieldMatrix(5, 1, 1, (5,))           # entry outside the field
    with pytest.raises(ValueError):
        FieldMatrix(5, -1, 1, ())


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
    x = mat_solve(list(a), n, n, list(b), bcols, q)
    assert x is not None
    assert mat_mul(a, n, n, x, n, bcols, q) == b


def test_solve_reports_inconsistency():
    # rows force x = 0 and x = 1 simultaneously
    assert mat_solve([1, 1], 2, 1, [0, 1], 1, 7) is None


def test_solve_underdetermined_zeroes_free_variables():
    x = mat_solve([1, 1], 1, 2, [4], 1, 7)
    assert x is not None
    assert mat_mul([1, 1], 1, 2, x, 2, 1, 7) == [4]
