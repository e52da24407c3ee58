"""Exact arithmetic in prime fields F(q) and dense matrices over them.

Everything here is deterministic and exact: residues are plain Python ints
and the modulus is capped at 2^61.  Elimination lives in ``_kernel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

MAX_MODULUS = 1 << 61

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


@dataclass(frozen=True)
class PrimeField:
    """The prime field F(q), q a prime below 2^61."""

    q: int

    def __post_init__(self):
        if not 2 <= self.q < MAX_MODULUS:
            raise ValueError(f"modulus {self.q} outside [2, 2^61)")
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError(f"inverse of zero in F({self.q})")
        return pow(a, -1, self.q)


@dataclass(frozen=True)
class FieldMatrix:
    """Dense matrix over F(q), entries stored row-major."""

    q: int
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{len(self.entries)} entries for a "
                f"{self.rows}x{self.cols} matrix")
        q = self.q
        if any(not 0 <= e < q for e in self.entries):
            raise ValueError("entry outside [0, q)")

    @classmethod
    def from_rows(cls, q: int, rows: Sequence[Sequence[int]]) -> FieldMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(x % q for x in row)
        return cls(q, r, c, tuple(flat))

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> FieldMatrix:
        return cls(q, rows, cols, (0,) * (rows * cols))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

