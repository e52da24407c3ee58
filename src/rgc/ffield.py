"""Prime moduli: primality, next_prime and the PrimeField modulus check.

Field elements are plain Python ints in [0, q) and matrices are tuples or
lists of them; arithmetic is written inline with % q and pow(x, -1, q),
and elimination lives in ``_kernel``.  The modulus is capped at 2^61.
"""

from __future__ import annotations

from ._record import record, require_int

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


@record
class PrimeField:
    """The prime field F(q), q a prime below 2^61."""

    q: int

    def __post_init__(self):
        require_int("modulus", self.q)
        if not 2 <= self.q < MAX_MODULUS:
            raise ValueError(f"modulus {self.q} outside [2, 2^61)")
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")
