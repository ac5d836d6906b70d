"""Deterministic primality and primitive roots for desk-scale moduli."""

from math import isqrt

from .errors import BudgetExceededError, InputError

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Trial division stops at this divisor; a cofactor left without a smaller
# factor must then pass the primality test.
_TRIAL_LIMIT = 10**5


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a proven witness set)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise InputError(f"primality test not deterministic for n >= {_MR_LIMIT}")
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


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_root(n: int):
    """The prime q with n = q^k for some k >= 1, for n with no factor below
    _TRIAL_LIMIT, or None."""
    k = 1
    while (q := _iroot(n, k)) >= _TRIAL_LIMIT:
        if q**k == n and q < _MR_LIMIT and is_prime(q):
            return q
        k += 1
    return None


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division below _TRIAL_LIMIT.

    A cofactor left with no factor below the limit is kept when it is a prime
    or a power of one; any other, or one too large to test, raises
    BudgetExceededError.
    """
    out = []
    d = 2
    while d * d <= n:
        if d >= _TRIAL_LIMIT:
            q = _prime_root(n)
            if q is None:
                unit = f"factoring {n} by {{}} trial divisors"
                raise BudgetExceededError(isqrt(n), _TRIAL_LIMIT, unit)
            n = q
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int, n: int = 1) -> int:
    """A generator of the cyclic unit group of Z/p^n for an odd prime p.

    A generator g mod p lifts to mod p^n unless g^(p-1) = 1 mod p^2,
    in which case g + p works.
    """
    if p == 2:
        raise InputError("units of Z/2^n are not cyclic for n >= 3")
    phi_factors = factorize(p - 1)
    g = None
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // f, p) != 1 for f in phi_factors):
            g = cand
            break
    if g is None:
        raise InputError(f"{p} is not prime")
    if n > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g
