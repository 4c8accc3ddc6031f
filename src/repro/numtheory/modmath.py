"""Scalar modular arithmetic primitives.

These routines back the prime generation, twiddle-table construction and the
RNS machinery. Everything here is exact integer math on Python ints; the
vectorized hot paths are the backend kernels (:mod:`repro.backend`),
reached row-wise through :mod:`repro.numtheory.barrett`.
"""

from __future__ import annotations

from ..analysis.annotations import bounded

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981
# (covers every 64-bit integer); see Sorenson & Webster (2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@bounded(assume=True, out_q=1)
def modpow(base: int, exponent: int, modulus: int) -> int:
    """Return ``base ** exponent mod modulus`` for non-negative exponents."""
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    return pow(base, exponent, modulus)


@bounded(assume=True, out_q=1)
def modinv(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises ``ValueError`` when the inverse does not exist.
    """
    value %= modulus
    if value == 0:
        raise ValueError("0 has no modular inverse")
    g, x, _ = _extended_gcd(value, modulus)
    if g != 1:
        raise ValueError(f"{value} is not invertible mod {modulus} (gcd={g})")
    return x % modulus


def _extended_gcd(a: int, b: int) -> tuple:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for every integer below 2**64.

    For larger inputs the same witness set acts as a very strong
    probabilistic test; CKKS moduli in this library are < 2**32 so the
    deterministic guarantee always applies.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Return the prime factorization of ``n`` as ``{prime: exponent}``.

    Trial division followed by Pollard rho; adequate for the < 2**64
    integers seen when searching for primitive roots.
    """
    if n <= 0:
        raise ValueError(f"can only factorize positive integers, got {n}")
    factors: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _pollard_rho(n: int) -> int:
    """Return a non-trivial factor of composite ``n`` (Brent's variant)."""
    if n % 2 == 0:
        return 2
    from math import gcd

    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def primitive_root(q: int) -> int:
    """Return the smallest primitive root of the prime ``q``."""
    if not is_probable_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == 2:
        return 1
    phi = q - 1
    prime_factors = list(factorize(phi))
    for g in range(2, q):
        if all(pow(g, phi // p, q) != 1 for p in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")  # pragma: no cover


def root_of_unity(order: int, q: int) -> int:
    """Return a primitive ``order``-th root of unity modulo the prime ``q``.

    Requires ``order`` to divide ``q - 1`` (the standard NTT-friendliness
    condition ``q ≡ 1 mod order``).
    """
    if (q - 1) % order != 0:
        raise ValueError(f"{order} does not divide {q}-1; q is not NTT-friendly")
    g = primitive_root(q)
    omega = pow(g, (q - 1) // order, q)
    # Defensive sanity check: omega^(order/p) != 1 for each prime p | order.
    for p in factorize(order):
        if pow(omega, order // p, q) == 1:
            raise ArithmeticError(
                f"derived root {omega} is not a primitive {order}-th root mod {q}"
            )
    return omega


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def bit_reverse_permutation(n: int):
    """Return the length-``n`` bit-reversal permutation as a list."""
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    bits = n.bit_length() - 1
    return [bit_reverse(i, bits) for i in range(n)]


def is_power_of_two(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0
