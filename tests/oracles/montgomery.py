"""Montgomery modular reduction with ``R = 2**32`` word radix.

The paper (§IV-A-4) converts NTT twiddle factors to the Montgomery domain
ahead of time — the domain conversion of one operand is then free, and
Montgomery reduction beats Barrett by about 10% inside the NTT. The
library prices that choice (``repro.core.costs.MONTGOMERY_MULMOD_OPS``)
and does not execute it; this module keeps REDC as a test reference:
a scalar form and the vectorized numpy form the per-prime radix-2
transform (:mod:`tests.oracles.radix2`) runs.

All moduli must be odd and below 2**31 (see :mod:`repro.numtheory.primes`);
under that bound every intermediate fits a uint64 lane:
``T + m*q < q*R + q*R = q*2**33 < 2**64``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.annotations import (bounded, montgomery_domain,
                                       standard_domain, takes_domain)
from repro.numtheory.modmath import modinv

#: Montgomery radix: one 32-bit GPU word.
RADIX_BITS = 32
RADIX = 1 << RADIX_BITS
_RADIX_MASK = np.uint64(RADIX - 1)


class MontgomeryReducer:
    """Montgomery arithmetic for a fixed odd prime modulus ``q < 2**31``."""

    def __init__(self, modulus: int):
        if modulus % 2 == 0:
            raise ValueError("Montgomery reduction requires an odd modulus")
        if not 2 < modulus < (1 << 31):
            raise ValueError(f"modulus must lie in (2, 2**31), got {modulus}")
        self.modulus = modulus
        #: q' = -q^{-1} mod R, the REDC constant.
        self.q_neg_inv = (-modinv(modulus, RADIX)) % RADIX
        #: R mod q and R^2 mod q for domain conversions.
        self.r_mod_q = RADIX % modulus
        self.r2_mod_q = (self.r_mod_q * self.r_mod_q) % modulus
        self._q64 = np.uint64(modulus)
        self._qinv64 = np.uint64(self.q_neg_inv)

    # ---- scalar reference ------------------------------------------------

    def reduce(self, t: int) -> int:
        """REDC: return ``t * R^{-1} mod q`` for ``0 <= t < q*R``."""
        if not 0 <= t < self.modulus * RADIX:
            raise ValueError("input out of Montgomery reduction range")
        m = ((t & (RADIX - 1)) * self.q_neg_inv) & (RADIX - 1)
        result = (t + m * self.modulus) >> RADIX_BITS
        if result >= self.modulus:
            result -= self.modulus
        return result

    def to_montgomery(self, a: int) -> int:
        """Map ``a`` into the Montgomery domain: ``a * R mod q``."""
        return self.reduce((a % self.modulus) * self.r2_mod_q)

    def from_montgomery(self, a_mont: int) -> int:
        """Map a Montgomery-domain value back to the plain domain."""
        return self.reduce(a_mont)

    def mulmod(self, a: int, b: int) -> int:
        """Plain-domain modular product computed through Montgomery form."""
        a_mont = self.to_montgomery(a)
        return self.reduce(a_mont * (b % self.modulus))

    # ---- vectorized hot path ----------------------------------------------

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def reduce_vec(self, t: np.ndarray) -> np.ndarray:
        """Vectorized REDC over a uint64 array with entries below ``q*R``."""
        t = t.astype(np.uint64, copy=False)
        m = ((t & _RADIX_MASK) * self._qinv64) & _RADIX_MASK
        result = (t + m * self._q64) >> np.uint64(RADIX_BITS)
        return np.where(result >= self._q64, result - self._q64, result)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Montgomery product of arrays already in the Montgomery domain.

        Inputs and output are uint64 arrays below ``q``; the result is
        ``a * b * R^{-1} mod q`` — i.e. the Montgomery-domain product when
        both inputs are Montgomery-domain values, or the plain product when
        exactly one operand carries the extra ``R`` factor (the twiddle-table
        trick the paper uses).
        """
        prod = a.astype(np.uint64, copy=False) * b.astype(np.uint64, copy=False)
        return self.reduce_vec(prod)

    @montgomery_domain
    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def to_montgomery_vec(self, a: np.ndarray) -> np.ndarray:
        """Vectorized domain entry: ``a * R mod q``."""
        a = a.astype(np.uint64, copy=False)
        return self.reduce_vec(a * np.uint64(self.r2_mod_q))

    @standard_domain
    @takes_domain(a_mont="montgomery")
    @bounded(assume=True, params={"a_mont": {"q": 1}}, out_q=1)
    def from_montgomery_vec(self, a_mont: np.ndarray) -> np.ndarray:
        """Vectorized domain exit."""
        return self.reduce_vec(a_mont.astype(np.uint64, copy=False))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MontgomeryReducer(q={self.modulus})"

