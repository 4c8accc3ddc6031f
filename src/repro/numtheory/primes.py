"""Generation of NTT-friendly RNS prime chains for CKKS.

WarpDrive uses a 32-bit word size (paper §V-A): every RNS prime fits in a
machine word so CUDA cores operate on it natively and tensor cores consume
it as four uint8 limbs. We additionally keep primes below 2**31 so that
Shoup companions ``w << 32`` and products of two residues never overflow
a uint64 lane, and the float64 GEMM NTT stays exact
(:func:`~repro.ntt.stacked.limb_split`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .modmath import is_probable_prime

#: Hard cap on any modulus in this library (see module docstring).
MAX_MODULUS_BITS = 31


def find_ntt_prime(bits: int, ring_degree: int, *, below: int = None,
                   above: int = None) -> int:
    """Return the largest prime ``q`` with ``q ≡ 1 (mod 2*ring_degree)``.

    ``q`` has at most ``bits`` bits and is strictly smaller than ``below``
    (when given) so that callers can walk down a chain of distinct primes.
    ``above`` bounds the search from below to detect exhaustion.
    """
    if bits > MAX_MODULUS_BITS:
        raise ValueError(
            f"requested {bits}-bit modulus exceeds the {MAX_MODULUS_BITS}-bit "
            "word-size limit used by the 32-bit WarpDrive configuration"
        )
    m = 2 * ring_degree
    ceiling = (1 << bits) - 1
    if below is not None:
        ceiling = min(ceiling, below - 1)
    floor = above if above is not None else 1 << (bits - 1)
    # Largest candidate ≡ 1 mod m at or below ceiling.
    candidate = ceiling - ((ceiling - 1) % m)
    while candidate >= floor:
        if is_probable_prime(candidate):
            return candidate
        candidate -= m
    raise ValueError(
        f"no {bits}-bit prime ≡ 1 mod {m} found below {ceiling} and above {floor}"
    )


def find_ntt_primes(count: int, bits: int, ring_degree: int) -> List[int]:
    """Return ``count`` distinct descending NTT-friendly primes of ``bits`` bits."""
    primes: List[int] = []
    below = None
    for _ in range(count):
        p = find_ntt_prime(bits, ring_degree, below=below)
        primes.append(p)
        below = p
    return primes


@dataclass(frozen=True)
class PrimeChain:
    """The full modulus chain of a CKKS instance.

    Attributes
    ----------
    base:
        The base prime ``q0`` (largest, sized for decryption headroom).
    scale_primes:
        The rescaling primes ``q1..qL`` (sized near the encoding scale).
    special_primes:
        The ``K`` special primes ``p0..p(K-1)`` used by hybrid key-switching.
    """

    base: int
    scale_primes: List[int] = field(default_factory=list)
    special_primes: List[int] = field(default_factory=list)

    @property
    def moduli(self) -> List[int]:
        """``[q0, q1, ..., qL]`` — the ciphertext modulus chain."""
        return [self.base] + list(self.scale_primes)

    @property
    def all_moduli(self) -> List[int]:
        """Ciphertext chain followed by the special primes."""
        return self.moduli + list(self.special_primes)

    @property
    def max_level(self) -> int:
        """Maximum multiplicative level L (number of scale primes)."""
        return len(self.scale_primes)

    def q_product(self, level: int) -> int:
        """Return ``Q_level = prod(q_0..q_level)``."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range [0, {self.max_level}]")
        product = 1
        for q in self.moduli[: level + 1]:
            product *= q
        return product

    def p_product(self) -> int:
        """Return ``P = prod(special primes)``."""
        product = 1
        for p in self.special_primes:
            product *= p
        return product

    @property
    def log_qp(self) -> int:
        """Total modulus bits ``log2(Q_L * P_K)``, as reported in Table VI."""
        total = self.q_product(self.max_level) * self.p_product()
        return total.bit_length() - 1


def build_prime_chain(ring_degree: int, num_levels: int, num_special: int,
                      *, base_bits: int = 31, scale_bits: int = 28,
                      special_bits: int = 31) -> PrimeChain:
    """Construct a :class:`PrimeChain` with distinct NTT-friendly primes.

    The base and special primes are taken from the top of the 31-bit range,
    the scale primes from around ``2**scale_bits``, mirroring the common
    RNS-CKKS layout (base/special primes larger than the scale).
    """
    if num_levels < 0 or num_special < 0:
        raise ValueError("num_levels and num_special must be non-negative")
    taken: List[int] = []

    def next_prime(bits: int) -> int:
        below = None
        while True:
            p = find_ntt_prime(bits, ring_degree, below=below)
            if p not in taken:
                taken.append(p)
                return p
            below = p

    base = next_prime(base_bits)
    special = [next_prime(special_bits) for _ in range(num_special)]
    scale = [next_prime(scale_bits) for _ in range(num_levels)]
    return PrimeChain(base=base, scale_primes=scale, special_primes=special)
