"""Integer-slot core shared by BGV and BFV (§VI-B generality).

Both exact schemes pack N integers into the slots of an NTT-friendly
plaintext prime ``t ≡ 1 mod 2N`` and encrypt them as RLWE pairs over the
same RNS chain, keys and NTT as CKKS. What does not depend on where the
plaintext scale lives is written once here: parameters, context set-up,
keys, the slot codec, the encrypt skeleton, the decrypt tail and the
additive and plaintext ops. ``repro.bgv`` and ``repro.bfv`` hold only
the differences, as overrides of :class:`IntSlotContext`'s hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ckks.keys import KeyGenerator, KeySet
from .ckks.params import _chain_for
from .ckks.poly import RnsPoly
from .ckks.sampling import sample_error, sample_ternary
from .ntt import (get_shoup_stack, stacked_negacyclic_intt,
                  stacked_negacyclic_ntt)
from .numtheory import CRTReconstructor, PrimeChain, find_ntt_prime


@dataclass(frozen=True)
class IntSlotParams:
    """Static parameters of one exact-scheme instantiation."""

    n: int
    max_level: int
    num_special: int = 2
    dnum: int = 2
    #: Bit size of the plaintext prime t (t ≡ 1 mod 2N is derived).
    plain_bits: int = 17
    modulus_bits: int = 28
    base_bits: int = 31
    special_bits: int = 31
    error_std: float = 3.2
    #: Hamming weight of the ternary secret (0 = dense).
    secret_hamming_weight: int = 0
    name: str = ""

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("ring degree must be a power of two >= 8")
        if self.max_level < 1:
            raise ValueError("need at least one level")
        if self.plain_bits < 2 or self.plain_bits > 30:
            raise ValueError("plaintext prime must be 2..30 bits")

    @property
    def plain_modulus(self) -> int:
        """The NTT-friendly plaintext prime t."""
        return _plain_prime(self.plain_bits, self.n)

    @property
    def num_primes(self) -> int:
        return self.max_level + 1

    def chain(self) -> PrimeChain:
        return _chain_for(
            self.n, self.max_level, self.num_special, self.base_bits,
            self.modulus_bits, self.special_bits,
        )


@lru_cache(maxsize=32)
def _plain_prime(bits: int, n: int) -> int:
    return find_ntt_prime(bits, n)


@dataclass
class IntSlotCiphertext:
    """An RLWE pair ``(c0, c1)`` in the eval domain."""

    c0: RnsPoly
    c1: RnsPoly

    @property
    def moduli(self):
        return self.c0.moduli


class IntSlotContext:
    """Keys, slot codec, encryption and additive ops of an exact scheme.

    A scheme class defines ``_plain_factor(ct)`` (the scalar a plaintext
    is lifted by before it joins ``ct``), ``_fresh(c0, c1)`` (a new
    full-chain ciphertext) and ``_coeff_map(ct)`` (decrypt's map from a
    signed phase coefficient to the message, before ``mod t``). It may
    override ``_error_scale`` and ``_align``.
    """

    def __init__(self, params: IntSlotParams, *, seed: int = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.t = params.plain_modulus
        chain = params.chain()
        self.q_moduli = tuple(chain.moduli)
        self.p_moduli = tuple(chain.special_primes)
        self._keygen = KeyGenerator(params, self.rng,
                                    error_scale=self._error_scale())
        self._stack_t = get_shoup_stack((self.t,), params.n)

    def _error_scale(self) -> int:
        """Factor on every encryption and key error polynomial."""
        return 1

    def _align(self, a, b):
        """Bring two operands to one level and plaintext scale."""
        return a, b

    # -- keys and slot codec --------------------------------------------------------

    def keygen(self) -> KeySet:
        """Secret, public and relinearization keys (drawn in that order)."""
        return self._keygen.generate()

    def encode(self, values: Sequence[int]) -> np.ndarray:
        """Pack up to N integer slots into plaintext coefficients mod t.

        Raises ``ValueError`` for a non-integral, NaN or infinite value, or
        a float of magnitude 2**63 or more (which int64 cannot hold);
        integral floats such as ``3.0`` are accepted.
        """
        values = np.asarray(values)
        if values.dtype.kind not in "biu":
            real = values.astype(np.float64)
            # NaN and ±inf fail both tests.
            if not np.all((real == np.floor(real)) & (np.abs(real) < 2**63)):
                raise ValueError("slot values must be finite integers "
                                 "of magnitude below 2**63")
        values = values.astype(np.int64)
        if len(values) > self.params.n:
            raise ValueError(f"at most {self.params.n} slots")
        slots = np.zeros(self.params.n, dtype=np.uint64)
        slots[: len(values)] = np.mod(values, self.t).astype(np.uint64)
        return stacked_negacyclic_intt(slots[None], self._stack_t)[0]

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients mod t back to integer slots."""
        return stacked_negacyclic_ntt(
            coeffs.astype(np.uint64)[None] % np.uint64(self.t),
            self._stack_t,
        )[0].astype(np.int64)

    # -- encryption -----------------------------------------------------------------

    def encrypt(self, values: Sequence[int], keys: KeySet):
        """Public-key encryption of zero on the full chain (drawing the
        ternary ``v``, then the errors ``e0`` and ``e1``) plus the slots."""
        n, moduli = self.params.n, self.q_moduli
        v = RnsPoly.from_signed(sample_ternary(n, self.rng), moduli
                                ).to_eval()
        e0, e1 = (
            RnsPoly.from_signed(
                sample_error(n, self.rng, std=self.params.error_std)
                * self._error_scale(), moduli,
            ).to_eval()
            for _ in range(2)
        )
        zero = self._fresh(keys.public.b * v + e0, keys.public.a * v + e1)
        return self.add_plain(zero, values)

    def decrypt(self, ct: IntSlotCiphertext, keys: KeySet) -> np.ndarray:
        """Decrypt to integer slots (centered representatives mod t)."""
        s = keys.secret.poly.take_primes(range(len(ct.moduli)))
        phase = (ct.c0 + ct.c1 * s).to_coeff()
        crt = CRTReconstructor(list(phase.moduli))
        coeffs = crt.reconstruct_array(phase.data, signed=True)
        to_plain = self._coeff_map(ct)
        slots = self.decode(np.array(
            [to_plain(int(c)) % self.t for c in coeffs], dtype=np.uint64
        ))
        slots[slots > self.t // 2] -= self.t
        return slots

    # -- additive and plaintext ops -------------------------------------------------

    def hadd(self, a: IntSlotCiphertext, b: IntSlotCiphertext):
        """Slot-wise sum. Operands pass through ``_align`` first: BGV
        mod-switches the higher-level one down and equalises
        ``plain_scale``."""
        a, b = self._align(a, b)
        return replace(a, c0=a.c0 + b.c0, c1=a.c1 + b.c1)

    def hsub(self, a: IntSlotCiphertext, b: IntSlotCiphertext):
        """Slot-wise difference, aligned as in :meth:`hadd`."""
        a, b = self._align(a, b)
        return replace(a, c0=a.c0 - b.c0, c1=a.c1 - b.c1)

    def negate(self, ct: IntSlotCiphertext):
        return replace(ct, c0=-ct.c0, c1=-ct.c1)

    def add_plain(self, ct: IntSlotCiphertext, values: Sequence[int]):
        m = RnsPoly.from_signed(self.encode(values), ct.moduli).to_eval()
        m = m.mul_scalar(self._plain_factor(ct))
        return replace(ct, c0=ct.c0 + m, c1=ct.c1.copy())

    def pmult(self, ct: IntSlotCiphertext, values: Sequence[int]):
        """Plaintext multiplication (unscaled plaintext: exact mod t)."""
        m = RnsPoly.from_signed(self.encode(values), ct.moduli).to_eval()
        return replace(ct, c0=ct.c0 * m, c1=ct.c1 * m)
