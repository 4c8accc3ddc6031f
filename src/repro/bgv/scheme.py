"""Functional BGV on the WarpDrive substrate (§VI-B generality).

The paper argues its NTT and kernel designs carry over to other
RLWE schemes "by incorporating additional logic for homomorphic
operations"; this module is that additional logic for BGV [13]: exact
integer arithmetic mod a plaintext prime ``t``, errors scaled by ``t``,
hybrid key-switching with the t-preserving ModDown, and modulus switching
in place of CKKS rescaling. Every polynomial operation reuses the same
RNS/NTT machinery the CKKS layer runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ckks.keys import KeyGenerator, KeySet
from ..ckks.keyswitch import keyswitch
from ..ckks.ks_common import eval_automorphism_table, mod_down_eval
from ..ckks.poly import EVAL, RnsPoly
from ..ckks.sampling import sample_error, sample_ternary
from ..ntt import (get_shoup_stack, stacked_negacyclic_intt,
                   stacked_negacyclic_ntt)
from ..numtheory import CRTReconstructor, modinv
from ..numtheory.rns import RNSBasis
from .params import BgvParams


@dataclass
class BgvCiphertext:
    """BGV ciphertext: RLWE pair + level + plaintext scale factor mod t.

    Modulus switching multiplies the message by ``q_last^{-1} mod t``;
    ``plain_scale`` accumulates those factors so decryption can undo them.
    """

    c0: RnsPoly
    c1: RnsPoly
    level: int
    plain_scale: int = 1

    @property
    def moduli(self):
        return self.c0.moduli


class BgvContext:
    """Keygen, encryption and homomorphic evaluation for BGV."""

    def __init__(self, params: BgvParams, *, seed: int = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.t = params.plain_modulus
        chain = params.chain()
        self.q_moduli = tuple(chain.moduli)
        self.p_moduli = tuple(chain.special_primes)
        self._keygen = KeyGenerator(params, self.rng, error_scale=self.t)
        self._stack_t = get_shoup_stack((self.t,), params.n)

    # -- keys -------------------------------------------------------------------

    def keygen(self) -> KeySet:
        secret = self._keygen.generate_secret()
        return KeySet(
            secret=secret,
            public=self._keygen.generate_public(secret),
            relin=self._keygen.generate_relin(secret),
        )

    # -- encoding (SIMD slots via the NTT mod t) -----------------------------------

    def encode(self, values: Sequence[int]) -> np.ndarray:
        """Pack up to N integer slots into plaintext coefficients mod t."""
        values = np.asarray(values, dtype=np.int64)
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

    def encrypt(self, values: Sequence[int], keys: KeySet) -> BgvCiphertext:
        level = self.params.max_level
        moduli = self.q_moduli[: level + 1]
        n = self.params.n
        m = RnsPoly.from_signed(
            self.encode(values).astype(np.int64), moduli
        ).to_eval()
        v = RnsPoly.from_signed(sample_ternary(n, self.rng), moduli
                                ).to_eval()
        e0 = RnsPoly.from_signed(
            sample_error(n, self.rng, std=self.params.error_std) * self.t,
            moduli,
        ).to_eval()
        e1 = RnsPoly.from_signed(
            sample_error(n, self.rng, std=self.params.error_std) * self.t,
            moduli,
        ).to_eval()
        pk_b = keys.public.b.take_primes(range(level + 1))
        pk_a = keys.public.a.take_primes(range(level + 1))
        return BgvCiphertext(
            c0=pk_b * v + e0 + m, c1=pk_a * v + e1, level=level,
        )

    def decrypt(self, ct: BgvCiphertext, keys: KeySet) -> np.ndarray:
        """Decrypt to integer slots (centered representatives mod t)."""
        s = keys.secret.poly.take_primes(range(ct.level + 1))
        phase = (ct.c0 + ct.c1 * s).to_coeff()
        crt = CRTReconstructor(list(phase.moduli))
        coeffs = crt.reconstruct_array(phase.data, signed=True)
        unscale = modinv(ct.plain_scale, self.t)
        reduced = np.array(
            [(int(c) * unscale) % self.t for c in coeffs], dtype=np.uint64
        )
        slots = self.decode(reduced)
        centered = slots.copy()
        centered[centered > self.t // 2] -= self.t
        return centered

    # -- homomorphic operations -------------------------------------------------------

    def hadd(self, a: BgvCiphertext, b: BgvCiphertext) -> BgvCiphertext:
        a, b = self._align(a, b)
        return BgvCiphertext(a.c0 + b.c0, a.c1 + b.c1, a.level,
                             a.plain_scale)

    def hsub(self, a: BgvCiphertext, b: BgvCiphertext) -> BgvCiphertext:
        a, b = self._align(a, b)
        return BgvCiphertext(a.c0 - b.c0, a.c1 - b.c1, a.level,
                             a.plain_scale)

    def negate(self, ct: BgvCiphertext) -> BgvCiphertext:
        return BgvCiphertext(-ct.c0, -ct.c1, ct.level, ct.plain_scale)

    def add_plain(self, ct: BgvCiphertext,
                  values: Sequence[int]) -> BgvCiphertext:
        moduli = ct.moduli
        m = RnsPoly.from_signed(
            self.encode(values).astype(np.int64), moduli
        ).to_eval().mul_scalar(ct.plain_scale)
        return BgvCiphertext(ct.c0 + m, ct.c1.copy(), ct.level,
                             ct.plain_scale)

    def pmult(self, ct: BgvCiphertext,
              values: Sequence[int]) -> BgvCiphertext:
        m = RnsPoly.from_signed(
            self.encode(values).astype(np.int64), ct.moduli
        ).to_eval()
        return BgvCiphertext(ct.c0 * m, ct.c1 * m, ct.level,
                             ct.plain_scale)

    def hmult(self, a: BgvCiphertext, b: BgvCiphertext, keys: KeySet, *,
              mod_switch: bool = True) -> BgvCiphertext:
        """Ciphertext product with relinearization (+ modulus switch)."""
        a, b = self._align(a, b)
        d0 = a.c0 * b.c0
        d1 = (a.c0 * b.c1).fma_(a.c1, b.c0)
        d2 = a.c1 * b.c1
        ks0, ks1 = keyswitch(
            d2, keys.relin, self.p_moduli, plain_modulus=self.t
        )
        ct = BgvCiphertext(
            d0 + ks0, d1 + ks1, a.level,
            (a.plain_scale * b.plain_scale) % self.t,
        )
        return self.mod_switch(ct) if mod_switch else ct

    # -- Galois automorphisms / rotations ---------------------------------------------

    def generate_galois_key(self, keys: KeySet, exponent: int) -> None:
        """Add a switching key for ``X -> X^exponent`` to ``keys``
        (stored in the rotation map under the exponent)."""
        keys.rotation[exponent] = self._keygen.generate_galois(
            keys.secret, exponent
        )

    def slot_permutation(self, exponent: int) -> np.ndarray:
        """The slot permutation induced by ``X -> X^exponent``.

        Slot ``k`` holds ``m(psi^(2k+1))``; the automorphism maps slot
        ``k`` to the value previously at slot ``(e*(2k+1) - 1)/2 mod N``.
        Returns ``perm`` with ``new_slots[k] = old_slots[perm[k]]``.
        """
        n = self.params.n
        if exponent % 2 == 0:
            raise ValueError("automorphism exponent must be odd")
        k = np.arange(n)
        return ((exponent * (2 * k + 1)) % (2 * n) - 1) // 2

    def apply_galois(self, ct: BgvCiphertext, exponent: int,
                     keys: KeySet) -> BgvCiphertext:
        """Homomorphically permute slots via ``X -> X^exponent``."""
        key = keys.rotation.get(exponent)
        if key is None:
            raise KeyError(
                f"no Galois key for exponent {exponent}; call "
                "generate_galois_key first"
            )
        src = eval_automorphism_table(exponent, self.params.n)
        rot0 = RnsPoly(ct.c0.data[:, src], ct.moduli, EVAL)
        rot1 = RnsPoly(ct.c1.data[:, src], ct.moduli, EVAL)
        ks0, ks1 = keyswitch(rot1, key, self.p_moduli,
                             plain_modulus=self.t)
        return BgvCiphertext(rot0 + ks0, ks1, ct.level, ct.plain_scale)

    def mod_switch(self, ct: BgvCiphertext) -> BgvCiphertext:
        """Drop the last prime, scaling noise down by ~q_last (BGV's
        noise-management move; the message picks up q_last^{-1} mod t)."""
        if ct.level < 1:
            raise ValueError("already at the lowest level")
        moduli = ct.moduli
        q_last = moduli[-1]
        lowered = mod_down_eval(
            np.stack([ct.c0.data, ct.c1.data], axis=1),
            RNSBasis(moduli[:-1]), RNSBasis(moduli[-1:]),
            plain_modulus=self.t,
        )
        parts = [RnsPoly(np.ascontiguousarray(lowered[:, i]), moduli[:-1],
                         EVAL) for i in range(2)]
        new_scale = (ct.plain_scale * modinv(q_last % self.t, self.t)) \
            % self.t
        return BgvCiphertext(parts[0], parts[1], ct.level - 1, new_scale)

    # -- internals ------------------------------------------------------------------

    def _align(self, a: BgvCiphertext, b: BgvCiphertext):
        while a.level > b.level:
            a = self.mod_switch(a)
        while b.level > a.level:
            b = self.mod_switch(b)
        if a.plain_scale != b.plain_scale:
            # Equalize message scales with a constant multiplication.
            factor = (a.plain_scale * modinv(b.plain_scale, self.t)) \
                % self.t
            b = BgvCiphertext(
                b.c0.mul_scalar(factor), b.c1.mul_scalar(factor),
                b.level, a.plain_scale,
            )
        return a, b
