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

import numpy as np

from ..ckks.keys import KeySet
from ..ckks.keyswitch import keyswitch
from ..ckks.ks_common import eval_automorphism_table, mod_down_eval
from ..ckks.poly import EVAL, RnsPoly
from ..intslot import IntSlotCiphertext, IntSlotContext
from ..numtheory import modinv
from ..numtheory.rns import RNSBasis


@dataclass
class BgvCiphertext(IntSlotCiphertext):
    """BGV ciphertext: RLWE pair + level + plaintext scale factor mod t.

    Modulus switching multiplies the message by ``q_last^{-1} mod t``;
    ``plain_scale`` accumulates those factors so decryption can undo them.
    """

    level: int
    plain_scale: int = 1


class BgvContext(IntSlotContext):
    """Keygen, encryption and homomorphic evaluation for BGV."""

    def _error_scale(self) -> int:
        return self.t

    def _plain_factor(self, ct: BgvCiphertext) -> int:
        return ct.plain_scale

    def _fresh(self, c0: RnsPoly, c1: RnsPoly) -> BgvCiphertext:
        return BgvCiphertext(c0, c1, self.params.max_level)

    def _coeff_map(self, ct: BgvCiphertext):
        unscale = modinv(ct.plain_scale, self.t)
        return lambda c: c * unscale

    # -- homomorphic operations -------------------------------------------------------

    def hmult(self, a: BgvCiphertext, b: BgvCiphertext, keys: KeySet, *,
              mod_switch: bool = True) -> BgvCiphertext:
        """Ciphertext product with relinearization (+ modulus switch).

        Operands are aligned as in :meth:`hadd`: the higher-level one is
        mod-switched down and the ``plain_scale`` factors equalised.
        """
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
        """Mod-switch the higher-level operand down to the other's level,
        then multiply ``b`` by a constant so its ``plain_scale`` matches
        ``a``'s (the result keeps ``a``'s)."""
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
