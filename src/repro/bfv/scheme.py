"""Functional BFV [21] on the WarpDrive substrate (§VI-B generality).

BFV is the *scale-invariant* exact scheme: messages ride in the high bits
(``Delta = floor(Q/t)``) so modulus switching is unnecessary, at the cost
of a scaled tensor product in multiplication::

    HMULT(ct_a, ct_b) = round( t/Q * (ct_a (x) ct_b) )  mod Q

The tensor product must be exact over the integers, so both ciphertexts
are lifted (with *signed* representatives) onto an auxiliary RNS basis
wide enough to hold ``N * (Q/2)^2``, multiplied there with the same NTT
machinery as everything else, scaled by ``t/Q`` with an exact
RNS division, and relinearized with the standard hybrid key-switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..ckks.keys import KeySet
from ..ckks.keyswitch import keyswitch
from ..ckks.poly import COEFF, RnsPoly
from ..intslot import IntSlotCiphertext, IntSlotContext, IntSlotParams
from ..numtheory import find_ntt_prime, modinv
from ..numtheory.rns import RNSBasis, extend_basis_signed


@dataclass(frozen=True)
class BfvParams(IntSlotParams):
    """Static parameters of one BFV instantiation."""

    max_level: int = 3  # chain length knob (no rescaling in BFV)
    modulus_bits: int = 26

    @classmethod
    def toy(cls) -> "BfvParams":
        return cls(n=64, max_level=3, num_special=2, dnum=2,
                   plain_bits=13, modulus_bits=26, name="bfv-toy")


class BfvCiphertext(IntSlotCiphertext):
    """BFV ciphertext: an RLWE pair over the full chain (no levels)."""


class BfvContext(IntSlotContext):
    """Keygen, encryption and homomorphic evaluation for BFV."""

    def __init__(self, params: BfvParams, *, seed: int = None):
        super().__init__(params, seed=seed)
        self.q_product = params.chain().q_product(params.max_level)
        #: Delta = floor(Q / t): the message scale.
        self.delta = self.q_product // self.t
        self._aux_moduli = self._build_aux_basis()
        self._q_basis = RNSBasis(self.q_moduli)
        self._aux_basis = RNSBasis(self._aux_moduli)
        #: Q^{-1} mod each aux prime, as a column for the exact division.
        self._q_inv_aux = np.array(
            [modinv(self.q_product % p, p) for p in self._aux_moduli],
            dtype=np.uint64,
        ).reshape(-1, 1)

    def _plain_factor(self, ct) -> int:
        return self.delta

    def _fresh(self, c0: RnsPoly, c1: RnsPoly) -> BfvCiphertext:
        return BfvCiphertext(c0, c1)

    def _coeff_map(self, ct: BfvCiphertext):
        q, t = self.q_product, self.t
        return lambda c: (2 * t * c + q) // (2 * q)

    def _build_aux_basis(self) -> Tuple[int, ...]:
        """Auxiliary primes for the tensor product: their product must
        exceed ``N * Q / 2 * t`` (the scaled product's magnitude over the
        Q-rows it joins)."""
        need_bits = (
            self.q_product.bit_length()
            + self.t.bit_length()
            + int(math.log2(self.params.n)) + 4
        )
        primes = []
        p = 1 << 30  # walk down from the largest 30-bit prime
        bits_collected = 0
        taken = set(self.q_moduli) | set(self.p_moduli) | {self.t}
        while bits_collected < need_bits:
            p = find_ntt_prime(30, self.params.n, below=p)
            if p in taken:
                continue
            primes.append(p)
            bits_collected += p.bit_length() - 1
        return tuple(primes)

    # -- multiplication --------------------------------------------------------------------

    def hmult(self, a: BfvCiphertext, b: BfvCiphertext,
              keys: KeySet) -> BfvCiphertext:
        """Scale-invariant product with relinearization."""
        full_moduli = self.q_moduli + self._aux_moduli

        def lift(poly: RnsPoly) -> RnsPoly:
            coeff = poly.to_coeff()
            aux = extend_basis_signed(coeff.data, self._q_basis,
                                      self._aux_basis)
            data = np.concatenate([coeff.data, aux], axis=0)
            return RnsPoly(data, full_moduli, COEFF).to_eval()

        a0, a1 = lift(a.c0), lift(a.c1)
        b0, b1 = lift(b.c0), lift(b.c1)
        d0 = a0 * b0
        d1 = (a0 * b1).fma_(a1, b0)
        d2 = a1 * b1
        d0q = self._scale_to_q(d0)
        d1q = self._scale_to_q(d1)
        d2q = self._scale_to_q(d2)
        ks0, ks1 = keyswitch(d2q, keys.relin, self.p_moduli)
        return BfvCiphertext(d0q + ks0, d1q + ks1)

    def _scale_to_q(self, poly: RnsPoly) -> RnsPoly:
        """``round(t * x / Q) mod Q`` for ``x`` held exactly over Q+aux.

        Computed as an exact RNS division on the aux rows — subtract
        ``[t*x]_Q`` (known from the Q rows), divide by Q — then an exact
        conversion of the (small) quotient back onto the Q basis.
        """
        q_basis, aux_basis = self._q_basis, self._aux_basis
        q_red, aux_red = q_basis.batch, aux_basis.batch
        num_q = len(self.q_moduli)
        coeff = poly.to_coeff()
        # Multiply by t on both row groups.
        tx_q = q_red.mul_mat(coeff.data[:num_q], q_red.reduce_scalar(self.t))
        tx_aux = aux_red.mul_mat(coeff.data[num_q:],
                                 aux_red.reduce_scalar(self.t))
        # Remainder r = [t*x]_Q (centered for round-to-nearest-ish), then
        # quotient y = (t*x - r) / Q on the aux rows.
        r_on_aux = extend_basis_signed(tx_q, q_basis, aux_basis)
        y_aux = aux_red.mul_mat(aux_red.sub_mat(tx_aux, r_on_aux),
                                self._q_inv_aux)
        # The quotient is small (|y| < t*N*Q / Q ~ t*N); convert exactly
        # back onto the Q basis with the signed representative.
        y_on_q = extend_basis_signed(y_aux, aux_basis, q_basis)
        return RnsPoly(y_on_q, self.q_moduli, COEFF).to_eval()
