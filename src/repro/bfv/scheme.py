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
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..ckks.keys import KeyGenerator, KeySet
from ..ckks.keyswitch import keyswitch
from ..ckks.poly import COEFF, RnsPoly
from ..ckks.sampling import sample_error, sample_ternary
from ..ntt import (get_shoup_stack, stacked_negacyclic_intt,
                   stacked_negacyclic_ntt)
from ..numtheory import CRTReconstructor, find_ntt_prime, modinv
from ..numtheory.rns import RNSBasis, extend_basis_signed


@dataclass(frozen=True)
class BfvParams:
    """Static parameters of one BFV instantiation."""

    n: int
    max_level: int = 3  # chain length knob (no rescaling in BFV)
    num_special: int = 2
    dnum: int = 2
    plain_bits: int = 17
    modulus_bits: int = 26
    base_bits: int = 31
    special_bits: int = 31
    error_std: float = 3.2
    secret_hamming_weight: int = 0
    name: str = ""

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("ring degree must be a power of two >= 8")
        if self.max_level < 1:
            raise ValueError("need at least one extra prime in the chain")

    @property
    def plain_modulus(self) -> int:
        return _plain_prime(self.plain_bits, self.n)

    @property
    def num_primes(self) -> int:
        return self.max_level + 1

    def chain(self):
        from ..bgv.params import _chain_for

        return _chain_for(
            self.n, self.max_level, self.num_special, self.base_bits,
            self.modulus_bits, self.special_bits,
        )

    @classmethod
    def toy(cls) -> "BfvParams":
        return cls(n=64, max_level=3, num_special=2, dnum=2,
                   plain_bits=13, modulus_bits=26, name="bfv-toy")


@lru_cache(maxsize=32)
def _plain_prime(bits: int, n: int) -> int:
    return find_ntt_prime(bits, n)


@dataclass
class BfvCiphertext:
    """BFV ciphertext: an RLWE pair over the full chain (no levels)."""

    c0: RnsPoly
    c1: RnsPoly

    @property
    def moduli(self):
        return self.c0.moduli


class BfvContext:
    """Keygen, encryption and homomorphic evaluation for BFV."""

    def __init__(self, params: BfvParams, *, seed: int = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.t = params.plain_modulus
        chain = params.chain()
        self.q_moduli = tuple(chain.moduli)
        self.p_moduli = tuple(chain.special_primes)
        self.q_product = chain.q_product(params.max_level)
        #: Delta = floor(Q / t): the message scale.
        self.delta = self.q_product // self.t
        self._keygen = KeyGenerator(params, self.rng)
        self._stack_t = get_shoup_stack((self.t,), params.n)
        self._aux_moduli = self._build_aux_basis()

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
        below = None
        bits_collected = 0
        taken = set(self.q_moduli) | set(self.p_moduli) | {self.t}
        while bits_collected < need_bits:
            p = find_ntt_prime(30, self.params.n, below=below)
            below = p
            if p in taken:
                continue
            primes.append(p)
            bits_collected += p.bit_length() - 1
        return tuple(primes)

    # -- keys ---------------------------------------------------------------------

    def keygen(self) -> KeySet:
        secret = self._keygen.generate_secret()
        return KeySet(
            secret=secret,
            public=self._keygen.generate_public(secret),
            relin=self._keygen.generate_relin(secret),
        )

    # -- encoding (same SIMD slots as BGV) --------------------------------------------

    def encode(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        if len(values) > self.params.n:
            raise ValueError(f"at most {self.params.n} slots")
        slots = np.zeros(self.params.n, dtype=np.uint64)
        slots[: len(values)] = np.mod(values, self.t).astype(np.uint64)
        return stacked_negacyclic_intt(slots[None], self._stack_t)[0]

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        return stacked_negacyclic_ntt(
            coeffs.astype(np.uint64)[None] % np.uint64(self.t),
            self._stack_t,
        )[0].astype(np.int64)

    # -- encryption ------------------------------------------------------------------

    def encrypt(self, values: Sequence[int], keys: KeySet) -> BfvCiphertext:
        n = self.params.n
        moduli = self.q_moduli
        # Delta * m, per-prime via the big-int scalar.
        m_coeffs = self.encode(values)
        m = RnsPoly.from_signed(
            m_coeffs.astype(np.int64), moduli
        ).mul_scalar(self.delta).to_eval()
        v = RnsPoly.from_signed(sample_ternary(n, self.rng),
                                moduli).to_eval()
        e0 = RnsPoly.from_signed(
            sample_error(n, self.rng, std=self.params.error_std), moduli
        ).to_eval()
        e1 = RnsPoly.from_signed(
            sample_error(n, self.rng, std=self.params.error_std), moduli
        ).to_eval()
        pk_b = keys.public.b
        pk_a = keys.public.a
        return BfvCiphertext(
            c0=pk_b * v + e0 + m, c1=pk_a * v + e1
        )

    def decrypt(self, ct: BfvCiphertext, keys: KeySet) -> np.ndarray:
        s = keys.secret.poly.take_primes(range(len(self.q_moduli)))
        phase = (ct.c0 + ct.c1 * s).to_coeff()
        crt = CRTReconstructor(list(self.q_moduli))
        coeffs = crt.reconstruct_array(phase.data, signed=True)
        q = self.q_product
        t = self.t
        reduced = np.array(
            [((2 * t * int(c) + q) // (2 * q)) % t for c in coeffs],
            dtype=np.uint64,
        )
        slots = self.decode(reduced)
        centered = slots.copy()
        centered[centered > t // 2] -= t
        return centered

    # -- additive ops -------------------------------------------------------------------

    def hadd(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        return BfvCiphertext(a.c0 + b.c0, a.c1 + b.c1)

    def hsub(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        return BfvCiphertext(a.c0 - b.c0, a.c1 - b.c1)

    def negate(self, ct: BfvCiphertext) -> BfvCiphertext:
        return BfvCiphertext(-ct.c0, -ct.c1)

    def add_plain(self, ct: BfvCiphertext,
                  values: Sequence[int]) -> BfvCiphertext:
        m = RnsPoly.from_signed(
            self.encode(values).astype(np.int64), self.q_moduli
        ).mul_scalar(self.delta).to_eval()
        return BfvCiphertext(ct.c0 + m, ct.c1.copy())

    def pmult(self, ct: BfvCiphertext,
              values: Sequence[int]) -> BfvCiphertext:
        """Plaintext multiplication (unscaled plaintext: exact mod t)."""
        m = RnsPoly.from_signed(
            self.encode(values).astype(np.int64), self.q_moduli
        ).to_eval()
        return BfvCiphertext(ct.c0 * m, ct.c1 * m)

    # -- multiplication --------------------------------------------------------------------

    def hmult(self, a: BfvCiphertext, b: BfvCiphertext,
              keys: KeySet) -> BfvCiphertext:
        """Scale-invariant product with relinearization."""
        q_basis = RNSBasis(self.q_moduli)
        aux_basis = RNSBasis(self._aux_moduli)
        full_moduli = self.q_moduli + self._aux_moduli

        def lift(poly: RnsPoly) -> RnsPoly:
            coeff = poly.to_coeff()
            aux = extend_basis_signed(coeff.data, q_basis, aux_basis)
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
        q_basis = RNSBasis(self.q_moduli)
        aux_basis = RNSBasis(self._aux_moduli)
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
        q_inv = np.array([modinv(self.q_product % p, p)
                          for p in self._aux_moduli],
                         dtype=np.uint64).reshape(-1, 1)
        y_aux = aux_red.mul_mat(aux_red.sub_mat(tx_aux, r_on_aux), q_inv)
        # The quotient is small (|y| < t*N*Q / Q ~ t*N); convert exactly
        # back onto the Q basis with the signed representative.
        y_on_q = extend_basis_signed(y_aux, aux_basis, q_basis)
        return RnsPoly(y_on_q, self.q_moduli, COEFF).to_eval()
