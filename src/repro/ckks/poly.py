"""RNS polynomials — the data type every homomorphic operation acts on.

An :class:`RnsPoly` is a ``(num_primes, N)`` uint64 residue matrix plus its
modulus list and a domain tag: ``coeff`` (coefficient representation) or
``eval`` (negacyclic NTT representation). Multiplication requires ``eval``;
automorphisms and basis conversions require ``coeff`` — exactly the
conversions whose cost the paper's KeySwitch kernel breakdown (NTT, ModUp,
INTT, ModDown, InProd) accounts for.

All arithmetic and both domain conversions run through the **batched RNS
engine**: one :class:`~repro.ckks.rns_context.RnsContext` per
``(moduli, N)`` pair holds the row-wise reducer and the stacked NTT
tables, so every hot path is a single vectorized numpy expression over
the whole residue matrix — no Python loop over primes, matching how
WarpDrive's kernels consume the limb dimension as one dense batch
(§IV-A, §IV-B). The batched path is bit-identical to the historical
per-row loop (regression-tested against its reducers and radix-2
transform in ``tests/oracles`` and the O(N^2) reference transforms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..analysis.annotations import bounded, coeff_form, eval_form, takes_form
from ..ntt.stacked import stacked_negacyclic_intt, stacked_negacyclic_ntt
from .rns_context import RnsContext, get_rns_context

COEFF = "coeff"
EVAL = "eval"


@dataclass
class RnsPoly:
    """A polynomial in RNS representation.

    The residue rows are aligned with ``moduli``; ``domain`` records whether
    rows hold coefficients or NTT evaluations.
    """

    data: np.ndarray
    moduli: Tuple[int, ...]
    domain: str = COEFF

    def __post_init__(self):
        self.moduli = tuple(self.moduli)
        if self.data.ndim != 2:
            raise ValueError("RnsPoly data must be 2-D (primes x N)")
        if self.data.shape[0] != len(self.moduli):
            raise ValueError(
                f"{self.data.shape[0]} residue rows for "
                f"{len(self.moduli)} moduli"
            )
        if self.domain not in (COEFF, EVAL):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.data.dtype != np.uint64:
            self.data = self.data.astype(np.uint64)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, moduli: Sequence[int], n: int, domain: str = COEFF
             ) -> "RnsPoly":
        return cls(np.zeros((len(moduli), n), dtype=np.uint64),
                   tuple(moduli), domain)

    @classmethod
    @coeff_form
    def from_signed(cls, coeffs: np.ndarray, moduli: Sequence[int]
                    ) -> "RnsPoly":
        """Lift signed int64 coefficients into RNS (coefficient domain)."""
        q_col = np.array(moduli, dtype=np.int64)[:, None]
        rows = np.mod(coeffs.astype(np.int64)[None, :], q_col)
        return cls(rows.astype(np.uint64), tuple(moduli), COEFF)

    @classmethod
    @coeff_form
    def from_bigint(cls, coeffs: Sequence[int], moduli: Sequence[int]
                    ) -> "RnsPoly":
        """Lift arbitrary-precision integer coefficients into RNS."""
        rows = [
            np.array([int(c) % q for c in coeffs], dtype=np.uint64)
            for q in moduli
        ]
        return cls(np.stack(rows), tuple(moduli), COEFF)

    # -- shape ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def num_primes(self) -> int:
        return len(self.moduli)

    @property
    def context(self) -> RnsContext:
        """The shared batched-arithmetic context for this basis."""
        return get_rns_context(self.moduli, self.data.shape[1])

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.data.copy(), self.moduli, self.domain)

    # -- domain conversion -----------------------------------------------------

    @eval_form
    def to_eval(self) -> "RnsPoly":
        """Forward NTT every residue row in one batched pass.

        Always returns a fresh value: when the polynomial is already in
        the eval domain the residue matrix is *copied*, never aliased —
        two RnsPoly values must never share a mutable buffer (an in-place
        write through one would silently corrupt the other).
        """
        if self.domain == EVAL:
            return self.copy()
        ctx = self.context
        return RnsPoly(
            stacked_negacyclic_ntt(self.data, ctx.shoup),
            self.moduli, EVAL,
        )

    @coeff_form
    def to_coeff(self) -> "RnsPoly":
        """Inverse NTT every residue row in one batched pass.

        Returns a copy (never ``self``) when already in the coefficient
        domain — see :meth:`to_eval`.
        """
        if self.domain == COEFF:
            return self.copy()
        ctx = self.context
        return RnsPoly(
            stacked_negacyclic_intt(self.data, ctx.shoup),
            self.moduli, COEFF,
        )

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other: "RnsPoly") -> None:
        if self.moduli != other.moduli:
            raise ValueError("operands live in different RNS bases")
        if self.domain != other.domain:
            raise ValueError(
                f"operands in different domains: {self.domain} vs "
                f"{other.domain}"
            )

    @bounded(params={"self.data": {"q": 1}, "other.data": {"q": 1}})
    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = self.context.barrett.add_mat(self.data, other.data)
        return RnsPoly(out, self.moduli, self.domain)

    @bounded(params={"self.data": {"q": 1}, "other.data": {"q": 1}})
    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = self.context.barrett.sub_mat(self.data, other.data)
        return RnsPoly(out, self.moduli, self.domain)

    @bounded(params={"self.data": {"q": 1}})
    def __neg__(self) -> "RnsPoly":
        out = self.context.barrett.neg_mat(self.data)
        return RnsPoly(out, self.moduli, self.domain)

    @eval_form
    @takes_form(self="eval", other="eval")
    @bounded(params={"self.data": {"q": 1}, "other.data": {"q": 1}})
    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Pointwise product — only meaningful in the eval domain."""
        self._check_compatible(other)
        if self.domain != EVAL:
            raise ValueError(
                "polynomial products require the eval domain; call "
                ".to_eval() first (this is the NTT the paper accelerates)"
            )
        out = self.context.barrett.mul_mat(self.data, other.data)
        return RnsPoly(out, self.moduli, EVAL)

    @eval_form
    @takes_form(self="eval", a="eval", b="eval")
    @bounded(params={"self.data": {"q": 1}, "a.data": {"q": 1},
                     "b.data": {"q": 1}})
    def fma_(self, a: "RnsPoly", b: "RnsPoly") -> "RnsPoly":
        """In-place fused multiply-accumulate: ``self += a * b``.

        One reduction pass instead of two and no intermediate product
        polynomial — the accumulation discipline of the paper's PE MAC
        kernels (§IV-C). Requires the eval domain (like ``*``); the raw
        product plus the accumulator stays below ``2**62 + 2**31``, inside
        the Barrett reducer's input range. Bit-identical to
        ``self + a * b``; returns ``self`` for chaining.
        """
        a._check_compatible(b)
        self._check_compatible(a)
        if self.domain != EVAL:
            raise ValueError(
                "fused multiply-accumulate requires the eval domain; call "
                ".to_eval() first (this is the NTT the paper accelerates)"
            )
        prod = a.data * b.data
        prod += self.data
        self.data = self.context.barrett.reduce_mat(prod)
        return self

    @bounded(params={"self.data": {"q": 1}})
    def mul_scalar(self, scalar: int) -> "RnsPoly":
        """Multiply by an integer scalar (any domain)."""
        ctx = self.context
        out = ctx.barrett.mul_mat(self.data, ctx.reduce_scalar(scalar))
        return RnsPoly(out, self.moduli, self.domain)

    # -- structure -----------------------------------------------------------

    def drop_last_primes(self, count: int) -> "RnsPoly":
        """Restrict to the first ``num_primes - count`` rows (same values
        mod the remaining primes — *not* a rescale)."""
        if not 0 <= count < self.num_primes:
            raise ValueError("cannot drop that many primes")
        if count == 0:
            return self
        return RnsPoly(
            self.data[:-count].copy(), self.moduli[:-count], self.domain
        )

    def take_primes(self, indices: Sequence[int]) -> "RnsPoly":
        """Select a subset of residue rows (digit extraction)."""
        return RnsPoly(
            self.data[list(indices)].copy(),
            tuple(self.moduli[i] for i in indices),
            self.domain,
        )

    @coeff_form
    @takes_form(self="coeff")
    @bounded(params={"self.data": {"q": 1}})
    def automorphism(self, exponent: int) -> "RnsPoly":
        """Apply ``X -> X^exponent`` (requires coefficient domain).

        The index map is modulus-independent, so all rows permute in one
        fancy-indexing pass; only the negacyclic sign flip needs the
        per-row modulus column.
        """
        if self.domain != COEFF:
            raise ValueError("automorphisms act on the coefficient domain")
        n = self.n
        if exponent % 2 == 0:
            raise ValueError("automorphism exponent must be odd")
        j = np.arange(n)
        targets = (j * exponent) % (2 * n)
        dest = targets % n
        flip = targets >= n
        q_col = self.context.q_col
        vals = self.data
        negated = np.where(vals == 0, vals, q_col - vals)
        out = np.zeros_like(vals)
        out[:, dest] = np.where(flip[None, :], negated, vals)
        return RnsPoly(out, self.moduli, COEFF)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RnsPoly)
            and self.moduli == other.moduli
            and self.domain == other.domain
            and np.array_equal(self.data, other.data)
        )
