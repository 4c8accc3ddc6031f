"""Row-wise modular arithmetic for 32-bit moduli.

WarpDrive uses Barrett reduction everywhere outside the NTT (§IV-A-4):
element-wise ciphertext arithmetic does not enjoy the free Montgomery-domain
conversion that precomputed twiddles give the NTT, so Barrett's
single-constant form wins there. The simulator prices that choice
(:mod:`repro.core.costs`); on the host every reduction is one pass of the
backend's vectorized kernels over the whole residue matrix. The 64/32
Barrett split they are pinned to is a test reference
(``tests/oracles/barrett.py``).
"""

from __future__ import annotations

import numpy as np

from ..analysis.annotations import bounded, returns_view
from ..backend import active_backend

#: Exclusive input bound of a reduction: ``q**2 < 2**62`` plus the slack
#: every caller is allowed (an extra accumulator term in ``fma_``, the
#: folded low word in ``wide_dot``) — the range of the 64/32 Barrett
#: split, whose quotient approximation misses by at most two
#: subtractions there.
_REDUCE_INPUT = (1 << 62) + (1 << 53)


class BatchBarrettReducer:
    """Barrett arithmetic over a *stack* of moduli, one per matrix row.

    Serves the whole ``(num_primes, N)`` residue matrix of an RNS
    polynomial in one pass of the backend kernels: the per-row moduli
    broadcast down each row, the same way WarpDrive's kernels treat the
    limb dimension as one dense batch (§IV-A, §IV-B). A one-modulus
    reducer broadcasts over an array of any shape. Results are canonical
    residues, bit-identical to looping the per-prime Barrett reference
    over the rows (tested).
    """

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        if not self.moduli:
            raise ValueError("batch reducer needs at least one modulus")
        for q in self.moduli:
            if not 2 < q < (1 << 31):
                raise ValueError(
                    f"modulus must lie in (2, 2**31), got {q}"
                )
        self._q = np.array(self.moduli, dtype=np.uint64)

    def __len__(self) -> int:
        return len(self.moduli)

    @returns_view
    @bounded(assume=True, out_q=1)
    def q_col(self, ndim: int = 2) -> np.ndarray:
        """The modulus vector shaped ``(num_primes, 1, ...)`` for
        broadcasting against ``ndim``-D residue arrays."""
        return self._q.reshape((-1,) + (1,) * (ndim - 1))

    @returns_view
    @bounded(assume=True, out_q=1)
    def q_row(self) -> np.ndarray:
        """The modulus vector as a flat ``(num_primes,)`` uint64 array —
        the per-row constant shape the backend kernels take."""
        return self._q

    @bounded(assume=True, params={"t": {"ubound": _REDUCE_INPUT}},
             out_q=1)
    def reduce_mat(self, t: np.ndarray) -> np.ndarray:
        """Row-wise ``t mod q_i`` for uint64 entries below ``q_i**2``.

        Delegates to :meth:`repro.backend.NumpyBackend.mod_reduce`, which
        returns the canonical residue.
        """
        return active_backend().mod_reduce(t, self._q)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mul_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise ``a * b mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_mul(a, b, self._q)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def add_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise ``a + b mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_add(a, b, self._q)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def sub_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise ``a - b mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_sub(a, b, self._q)

    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def neg_mat(self, a: np.ndarray) -> np.ndarray:
        """Row-wise ``-a mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_neg(a, self._q)

    @bounded(assume=True, out_q=1)
    def reduce_scalar(self, value: int) -> np.ndarray:
        """``value mod q_i`` per row as a ``(num_primes, 1)`` uint64 column
        (accepts arbitrary-precision integers)."""
        return np.array(
            [value % q for q in self.moduli], dtype=np.uint64
        ).reshape(-1, 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchBarrettReducer(L={len(self.moduli)})"
