"""CKKS canonical-embedding encoder/decoder.

Messages are vectors of ``N/2`` complex slots. Encoding maps slots to a
*real* polynomial via the canonical embedding — evaluation at the primitive
``2N``-th roots of unity indexed by powers of 5 — scaled by Delta and
rounded to integers.

Implementation: with ``zeta = exp(i*pi/N)``, evaluating at ``zeta^(2t+1)``
for all ``t`` equals ``N * ifft(m_k * zeta^k)``, so encode/decode are one
numpy FFT plus a twist and the 5^j slot permutation — O(N log N), exact to
float64 precision.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import CkksParams


@lru_cache(maxsize=64)
def _embedding_indices(n: int) -> np.ndarray:
    """``t_j = (5^j - 1)/2 mod N`` — the FFT bin holding slot ``j``."""
    slots = n // 2
    idx = np.empty(slots, dtype=np.int64)
    power = 1
    for j in range(slots):
        idx[j] = (power - 1) // 2 % n
        power = (power * 5) % (2 * n)
    return idx


@lru_cache(maxsize=64)
def _zeta_twist(n: int) -> np.ndarray:
    """``zeta^k`` for ``k < N`` with ``zeta = exp(i*pi/N)``."""
    k = np.arange(n)
    return np.exp(1j * np.pi * k / n)


class Encoder:
    """Encoder/decoder bound to one parameter set."""

    def __init__(self, params: CkksParams):
        self.params = params
        self.n = params.n
        self.slots = params.slots

    # -- public API ------------------------------------------------------------

    def encode(self, values, scale: float = None) -> np.ndarray:
        """Encode up to ``slots`` numbers into scaled integer coefficients.

        Returns int64 coefficients (centered); values shorter than the slot
        count are zero-padded. Raises ``ValueError`` on NaN or infinite
        values, and if the scaled coefficients would overflow int64 — pick
        a smaller scale or fewer levels' worth of headroom instead.
        """
        scale = self.params.scale if scale is None else scale
        values = np.asarray(values, dtype=np.complex128)
        if not np.isfinite(values).all():
            raise ValueError("slot values must be finite (got NaN or inf)")
        scaled = self.embed(values) * scale
        limit = float(np.max(np.abs(scaled))) if self.n else 0.0
        if limit >= 2**62:
            raise ValueError(
                "scaled coefficients overflow 62 bits; reduce the scale"
            )
        return np.rint(scaled).astype(np.int64)

    def embed(self, values) -> np.ndarray:
        """The canonical embedding as unrounded float coefficients
        (scale 1) — the exact linear map behind :meth:`encode`."""
        z = np.zeros(self.slots, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128).ravel()
        if len(values) > self.slots:
            raise ValueError(
                f"{len(values)} values exceed the {self.slots} slots"
            )
        z[: len(values)] = values

        idx = _embedding_indices(self.n)
        spectrum = np.zeros(self.n, dtype=np.complex128)
        spectrum[idx] = z
        spectrum[self.n - 1 - idx] = np.conj(z)
        # m_k * zeta^k = fft(spectrum) / N  (see module docstring).
        twisted = np.fft.fft(spectrum) / self.n
        return np.real(twisted / _zeta_twist(self.n))

    def embed_many(self, rows) -> np.ndarray:
        """Batched :meth:`embed`: one FFT pass over a ``(D, slots)`` slot
        matrix, returning ``(D, n)`` float coefficients.

        The per-row operation sequence (spectrum scatter, FFT, twist) is
        the same as :meth:`embed`, so a row here equals embedding that row
        alone — this is what the linear-transform compiler uses to encode
        a whole diagonal stack without a per-diagonal Python loop.
        """
        rows = np.asarray(rows, dtype=np.complex128)
        if rows.ndim != 2:
            raise ValueError("embed_many expects a (D, slots) matrix")
        if rows.shape[1] > self.slots:
            raise ValueError(
                f"{rows.shape[1]} values exceed the {self.slots} slots"
            )
        z = np.zeros((rows.shape[0], self.slots), dtype=np.complex128)
        z[:, : rows.shape[1]] = rows

        idx = _embedding_indices(self.n)
        spectrum = np.zeros((rows.shape[0], self.n), dtype=np.complex128)
        spectrum[:, idx] = z
        spectrum[:, self.n - 1 - idx] = np.conj(z)
        twisted = np.fft.fft(spectrum, axis=1) / self.n
        return np.real(twisted / _zeta_twist(self.n)[None, :])

    def encode_many(self, rows, scale: float = None) -> np.ndarray:
        """Batched :meth:`encode`: ``(D, slots)`` slot rows to ``(D, n)``
        int64 coefficient rows in one vectorized pass."""
        scale = self.params.scale if scale is None else scale
        scaled = self.embed_many(rows) * scale
        limit = float(np.max(np.abs(scaled))) if scaled.size else 0.0
        if limit >= 2**62:
            raise ValueError(
                "scaled coefficients overflow 62 bits; reduce the scale"
            )
        return np.rint(scaled).astype(np.int64)

    def decode(self, coeffs, scale: float = None) -> np.ndarray:
        """Decode (possibly big-int) centered coefficients back to slots."""
        scale = self.params.scale if scale is None else scale
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        twisted = arr * _zeta_twist(self.n)
        spectrum = self.n * np.fft.ifft(twisted)
        return spectrum[_embedding_indices(self.n)] / scale

    # -- round-trip error helper -------------------------------------------------

    def roundtrip_error(self, values, scale: float = None) -> float:
        """Max absolute error of encode-decode on ``values`` (diagnostics)."""
        values = np.asarray(values, dtype=np.complex128)
        decoded = self.decode(
            self.encode(values, scale).astype(np.float64), scale
        )
        return float(np.max(np.abs(decoded[: len(values)] - values)))
