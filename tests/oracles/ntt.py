"""Reference O(N^2) transforms — the ground truth for every fast engine.

Slow but unmistakably correct: direct evaluation of the defining sums
(Eq. 1 of the paper) with Python big-int arithmetic. All fast NTT variants
in :mod:`repro.ntt` are tested for bit-exact agreement against these.
:func:`apply_automorphism` is the one-polynomial coefficient-domain Galois
map that the eval-domain gather tables are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.annotations import exact_oracle
from repro.ntt.tables import NttTables
from repro.numtheory import modinv


def reference_cyclic_ntt(x: np.ndarray, omega: int, modulus: int) -> np.ndarray:
    """``X[k] = sum_j x[j] * omega^(jk) mod q`` by direct evaluation."""
    n = len(x)
    out = np.empty(n, dtype=np.uint64)
    xs = [int(v) for v in x]
    for k in range(n):
        acc = 0
        wk = pow(omega, k, modulus)
        w = 1
        for j in range(n):
            acc += xs[j] * w
            w = (w * wk) % modulus
        out[k] = acc % modulus
    return out


@exact_oracle
def reference_cyclic_intt(x: np.ndarray, omega: int, modulus: int) -> np.ndarray:
    """Inverse of :func:`reference_cyclic_ntt` (includes the 1/N factor)."""
    n = len(x)
    raw = reference_cyclic_ntt(x, modinv(omega, modulus), modulus)
    n_inv = modinv(n, modulus)
    return ((raw.astype(object) * n_inv) % modulus).astype(np.uint64)


@exact_oracle
def reference_negacyclic_ntt(x: np.ndarray, tables: NttTables) -> np.ndarray:
    """Negacyclic forward NTT: evaluate at the odd powers of ``psi``.

    ``X[k] = sum_j x[j] * psi^(j(2k+1)) mod q`` — the transform under which
    negacyclic (mod ``X^N + 1``) convolution becomes pointwise product.
    """
    q = tables.modulus
    scaled = (x.astype(object) * tables.psi_pows.astype(object)) % q
    return reference_cyclic_ntt(
        np.array(scaled, dtype=np.uint64), tables.omega, q
    )


@exact_oracle
def reference_negacyclic_intt(x: np.ndarray, tables: NttTables) -> np.ndarray:
    """Inverse of :func:`reference_negacyclic_ntt`."""
    q = tables.modulus
    raw = reference_cyclic_intt(x, tables.omega, q)
    out = (raw.astype(object) * tables.psi_inv_pows.astype(object)) % q
    return np.array(out, dtype=np.uint64)


@exact_oracle
def negacyclic_convolution(a: np.ndarray, b: np.ndarray, modulus: int,
                           ) -> np.ndarray:
    """Schoolbook product in ``Z_q[X] / (X^N + 1)`` — O(N^2), exact."""
    n = len(a)
    if len(b) != n:
        raise ValueError("operand lengths differ")
    out = [0] * n
    av = [int(v) for v in a]
    bv = [int(v) for v in b]
    for i in range(n):
        if av[i] == 0:
            continue
        for j in range(n):
            k = i + j
            term = av[i] * bv[j]
            if k < n:
                out[k] = (out[k] + term) % modulus
            else:
                out[k - n] = (out[k - n] - term) % modulus
    if modulus < 1 << 64:
        return np.array(out, dtype=np.uint64)
    return np.array(out, dtype=object)


def cyclic_convolution(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Schoolbook product in ``Z_q[X] / (X^N - 1)``."""
    n = len(a)
    if len(b) != n:
        raise ValueError("operand lengths differ")
    out = [0] * n
    av = [int(v) for v in a]
    bv = [int(v) for v in b]
    for i in range(n):
        if av[i] == 0:
            continue
        for j in range(n):
            out[(i + j) % n] = (out[(i + j) % n] + av[i] * bv[j]) % modulus
    return np.array(out, dtype=np.uint64)


def apply_automorphism(coeffs: np.ndarray, exponent: int,
                       modulus: int) -> np.ndarray:
    """Map ``sum a_j X^j`` to ``sum a_j X^(j*exponent mod 2N)`` in the
    negacyclic ring (an odd ``exponent`` is required for a ring
    automorphism)."""
    n = coeffs.shape[-1]
    if exponent % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    j = np.arange(n)
    targets = (j * exponent) % (2 * n)
    dest = targets % n
    flip = targets >= n
    out = np.zeros_like(coeffs, dtype=np.uint64)
    vals = coeffs.astype(np.uint64, copy=False)
    q = np.uint64(modulus)
    negated = np.where(vals == 0, vals, q - vals)
    out[..., dest] = np.where(flip, negated, vals)
    return out
