"""Residue Number System bases and conversions.

The RNS layer is the substrate beneath every homomorphic operation in this
library: polynomials live as ``(num_primes, N)`` uint64 residue matrices,
and hybrid key-switching is built from the two conversions implemented
here —

* **ModUp** (fast basis extension): raise a digit from its sub-basis to the
  full ``Q*P`` basis. We provide both the *approximate* extension (the
  standard HPS/BEHZ form that tolerates a small multiple-of-Q additive
  term, which CKKS absorbs as noise) and an *exact* variant that removes
  the overshoot with a floating-point quotient estimate.
* **ModDown**: divide by the special-prime product ``P`` with rounding and
  return to the ciphertext basis, as required at the end of KeySwitch.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from ..analysis.annotations import bounded
from ..backend.numpy_backend import bconv_gemm
from .barrett import BatchBarrettReducer
from .modmath import modinv


#: Guard half-width for the float64 quotient estimate. The accumulated
#: ``sum_i y_i / q_i`` carries at most ``~len(source) * 2**-52`` relative
#: error (about ``2**-46`` for 64 primes), so any lane whose fractional
#: part lands within ``2**-38`` of a decision boundary is recomputed
#: exactly; lanes further away are provably on the correct side.
_RATIO_EPS = 2.0 ** -38


def _ratio_estimate(y: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Float64 estimate of ``sum_i y_i / q_i`` over the prime axis.

    Exactly ``(x + u * Q) / Q`` in exact arithmetic — the integer part is
    the basis-extension overshoot ``u``, the fractional part is ``x / Q``.
    """
    ratio = np.zeros(y.shape[1:], dtype=np.float64)
    for i, q_i in enumerate(moduli):
        ratio += y[i].astype(np.float64) / float(q_i)
    return ratio


def _exact_total(y_flat: np.ndarray, hats: Sequence[int], j: int) -> int:
    """``sum_i y_i[j] * hat_i`` as an exact Python integer — the CRT sum
    whose quotient/remainder by ``Q`` the float estimate approximates."""
    return sum(int(y_flat[i, j]) * hats[i] for i in range(len(hats)))


@bounded(assume=True, out_q=1)
def _const_col(values, ndim: int) -> np.ndarray:
    """Shape per-prime constants to broadcast over ``ndim``-D residue
    arrays whose leading axis is the prime index. Every caller passes
    constants already reduced below their row's modulus (the ``out_q=1``
    axiom)."""
    return np.asarray(values, dtype=np.uint64).reshape(
        (-1,) + (1,) * (ndim - 1)
    )


class RNSBasis:
    """An ordered co-prime basis with its row-wise reducer."""

    def __init__(self, moduli: Sequence[int]):
        if not moduli:
            raise ValueError("RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be distinct")
        self.moduli = list(moduli)
        #: Row-wise reducer for whole-matrix passes (batched engine).
        self.batch = BatchBarrettReducer(self.moduli)
        self.product = 1
        for q in self.moduli:
            self.product *= q
        # hat_i = (Q / q_i) mod q_i inverse, used in basis extension.
        self._hats = [self.product // q for q in self.moduli]
        self.hat_invs = [
            modinv(hat % q, q) for hat, q in zip(self._hats, self.moduli)
        ]
        self._hat_inv_col = np.array(
            self.hat_invs, dtype=np.uint64
        ).reshape(-1, 1)

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, RNSBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(tuple(self.moduli))

    def sub_basis(self, indices: Sequence[int]) -> "RNSBasis":
        """Return the basis restricted to the given modulus indices."""
        return RNSBasis([self.moduli[i] for i in indices])

    @bounded(out_q=1)
    def zero(self, n: int) -> np.ndarray:
        """A zero residue matrix of shape ``(len(self), n)``."""
        return np.zeros((len(self), n), dtype=np.uint64)

    @bounded(assume=True, out_q=1)
    def random(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform residue matrix (independent per prime — a uniform RNS
        value over the full product by CRT)."""
        rows = [
            rng.integers(0, q, size=n, dtype=np.uint64) for q in self.moduli
        ]
        return np.stack(rows)

    @bounded(assume=True, out_q=1)
    def reduce_signed(self, coeffs: np.ndarray) -> np.ndarray:
        """Map signed int64 coefficients into residue rows."""
        rows = []
        for q in self.moduli:
            rows.append(np.mod(coeffs.astype(np.int64), q).astype(np.uint64))
        return np.stack(rows)


@bounded(in_q=1, out_q=1, params={"residues": {"q": 1}})
def extend_basis(residues: np.ndarray, source: RNSBasis, target: RNSBasis,
                 *, exact: bool = False) -> np.ndarray:
    """Fast basis extension (the ModUp core).

    Parameters
    ----------
    residues:
        ``(len(source), ..., n)`` uint64 array of residues w.r.t.
        ``source`` — any number of trailing batch axes (the batched
        key-switch pipeline passes digit- and accumulator-stacked
        tensors); the leading axis is always the prime index.
    source, target:
        Source and destination bases; they need not overlap.
    exact:
        When False (default) the result may exceed the true value by a small
        multiple ``u * prod(source)`` with ``0 <= u < len(source)`` — the
        approximate extension used inside key-switching. When True the
        overshoot ``u`` is estimated with a float sum and subtracted, giving
        the exact value whenever the input is below ``prod(source)``.

    The conversion itself is one exact float64 GEMM
    (:func:`~repro.backend.numpy_backend.bconv_gemm`).

    Returns
    -------
    ``(len(target), ..., n)`` uint64 array of residues w.r.t. ``target``.
    """
    if residues.shape[0] != len(source):
        raise ValueError(
            f"residue rows ({residues.shape[0]}) != source basis size "
            f"({len(source)})"
        )
    if len(source) == 1:
        # Single-prime source (the K=1 ModDown of the Table VI sets): the
        # lone CRT factor is hat = 1, so y = x, every target row is just
        # x mod t, and the exact ratio correction is identically zero
        # (y/q < 1 floors to 0). One reduction replaces the generic
        # mul/add/ratio passes, bit-identically.
        return target.batch.reduce_mat(
            np.broadcast_to(
                residues[0], (len(target),) + residues.shape[1:]
            )
        )
    # y_i = x_i * hat_inv_i mod q_i  (all < q_i < 2**31) — one row-wise pass.
    y = source.batch.mul_mat(
        residues, _const_col(source.hat_invs, residues.ndim)
    ).reshape(len(source), -1)
    if exact:
        # The overshoot u joins the GEMM as one more row, against -Q mod t.
        y = np.concatenate([y, _overshoot(y, source)[None]])
    plan = _bconv_plan((tuple(source.moduli),), tuple(target.moduli), exact)
    return bconv_gemm(y[None], *plan).reshape(
        (len(target),) + residues.shape[1:]
    )


@bounded(assume=True, out_bits=11)
def _overshoot(y: np.ndarray, source: RNSBasis) -> np.ndarray:
    """``u = floor(sum_i y_i / q_i)`` per lane of ``(alpha, M)`` CRT
    digits ``y``: the approximate extension is ``x + u * Q``, ``u <
    alpha``.

    float64 is ample for ``alpha <= ~64`` 31-bit primes (relative error
    ~ 2**-52 per term) — EXCEPT when the true ratio sits next to an
    integer (``x`` close to 0 or to ``Q``), where accumulated rounding
    can push the estimate across the floor boundary and the result ends
    up off by a full ``Q``. Guard: lanes within :data:`_RATIO_EPS` of an
    integer recompute ``u`` exactly from the bigint CRT sum.
    """
    ratio = _ratio_estimate(y, source.moduli)
    u = np.floor(ratio)
    frac = ratio - u
    for j in np.flatnonzero(np.minimum(frac, 1.0 - frac) < _RATIO_EPS):
        u[j] = _exact_total(y, source._hats, j) // source.product
    return u.astype(np.uint64)


@lru_cache(maxsize=256)
@bounded(assume=True, out_q=1)
def _bconv_plan(groups: tuple, target: tuple, exact: bool = False):
    """``(table, limbs, width, q)`` for
    :func:`~repro.backend.numpy_backend.bconv_gemm` of each source group
    (a tuple of primes) onto the ``target`` primes ``q``.

    ``table`` is ``(G, T, limbs * alpha)`` float64: per group ``g``, the
    hats ``(prod(g) / g_i) mod t`` (zero for a short group's padding
    columns, plus ``-prod(g) mod t`` for the ``exact`` overshoot row),
    scaled per limb and balanced into ``(-t/2, t/2]``. ``limbs`` and
    ``width`` come from :func:`~repro.ntt.stacked.limb_split` over the
    ``alpha`` contracted rows.
    """
    # Lazy import: repro.ntt imports this package.
    from ..ntt.stacked import _limb_scaled, limb_split

    alpha = max(len(g) for g in groups) + exact
    hats = np.zeros((len(target), len(groups), alpha), dtype=np.uint64)
    for gi, g in enumerate(groups):
        prod = 1
        for q_i in g:
            prod *= q_i
        cols = [prod // q_i for q_i in g] + [-prod] * exact
        hats[:, gi, :len(cols)] = [[c % t for c in cols] for t in target]
    limbs, width = limb_split(alpha, max(target))
    q = np.array(target, dtype=np.uint64)
    table = _limb_scaled(hats, q[:, None, None], limbs, width)
    return np.ascontiguousarray(table.transpose(1, 0, 2)), limbs, width, q


@lru_cache(maxsize=256)
@bounded(assume=True, out_q=1)
def _stacked_modup_plan(source_moduli: tuple, groups: tuple,
                        target_moduli: tuple):
    """Precomputed constants for :func:`extend_basis_stacked`:
    ``(rows, reducer, hat_inv_col, bconv)``.

    ``rows`` gathers every digit's primes into ``(G, alpha)`` order, a
    short digit padded with its first row against a zero ``hat_inv``,
    so ``y = x * hat_inv`` is zero there; ``bconv`` is the digits'
    :func:`_bconv_plan`. The ``out_q=1`` axiom covers the numeric
    leaves: every constant is reduced below its row's modulus.
    """
    alpha = max(len(g) for g in groups)
    rows, hat_invs = [], []
    for g in groups:
        prod = 1
        for i in g:
            prod *= source_moduli[i]
        for i in g:
            q_i = source_moduli[i]
            rows.append(i)
            hat_invs.append(modinv(prod // q_i % q_i, q_i))
        rows += [g[0]] * (alpha - len(g))
        hat_invs += [0] * (alpha - len(g))
    reducer = BatchBarrettReducer([source_moduli[i] for i in rows])
    hat_inv_col = np.array(hat_invs, dtype=np.uint64).reshape(-1, 1)
    bconv = _bconv_plan(
        tuple(tuple(source_moduli[i] for i in g) for g in groups),
        target_moduli,
    )
    return rows, reducer, hat_inv_col, bconv


@bounded(in_q=1, out_q=1, out_q_lazy=2, params={"residues": {"q": 1}})
def extend_basis_stacked(residues: np.ndarray, groups: Sequence[Sequence[int]],
                         source: RNSBasis, target: RNSBasis, *,
                         lazy: bool = False) -> np.ndarray:
    """Digit-batched ModUp: extend every decomposition digit in one pass.

    Where the per-digit pipeline calls :func:`extend_basis` ``dnum`` times
    (one ``(alpha, n) -> (T, n)`` extension per digit), this produces the
    whole ``(len(target), len(groups), n)`` digit tensor at once —
    prime-major, digit-minor, exactly the layout the stacked NTT consumes.

    Parameters
    ----------
    residues:
        ``(len(source), n)`` residue matrix (e.g. a level polynomial in
        coefficient form).
    groups:
        Per digit, the row indices of ``residues`` forming that digit's
        sub-basis. Groups must be non-empty; they need not cover every row.
    lazy:
        Only honored on the single-prime-digit fast path (``alpha == 1``,
        the paper's ``dnum = L+1`` benchmark sets): the extension of one
        prime's residue ``x < q_i < 2**31`` is just ``x mod t``, so the
        unreduced broadcast is already a valid lazy representative for the
        stacked NTT and the reduction is skipped entirely.

    Otherwise every digit converts in one batched GEMM
    (:func:`~repro.backend.numpy_backend.bconv_gemm`) over the digits'
    cached hat tables. Per digit, results are
    bit-identical to ``extend_basis`` on that digit's rows (canonical
    residues; lazy outputs reduce to them).
    """
    if not groups or any(len(g) == 0 for g in groups):
        raise ValueError("every digit group must hold at least one prime")
    n = residues.shape[1]
    num_groups = len(groups)
    num_target = len(target)

    if all(len(g) == 1 for g in groups):
        picked = residues[[g[0] for g in groups]]  # (G, n), each < 2**31
        out = np.broadcast_to(picked[None, :, :], (num_target, num_groups, n))
        if lazy:
            return np.ascontiguousarray(out)
        return target.batch.reduce_mat(np.ascontiguousarray(out))

    rows, reducer, hat_inv_col, bconv = _stacked_modup_plan(
        tuple(source.moduli), tuple(tuple(g) for g in groups),
        tuple(target.moduli),
    )
    # y_i = x_i * hat_inv_i mod q_i, every digit's rows in one pass (each
    # row scaled within its own digit's sub-basis).
    y = reducer.mul_mat(residues[rows], hat_inv_col)
    return bconv_gemm(y.reshape(num_groups, -1, n), *bconv)


@bounded(in_q=1, out_q=1, params={"residues": {"q": 1}})
def extend_basis_signed(residues: np.ndarray, source: RNSBasis,
                        target: RNSBasis) -> np.ndarray:
    """Exact extension of the *centered* representative.

    ``residues`` encode a value ``x`` in ``[0, Q)``; this returns the
    target-basis residues of the signed representative in
    ``[-Q/2, Q/2)`` — i.e. values at or above ``Q/2`` are extended as
    ``x - Q``. BFV's cross-basis tensor products need this: the product
    of two centered lifts must be the centered product, not the product
    of positive representatives.

    The sign decision reuses the float quotient estimate of the exact
    extension (``x/Q`` as a float64 sum). Lanes whose fractional part
    lands within :data:`_RATIO_EPS` of a decision boundary — ``1/2``
    (the sign threshold) or an integer (``x`` within rounding error of
    ``0`` or ``Q``, where the float estimate can wrap the fractional
    part entirely and misclassify ``x = Q - 1`` as positive) — are
    decided exactly from the bigint CRT sum.
    """
    if residues.shape[0] != len(source):
        raise ValueError(
            f"residue rows ({residues.shape[0]}) != source basis size "
            f"({len(source)})"
        )
    out = extend_basis(residues, source, target, exact=True)
    # Recompute the fractional part x/Q to decide the sign.
    y = source.batch.mul_mat(
        residues, _const_col(source.hat_invs, residues.ndim)
    )
    ratio = _ratio_estimate(y, source.moduli)
    frac = ratio - np.floor(ratio)
    negative = frac >= 0.5
    suspect = (np.abs(frac - 0.5) < _RATIO_EPS) | \
        (np.minimum(frac, 1.0 - frac) < _RATIO_EPS)
    if np.any(suspect):
        y_flat = y.reshape(len(source), -1)
        neg_flat = negative.reshape(-1)
        for j in np.flatnonzero(suspect.reshape(-1)):
            x_mod = _exact_total(y_flat, source._hats, j) % source.product
            neg_flat[j] = 2 * x_mod >= source.product
    q_mod_t_col = _const_col(
        [source.product % t for t in target.moduli], residues.ndim
    )
    shifted = target.batch.sub_mat(
        out, np.broadcast_to(q_mod_t_col, out.shape)
    )
    return np.where(negative[None, ...], shifted, out)


def _check_mod_down_rows(residues: np.ndarray, main: RNSBasis,
                         special: RNSBasis) -> None:
    if residues.shape[0] != len(main) + len(special):
        raise ValueError(
            "ModDown input must cover the concatenated main+special basis"
        )


@bounded(in_q=1, out_q=1, params={"x_special": {"q": 1}})
def mod_down_delta(x_special: np.ndarray, main: RNSBasis, special: RNSBasis,
                   *, plain_modulus: int = None) -> np.ndarray:
    """The ModDown correction ``delta`` over ``main``: a value congruent to
    ``x`` modulo ``P = prod(special)``, so ``x - delta`` divides exactly.

    ``x_special`` holds the coefficient-domain residues of ``x`` over
    ``special`` (any trailing batch axes). Without ``plain_modulus`` this
    is the exact extension of ``[x]_P`` (flooring division, CKKS). With a
    plaintext modulus ``t`` (BGV/BFV, Gentry-Halevi-Smart modulus
    switching) it is ``delta - P * [delta * P^{-1}]_t`` (centered), which
    is also ``≡ 0 (mod t)``: the quotient then satisfies
    ``y ≡ x * P^{-1} (mod t)`` and ``|y - x/P| <= (t+1)/2``.
    """
    delta = extend_basis(x_special, special, main, exact=True)
    if plain_modulus is None:
        return delta
    t = plain_modulus
    if any(q % t == 0 for q in main.moduli + special.moduli):
        raise ValueError("plaintext modulus must be coprime to the chain")
    ndim = x_special.ndim
    # delta mod t, via an exact extension onto the singleton basis {t}.
    t_basis = RNSBasis([t])
    delta_mod_t = extend_basis(x_special, special, t_basis, exact=True)
    p_inv_t = modinv(special.product % t, t)
    # centered [delta * P^{-1}]_t as signed int64. Both operands are
    # below t < 2**31, so the product stays in uint64 lanes — no
    # object-dtype bigint fallback.
    correction = t_basis.batch.mul_mat(
        delta_mod_t, np.uint64(p_inv_t)
    )[0].astype(np.int64)
    correction[correction > t // 2] -= t

    p_mod_q_col = _const_col(
        [special.product % q for q in main.moduli], ndim
    )
    q_col = np.array(main.moduli, dtype=np.int64).reshape(
        (-1,) + (1,) * (ndim - 1)
    )
    mb = main.batch
    # np.mod against the signed q_col guarantees canonical residues, but
    # the signed/unsigned crossing is outside the interval domain.
    corr_mod_q = np.mod(
        correction.astype(np.int64)[None, ...], q_col
    ).astype(np.uint64)
    corr_term = mb.mul_mat(corr_mod_q, p_mod_q_col)  # fhelint: allow-B-RED
    return mb.sub_mat(delta, corr_term)


@bounded(in_q=1, out_q=1, params={"x_main": {"q": 1}, "delta": {"q": 1}})
def divide_by_special(x_main: np.ndarray, delta: np.ndarray, main: RNSBasis,
                      special: RNSBasis) -> np.ndarray:
    """``(x - delta) * P^{-1}`` over ``main``, for ``delta`` from
    :func:`mod_down_delta`. The map is element-wise and linear, so it
    holds in either domain as long as both operands share it."""
    p_inv_col = _const_col(
        [modinv(special.product % q, q) for q in main.moduli], x_main.ndim
    )
    mb = main.batch
    return mb.mul_mat(mb.sub_mat(x_main, delta), p_inv_col)


@bounded(in_q=1, out_q=1, params={"residues": {"q": 1}})
def mod_down(residues: np.ndarray, main: RNSBasis, special: RNSBasis,
             ) -> np.ndarray:
    """Divide by ``P = prod(special)`` with flooring (KeySwitch ModDown).

    ``residues`` holds the coefficient-domain value over the concatenated
    basis ``main ++ special`` (main rows first), with any number of
    trailing batch axes after the prime axis. Returns ``floor(x / P)``
    over ``main``.
    """
    _check_mod_down_rows(residues, main, special)
    n_main = len(main)
    delta = mod_down_delta(residues[n_main:], main, special)
    return divide_by_special(residues[:n_main], delta, main, special)


def digit_partition(num_primes: int, dnum: int) -> List[List[int]]:
    """Partition modulus indices ``0..num_primes-1`` into ``dnum`` digits.

    Hybrid key-switching groups the ciphertext primes into ``dnum``
    contiguous digits of ``alpha = ceil(num_primes / dnum)`` primes each
    (the last digit may be short).
    """
    if dnum < 1:
        raise ValueError("dnum must be >= 1")
    alpha = -(-num_primes // dnum)  # ceil division
    digits = []
    for d in range(dnum):
        lo = d * alpha
        hi = min(lo + alpha, num_primes)
        if lo >= hi:
            break
        digits.append(list(range(lo, hi)))
    return digits
