"""Homomorphic polynomial evaluation (Chebyshev basis, baby-step giant-step).

Polynomial approximation is how CKKS computes every non-linearity: the
bootstrap's sine, HELR's sigmoid, ResNet's minimax ReLU. This module
evaluates ``sum_i c_i T_i(x)`` by the baby-step giant-step (BSGS)
recursion of Han–Ki (CT-RSA 2020) and Bossuat et al. (Eurocrypt 2021):

* **baby steps** ``T_1 .. T_(k-1)`` and **giant steps** ``T_k, T_2k,
  T_4k, ...`` (``k`` the power of two nearest ``sqrt(degree + 1)``),
  each built once, on demand, by the product recurrence
  ``T_(m+n) = 2 T_m T_n - T_(|m-n|)``;
* **recursive division** ``p = q T_g + r`` by the largest giant step
  ``g <= deg p``, until the pieces have degree ``< k``;
* **leaves** as linear combinations of baby steps (one PMULT each).

For ``d + 1`` a power of two, a dense degree-``d`` polynomial costs
``k - 2`` baby steps, ``log2((d + 1) / k)`` giant steps and
``(d + 1) / k - 1`` giant products: 16 HMULTs at ``d = 63``, where the
plain recurrence builds all 62 of ``T_2 .. T_63``. The depth is
``ceil(log2 d) + 1`` rescales (of ``rescale_primes`` primes each), the
same as the plain recurrence.

**Scales are exact by construction.** Every sub-polynomial is evaluated
to a requested ``(level, scale)``: a leaf multiplies ``T_i`` by ``c_i``
at the plaintext scale ``target * dropped / T_i.scale`` (``dropped`` the
primes the next rescale divides out), so the rescaled sum lands on the
target; ``q`` is evaluated to ``target * dropped / T_g.scale`` before
its product with ``T_g``. The only scale raise is inside the recurrence,
where ``T_1`` joins the unrescaled product ``2 T_m T_(m+1)`` at a
ratio of about the scale itself, so rounding that ratio to an integer
multiplier is harmless (relative error ``< 1 / scale``); ``T_0 = 1``
of ``T_2m = 2 T_m^2 - 1`` is added after the rescale. The result sits
at the parameter scale.

Power-basis coefficients are converted to the Chebyshev basis and take
the same path. Inputs are assumed to lie in [-1, 1].
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _npcheb

from .ciphertext import Ciphertext
from .keys import KeySet
from .ops import Evaluator

#: Coefficients below this threshold are dropped (they are beneath CKKS
#: noise anyway and each one costs a PMULT).
COEFF_EPSILON = 1e-13


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop negligible trailing coefficients (keeping the constant)."""
    big = np.flatnonzero(np.abs(coeffs[1:]) >= COEFF_EPSILON)
    return coeffs[: big[-1] + 2] if len(big) else coeffs[:1]


class PolynomialEvaluator:
    """Evaluates polynomials on ciphertexts with managed scales/levels."""

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator

    def eval_chebyshev(self, ct_x: Ciphertext, coeffs: Sequence[float],
                       keys: KeySet) -> Ciphertext:
        """``sum_i coeffs[i] * T_i(x)`` for x in [-1, 1], by BSGS.

        The result sits at the parameter scale, ``ceil(log2 d) + 1``
        rescales below ``ct_x`` (``d`` the degree after dropping
        negligible top coefficients).
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if len(coeffs) == 0:
            raise ValueError("empty coefficient vector")
        coeffs = _trim(coeffs)
        degree = len(coeffs) - 1
        if degree == 0:
            return self.ev.add_scalar(
                self.ev.pmult_scalar(ct_x, 0.0), float(coeffs[0])
            )
        depth = (degree - 1).bit_length() + 1
        level = ct_x.level - depth * self.ev.params.rescale_primes
        if level < 0:
            raise ValueError(
                f"a degree-{degree} polynomial needs {depth} rescales; "
                f"the ciphertext is at level {ct_x.level}"
            )
        # The power of two nearest sqrt(degree + 1): k = 8 at degree 63.
        baby = 1 << max(1, math.floor(math.log2(degree + 1) / 2 + 0.5))
        memo: Dict[int, Ciphertext] = {1: ct_x}
        return self._eval(coeffs, level, self.ev.params.scale, baby, memo,
                          keys)

    def eval_power(self, ct_x: Ciphertext, coeffs: Sequence[float],
                   keys: KeySet) -> Ciphertext:
        """``sum_i coeffs[i] * x^i``, evaluated in the Chebyshev basis."""
        if len(coeffs) == 0:
            raise ValueError("empty coefficient vector")
        return self.eval_chebyshev(ct_x, _npcheb.poly2cheb(coeffs), keys)

    def _eval(self, coeffs: np.ndarray, level: int, scale: float,
              baby: int, memo: Dict[int, Ciphertext],
              keys: KeySet) -> Ciphertext:
        """Non-constant ``coeffs`` at exactly ``level`` and ``scale``.

        Every product below is taken one rescale above ``level`` at
        scale ``scale * dropped``, then rescaled once onto the target.
        """
        ev = self.ev
        up = level + ev.params.rescale_primes
        dropped = math.prod(ev.q_moduli[level + 1: up + 1])
        degree = len(coeffs) - 1
        if degree < baby:
            terms = [(i, coeffs[i:i + 1]) for i in range(1, degree + 1)]
            rest = coeffs[:1]
        else:
            g = 1 << (degree.bit_length() - 1)
            q, rest = _npcheb.chebdiv(coeffs, [0.0] * g + [1.0])
            terms = [(g, _trim(q))]
            rest = _trim(rest)
        acc = None
        for i, c in terms:
            if len(c) == 1 and abs(c[0]) < COEFF_EPSILON:
                continue
            t = ev.level_down(self._cheb(i, memo, keys), up)
            pt_scale = scale * dropped / t.scale
            if len(c) > 1:
                q_ct = self._eval(c, up, pt_scale, baby, memo, keys)
                term = ev.hmult(q_ct, t, keys, rescale=False)
            else:
                term = ev.pmult_scalar(t, float(c[0]), scale=pt_scale)
            acc = term if acc is None else ev.hadd(acc, term)
        acc = ev.rescale(acc)
        if len(rest) > 1:
            return ev.hadd(acc, self._eval(rest, level, scale, baby, memo,
                                           keys))
        if abs(rest[0]) >= COEFF_EPSILON:
            acc = ev.add_scalar(acc, float(rest[0]))
        return acc

    def _cheb(self, i: int, memo: Dict[int, Ciphertext],
              keys: KeySet) -> Ciphertext:
        """``T_i`` at ``ceil(log2 i)`` rescales below ``T_1``."""
        if i in memo:
            return memo[i]
        m = i // 2
        n = i - m
        ev = self.ev
        prod = ev.hmult(self._cheb(m, memo, keys), self._cheb(n, memo, keys),
                        keys, rescale=False)
        doubled = ev.pmult_scalar(prod, 2.0, scale=1.0)
        if m == n:
            # T_0 = 1 joins after the rescale: before it, the product's
            # scale (~ scale^2) would overflow an int64 constant.
            memo[i] = ev.add_scalar(ev.rescale(doubled), -1.0)
        else:
            # T_(n-m) = T_1, raised to the product's scale before the
            # rescale: the ratio is ~ the scale, so rounding it to an
            # integer multiplier costs < 1/scale relative.
            x = ev.level_down(memo[1], prod.level)
            memo[i] = ev.rescale(
                ev.hsub(doubled, ev.match_scale(x, prod.scale)))
        return memo[i]

    # -- convenience fits ---------------------------------------------------------------

    @staticmethod
    def chebyshev_fit(func, degree: int, *,
                      domain=(-1.0, 1.0)) -> np.ndarray:
        """Chebyshev interpolation coefficients of ``func`` on ``domain``
        (callers rescale inputs into [-1, 1] themselves)."""
        lo, hi = domain

        def g(x):
            return func((x + 1) / 2 * (hi - lo) + lo)

        return _npcheb.Chebyshev.interpolate(g, degree, domain=[-1, 1]).coef
