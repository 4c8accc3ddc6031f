"""The CKKS evaluator: encryption and every homomorphic operation.

Implements the operation set of §II-A: HADD, HSUB, PMULT, HMULT (with
hybrid-key relinearization), HROTATE, conjugation and RESCALE (single- or
double-prime). Operations are functional mirrors of the GPU kernels the
paper optimizes — the simulator prices them, this module proves them
correct.

All polynomial arithmetic below runs on the batched RNS engine: each
HADD/HSUB/PMULT line is one vectorized pass over the ``(num_primes, N)``
residue matrix, and every NTT/INTT transforms the full matrix at once —
the functional mirror of the paper's dense limb batching (§IV-A/B).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..numtheory import CRTReconstructor
from ..trace.recorder import emit as _temit, span as _tspan
from .ciphertext import Ciphertext, Plaintext
from .keys import KeySet, KeySwitchKey, PublicKey, SecretKey
from .keyswitch import keyswitch
from .params import CkksParams
from .poly import RnsPoly
from .rescale import rescale_poly
from .sampling import sample_error, sample_ternary

#: Relative scale mismatch tolerated when adding ciphertexts.
_SCALE_RTOL = 1e-9


class Evaluator:
    """Homomorphic operations bound to one parameter set."""

    def __init__(self, params: CkksParams, rng: np.random.Generator = None):
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng()
        chain = params.chain()
        self.q_moduli = tuple(chain.moduli)
        self.p_moduli = tuple(chain.special_primes)

    # -- level helpers -----------------------------------------------------------

    def moduli_at(self, level: int):
        return self.q_moduli[: level + 1]

    # -- encryption / decryption ---------------------------------------------------

    def encrypt(self, plaintext: Plaintext, public: PublicKey) -> Ciphertext:
        """Standard RLWE public-key encryption at the plaintext's level."""
        level = plaintext.level
        moduli = self.moduli_at(level)
        n = self.params.n
        v = RnsPoly.from_signed(
            sample_ternary(n, self.rng), moduli
        ).to_eval()
        e0 = RnsPoly.from_signed(
            sample_error(n, self.rng, std=self.params.error_std), moduli
        ).to_eval()
        e1 = RnsPoly.from_signed(
            sample_error(n, self.rng, std=self.params.error_std), moduli
        ).to_eval()
        pk_b = public.b.take_primes(range(level + 1))
        pk_a = public.a.take_primes(range(level + 1))
        m = plaintext.poly.to_eval()
        c0 = pk_b * v + e0 + m
        c1 = pk_a * v + e1
        return Ciphertext(c0, c1, level, plaintext.scale)

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Plaintext:
        """Return the noisy plaintext polynomial ``c0 + c1*s``."""
        s = secret.poly.take_primes(range(ct.level + 1))
        m = (ct.c0 + ct.c1 * s).to_coeff()
        return Plaintext(poly=m, scale=ct.scale, level=ct.level)

    def decrypt_coefficients(self, ct: Ciphertext,
                             secret: SecretKey) -> Sequence[int]:
        """Decrypt to signed big-integer coefficients (CRT reconstruction)."""
        pt = self.decrypt(ct, secret)
        crt = CRTReconstructor(list(pt.poly.moduli))
        return crt.reconstruct_array(pt.poly.data, signed=True)

    # -- additive operations ----------------------------------------------------------

    def hadd(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self._align(a, b)
        with _tspan("hadd", level=a.level):
            out = Ciphertext(a.c0 + b.c0, a.c1 + b.c1, a.level, a.scale)
            _temit("modadd", rows=2 * (a.level + 1), reads=(a, b),
                   writes=(out,), scale=out.scale)
        return out

    def hsub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self._align(a, b)
        with _tspan("hsub", level=a.level):
            out = Ciphertext(a.c0 - b.c0, a.c1 - b.c1, a.level, a.scale)
            _temit("modadd", rows=2 * (a.level + 1), reads=(a, b),
                   writes=(out,), scale=out.scale)
        return out

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if not math.isclose(ct.scale, pt.scale, rel_tol=_SCALE_RTOL):
            raise ValueError(
                f"scale mismatch: ct {ct.scale:g} vs pt {pt.scale:g}"
            )
        m = self._plain_at_level(pt, ct.level)
        with _tspan("add_plain", level=ct.level):
            out = Ciphertext(ct.c0 + m, ct.c1.copy(), ct.level, ct.scale)
            _temit("modadd", rows=ct.level + 1, reads=(ct, m), writes=(out,),
                   scale=out.scale)
        return out

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(-ct.c0, -ct.c1, ct.level, ct.scale)

    # -- multiplicative operations -------------------------------------------------------

    def pmult(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Plaintext-ciphertext product; scales multiply."""
        m = self._plain_at_level(pt, ct.level)
        with _tspan("pmult", level=ct.level):
            out = Ciphertext(
                ct.c0 * m, ct.c1 * m, ct.level, ct.scale * pt.scale
            )
            _temit("modmul", rows=2 * (ct.level + 1), reads=(ct, m),
                   writes=(out,), scale=out.scale)
        return out

    def hmult(self, a: Ciphertext, b: Ciphertext, keys: KeySet, *,
              rescale: bool = True) -> Ciphertext:
        """Ciphertext product with relinearization (and optional RESCALE)."""
        a, b = self._align(a, b, match_scale=False)
        with _tspan("hmult", level=a.level):
            d0 = a.c0 * b.c0
            d1 = (a.c0 * b.c1).fma_(a.c1, b.c0)
            d2 = a.c1 * b.c1
            _temit("tensor_product", rows=a.level + 1, reads=(a, b),
                   writes=(d0, d1, d2), scale=a.scale * b.scale)
            c0, c1 = self.relinearize(d0, d1, d2, keys,
                                      scale=a.scale * b.scale)
            ct = Ciphertext(c0, c1, a.level, a.scale * b.scale)
            return self.rescale(ct) if rescale else ct

    def relinearize(self, d0: RnsPoly, d1: RnsPoly, d2: RnsPoly,
                    keys: KeySet, *, scale: float = None,
                    ) -> Tuple[RnsPoly, RnsPoly]:
        """Fold the degree-2 term of ``(d0, d1, d2)`` back into a pair.

        KeySwitch(``d2``) followed by the combine into ``(d0, d1)`` — the
        11-launch PE KeySwitch of Table IX. ``scale`` only tags the trace.
        """
        ks0, ks1 = keyswitch(d2, keys.relin, self.p_moduli)
        c0 = d0 + ks0
        c1 = d1 + ks1
        rows = d0.num_primes
        _temit("modadd", rows=rows, reads=(d0, ks0), writes=(c0,),
               scale=scale)
        _temit("modadd", rows=rows, reads=(d1, ks1), writes=(c1,),
               scale=scale)
        return c0, c1

    def square(self, ct: Ciphertext, keys: KeySet, *,
               rescale: bool = True) -> Ciphertext:
        return self.hmult(ct, ct, keys, rescale=rescale)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop ``rescale_primes`` primes, dividing scale accordingly."""
        k = self.params.rescale_primes
        with _tspan("rescale", level=ct.level):
            new_c0, divisor = rescale_poly(ct.c0, primes=k)
            new_c1, _ = rescale_poly(ct.c1, primes=k)
            out_c0 = new_c0.to_eval()
            out_c1 = new_c1.to_eval()
            _temit("ntt", rows=2 * (ct.level + 1 - k), panes=2,
                   reads=(new_c0, new_c1), writes=(out_c0, out_c1),
                   scale=ct.scale / divisor)
            return Ciphertext(
                out_c0, out_c1, ct.level - k, ct.scale / divisor,
            )

    # -- scale management (used heavily by polynomial evaluation) -------------------

    def pmult_scalar(self, ct: Ciphertext, value: float, *,
                     scale: float = None) -> Ciphertext:
        """Multiply every slot by a scalar constant.

        The constant is folded into the constant coefficient of a plaintext
        at the given ``scale`` (default: the parameter scale); no level is
        consumed until a later rescale.
        """
        scale = self.params.scale if scale is None else scale
        moduli = self.moduli_at(ct.level)
        scaled = value * scale
        if abs(scaled) >= 2**62:
            raise ValueError("scalar too large for the chosen scale")
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        coeffs[0] = int(round(scaled))
        m = RnsPoly.from_signed(coeffs, moduli).to_eval()
        with _tspan("pmult_scalar", level=ct.level):
            out = Ciphertext(
                ct.c0 * m, ct.c1 * m, ct.level, ct.scale * scale
            )
            _temit("modmul", rows=2 * (ct.level + 1), reads=(ct, m),
                   writes=(out,), scale=out.scale)
        return out

    def add_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Add a scalar constant to every slot (no level consumed)."""
        moduli = self.moduli_at(ct.level)
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        coeffs[0] = int(round(value * ct.scale))
        m = RnsPoly.from_signed(coeffs, moduli).to_eval()
        with _tspan("add_scalar", level=ct.level):
            out = Ciphertext(ct.c0 + m, ct.c1.copy(), ct.level, ct.scale)
            _temit("modadd", rows=ct.level + 1, reads=(ct, m), writes=(out,),
                   scale=out.scale)
        return out

    def match_scale(self, ct: Ciphertext, target: float) -> Ciphertext:
        """Raise ``ct``'s scale to ``target`` by multiplying by 1.

        ``target`` must be >= the current scale; the ratio is folded into a
        constant-1 plaintext so slot values are unchanged.
        """
        if math.isclose(ct.scale, target, rel_tol=_SCALE_RTOL):
            return ct
        ratio = target / ct.scale
        if ratio < 1.0:
            raise ValueError(
                f"cannot lower a scale by matching ({ct.scale:g} -> "
                f"{target:g}); match the other operand instead"
            )
        return self.pmult_scalar(ct, 1.0, scale=ratio)

    def hadd_matched(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """HADD with automatic level alignment and scale matching."""
        if a.scale < b.scale:
            a = self.match_scale(a, b.scale)
        else:
            b = self.match_scale(b, a.scale)
        return self.hadd(a, b)

    def hsub_matched(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.scale < b.scale:
            a = self.match_scale(a, b.scale)
        else:
            b = self.match_scale(b, a.scale)
        return self.hsub(a, b)

    # -- rotations ------------------------------------------------------------------

    def hrotate(self, ct: Ciphertext, steps: int, keys: KeySet) -> Ciphertext:
        """Rotate message slots left by ``steps`` (HROTATE)."""
        key = keys.rotation.get(steps)
        if key is None:
            raise KeyError(
                f"no rotation key for step {steps}; pass rotations=[{steps}] "
                "to KeyGenerator.generate"
            )
        exponent = pow(5, steps, 2 * self.params.n)
        return self._apply_galois(ct, exponent, key, op="hrotate",
                                  step=steps)

    def hrotate_composed(self, ct: Ciphertext, steps: int,
                         keys: KeySet) -> Ciphertext:
        """Rotate by an arbitrary step using only power-of-two keys.

        Decomposes ``steps`` into its binary expansion and chains the
        power-of-two rotations — the standard trick for supporting every
        rotation with ``log2(slots)`` keys instead of ``slots`` keys, at
        the cost of one key-switch per set bit (popcount noise/latency).
        """
        slots = self.params.slots
        steps %= slots
        if steps == 0:
            return ct
        out = ct
        bit = 1
        remaining = steps
        while remaining:
            if remaining & 1:
                out = self.hrotate(out, bit, keys)
            remaining >>= 1
            bit <<= 1
        return out

    @staticmethod
    def power_of_two_rotations(slots: int):
        """The key set :meth:`hrotate_composed` requires."""
        steps = []
        bit = 1
        while bit < slots:
            steps.append(bit)
            bit <<= 1
        return steps

    def conjugate(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        if keys.conjugation is None:
            raise KeyError("no conjugation key; generate with conjugation=True")
        return self._apply_galois(
            ct, 2 * self.params.n - 1, keys.conjugation, op="conjugate",
            step=-1,
        )

    def _apply_galois(self, ct: Ciphertext, exponent: int,
                      key: KeySwitchKey, op: str = "hrotate",
                      step: int = 0) -> Ciphertext:
        with _tspan(op, level=ct.level):
            rot0 = ct.c0.to_coeff().automorphism(exponent).to_eval()
            rot1 = ct.c1.to_coeff().automorphism(exponent).to_eval()
            # One gather event for both polynomials: the coefficient-domain
            # round trip above is a functional-layer artifact (a negacyclic
            # automorphism permutes either domain), so the trace records
            # what a GPU launches — the in-place eval-domain permutation.
            # ``args`` carries the slot step (-1 = conjugation) so the
            # optimizer and key audits know *which* rotation this was.
            _temit("automorphism", primes=ct.level + 1, polys=2,
                   reads=(ct,), writes=(rot0, rot1), args=(step,),
                   scale=ct.scale)
            ks0, ks1 = keyswitch(rot1, key, self.p_moduli)
            c0 = rot0 + ks0
            _temit("modadd", rows=ct.level + 1, reads=(rot0, ks0),
                   writes=(c0,), scale=ct.scale)
            return Ciphertext(c0, ks1, ct.level, ct.scale)

    # -- internals --------------------------------------------------------------------

    def _align(self, a: Ciphertext, b: Ciphertext, *,
               match_scale: bool = True):
        """Bring two ciphertexts to a common (the lower) level."""
        if a.level > b.level:
            a = self.level_down(a, b.level)
        elif b.level > a.level:
            b = self.level_down(b, a.level)
        if match_scale and not math.isclose(
            a.scale, b.scale, rel_tol=_SCALE_RTOL
        ):
            raise ValueError(
                f"scale mismatch: {a.scale:g} vs {b.scale:g}; rescale first"
            )
        return a, b

    def level_down(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop to a lower level without dividing (modulus reduction)."""
        if level > ct.level:
            raise ValueError("cannot raise a ciphertext's level")
        drop = ct.level - level
        if drop == 0:
            return ct
        return Ciphertext(
            ct.c0.drop_last_primes(drop), ct.c1.drop_last_primes(drop),
            level, ct.scale,
        )

    def _plain_at_level(self, pt: Plaintext, level: int) -> RnsPoly:
        poly = pt.poly
        if poly.num_primes < level + 1:
            raise ValueError("plaintext encoded at a lower level than needed")
        if poly.num_primes > level + 1:
            poly = poly.take_primes(range(level + 1))
        return poly.to_eval()
