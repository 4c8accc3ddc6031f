"""Slim CKKS bootstrapping [14], [26] — the Boot workload's core.

Pipeline for a real-valued ciphertext that has exhausted its levels::

    SlotToCoeff -> ModRaise -> CoeffToSlot -> EvalMod

* **SlotToCoeff** moves the message from slots into polynomial
  coefficients (one homomorphic linear transform, BSGS + hoisting via
  :mod:`repro.ckks.linear_transform`).
* **ModRaise** reinterprets the level-0 residues over the full modulus
  chain; the plaintext becomes ``m + q0 * I(X)`` with a small integer
  polynomial ``I``.
* **CoeffToSlot** moves the (noisy) coefficients back into slots (two
  linear transforms plus a conjugation).
* **EvalMod** removes ``q0 * I`` by evaluating
  ``(q0 / 2pi) * sin(2pi x / q0)`` as a Chebyshev polynomial
  (:mod:`repro.ckks.polyeval`).

The linear-transform matrices are derived numerically from the encoder
(they are the canonical-embedding DFT halves), so this module works for
any power-of-two ring degree; tests run it on toy rings, the benchmark
harness prices its operation schedule at N = 2^16.

**FFT factorization** (``BootstrapConfig.fft_factored``): the embedding
matrix obeys ``U0[j, k] = zeta^(5^j * k)`` (with ``zeta = exp(i*pi/N)``
and ``U1 = i * U0``), so it Cooley-Tukey-factors into ``log2(s)`` radix-2
butterfly factors, each with at most 3 non-zero generalized diagonals
``{0, h, s-h}``::

    U0 = B_1 @ B_2 @ ... @ B_m @ R          (R = bit-reversal)

SlotToCoeff then applies the ``B`` factors only (coefficients land in
bit-reversed order) and CoeffToSlot applies their scaled adjoints
``B_r^H / (2s)^(1/m)`` followed by ``y + conj(y)`` (``P2 = conj(P1)``
collapses the conjugate leg into one conjugation).  The two bit
reversals cancel through the coefficient-wise ModRaise, so the full
bootstrap needs no permutation at all — O(log s) cheap transforms
instead of one dense one.  The ``fuse`` knob level-collapses ``k``
adjacent factors into one (fewer levels, more diagonals per stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import List, Tuple

import numpy as np

from ..trace.recorder import emit as _temit, span as _tspan
from ..tuning.knobs import (Boolean, FloatRange, IntRange, KnobSpec,
                            knob_default, register_knob)
from .ciphertext import Ciphertext
from .context import CkksContext
from .keys import KeySet
from .linear_transform import LinearTransform
from .polyeval import PolynomialEvaluator
from .poly import RnsPoly

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------
#
# The bootstrap layer owns the slim-bootstrap tunables.  Their single
# source of truth is the registry: ``BootstrapConfig`` and
# :func:`~repro.tuning.build_pipeline` both read defaults through
# :func:`~repro.tuning.knobs.knob_default`, so no consumer holds a
# literal copy that could drift (see tests/tuning/test_no_drift.py).

register_knob(KnobSpec(
    name="boot.sine_degree", layer="ckks",
    domain=IntRange(7, 255, grid=(15, 31, 63, 127)), default=63,
    doc="Chebyshev degree of the EvalMod sine approximation.",
    observe=lambda pipe: pipe.boot_config.sine_degree,
))
register_knob(KnobSpec(
    name="boot.eval_range", layer="ckks",
    domain=FloatRange(1.0, 64.0, grid=(4.5, 6.5, 12.5)), default=6.5,
    doc="Half-width of the EvalMod input range in q0 units.",
    observe=lambda pipe: pipe.boot_config.eval_range,
))
register_knob(KnobSpec(
    name="boot.bsgs", layer="ckks",
    domain=Boolean(), default=True,
    doc="BSGS linear transforms (sqrt-many rotation keys) vs plain "
        "diagonal method on the dense path.",
    observe=lambda pipe: pipe.boot_config.bsgs,
))
register_knob(KnobSpec(
    name="boot.fft_factored", layer="ckks",
    domain=Boolean(), default=False,
    doc="Run StC/CtS as O(log s) sparse radix factors instead of one "
        "dense transform each.",
    observe=lambda pipe: pipe.boot_config.fft_factored,
))
register_knob(KnobSpec(
    name="boot.fuse", layer="ckks",
    domain=IntRange(1, 8), default=1,
    doc="Level-collapse this many adjacent FFT radix factors into one "
        "stage (fft_factored only).",
    observe=lambda pipe: pipe.boot_config.fuse,
))


@dataclass
class BootstrapConfig:
    """Tunables of the slim bootstrap.

    Field defaults are *not* literals: each resolves from the declared
    knob registry (``boot.*``), the same source the schedule layer
    reads, so a default changed in one place moves everywhere.
    """

    #: Chebyshev degree of the sine approximation.
    sine_degree: int = field(
        default_factory=lambda: knob_default("boot.sine_degree"))
    #: Half-width of the EvalMod input range in q0 units; must exceed the
    #: ModRaise overflow bound ~ (hamming_weight + 1) / 2.
    eval_range: float = field(
        default_factory=lambda: knob_default("boot.eval_range"))
    #: Use BSGS linear transforms (sqrt-many rotation keys) vs the plain
    #: diagonal method (dense path only).
    bsgs: bool = field(default_factory=lambda: knob_default("boot.bsgs"))
    #: Run SlotToCoeff/CoeffToSlot as O(log s) sparse radix factors
    #: instead of one dense transform each.  Requires the input
    #: ciphertext to carry at least ``stc_levels`` levels.
    fft_factored: bool = field(
        default_factory=lambda: knob_default("boot.fft_factored"))
    #: Level-collapse this many adjacent radix factors into one stage
    #: (fft_factored only): fewer levels consumed, up to ``3**fuse``
    #: diagonals per stage.
    fuse: int = field(default_factory=lambda: knob_default("boot.fuse"))


def special_fft_factors(slots: int) -> List[np.ndarray]:
    """The radix-2 butterfly factors ``[B_1, ..., B_m]`` of the
    slot-embedding DFT: ``U0 = B_1 @ ... @ B_m @ R``.

    Factor ``B_r`` is block-diagonal with ``2**(r-1)`` butterfly blocks of
    size ``L = s / 2**(r-1)``; block entries ``(j, j) = 1``,
    ``(j, j+h) = c_j``, ``(j+h, j) = 1``, ``(j+h, j+h) = -c_j`` with
    ``h = L/2`` and twiddle ``c_j = exp(i*pi*(5^j mod 4L) / 2L)`` — at
    most 3 non-zero generalized diagonals ``{0, h, s-h}`` each.
    """
    if slots & (slots - 1):
        raise ValueError("special FFT factors need power-of-two slots")
    m = slots.bit_length() - 1
    factors = []
    for r in range(1, m + 1):
        length = slots >> (r - 1)
        half = length // 2
        j = np.arange(half)
        exps = np.array([pow(5, int(t), 4 * length) for t in j])
        twiddle = np.exp(1j * np.pi * exps / (2 * length))
        mat = np.zeros((slots, slots), dtype=np.complex128)
        for off in range(0, slots, length):
            rows = off + j
            mat[rows, rows] = 1.0
            mat[rows, rows + half] = twiddle
            mat[rows + half, rows] = 1.0
            mat[rows + half, rows + half] = -twiddle
        factors.append(mat)
    return factors


def _fuse_stages(stages: List[np.ndarray], fuse: int) -> List[np.ndarray]:
    """Collapse ``fuse`` adjacent stage matrices (application order) into
    their products — the level-collapse knob."""
    if fuse < 1:
        raise ValueError(f"fuse must be >= 1, got {fuse}")
    if fuse == 1:
        return stages
    out = []
    for i in range(0, len(stages), fuse):
        grp = stages[i:i + fuse]
        # Applied grp[0] first: the collapsed matrix is grp[-1] @ ... @
        # grp[0].
        out.append(reduce(lambda acc, mat: mat @ acc, grp))
    return out


def factored_stage_matrices(slots: int, fuse: int = 1
                            ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """``(stc_stages, cts_stages)`` in application order.

    SlotToCoeff applies ``B_m, ..., B_1`` (product ``U0 @ R``: the message
    lands in bit-reversed coefficient order); CoeffToSlot applies
    ``B_1^H, ..., B_m^H`` each scaled by ``(2s)^(-1/m)`` (product
    ``R @ P1``); the plain transform's conjugate leg ``P2 = conj(P1)`` is
    recovered as ``y + conj(y)`` after the chain.  The two bit reversals
    cancel through ModRaise, which acts per coefficient.
    """
    base = special_fft_factors(slots)
    m = len(base)
    shrink = (2.0 * slots) ** (-1.0 / m)
    stc = list(reversed(base))
    cts = [b.conj().T * shrink for b in base]
    return _fuse_stages(stc, fuse), _fuse_stages(cts, fuse)


class Bootstrapper:
    """Bootstraps ciphertexts of one context.

    Needs the rotation keys listed by :meth:`required_rotations` plus the
    conjugation key.
    """

    def __init__(self, ctx: CkksContext, config: BootstrapConfig = None):
        self.ctx = ctx
        self.config = config or BootstrapConfig()
        self.slots = ctx.params.slots
        if self.config.fft_factored:
            stc_mats, cts_mats = factored_stage_matrices(
                self.slots, self.config.fuse
            )
            # Sparse radix stages: a handful of diagonals each, so the
            # plain diagonal method beats BSGS (whose giant rotations
            # would outnumber the diagonals).
            self._stc_stages = [
                LinearTransform(ctx, m, bsgs=False) for m in stc_mats
            ]
            self._cts_stages = [
                LinearTransform(ctx, m, bsgs=False) for m in cts_mats
            ]
            self._transforms = self._stc_stages + self._cts_stages
        else:
            u0, p1, p2 = _embedding_matrices(ctx)
            self._stc = LinearTransform(ctx, u0, bsgs=self.config.bsgs)
            self._cts1 = LinearTransform(ctx, p1, bsgs=self.config.bsgs)
            self._cts2 = LinearTransform(ctx, p2, bsgs=self.config.bsgs)
            self._transforms = [self._stc, self._cts1, self._cts2]
        self._polyeval = PolynomialEvaluator(ctx.evaluator)
        self._cheb_coeffs = self._fit_sine()

    @property
    def stc_levels(self) -> int:
        """Levels SlotToCoeff consumes — the minimum level of the input
        ciphertext (one per factored stage; one for the dense path)."""
        return len(self._stc_stages) if self.config.fft_factored else 1

    def required_rotations(self) -> List[int]:
        """Union of every transform's rotation steps — sorted and
        deduplicated, so the key set never generates a step twice."""
        steps = set()
        for lt in self._transforms:
            steps.update(lt.required_rotations())
        return sorted(steps)

    @staticmethod
    def required_rotations_for(params, *, bsgs: bool = True,
                               fft_factored: bool = False,
                               fuse: int = 1) -> List[int]:
        """Rotation steps needed, without building a context first.

        Conservative supersets in both modes: the dense embedding matrices
        use every baby step below sqrt(slots) and every giant multiple;
        a factored stage's diagonals sit inside the sumset of its fused
        factors' butterfly offsets ``{0, h_r, s - h_r}`` (computed
        analytically — no dense factor matrices, so this stays cheap at
        production slot counts like 2^15).
        """
        import math

        s = params.slots
        if fft_factored:
            if fuse < 1:
                raise ValueError(f"fuse must be >= 1, got {fuse}")
            m = s.bit_length() - 1
            halves = [s >> r for r in range(1, m + 1)]
            steps = set()
            # StC fuses reversed factors, CtS forward ones (the adjoint
            # negates offsets, which maps {h, s-h} to itself).
            for order in (halves[::-1], halves):
                for i in range(0, len(order), fuse):
                    offs = {0}
                    for h in order[i:i + fuse]:
                        offs = {(a + d) % s
                                for a in offs for d in (0, h, s - h)}
                    steps.update(offs)
            steps.discard(0)
            return sorted(steps)
        if not bsgs:
            return list(range(1, s))
        baby = max(1, int(math.isqrt(s)))
        steps = set(range(1, baby))
        steps.update(g * baby for g in range(1, -(-s // baby)))
        return sorted(steps)

    def assert_rotations_consistent(self, trace) -> List[int]:
        """Check a recorded run against the declared key requirements.

        Verifies the containment chain the key-generation story relies
        on: every automorphism step *observed* in ``trace`` (conjugation
        aside) must be a step :meth:`required_rotations` declared, and
        every declared step must sit inside the analytic superset of
        :meth:`required_rotations_for` — a trace needing an undeclared
        key means keygen under-provisioned; a declared step outside the
        superset means the static estimate diverged from the built
        transforms. Returns the observed steps, sorted.
        """
        from ..trace.opt.rotation import observed_rotation_steps

        observed = [s for s in observed_rotation_steps(trace) if s != -1]
        declared = set(self.required_rotations())
        missing = sorted(set(observed) - declared)
        if missing:
            raise AssertionError(
                f"trace {trace.label!r} rotates by undeclared steps "
                f"{missing}; required_rotations() is not a superset of "
                "the recorded run"
            )
        superset = set(self.required_rotations_for(
            self.ctx.params, bsgs=self.config.bsgs,
            fft_factored=self.config.fft_factored, fuse=self.config.fuse,
        ))
        stray = sorted(declared - superset)
        if stray:
            raise AssertionError(
                f"required_rotations() declares steps {stray} outside "
                "the analytic superset of required_rotations_for()"
            )
        return sorted(set(observed))

    # -- public API ---------------------------------------------------------------

    def bootstrap(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        """Refresh a (low-level, real-message) ciphertext to a high level."""
        ev = self.ctx.evaluator
        # 1. SlotToCoeff: message into coefficients.
        ct = self.slot_to_coeff(ct, keys)
        # 2. Down to the base prime, then raise onto the full chain. The
        #    raw residues represent the message at this scale — EvalMod
        #    must measure them in q0 units relative to it.
        ct = ev.level_down(ct, 0)
        raised_scale = ct.scale
        ct = self.mod_raise(ct)
        # 3. CoeffToSlot: noisy coefficients back to slots.
        ct = self.coeff_to_slot(ct, keys)
        # 4. EvalMod: strip the q0*I term.
        return self.eval_mod(ct, keys, raised_scale=raised_scale)

    # -- stages ------------------------------------------------------------------

    def slot_to_coeff(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        """Linear transform with U0: new slots = U0 z, whose underlying
        polynomial has the message in its low coefficients.

        Factored mode chains the radix stages ``B_m, ..., B_1`` — the
        message lands in *bit-reversed* coefficient order, which the
        factored CoeffToSlot undoes (ModRaise in between is
        coefficient-wise, so the permutation rides through it).
        """
        with _tspan("StC", level=ct.level):
            if not self.config.fft_factored:
                return self._stc.apply(ct, keys)
            if ct.level < len(self._stc_stages):
                raise ValueError(
                    f"factored SlotToCoeff needs level >= "
                    f"{len(self._stc_stages)}, got {ct.level}"
                )
            for stage in self._stc_stages:
                ct = stage.apply(ct, keys)
            return ct

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Lift level-0 residues to the full chain (plaintext gains q0*I)."""
        if ct.level != 0:
            raise ValueError("mod_raise expects a level-0 ciphertext")
        ev = self.ctx.evaluator
        q0 = ev.q_moduli[0]
        full = ev.q_moduli
        with _tspan("ModRaise", level=self.ctx.params.max_level):
            out = []
            for part in (ct.c0, ct.c1):
                row = part.to_coeff().data[0]
                centered = row.astype(np.int64)
                centered[centered > q0 // 2] -= q0
                out.append(RnsPoly.from_signed(centered, full).to_eval())
            raised = Ciphertext(
                out[0], out[1], self.ctx.params.max_level, ct.scale
            )
            # Priced as one element-wise pass writing both raised
            # polynomials over the full chain.
            _temit("modadd", rows=2 * len(full), reads=(ct,),
                   writes=(raised,), scale=raised.scale)
        return raised

    def coeff_to_slot(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        """Slots become the low-half coefficients: P1 z + P2 conj(z).

        Factored mode chains the adjoint stages (product ``R @ P1``) once
        and recovers the conjugate leg as ``y + conj(y)`` — since
        ``P2 = conj(P1)``, that equals ``R (P1 z + P2 conj(z))``, and the
        bit reversal cancels the one SlotToCoeff introduced.
        """
        ev = self.ctx.evaluator
        with _tspan("CtS", level=ct.level):
            if not self.config.fft_factored:
                conj = ev.conjugate(ct, keys)
                part1 = self._cts1.apply(ct, keys)
                part2 = self._cts2.apply(conj, keys)
                return ev.hadd_matched(part1, part2)
            for stage in self._cts_stages:
                ct = stage.apply(ct, keys)
            return ev.hadd_matched(ct, ev.conjugate(ct, keys))

    def eval_mod(self, ct: Ciphertext, keys: KeySet, *,
                 raised_scale: float) -> Ciphertext:
        """Evaluate (1/2pi) sin(2pi u) on u = coefficients/q0.

        ``raised_scale`` is the scale the raw residues carried when they
        were mod-raised: the CtS output decodes to ``coeffs/raised_scale``,
        so reading it in q0 units means declaring the scale
        ``ct.scale * q0 / raised_scale``.
        """
        ev = self.ctx.evaluator
        q0 = ev.q_moduli[0]
        with _tspan("EvalMod", level=ct.level):
            ct = Ciphertext(
                ct.c0, ct.c1, ct.level, ct.scale * float(q0) / raised_scale
            )
            # Normalize to the Chebyshev domain x = u / R, choosing the
            # plaintext scale so the rescaled result lands exactly back on
            # Delta (otherwise Chebyshev squaring amplifies the q0-sized
            # scale).
            r = self.config.eval_range
            q_drop = ev.q_moduli[ct.level]
            norm_scale = self.ctx.params.scale * q_drop / ct.scale
            ct_x = ev.rescale(
                ev.pmult_scalar(ct, 1.0 / r, scale=norm_scale)
            )
            result = self._polyeval.eval_chebyshev(
                ct_x, self._cheb_coeffs, keys
            )
            # Slots now hold ~ m/q0; declare the scale that decodes them
            # back to the original message units.
            return Ciphertext(
                result.c0, result.c1, result.level,
                result.scale * raised_scale / float(q0),
            )

    # -- sine fit -------------------------------------------------------------------

    def _fit_sine(self) -> np.ndarray:
        r = self.config.eval_range

        def f(x):
            return np.sin(2 * np.pi * x * r) / (2 * np.pi)

        return PolynomialEvaluator.chebyshev_fit(
            f, self.config.sine_degree, domain=(-1, 1)
        )


def _embedding_matrices(ctx: CkksContext):
    """Derive U0 (decode low half) and the CoeffToSlot inverses P1/P2
    numerically from the encoder's decode map."""
    n = ctx.params.n
    s = ctx.params.slots
    encoder = ctx.encoder
    decode_matrix = np.empty((s, n), dtype=np.complex128)
    for k in range(n):
        unit = np.zeros(n)
        unit[k] = 1.0
        decode_matrix[:, k] = encoder.decode(unit, scale=1.0)
    u0 = decode_matrix[:, :s]
    u1 = decode_matrix[:, s:]
    # Solve [z; conj(z)] = [[U0, U1]; [conj(U0), conj(U1)]] [m_lo; m_hi]
    # for m_lo: the top half of the inverse gives P1 (acting on z) and P2
    # (acting on conj(z)).
    big = np.block([[u0, u1], [np.conj(u0), np.conj(u1)]])
    inv = np.linalg.inv(big)
    return u0, inv[:s, :s], inv[:s, s:]
