"""Homomorphic linear transforms on slots (diagonal method + BSGS).

``slots -> M @ slots`` for an arbitrary complex matrix M is the backbone
of CoeffToSlot/SlotToCoeff, packed convolutions and encrypted
matrix-vector products. Two strategies:

* **diagonal method** — one rotation per non-zero diagonal:
  ``sum_d diag_d(M) * rot(ct, d)``;
* **BSGS** — ``O(sqrt(s))`` *distinct* rotations: write ``d = g*b_step +
  b`` and hoist the baby rotations, rotating the giant partial sums:
  ``sum_g rot( sum_b diag'_{g,b} * rot(ct, b), g*b_step )`` where the
  giant-step rotation is folded into the diagonals
  (``diag'_{g,b} = rot(diag_{g*b_step+b}, -g*b_step)``).

The baby rotations are computed with Halevi-Shoup hoisting
(:mod:`repro.ckks.hoisting`), so the dominant ModUp cost is paid once.

Application is a **plan/compile** pipeline: :meth:`LinearTransform.compile`
extracts the non-zero (shifted) diagonals once, encodes them per level
into a cached **eval-form diagonal stack** — a read-only
``(num_primes, num_diags, N)`` NTT-domain tensor built with one batched
embedding (:meth:`~repro.ckks.encoding.Encoder.encode_many`) and one
stacked NTT — and :meth:`apply` then runs every baby-step PMULT +
accumulation of a giant group as a single wide-accumulator pass
(:func:`~repro.ckks.ks_common.wide_dot`) over that stack.  Giant groups
whose shifted diagonals are all structurally zero are pruned at plan
time (lossless — they contribute nothing to the sum).

The tests keep the per-diagonal pipeline as a bit-exactness oracle
(``tests/oracles``); it reads the same compiled plaintext stack, and
``apply`` matches it bit-exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..analysis.annotations import frozen
from ..trace.recorder import emit as _temit, span as _tspan
from ..ntt.stacked import get_shoup_stack, stacked_negacyclic_ntt
from .ciphertext import Ciphertext
from .context import CkksContext
from .hoisting import hoisted_rotations
from .keys import KeySet
from .poly import EVAL, RnsPoly
from .ks_common import wide_dot
from .rns_context import get_rns_context

#: Magnitude below which a diagonal is treated as structurally zero.
_DIAG_EPSILON = 1e-12


@frozen
class _LevelPlan:
    """One compiled level of a transform: the eval-form diagonal stack.

    ``stack`` is the ``(num_primes, num_diags, N)`` uint64 NTT-domain
    plaintext tensor (read-only; conceptually ``num_diags`` residue
    matrices side by side).  ``groups`` lists, per giant step, the
    rotation to apply after the inner sum, the positions of its baby
    rotations inside ``babies``, and its slice of the stack.
    """

    __slots__ = ("level", "moduli", "pt_scale", "babies", "groups", "stack")

    def __init__(self, level: int, moduli: Tuple[int, ...], pt_scale: float,
                 babies: List[int],
                 groups: List[Tuple[int, np.ndarray, np.ndarray]],
                 stack: np.ndarray):
        self.level = level
        self.moduli = moduli
        self.pt_scale = pt_scale
        self.babies = babies
        self.groups = groups
        self.stack = stack

    @property
    def num_diags(self) -> int:
        return self.stack.shape[1]


class LinearTransform:
    """One precompiled ``slots x slots`` transform."""

    def __init__(self, ctx: CkksContext, matrix: np.ndarray, *,
                 bsgs: bool = True):
        s = ctx.slots
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (s, s):
            raise ValueError(f"matrix must be {s}x{s}, got {matrix.shape}")
        self.ctx = ctx
        self.matrix = matrix
        self.bsgs = bsgs
        self.slots = s
        self.baby = max(1, int(math.isqrt(s))) if bsgs else s
        self._diagonals = self._extract_diagonals()
        # {giant_rotation: {baby_step: already-shifted diagonal}} — the
        # diagonal method is the single group with giant rotation 0.
        self._groups = self._build_groups()
        self._plans: Dict[int, _LevelPlan] = {}

    # -- construction -------------------------------------------------------------

    def _extract_diagonals(self) -> Dict[int, np.ndarray]:
        s = self.slots
        j = np.arange(s)
        out: Dict[int, np.ndarray] = {}
        for d in range(s):
            diag = self.matrix[j, (j + d) % s]
            if np.any(np.abs(diag) > _DIAG_EPSILON):
                out[d] = diag
        if not out:
            raise ValueError("transform matrix is identically zero")
        return out

    def _build_groups(self) -> Dict[int, Dict[int, np.ndarray]]:
        groups: Dict[int, Dict[int, np.ndarray]] = {}
        if not self.bsgs:
            groups[0] = dict(self._diagonals)
            return groups
        for d, diag in self._diagonals.items():
            g, b = divmod(d, self.baby)
            # Pre-rotate the diagonal so the giant rotation can be applied
            # after the inner sum.
            groups.setdefault(g * self.baby, {})[b] = np.roll(
                diag, g * self.baby
            )
        return groups

    @property
    def num_giant_groups(self) -> int:
        """Giant-step groups that survived zero-diagonal pruning."""
        return len(self._groups)

    @property
    def pruned_giant_steps(self) -> List[int]:
        """Giant rotations skipped because every diagonal of the group is
        structurally zero (below ``_DIAG_EPSILON``) — the skip is lossless
        since those diagonals contribute nothing to the sum."""
        if not self.bsgs:
            return []
        num_groups = -(-self.slots // self.baby)
        return sorted(
            g * self.baby for g in range(num_groups)
            if g * self.baby not in self._groups
        )

    def required_rotations(self) -> List[int]:
        """Rotation keys the application must generate (sorted, unique)."""
        steps = set()
        for g_rot, grp in self._groups.items():
            if g_rot:
                steps.add(g_rot)
            steps.update(b for b in grp if b)
        return sorted(steps)

    # -- plan compilation ----------------------------------------------------------

    def compile(self, level: int) -> _LevelPlan:
        """Encode every (shifted) diagonal at ``level`` into the cached
        eval-form stack; idempotent per level."""
        plan = self._plans.get(level)
        if plan is not None:
            return plan
        moduli = self.ctx.evaluator.moduli_at(level)
        n = self.ctx.params.n
        scale = self.ctx.params.scale

        babies = sorted({b for grp in self._groups.values() for b in grp})
        baby_pos = {b: i for i, b in enumerate(babies)}
        ordered: List[Tuple[int, List[int], List[np.ndarray]]] = []
        for g_rot in sorted(self._groups):
            grp = self._groups[g_rot]
            bs = sorted(grp)
            ordered.append((g_rot, bs, [grp[b] for b in bs]))

        # One batched embedding + one stacked NTT for the whole transform.
        values = np.stack([v for _, _, vals in ordered for v in vals])
        coeffs = self.ctx.encoder.encode_many(values, scale)  # (D, n)
        q_col = np.array(moduli, dtype=np.int64)[:, None, None]
        residues = np.mod(coeffs[None, :, :], q_col).astype(np.uint64)
        stack = stacked_negacyclic_ntt(
            residues, get_shoup_stack(tuple(moduli), n)
        )  # (P, D, N), canonical
        stack.setflags(write=False)

        groups: List[Tuple[int, np.ndarray, np.ndarray]] = []
        offset = 0
        for g_rot, bs, _ in ordered:
            idx = np.array([baby_pos[b] for b in bs], dtype=np.intp)
            groups.append(
                (g_rot, idx, stack[:, offset:offset + len(bs), :])
            )
            offset += len(bs)

        plan = _LevelPlan(level, tuple(moduli), scale, babies, groups, stack)
        self._plans[level] = plan
        return plan

    # -- application ------------------------------------------------------------------

    def apply(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        """Return a ciphertext whose slots are ``matrix @ slots(ct)``.

        Batched: all baby-step PMULTs and accumulations of a giant group
        run as one :func:`wide_dot` pass over the cached eval-form stack.
        Bit-identical to the per-diagonal reference pipeline.
        """
        plan = self.compile(ct.level)
        ev = self.ctx.evaluator
        with _tspan("linear_transform", level=ct.level):
            rotated = hoisted_rotations(ev, ct, plan.babies, keys)
            # The rotated components as (P, B, N) stacks; ciphertext data
            # is canonical, i.e. valid lazy wide_dot input.
            rot0 = np.stack(
                [rotated[b].c0.data for b in plan.babies], axis=1
            )
            rot1 = np.stack(
                [rotated[b].c1.data for b in plan.babies], axis=1
            )
            reducer = get_rns_context(plan.moduli, ct.n).barrett
            rot_cts = tuple(rotated[b] for b in plan.babies)

            acc = None
            for g_rot, idx, stack in plan.groups:
                inner = Ciphertext(
                    RnsPoly(wide_dot(rot0[:, idx], stack, reducer),
                            plan.moduli, EVAL),
                    RnsPoly(wide_dot(rot1[:, idx], stack, reducer),
                            plan.moduli, EVAL),
                    ct.level, ct.scale * plan.pt_scale,
                )
                # One wide-accumulator pass per giant group: the group's
                # baby-step PMULTs and additions fused over the diagonal
                # stack, for both ciphertext components.
                _temit("inner_product", primes=ct.level + 1,
                       digits=len(idx), accumulators=2, reads=rot_cts,
                       writes=(inner,), scale=inner.scale)
                if self.bsgs:
                    inner = ev.rescale(inner)
                    if g_rot:
                        inner = ev.hrotate(inner, g_rot, keys)
                acc = inner if acc is None else ev.hadd_matched(acc, inner)
            return acc if self.bsgs else ev.rescale(acc)
