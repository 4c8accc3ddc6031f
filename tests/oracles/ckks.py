"""The pre-batching CKKS pipelines, kept as bit-exactness oracles.

Each function runs the paper's per-digit / per-step / per-diagonal
dataflow — the one WarpDrive's parallelism-enhanced kernels replace
(§IV-C) — and must return exactly the polynomials of its batched
counterpart in :mod:`repro.ckks`:

* :func:`keyswitch_looped` — ModUp, NTT and InnerProduct one digit at a
  time (:func:`repro.ckks.keyswitch.keyswitch`);
* :func:`hoisted_rotations_looped` — one ModUp, then every step's
  automorphism, inner product and ModDown in turn
  (:func:`repro.ckks.hoisting.hoisted_rotations`);
* :func:`linear_transform_looped` — one PMULT/FMA per diagonal
  (:meth:`repro.ckks.linear_transform.LinearTransform.apply`).

The tests and ``benchmarks/bench_keyswitch.py`` /
``benchmarks/bench_bootstrap.py`` compare against them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.hoisting import hoisted_rotations
from repro.ckks.keys import KeySet, KeySwitchKey
from repro.ckks.ks_common import (
    full_chain_length,
    level_row_indices,
    present_digits,
)
from repro.ckks.linear_transform import LinearTransform
from repro.ckks.ops import Evaluator
from repro.ckks.poly import COEFF, EVAL, RnsPoly
from repro.numtheory.rns import RNSBasis, extend_basis, mod_down

from .rns import mod_down_exact_t


def _select_level_rows(key_poly: RnsPoly, num_level: int,
                       full_len: int) -> RnsPoly:
    """Restrict a full-chain key polynomial to level + special rows."""
    return key_poly.take_primes(
        level_row_indices(num_level, full_len, key_poly.num_primes)
    )


def keyswitch_looped(d: RnsPoly, ksk: KeySwitchKey,
                     special_moduli: Tuple[int, ...],
                     *, plain_modulus: int = None
                     ) -> Tuple[RnsPoly, RnsPoly]:
    """The per-digit reference pipeline (pre-batching implementation).

    Runs ModUp, NTT and the inner-product accumulation one digit at a
    time. ``plain_modulus`` selects the BGV/BFV ModDown that preserves
    residues mod ``t``.
    """
    if d.domain != EVAL:
        raise ValueError("keyswitch input must be in eval domain")
    level_moduli = d.moduli
    num_level = len(level_moduli)
    target_moduli = level_moduli + tuple(special_moduli)
    target_basis = RNSBasis(target_moduli)
    n = d.n

    d_coeff = d.to_coeff()  # stage 1: INTT

    acc0 = RnsPoly.zero(target_moduli, n, EVAL)
    acc1 = RnsPoly.zero(target_moduli, n, EVAL)
    full_len = full_chain_length(ksk)
    for j, digit in enumerate(ksk.digits):
        present = [i for i in digit if i < num_level]
        if not present:
            continue
        sub = d_coeff.take_primes(present)
        extended = extend_basis(          # stage 2: ModUp
            sub.data, RNSBasis(sub.moduli), target_basis
        )
        ext_poly = RnsPoly(extended, target_moduli, COEFF).to_eval()  # 3: NTT
        b_j, a_j = ksk.pairs[j]
        b_rows = _select_level_rows(b_j, num_level, full_len)
        a_rows = _select_level_rows(a_j, num_level, full_len)
        acc0 = acc0 + ext_poly * b_rows   # stage 4: InnerProduct
        acc1 = acc1 + ext_poly * a_rows

    main = RNSBasis(level_moduli)
    special = RNSBasis(tuple(special_moduli))
    out = []
    for acc in (acc0, acc1):
        coeff = acc.to_coeff()            # stage 5: INTT
        if plain_modulus is None:
            lowered = mod_down(coeff.data, main, special)  # 6: ModDown
        else:
            lowered = mod_down_exact_t(
                coeff.data, main, special, plain_modulus
            )
        out.append(RnsPoly(lowered, level_moduli, COEFF).to_eval())  # 7: NTT
    return out[0], out[1]


def hoisted_rotations_looped(ev: Evaluator, ct: Ciphertext,
                             steps: Sequence[int],
                             keys: KeySet) -> Dict[int, Ciphertext]:
    """The per-step reference pipeline (pre-batching implementation).

    Loop-invariant work is hoisted out of the inner loops: the full chain
    length is computed once, and each step's evk row selections once
    before its digit loop (they depend only on the key and the level,
    not on the digit pass).
    """
    steps = list(steps)
    passthrough = 0 in steps
    steps = [s for s in steps if s]
    missing = [s for s in steps if s not in keys.rotation]
    if missing:
        raise KeyError(f"missing rotation keys for steps {missing}")
    if not steps:
        return {0: ct} if passthrough else {}

    level_moduli = ct.moduli
    num_level = len(level_moduli)
    special = ev.p_moduli
    target_moduli = level_moduli + tuple(special)
    target_basis = RNSBasis(target_moduli)
    n = ct.n
    two_n = 2 * n

    # --- the hoisted part: decompose + extend c1 once -----------------------
    c1_coeff = ct.c1.to_coeff()
    any_key = keys.rotation[steps[0]]
    full_len = full_chain_length(any_key)
    groups, digit_indices = present_digits(any_key.digits, num_level)
    extended_digits: List[RnsPoly] = []
    for present in groups:
        sub = c1_coeff.take_primes(present)
        ext = extend_basis(sub.data, RNSBasis(sub.moduli), target_basis)
        extended_digits.append(RnsPoly(ext, target_moduli, COEFF))

    c0_coeff = ct.c0.to_coeff()
    main = RNSBasis(level_moduli)
    special_basis = RNSBasis(tuple(special))

    out: Dict[int, Ciphertext] = {}
    for step in steps:
        exponent = pow(5, step, two_n)
        ksk = keys.rotation[step]
        # Key-row selections depend only on (key, level): one pass per
        # step, outside the digit loop.
        rows = [
            (_select_level_rows(ksk.pairs[j][0], num_level, full_len),
             _select_level_rows(ksk.pairs[j][1], num_level, full_len))
            for j in digit_indices
        ]
        acc0 = RnsPoly.zero(target_moduli, n, EVAL)
        acc1 = RnsPoly.zero(target_moduli, n, EVAL)
        for ext_poly, (b_rows, a_rows) in zip(extended_digits, rows):
            # Automorphism commutes with the extension: permute the
            # already-extended digit, then NTT.
            rotated_digit = ext_poly.automorphism(exponent).to_eval()
            acc0 = acc0 + rotated_digit * b_rows
            acc1 = acc1 + rotated_digit * a_rows
        parts = []
        for acc in (acc0, acc1):
            lowered = mod_down(acc.to_coeff().data, main, special_basis)
            parts.append(
                RnsPoly(lowered, level_moduli, COEFF).to_eval()
            )
        rot0 = c0_coeff.automorphism(exponent).to_eval()
        out[step] = Ciphertext(
            rot0 + parts[0], parts[1], ct.level, ct.scale
        )
    if passthrough:
        out[0] = ct
    return out


def linear_transform_looped(lt: LinearTransform, ct: Ciphertext,
                            keys: KeySet) -> Ciphertext:
    """The per-diagonal reference pipeline of ``lt.apply``.

    One PMULT/FMA per diagonal, like the historical implementation, but
    reading the transform's compiled plaintext stack instead of
    re-encoding every diagonal on every call.
    """
    plan = lt.compile(ct.level)
    ev = lt.ctx.evaluator
    rotated = hoisted_rotations(ev, ct, plan.babies, keys)

    acc = None
    for g_rot, idx, stack in plan.groups:
        bs = [plan.babies[i] for i in idx]
        inner = None
        for m_idx, b in enumerate(bs):
            pt = Plaintext(
                poly=RnsPoly(stack[:, m_idx, :], plan.moduli, EVAL),
                scale=plan.pt_scale, level=plan.level,
            )
            if inner is None:
                inner = ev.pmult(rotated[b], pt)
            else:
                # In-place fused multiply-accumulate: one reduction
                # pass per diagonal instead of mul + add.
                m = pt.poly.to_eval()
                inner.c0.fma_(rotated[b].c0, m)
                inner.c1.fma_(rotated[b].c1, m)
        if lt.bsgs:
            inner = ev.rescale(inner)
            if g_rot:
                inner = ev.hrotate(inner, g_rot, keys)
        acc = inner if acc is None else ev.hadd_matched(acc, inner)
    return acc if lt.bsgs else ev.rescale(acc)
