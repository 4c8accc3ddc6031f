"""Hoisted rotations (Halevi-Shoup hoisting).

BSGS linear transforms — CoeffToSlot, convolutions, matrix-vector
products — rotate the *same* ciphertext by many steps. The expensive part
of each rotation is the key-switch ModUp (basis extension of every
digit); hoisting performs it **once** and shares the extended digits
across all rotations, because the Galois automorphism acts
coefficient-wise and therefore commutes with the (coefficient-wise) basis
extension.

The NTT of the extended digits is shared as well: the automorphism is
applied in the *evaluation* domain, where it is a pure slot permutation
(output slot ``k`` of the negacyclic NTT holds ``x(psi^(2k+1))``, so
``X -> X^t`` maps slot ``k`` to ``((t*(2k+1)) mod 2N) / 2`` — no sign
flips), and that permutation fuses into the inner product's loads: the
kernel streams the digit stack per step anyway, so gathering through the
table is an addressing mode, not an extra pass. Per extra rotation only
the inner product and the ModDown remain, exactly the accounting behind
the workload layer's hoisted-rotation discount. Those per-step parts are batched across all
requested steps too: the inner products reduce against per-step evk row
stacks in one wide-accumulator pass, and every accumulator (both
components of every step) shares one eval-domain ModDown, which
transforms only the special rows and the correction. The c0
leg never leaves the evaluation domain at all.

The tests keep the per-step pipeline as a bit-exactness oracle
(``tests/oracles``) and also verify each hoisted rotation decrypts to the
same message as a plain HROTATE.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..analysis.annotations import bounded
from ..trace.recorder import emit as _temit, span as _tspan
from ..ntt.stacked import (
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from ..numtheory.rns import RNSBasis, extend_basis_stacked
from .ciphertext import Ciphertext
from .keys import KeySet
from .ks_common import (
    eval_automorphism_table,
    mod_down_eval,
    present_digits,
    stacked_inner_product,
    stacked_key_rows,
)
from .ops import Evaluator
from .poly import EVAL, RnsPoly


@bounded()
def hoisted_rotations(ev: Evaluator, ct: Ciphertext, steps: Sequence[int],
                      keys: KeySet) -> Dict[int, Ciphertext]:
    """Rotate ``ct`` by every step in ``steps``, sharing one ModUp and
    batching the per-step tail across all steps.

    Requires a rotation key for each step. Returns ``{step: rotated}``.
    Bit-identical to the per-step reference pipeline. Step ``0`` is a
    passthrough — the input ciphertext itself — so BSGS callers can hand
    the whole baby-step list over without special-casing the identity.
    """
    steps = list(steps)
    passthrough = 0 in steps
    steps = [s for s in steps if s]
    missing = [s for s in steps if s not in keys.rotation]
    if missing:
        raise KeyError(f"missing rotation keys for steps {missing}")
    if not steps:
        return {0: ct} if passthrough else {}
    num_steps = len(steps)

    level_moduli = ct.moduli
    num_level = len(level_moduli)
    special = tuple(ev.p_moduli)
    target_moduli = level_moduli + special
    target_basis = RNSBasis(target_moduli)
    n = ct.n
    num_target = len(target_moduli)

    stack_level = get_shoup_stack(level_moduli, n)
    stack_target = get_shoup_stack(target_moduli, n)

    with _tspan("hoisted_rotations", level=ct.level):
        # --- the hoisted part: decompose, extend AND transform c1 once -----
        any_key = keys.rotation[steps[0]]
        groups, _ = present_digits(any_key.digits, num_level)
        c1_coeff = stacked_negacyclic_intt(ct.c1.data, stack_level)
        _temit("intt", rows=num_level, reads=(ct,), writes=(c1_coeff,))
        ext = extend_basis_stacked(
            c1_coeff, groups, RNSBasis(level_moduli), target_basis,
        )  # (L+K, G, N)
        num_digits = ext.shape[1]
        _temit("modup", source_primes=max(len(g) for g in groups),
               target_primes=num_target, polys=num_digits,
               reads=(c1_coeff,), writes=(ext,))

        # One stacked NTT over the digits, shared by every step (the
        # automorphism moves to the eval domain below).
        ext_eval = stacked_negacyclic_ntt(ext, stack_target)
        _temit("ntt", rows=num_target * num_digits, panes=num_digits,
               reads=(ext,), writes=(ext_eval,))

        # --- every step's automorphism as one eval-domain gather -----------
        # The gather is *fused into the inner product's loads*: the kernel
        # already streams the full digit stack per step, and reading it
        # through the permutation table costs index arithmetic, not a
        # separate gmem round trip. The numpy expression below is the
        # functional stand-in for that addressing mode, so no kernel is
        # emitted for it — the inner product event depends directly on the
        # shared digit NTT.
        src = np.stack([
            eval_automorphism_table(pow(5, s, 2 * n), n) for s in steps
        ])  # (S, N)
        rot_eval = np.ascontiguousarray(
            ext_eval[:, :, src].transpose(0, 2, 1, 3)
        )  # (L+K, S, G, N)

        # --- inner products against every step's key, one wide reduction ---
        key_stacks = [stacked_key_rows(keys.rotation[s], num_level)
                      for s in steps]
        b_stack = np.stack(
            [ks[0] for ks in key_stacks], axis=1
        )  # (L+K, S, G, N)
        a_stack = np.stack([ks[1] for ks in key_stacks], axis=1)
        acc0, acc1 = stacked_inner_product(
            rot_eval, b_stack, a_stack, target_basis.batch
        )  # each (L+K, S, N)
        _temit("inner_product", primes=num_target, digits=num_digits,
               accumulators=2, steps=num_steps, reads=(ext_eval,),
               writes=(acc0, acc1),
               key_material=tuple(keys.rotation[s] for s in steps))

        # --- batched tail: one eval-domain ModDown of every accumulator ----
        # Only the K special rows visit the coefficient domain on the host;
        # the events describe the priced plan's full-width INTT and NTT.
        acc = np.concatenate([acc0, acc1], axis=1)  # (L+K, 2S, N)
        parts = mod_down_eval(
            acc, RNSBasis(level_moduli), RNSBasis(special)
        )  # (L, 2S, N)
        eid = _temit("intt", rows=2 * num_steps * num_target,
                     panes=2 * num_steps, reads=(acc0, acc1))
        eid = _temit("moddown", main_primes=num_level,
                     special_primes=len(special), polys=2 * num_steps,
                     deps=(eid,))
        _temit("ntt", rows=2 * num_steps * num_level, panes=2 * num_steps,
               deps=(eid,), writes=(parts,))

        # --- c0 leg: eval-domain gathers only (no transforms at all) -------
        rot0_eval = ct.c0.data[:, src]  # (L, S, N)
        _temit("automorphism", primes=num_level, polys=num_steps,
               reads=(ct,), writes=(rot0_eval,), args=tuple(steps),
               scale=ct.scale)

        out: Dict[int, Ciphertext] = {}
        for s_idx, step in enumerate(steps):
            part0 = RnsPoly(
                np.ascontiguousarray(parts[:, s_idx]), level_moduli, EVAL
            )
            part1 = RnsPoly(
                np.ascontiguousarray(parts[:, num_steps + s_idx]),
                level_moduli, EVAL,
            )
            rot0_poly = RnsPoly(
                np.ascontiguousarray(rot0_eval[:, s_idx]), level_moduli, EVAL
            )
            out[step] = Ciphertext(
                rot0_poly + part0, part1, ct.level, ct.scale
            )
        _temit("modadd", rows=num_steps * num_level,
               reads=(parts, rot0_eval), writes=tuple(out.values()),
               scale=ct.scale)
    if passthrough:
        out[0] = ct
    return out
