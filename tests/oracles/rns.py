"""The bigint-free GHS ModDown on coefficient-domain rows, kept as a
test reference.

BGV/BFV key and modulus switching run
:func:`repro.ckks.ks_common.mod_down_eval` with ``plain_modulus=t``, which
inverse-transforms only the special rows; :func:`mod_down_exact_t` is the
whole-row coefficient-domain form it must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.annotations import bounded
from repro.numtheory.rns import (
    RNSBasis,
    _check_mod_down_rows,
    divide_by_special,
    mod_down_delta,
)


@bounded(in_q=1, out_q=1, params={"residues": {"q": 1}})
def mod_down_exact_t(residues: np.ndarray, main: RNSBasis,
                     special: RNSBasis, t: int) -> np.ndarray:
    """BGV/BFV-style ModDown: divide by ``P`` *preserving residues mod t*.

    CKKS tolerates ModDown's rounding as noise; BGV cannot — the rounding
    must be a multiple of the plaintext modulus ``t`` (see
    :func:`~repro.numtheory.rns.mod_down_delta`).
    """
    _check_mod_down_rows(residues, main, special)
    n_main = len(main)
    delta = mod_down_delta(residues[n_main:], main, special,
                           plain_modulus=t)
    return divide_by_special(residues[:n_main], delta, main, special)
