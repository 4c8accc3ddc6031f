"""HELR: logistic regression over CKKS (Table XIV "HELR").

Two layers, as everywhere in this reproduction:

* :func:`helr_iteration_schedule` — the full-scale operation schedule of
  one training iteration [25] (BSGS matrix-vector products for the
  forward pass and gradient, a degree-3 polynomial sigmoid, one recorded
  bootstrap amortized over every ``boot_period`` iterations), priced by
  the simulator;
* :class:`EncryptedLogisticRegression` — a *functional* mini-HELR that
  actually trains on encrypted data at toy ring sizes, validated against
  plaintext gradient descent in tests.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..ckks import CkksContext, ParameterSets
from ..ckks.params import CkksParams
from ..core.scheduler import OperationScheduler
from .schedules import WorkloadSchedule, WorkloadTiming

#: Degree-3 least-squares fit of the sigmoid on [-8, 8] from [25].
SIGMOID3_COEFFS = (0.5, 0.15012, 0.0, -0.0015930)


def helr_iteration_schedule(params: CkksParams = None, *,
                            features: int = 196,
                            boot_period: int = 2) -> WorkloadSchedule:
    """One HELR training iteration at the paper's HELR parameter set."""
    params = params or ParameterSets.helr()
    top = params.max_level
    sched = WorkloadSchedule("HELR-iteration")
    rot_groups = max(1, int(math.isqrt(features)))
    for phase, lvl in (("forward", top), ("gradient", top - 3)):
        # BSGS matrix-vector product: one full rotation then hoisted ones.
        sched.add("hrotate", lvl, 1, note=f"{phase}.rot")
        sched.add("hrotate", lvl, 2 * rot_groups - 1, hoisted=True,
                  note=f"{phase}.rot")
        sched.add("pmult", lvl, rot_groups, note=f"{phase}.pmult")
        sched.add("hadd", lvl, rot_groups, note=f"{phase}.add")
        sched.add("rescale", lvl, 1, note=f"{phase}.rescale")
    # Degree-3 sigmoid: two ciphertext products plus coefficient PMULTs.
    sched.add("hmult", top - 2, 2, note="sigmoid.hmult")
    sched.add("pmult", top - 2, 3, note="sigmoid.pmult")
    sched.add("hadd", top - 2, 3, note="sigmoid.add")
    # Weight update.
    sched.add("pmult", top - 5, 1, note="update.pmult")
    sched.add("hadd", top - 5, 1, note="update.add")
    # Amortized bootstrapping.
    sched.bootstraps = 1 / boot_period
    return sched


def simulate_helr_iteration(params: CkksParams = None, *, batch: int = 1,
                            scheduler: OperationScheduler = None
                            ) -> WorkloadTiming:
    """Amortized ms/iteration (the Table XIV HELR metric)."""
    params = params or ParameterSets.helr()
    scheduler = scheduler or OperationScheduler(params)
    return helr_iteration_schedule(params).price(scheduler, batch=batch)


class EncryptedLogisticRegression:
    """Functional mini-HELR: gradient descent on encrypted samples.

    One sample's feature vector per ciphertext (zero-padded to the slot
    count). Per iteration and sample: a slot-wise product with the
    encrypted weights, a rotation all-reduce to broadcast ``z = x.w`` to
    every slot, the degree-3 polynomial sigmoid, and a masked gradient
    accumulation — all under encryption. Tests validate against
    :func:`plaintext_reference`.
    """

    def __init__(self, ctx: CkksContext, keys, *, learning_rate: float = 1.0):
        self.ctx = ctx
        self.keys = keys
        self.lr = learning_rate

    # -- public API ---------------------------------------------------------------

    def train(self, x: np.ndarray, y: np.ndarray, *,
              iterations: int = 2) -> np.ndarray:
        """Train and return the decrypted weights (features <= slots)."""
        samples, features = x.shape
        if features > self.ctx.slots:
            raise ValueError("toy HELR requires features <= slots")
        ev = self.ctx.evaluator
        c0, c1, _, c3 = SIGMOID3_COEFFS

        ct_x = [self.ctx.encrypt(x[i], self.keys) for i in range(samples)]
        ct_w = self.ctx.encrypt(np.zeros(features), self.keys)

        # The gradient plaintext of sample i depends only on (i, level):
        # memoize so later iterations (which revisit the same levels)
        # never re-encode.
        pt_cache = {}

        def pt_sample(i, level):
            key = (i, level)
            if key not in pt_cache:
                pt_cache[key] = self.ctx.encode(x[i], level=level)
            return pt_cache[key]

        for _ in range(iterations):
            grad_acc = None
            for i in range(samples):
                lvl = min(ct_w.level, ct_x[i].level)
                prod = ev.hmult(ev.level_down(ct_x[i], lvl),
                                ev.level_down(ct_w, lvl), self.keys)
                ct_z = self._allreduce(prod)  # z in every slot
                # sigma(z) = c0 + c1 z + c3 z^3.
                ct_z2 = ev.hmult(ct_z, ct_z, self.keys)
                ct_z3 = ev.hmult(ct_z2, ev.level_down(ct_z, ct_z2.level),
                                 self.keys)
                ct_sig = ev.add_scalar(
                    ev.rescale(ev.hadd_matched(
                        ev.rescale(ev.pmult_scalar(ct_z, c1)),
                        ev.pmult_scalar(ct_z3, c3),
                    )),
                    c0 - float(y[i]),  # fold the label subtraction in
                )
                # gradient contribution: (sigma - y) * x_i.
                pt_x = pt_sample(i, ct_sig.level)
                ct_g = ev.rescale(ev.pmult(ct_sig, pt_x))
                grad_acc = ct_g if grad_acc is None else ev.hadd_matched(
                    ev.level_down(grad_acc,
                                  min(grad_acc.level, ct_g.level)),
                    ev.level_down(ct_g, min(grad_acc.level, ct_g.level)),
                )
            ct_step = ev.rescale(
                ev.pmult_scalar(grad_acc, -self.lr / samples)
            )
            ct_w = ev.hadd_matched(
                ev.level_down(ct_w, min(ct_w.level, ct_step.level)),
                ev.level_down(ct_step, min(ct_w.level, ct_step.level)),
            )
        return self.ctx.decrypt_decode_real(ct_w, self.keys)[:features]

    def _allreduce(self, ct):
        """Rotation all-reduce: every slot becomes the sum of all slots."""
        ev = self.ctx.evaluator
        step = 1
        while step < self.ctx.slots:
            ct = ev.hadd(ct, ev.hrotate(ct, step, self.keys))
            step *= 2
        return ct

    @staticmethod
    def required_rotations(slots: int) -> List[int]:
        rots = []
        step = 1
        while step < slots:
            rots.append(step)
            step *= 2
        return rots


def plaintext_reference(x: np.ndarray, y: np.ndarray, *, iterations: int,
                        learning_rate: float = 1.0) -> np.ndarray:
    """The same training loop in the clear (degree-3 sigmoid)."""
    c0, c1, _, c3 = SIGMOID3_COEFFS
    samples, features = x.shape
    w = np.zeros(features)
    for _ in range(iterations):
        z = x @ w
        sig = c0 + c1 * z + c3 * z**3
        grad = (sig - y) @ x / samples
        w = w - learning_rate * grad
    return w
