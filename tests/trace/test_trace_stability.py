"""Golden trace stability: host-side rewrites must not move the trace.

Every recorded event describes a stage of the priced PE plan, so a change
that only alters *how* the functional layer computes a result (which rows
it transforms, which domain it permutes in) must leave the recordings —
and therefore every simulated price — untouched. This suite pins every
:class:`~repro.trace.ir.TraceEvent` field, one column per field, for a
fixed set of recordings, and every ``KernelSpec`` field of every
:meth:`~repro.core.scheduler.OperationScheduler.plan` at the ``small``
parameter set.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.ckks import CkksContext, ParameterSets, hoisted_rotations
from repro.core.scheduler import HOMOMORPHIC_OPS, OperationScheduler
from repro.trace.recorder import record
from tests.golden import Golden, columns


def _record(params, seed, run):
    ctx = CkksContext.create(params, seed=seed)
    keys = ctx.keygen(rotations=[1, 2, 3], conjugation=True)
    ct = ctx.encrypt([0.5, -0.25, 0.125], keys)
    with record("golden", params=params) as rec:
        run(ctx, ctx.evaluator, ct, keys)
    return columns(rec.trace.events)


def _recordings():
    toy = ParameterSets.toy()
    two = ParameterSets.double_rescale_toy()
    return {
        "hrotate": (toy, lambda c, ev, ct, k: ev.hrotate(ct, 1, k)),
        "hrotate_low": (toy, lambda c, ev, ct, k: ev.hrotate(
            ev.level_down(ct, 1), 3, k)),
        "conjugate": (toy, lambda c, ev, ct, k: ev.conjugate(ct, k)),
        "rescale_1": (toy, lambda c, ev, ct, k: ev.rescale(ct)),
        "rescale_2": (two, lambda c, ev, ct, k: ev.rescale(ct)),
        "hmult": (toy, lambda c, ev, ct, k: ev.hmult(ct, ct, k)),
        "hmult_2": (two, lambda c, ev, ct, k: ev.hmult(ct, ct, k)),
        "relinearize": (toy, lambda c, ev, ct, k: ev.relinearize(
            ct.c0, ct.c1, ct.c1, k)),
        "hoisted_rotations": (toy, lambda c, ev, ct, k: hoisted_rotations(
            ev, ct, [0, 1, 2, 3], k)),
    }


def _plans():
    sched = OperationScheduler(ParameterSets.small())
    return {
        f"plan/{op}@{'max' if level is None else level}":
            columns(sched.plan(op, level=level))
        for op in HOMOMORPHIC_OPS for level in (None, 1)
    }


def _compute():
    traces = {
        f"trace/{name}": _record(params, seed, run)
        for seed, (name, (params, run)) in enumerate(_recordings().items())
    }
    return {**traces, **_plans()}


GOLDEN = Golden(Path(__file__).with_name("golden_trace_stability.json"),
                _compute)


@pytest.mark.parametrize("name", sorted(_recordings()))
def test_recording_matches_golden(name):
    params, run = _recordings()[name]
    seed = list(_recordings()).index(name)
    GOLDEN.check(f"trace/{name}", _record(params, seed, run))


def test_scheduler_plans_match_golden():
    plans = _plans()
    assert sorted(plans) == GOLDEN.cases("plan/")
    for case, plan in plans.items():
        GOLDEN.check(case, plan)

