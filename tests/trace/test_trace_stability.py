"""Golden trace stability: host-side rewrites must not move the trace.

Every recorded event describes a stage of the priced PE plan, so a change
that only alters *how* the functional layer computes a result (which rows
it transforms, which domain it permutes in) must leave the recordings —
and therefore every simulated price — untouched. This suite pins a short
hash of ``(kind, op, span, level, shape, deps, args, key, scale)`` per
event for a fixed set of recordings, plus a hash of every
:meth:`~repro.core.scheduler.OperationScheduler.plan` at the ``small``
parameter set.

Regenerate the goldens (only when a trace change is intended) with::

    PYTHONPATH=src python tests/trace/test_trace_stability.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.ckks import CkksContext, ParameterSets, hoisted_rotations
from repro.core.scheduler import HOMOMORPHIC_OPS, OperationScheduler
from repro.trace.recorder import record

GOLDEN = Path(__file__).with_name("golden_trace_stability.json")


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _event_hashes(trace):
    return [
        _digest((e.kind, e.op, e.span, e.level,
                 tuple(sorted(e.shape.items())), e.deps, e.args, e.key,
                 e.scale))
        for e in trace.events
    ]


def _record(params, seed, run):
    ctx = CkksContext.create(params, seed=seed)
    keys = ctx.keygen(rotations=[1, 2, 3], conjugation=True)
    ct = ctx.encrypt([0.5, -0.25, 0.125], keys)
    with record("golden", params=params) as rec:
        run(ctx, ctx.evaluator, ct, keys)
    return _event_hashes(rec.trace)


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


def _plan_hashes():
    sched = OperationScheduler(ParameterSets.small())
    out = {}
    for op in HOMOMORPHIC_OPS:
        for level in (None, 1):
            plan = sched.plan(op, level=level)
            out[f"{op}@{'max' if level is None else level}"] = [
                _digest(dataclasses.astuple(spec)) for spec in plan
            ]
    return out


def _compute():
    traces = {
        name: _record(params, seed, run)
        for seed, (name, (params, run)) in enumerate(_recordings().items())
    }
    return {"traces": traces, "plans": _plan_hashes()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_recordings()))
def test_recording_matches_golden(golden, name):
    params, run = _recordings()[name]
    seed = list(_recordings()).index(name)
    assert _record(params, seed, run) == golden["traces"][name]


def test_scheduler_plans_match_golden(golden):
    assert _plan_hashes() == golden["plans"]


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: test_trace_stability.py --regen")
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
