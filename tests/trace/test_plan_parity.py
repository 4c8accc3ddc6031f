"""Per-op plans recorded on the proxy ring match full-ring recordings.

``OperationScheduler.plan`` records each functional op once on a proxy
ring that shares the parameter set's modulus chain and lowers the
recording at the full ring. The property that rests on: for every op in
``HOMOMORPHIC_OPS``, recording the functional op at the full ring and
lowering it PE-style yields exactly the same kernel specs.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.params import ParameterSets
from repro.core import OperationScheduler
from repro.core.scheduler import HOMOMORPHIC_OPS, PROXY_LOG2N
from repro.trace import lower_trace
from repro.trace.recorder import record

PARAMS = ParameterSets.small()


@pytest.fixture(scope="module")
def setup():
    assert PARAMS.n > 2 ** PROXY_LOG2N  # the plan really is a proxy
    scheduler = OperationScheduler(PARAMS)
    ctx = CkksContext.create(PARAMS, seed=7)
    keys = ctx.keygen(rotations=[1])
    vals = np.zeros(ctx.slots)
    vals[:3] = [0.5, -0.25, 0.125]
    ct = ctx.encrypt(vals, keys)
    ct2 = ctx.encrypt(vals, keys)
    pt = ctx.encode(vals, level=ct.level)
    return scheduler, ctx, keys, ct, ct2, pt


def traced_dag(scheduler, run):
    with record("op", params=PARAMS) as rec:
        run()
    return lower_trace(
        rec.trace, params=scheduler.params, style="pe",
        device=scheduler.device, ntt_variant=scheduler.ntt.variant,
        geometry=scheduler.geometry,
    )


def functional_call(op, ctx, keys, ct, ct2, pt):
    ev = ctx.evaluator
    if op == "hadd":
        return lambda: ev.hadd(ct, ct2)
    if op == "hsub":
        return lambda: ev.hsub(ct, ct2)
    if op == "pmult":
        return lambda: ev.pmult(ct, pt)
    if op == "hmult":
        return lambda: ev.hmult(ct, ct2, keys)
    if op == "hrotate":
        return lambda: ev.hrotate(ct, 1, keys)
    if op == "rescale":
        scaled = ev.pmult(ct, pt)
        return lambda: ev.rescale(scaled)
    if op == "keyswitch":
        return lambda: ev.relinearize(ct.c0, ct.c1, ct2.c1, keys)
    raise AssertionError(f"unhandled op {op!r}")


@pytest.mark.parametrize("op", HOMOMORPHIC_OPS)
def test_traced_op_matches_plan(op, setup):
    scheduler, ctx, keys, ct, ct2, pt = setup
    dag = traced_dag(scheduler, functional_call(op, ctx, keys, ct, ct2, pt))
    assert dag.specs == scheduler.plan(op, level=ct.level)


def test_hmult_contains_full_keyswitch_and_rescale(setup):
    scheduler, ctx, keys, ct, ct2, pt = setup
    dag = traced_dag(scheduler, functional_call(
        "hmult", ctx, keys, ct, ct2, pt))
    names = [nd.spec.name for nd in dag.nodes]
    assert names[0] == "hmult.tensor_product"
    assert "keyswitch.inner_product" in names
    assert names[-1] == "rescale.ntt"
    assert len(names) == 1 + scheduler.kernel_count("keyswitch") + \
        scheduler.kernel_count("rescale")
