"""Cold vs warm profile memo: pricing a catalog trace reads the same.

Every catalog kind is lowered in both styles at two batch sizes, with
and without the optimizer and schedule search, once on an emptied memo
and again with every profile already memoised; run_dag's timeline,
the search scores and the static HBM certificate must not move.
"""

import itertools

import pytest

from repro.analysis.dagcheck import static_hbm_certificate
from repro.core.scheduler import OperationScheduler
from repro.gpusim import A100_PCIE_80G, reset_cache_stats
from repro.serving.jobs import DEFAULT_JOB_KINDS, default_catalog
from repro.trace.lowering import lower_trace
from repro.trace.opt import optimize_trace, schedule_search

DEV = A100_PCIE_80G
COMBOS = tuple(itertools.product(DEFAULT_JOB_KINDS, ("pe", "kf"), (1, 8),
                                 (False, True)))


def price(classes, combo):
    kind, style, batch, optimize = combo
    trace = classes[kind].recorder()
    if optimize:
        trace, _ = optimize_trace(trace)
    sched = OperationScheduler(classes[kind].params, device=DEV)
    dag = lower_trace(trace, params=sched.params, style=style, device=DEV,
                      ntt_variant=sched.ntt.variant,
                      geometry=sched.geometry, batch=batch)
    scores = None
    if optimize:
        dag, scores = schedule_search(dag, DEV)
    result = dag.run(DEV)
    timeline = [(e.start_us, e.end_us, e.stream, e.index)
                for e in result.entries]
    return (result.elapsed_us, timeline, scores,
            static_hbm_certificate(dag, DEV).peak_bytes)


@pytest.fixture(scope="module")
def classes():
    classes = default_catalog().classes
    for cls in classes.values():
        cls.recorder()  # record outside the cold pass
    return classes


def test_warm_memo_prices_like_cold(classes):
    reset_cache_stats()
    cold = {combo: price(classes, combo) for combo in COMBOS}
    for combo in COMBOS:
        assert price(classes, combo) == cold[combo], combo
