"""Golden pricing: the record -> lower -> price path reads bit-identically.

Every catalog kind is lowered in both styles (``pe``/``kf``) at batch 1
and 8, with and without the optimizer. Per combination the golden file
holds the ``run_dag`` latency, every ``schedule_search`` strategy score,
the static HBM certificate, the searched node order (eid tuples), the
timeline columns, dagcheck's ``predicted_schedule`` windows, and the
latency and timeline of the DAG as lowered, before the search.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.analysis.dagcheck import static_hbm_certificate
from repro.analysis.dagcheck.memory import predicted_schedule
from repro.core.scheduler import OperationScheduler
from repro.gpusim import A100_PCIE_80G
from repro.serving.jobs import DEFAULT_JOB_KINDS, default_catalog
from repro.trace.lowering import lower_trace
from repro.trace.opt import optimize_trace, schedule_search
from tests.golden import Golden, columns

DEV = A100_PCIE_80G
COMBOS = tuple(itertools.product(DEFAULT_JOB_KINDS, ("pe", "kf"), (1, 8),
                                 (False, True)))
TIMELINE = ("index", "start_us", "end_us", "stream")


def price(classes, combo) -> dict:
    kind, style, batch, optimize = combo
    trace = classes[kind].recorder()
    if optimize:
        trace, _ = optimize_trace(trace)
    sched = OperationScheduler(classes[kind].params, device=DEV)
    lowered = lower_trace(trace, params=sched.params, style=style,
                          device=DEV, ntt_variant=sched.ntt.variant,
                          geometry=sched.geometry, batch=batch)
    unsearched = lowered.run(DEV)
    dag, scores = schedule_search(lowered, DEV)
    result = dag.run(DEV)
    return {
        "nodes": dag.kernel_count,
        "sim_us": result.elapsed_us,
        "scores": scores,
        "cert_bytes": static_hbm_certificate(dag, DEV).peak_bytes,
        "order": [nd.eids for nd in dag.nodes],
        "timeline": columns(result.entries, *TIMELINE),
        "windows": predicted_schedule(dag, DEV),
        "unsearched": {
            "elapsed_us": unsearched.elapsed_us,
            "timeline": columns(unsearched.entries, *TIMELINE),
        },
    }


def key(combo) -> str:
    kind, style, batch, optimize = combo
    return f"{kind}/{style}/b{batch}/{'opt' if optimize else 'raw'}"


def _compute():
    classes = default_catalog().classes
    return {key(combo): price(classes, combo) for combo in COMBOS}


GOLDEN = Golden(Path(__file__).with_name("golden_pricing.json"), _compute)


@pytest.fixture(scope="module")
def computed():
    return _compute()


def test_golden_covers_every_combo():
    assert GOLDEN.cases() == sorted(key(c) for c in COMBOS)


@pytest.mark.parametrize("combo", COMBOS, ids=key)
def test_pricing_matches_golden(computed, combo):
    GOLDEN.check(key(combo), computed[key(combo)])


def test_searched_latency_is_the_best_score(computed):
    for case, row in computed.items():
        assert row["sim_us"] == min(row["scores"].values()), case
