"""Golden pricing: the record -> lower -> price path reads bit-identically.

Every catalog kind is lowered in both styles (``pe``/``kf``) at batch 1
and 8, with and without the optimizer. Per combination the golden file
holds the ``run_dag`` latency, every ``schedule_search`` strategy score,
the static HBM certificate, and digests of the searched node order (as
eid tuples), the ``run_dag`` timeline ``(index, start, end, stream)``
and dagcheck's ``predicted_schedule`` windows. Floats go through
``repr``, so a digest moves on any change in the last bit.

Regenerate the goldens (only when a pricing change is intended) with::

    PYTHONPATH=src python tests/trace/test_golden_pricing.py --regen
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.dagcheck import static_hbm_certificate
from repro.analysis.dagcheck.memory import predicted_schedule
from repro.core.scheduler import OperationScheduler
from repro.gpusim import A100_PCIE_80G
from repro.serving.jobs import DEFAULT_JOB_KINDS, default_catalog
from repro.trace.lowering import lower_trace
from repro.trace.opt import optimize_trace, schedule_search

GOLDEN = Path(__file__).with_name("golden_pricing.json")
DEV = A100_PCIE_80G
COMBOS = tuple(itertools.product(DEFAULT_JOB_KINDS, ("pe", "kf"), (1, 8),
                                 (False, True)))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _price(classes, combo):
    kind, style, batch, optimize = combo
    trace = classes[kind].recorder()
    if optimize:
        trace, _ = optimize_trace(trace)
    sched = OperationScheduler(classes[kind].params, device=DEV)
    dag = lower_trace(trace, params=sched.params, style=style, device=DEV,
                      ntt_variant=sched.ntt.variant,
                      geometry=sched.geometry, batch=batch)
    dag, scores = schedule_search(dag, DEV)
    result = dag.run(DEV)
    return {
        "nodes": dag.kernel_count,
        "sim_us": result.elapsed_us,
        "scores": scores,
        "cert_bytes": static_hbm_certificate(dag, DEV).peak_bytes,
        "order": _digest([nd.eids for nd in dag.nodes]),
        "timeline": _digest([(e.index, e.start_us, e.end_us, e.stream)
                             for e in result.entries]),
        "windows": _digest(predicted_schedule(dag, DEV)),
    }


def _key(combo) -> str:
    kind, style, batch, optimize = combo
    return f"{kind}/{style}/b{batch}/{'opt' if optimize else 'raw'}"


def _compute():
    classes = default_catalog().classes
    return {_key(combo): _price(classes, combo) for combo in COMBOS}


@pytest.fixture(scope="module")
def computed():
    return _compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_combo(golden):
    assert sorted(golden) == sorted(_key(c) for c in COMBOS)


@pytest.mark.parametrize("combo", COMBOS, ids=_key)
def test_pricing_matches_golden(computed, golden, combo):
    assert computed[_key(combo)] == golden[_key(combo)]


def test_searched_latency_is_the_best_score(computed):
    for key, row in computed.items():
        assert row["sim_us"] == min(row["scores"].values()), key


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: test_golden_pricing.py --regen")
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
