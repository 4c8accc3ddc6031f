"""Golden plan pricing: every serially priced kernel plan reads bit-identically.

Covers the per-op plans of :class:`OperationScheduler` and
:class:`HundredXOps`, the five :class:`WarpDriveNtt` variants, the
single-stream :class:`TensorFheNtt` and TensorFHE's batched HMULT. Per
plan the golden file holds ``elapsed_us`` and a digest of the timeline
``(name, start_us, end_us, stream)``. Floats go through ``repr``, so a
digest moves on any change in the last bit. Launch-graph bookkeeping
(``index``/``deps``) is left out: it describes how a plan was scheduled,
not what it costs.

Regenerate the goldens (only when a pricing change is intended) with::

    PYTHONPATH=src python tests/gpusim/test_golden_plans.py --regen
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.baselines import HundredXOps, TensorFheNtt, TensorFheOps
from repro.ckks import ParameterSets
from repro.core import OperationScheduler, WarpDriveNtt
from repro.core.ntt_engine import VARIANTS

GOLDEN = Path(__file__).with_name("golden_plans.json")
SETS = ("SET-A", "SET-C", "SET-D", "SET-E", "Boot")
OPS = ("hadd", "pmult", "hmult", "hrotate", "rescale", "keyswitch")
LEVELS = ("top", 1)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _row(result) -> dict:
    return {
        "elapsed_us": result.elapsed_us,
        "timeline": _digest([(e.name, e.start_us, e.end_us, e.stream)
                             for e in result.entries]),
    }


def _level(params, level):
    return params.max_level if level == "top" else level


def _plans():
    """``(key, thunk)`` for every pinned plan; the thunk prices it."""
    plans = []
    for name, op, level in itertools.product(SETS, OPS, LEVELS):
        params = ParameterSets.by_name(name)
        lvl = _level(params, level)
        for batch in (1, 8):
            plans.append((
                f"wd/{name}/{op}/L{level}/b{batch}",
                lambda p=params, o=op, l=lvl, b=batch:
                    OperationScheduler(p).simulate(o, level=l, batch=b),
            ))
        plans.append((
            f"100x/{name}/{op}/L{level}",
            lambda p=params, o=op, l=lvl:
                HundredXOps(p).simulate(o, level=l),
        ))
    for variant, log2n, batch in itertools.product(
            VARIANTS, (12, 14, 16), (1, 16, 1024)):
        plans.append((
            f"ntt/{variant}/2^{log2n}/b{batch}",
            lambda v=variant, n=2**log2n, b=batch:
                WarpDriveNtt(n, variant=v).simulate(b),
        ))
    for log2n, batch in itertools.product((12, 16), (16, 1024)):
        plans.append((
            f"tfntt/2^{log2n}/b{batch}",
            lambda n=2**log2n, b=batch: TensorFheNtt(n).simulate(b),
        ))
    return plans


PLANS = _plans()
KEYS = tuple(key for key, _ in PLANS)
TF_HMULT = "tf/SET-A/hmult/b32"


def _compute():
    rows = {key: _row(thunk()) for key, thunk in PLANS}
    rows[TF_HMULT] = {"latency_us": TensorFheOps(
        ParameterSets.set_a()).hmult_latency_us(batch=32)}
    return rows


@pytest.fixture(scope="module")
def computed():
    return _compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_plan(golden):
    assert len(KEYS) == len(set(KEYS)) == 229
    assert sorted(golden) == sorted(KEYS + (TF_HMULT,))


@pytest.mark.parametrize("key", KEYS + (TF_HMULT,))
def test_plan_matches_golden(computed, golden, key):
    assert computed[key] == golden[key]


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: test_golden_plans.py --regen")
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
