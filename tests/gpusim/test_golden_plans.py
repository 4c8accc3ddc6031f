"""Golden plan pricing: every serially priced kernel plan reads bit-identically.

Covers the per-op plans of :class:`OperationScheduler` and
:class:`HundredXOps`, the five :class:`WarpDriveNtt` variants, the
single-stream :class:`TensorFheNtt` and TensorFHE's batched HMULT. Per
plan the golden file holds ``elapsed_us`` and the timeline columns
``name``/``start_us``/``end_us``/``stream``. Launch-graph bookkeeping
(``index``/``deps``) is left out: it describes how a plan was scheduled,
not what it costs.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.baselines import HundredXOps, TensorFheNtt, TensorFheOps
from repro.ckks import ParameterSets
from repro.core import OperationScheduler, WarpDriveNtt
from repro.core.ntt_engine import VARIANTS
from tests.golden import Golden, columns

SETS = ("SET-A", "SET-C", "SET-D", "SET-E", "Boot")
OPS = ("hadd", "pmult", "hmult", "hrotate", "rescale", "keyswitch")
LEVELS = ("top", 1)


def _row(result) -> dict:
    return {
        "elapsed_us": result.elapsed_us,
        "timeline": columns(result.entries, "name", "start_us", "end_us",
                            "stream"),
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


GOLDEN = Golden(Path(__file__).with_name("golden_plans.json"), _compute)


@pytest.fixture(scope="module")
def computed():
    return _compute()


def test_golden_covers_every_plan():
    assert len(KEYS) == len(set(KEYS)) == 229
    assert GOLDEN.cases() == sorted(KEYS + (TF_HMULT,))


@pytest.mark.parametrize("key", KEYS + (TF_HMULT,))
def test_plan_matches_golden(computed, key):
    GOLDEN.check(key, computed[key])
