"""Microbenchmark: per-digit key-switch loop vs the digit-batched pipeline.

Key-switching is the paper's costliest primitive (Tables III/IX). PR 1
vectorized each stage across the prime dimension; this bench measures the
next axis of parallelism — the decomposition digits of ``keyswitch()``
and the rotation steps of ``hoisted_rotations()`` — comparing the
preserved per-digit/per-step reference implementations against the fused
stacked pipelines (lazy-ModUp + Shoup-kernel stacked NTT + wide-MAC
inner product + batched ModDown).

Both paths are asserted bit-identical before any timing. The reference
pipelines are test oracles (``tests/oracles``), so run from the repo root
with the root on ``PYTHONPATH``::

    PYTHONPATH=src:. python benchmarks/bench_keyswitch.py            # full run
    PYTHONPATH=src:. python benchmarks/bench_keyswitch.py --reps 1   # CI smoke

Results land in ``BENCH_keyswitch.json`` (see ``--out``); the committed
headline is the batched-vs-looped keyswitch speedup at SET-C
(``n=2**14, dnum=15``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

# One BLAS thread, pinned as bench/run.py pins it: the numpy NTT runs as
# dgemm, and a multithreaded BLAS sharing the host with another process
# turns its timings into scheduler noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from repro.ckks import CkksContext, ParameterSets
from repro.ckks.hoisting import hoisted_rotations
from repro.ckks.keyswitch import keyswitch
from repro.ckks.poly import EVAL, RnsPoly
from repro.numtheory.rns import RNSBasis
from tests.oracles import hoisted_rotations_looped, keyswitch_looped

#: Key-switch configs: the paper's SET-B and SET-C (Table VI), whose
#: digits are single primes, and the small set (dnum=3, alpha=3), which
#: runs the general multi-prime ModUp.
KS_SETS = ["small", "set_b", "set_c"]
HEADLINE_SET = "SET-C"
#: Hoisted-rotation config: SET-B, batching across 8 rotation steps.
HOIST_SET = "set_b"
HOIST_STEPS = list(range(1, 9))


def best_of(fn, reps):
    """Best-of-``reps`` wall time in seconds (one untimed warmup)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_pair_equal(ref, got, what):
    for r, g, part in zip(ref, got, ("ks0", "ks1")):
        if r != g:
            raise AssertionError(
                f"batched {what} disagrees with the looped reference "
                f"({part})"
            )


def bench_keyswitch_config(set_name, reps, rng):
    params = getattr(ParameterSets, set_name)()
    ctx = CkksContext.create(params, seed=0)
    keys = ctx.keygen()
    ev = ctx.evaluator
    d = RnsPoly(
        RNSBasis(ev.q_moduli).random(params.n, rng), ev.q_moduli, EVAL
    )

    looped = lambda: keyswitch_looped(d, keys.relin, ev.p_moduli)
    batched = lambda: keyswitch(d, keys.relin, ev.p_moduli)
    _assert_pair_equal(looped(), batched(), f"keyswitch at {params.name}")

    t_looped = best_of(looped, reps)
    t_batched = best_of(batched, reps)
    return {
        "op": "keyswitch",
        "set": params.name,
        "n": params.n,
        "dnum": params.dnum,
        "num_primes": params.num_primes,
        "looped_ms": t_looped * 1e3,
        "batched_ms": t_batched * 1e3,
        "speedup": t_looped / t_batched,
    }


def bench_hoisting_config(set_name, steps, reps, rng):
    params = getattr(ParameterSets, set_name)()
    ctx = CkksContext.create(params, seed=0)
    keys = ctx.keygen(rotations=steps)
    ev = ctx.evaluator
    ct = ctx.encrypt(
        list(rng.standard_normal(params.slots)), keys
    )

    looped = lambda: hoisted_rotations_looped(ev, ct, steps, keys)
    batched = lambda: hoisted_rotations(ev, ct, steps, keys)
    ref, got = looped(), batched()
    for s in steps:
        if ref[s].c0 != got[s].c0 or ref[s].c1 != got[s].c1:
            raise AssertionError(
                f"batched hoisted rotation disagrees at step {s}"
            )

    t_looped = best_of(looped, reps)
    t_batched = best_of(batched, reps)
    return {
        "op": "hoisted_rotations",
        "set": params.name,
        "n": params.n,
        "dnum": params.dnum,
        "num_steps": len(steps),
        "looped_ms": t_looped * 1e3,
        "batched_ms": t_batched * 1e3,
        "speedup": t_looped / t_batched,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per config (best-of)")
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_keyswitch.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")

    rng = np.random.default_rng(0)
    report = {
        "bench": "bench_keyswitch",
        "description": (
            "per-digit/per-step key-switch loop vs digit- and "
            "step-batched pipeline"
        ),
        "reps": args.reps,
        "configs": [],
    }
    for set_name in KS_SETS:
        cfg = bench_keyswitch_config(set_name, args.reps, rng)
        report["configs"].append(cfg)
        print(f"keyswitch  {cfg['set']:6s} N=2^{cfg['n'].bit_length() - 1} "
              f"dnum={cfg['dnum']:2d}:  "
              f"looped {cfg['looped_ms']:8.1f} ms  "
              f"batched {cfg['batched_ms']:8.1f} ms  "
              f"speedup {cfg['speedup']:.2f}x")

    cfg = bench_hoisting_config(HOIST_SET, HOIST_STEPS, args.reps, rng)
    report["configs"].append(cfg)
    print(f"hoisting   {cfg['set']:6s} N=2^{cfg['n'].bit_length() - 1} "
          f"steps={cfg['num_steps']}:  "
          f"looped {cfg['looped_ms']:8.1f} ms  "
          f"batched {cfg['batched_ms']:8.1f} ms  "
          f"speedup {cfg['speedup']:.2f}x")

    headline = next(
        c for c in report["configs"]
        if c["op"] == "keyswitch" and c["set"] == HEADLINE_SET
    )
    report["headline_speedup"] = headline["speedup"]
    print(f"\nheadline (keyswitch, {HEADLINE_SET}): "
          f"{headline['speedup']:.2f}x")

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return report


if __name__ == "__main__":
    main()
