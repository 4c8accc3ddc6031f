"""Microbenchmark: seed per-prime loop path vs the batched RNS engine.

The seed implementation of ``RnsPoly`` iterated ``for i, q in
enumerate(self.moduli)`` in every arithmetic and domain-conversion hot
path, so throughput scaled with Python interpreter overhead instead of
NumPy throughput. This bench replays that loop path (preserved here
verbatim) against the batched ``(num_primes, N)`` engine for the op mix
that dominates homomorphic workloads: HADD/HSUB-style element-wise ops,
eval-domain Hadamard products, and forward/inverse negacyclic NTTs.

The batched ``ntt``/``intt`` columns time the stacked GEMM kernel
(:func:`repro.ntt.stacked_negacyclic_ntt`), the transform that
``RnsPoly.to_eval``/``to_coeff`` run.

A second section (``"kernels"``) times the hot kernels of
``repro.backend`` once each: stacked NTT/INTT, ``mul``, the key-switch
``wide_dot`` inner product, and a full ``keyswitch`` call.

Run::

    PYTHONPATH=src:. python benchmarks/bench_poly.py            # full run
    PYTHONPATH=src:. python benchmarks/bench_poly.py --reps 1   # CI smoke

(the repository root on the path: the loop path's per-prime reducers and
radix-2 NTT are test oracles, imported from ``tests.oracles``).

Results land in ``BENCH_poly.json`` (see ``--out``); later PRs regress
against the committed numbers.
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
from repro.ckks.keyswitch import keyswitch
from repro.ckks.ks_common import wide_dot
from repro.ckks.poly import RnsPoly
from repro.ntt import (
    get_shoup_stack,
    get_tables,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.numtheory import BatchBarrettReducer, find_ntt_primes
from tests.oracles import get_reducer, negacyclic_intt, negacyclic_ntt

# Small configs lead: they are where the batched path once *lost* to the
# loop path (masked-ufunc overhead dominated at tiny matrices) — the
# regression this bench pins as fixed.
CONFIGS = [(256, 2), (256, 4), (1024, 4), (2048, 4), (2048, 8),
           (4096, 4), (4096, 8)]
HEADLINE = (4096, 8)


# -- the seed loop path, preserved for comparison ---------------------------

def loop_add(a, b, moduli):
    out = np.empty_like(a)
    for i, q in enumerate(moduli):
        out[i] = get_reducer(q).add_vec(a[i], b[i])
    return out


def loop_sub(a, b, moduli):
    out = np.empty_like(a)
    for i, q in enumerate(moduli):
        out[i] = get_reducer(q).sub_vec(a[i], b[i])
    return out


def loop_mul(a, b, moduli):
    out = np.empty_like(a)
    for i, q in enumerate(moduli):
        out[i] = get_reducer(q).mul_vec(a[i], b[i])
    return out


def loop_ntt(data, moduli, n):
    return np.stack([
        negacyclic_ntt(data[i], get_tables(q, n))
        for i, q in enumerate(moduli)
    ])


def loop_intt(data, moduli, n):
    return np.stack([
        negacyclic_intt(data[i], get_tables(q, n))
        for i, q in enumerate(moduli)
    ])


# -- measurement ------------------------------------------------------------

def best_of(fn, reps):
    """Best-of-``reps`` wall time in seconds (one untimed warmup)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_config(n, num_primes, reps, rng):
    moduli = tuple(find_ntt_primes(num_primes, 28, n))
    a = np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                  for q in moduli])
    b = np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                  for q in moduli])
    stack = get_shoup_stack(moduli, n)
    batch = BatchBarrettReducer(moduli)

    ops = {
        "add": (lambda: loop_add(a, b, moduli),
                lambda: batch.add_mat(a, b)),
        "sub": (lambda: loop_sub(a, b, moduli),
                lambda: batch.sub_mat(a, b)),
        "mul": (lambda: loop_mul(a, b, moduli),
                lambda: batch.mul_mat(a, b)),
        "ntt": (lambda: loop_ntt(a, moduli, n),
                lambda: stacked_negacyclic_ntt(a, stack)),
        "intt": (lambda: loop_intt(a, moduli, n),
                 lambda: stacked_negacyclic_intt(a, stack)),
    }

    result = {"n": n, "num_primes": num_primes, "ops": {}}
    total_loop = total_batched = 0.0
    for name, (loop_fn, batched_fn) in ops.items():
        if not np.array_equal(loop_fn(), batched_fn()):
            raise AssertionError(
                f"batched {name} disagrees with the loop path at "
                f"N={n}, L={num_primes}"
            )
        t_loop = best_of(loop_fn, reps)
        t_batched = best_of(batched_fn, reps)
        total_loop += t_loop
        total_batched += t_batched
        result["ops"][name] = {
            "loop_us": t_loop * 1e6,
            "batched_us": t_batched * 1e6,
            "speedup": t_loop / t_batched,
        }
    result["total_loop_us"] = total_loop * 1e6
    result["total_batched_us"] = total_batched * 1e6
    result["speedup"] = total_loop / total_batched
    return result


# -- hot-kernel timings ------------------------------------------------------

KERNEL_N = 2048
KERNEL_PRIMES = 8
KERNEL_DIGITS = 4


def bench_kernels(reps, rng):
    """Time the hot kernels at ``N = KERNEL_N`` over ``KERNEL_PRIMES``
    primes and ``KERNEL_DIGITS`` digits.

    The ``keyswitch`` entry runs the full batched pipeline (INTT, ModUp,
    InnerProduct, ModDown, NTT) on the ``small`` parameter set — the op
    whose kernel breakdown the paper's Figure 9 accounts for.
    """
    moduli = tuple(find_ntt_primes(KERNEL_PRIMES, 28, KERNEL_N))
    stack = get_shoup_stack(moduli, KERNEL_N)
    batch = BatchBarrettReducer(moduli)
    x = np.stack([rng.integers(0, q, size=KERNEL_N, dtype=np.uint64)
                  for q in moduli])
    ext = np.stack([
        np.stack([rng.integers(0, q, size=KERNEL_N, dtype=np.uint64)
                  for _ in range(KERNEL_DIGITS)])
        for q in moduli
    ])
    rows = np.stack([
        np.stack([rng.integers(0, q, size=KERNEL_N, dtype=np.uint64)
                  for _ in range(KERNEL_DIGITS)])
        for q in moduli
    ])

    ctx = CkksContext.create(ParameterSets.small(), seed=7)
    keys = ctx.keygen()
    ev = ctx.evaluator
    d = RnsPoly(
        np.stack([rng.integers(0, q, size=ctx.params.n, dtype=np.uint64)
                  for q in ev.q_moduli]),
        ev.q_moduli, "eval",
    )

    kernels = {
        "ntt": lambda: stacked_negacyclic_ntt(x, stack),
        "intt": lambda: stacked_negacyclic_intt(x, stack),
        "mul": lambda: batch.mul_mat(x, x),
        "wide_dot": lambda: wide_dot(ext, rows, batch),
        "keyswitch": lambda: keyswitch(d, keys.relin, ev.p_moduli),
    }
    return {
        "n": KERNEL_N,
        "num_primes": KERNEL_PRIMES,
        "digits": KERNEL_DIGITS,
        "ops": {op: {"us": best_of(fn, reps) * 1e6}
                for op, fn in kernels.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=25,
                        help="timed repetitions per op (best-of)")
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_poly.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")

    rng = np.random.default_rng(0)
    report = {
        "bench": "bench_poly",
        "description": "seed per-prime loop path vs batched RNS engine",
        "reps": args.reps,
        "configs": [],
    }
    for n, num_primes in CONFIGS:
        cfg = bench_config(n, num_primes, args.reps, rng)
        report["configs"].append(cfg)
        print(f"N={n:5d} L={num_primes}:  "
              f"loop {cfg['total_loop_us']:9.1f} us  "
              f"batched {cfg['total_batched_us']:9.1f} us  "
              f"speedup {cfg['speedup']:.2f}x")
        for name, op in cfg["ops"].items():
            print(f"    {name:4s}  {op['loop_us']:9.1f} -> "
                  f"{op['batched_us']:9.1f} us  ({op['speedup']:.2f}x)")

    report["kernels"] = bench_kernels(args.reps, rng)
    print(f"\nkernels (N={KERNEL_N}, L={KERNEL_PRIMES}, "
          f"G={KERNEL_DIGITS}):")
    for op, rec in report["kernels"]["ops"].items():
        print(f"    {op:9s} {rec['us']:9.1f} us")

    headline = next(
        c for c in report["configs"]
        if (c["n"], c["num_primes"]) == HEADLINE
    )
    report["headline_speedup"] = headline["speedup"]
    print(f"\nheadline (N={HEADLINE[0]}, L={HEADLINE[1]}): "
          f"{headline['speedup']:.2f}x")

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return report


if __name__ == "__main__":
    main()
