#!/usr/bin/env python
"""Tour of the WarpDrive-NTT variants (§IV-A/B of the paper).

The five execution strategies — tensor-core limb GEMMs, CUDA-core
GEMMs, butterflies, and the two fused forms — compute one transform and
differ only in how the GPU runs it, so functionally every variant runs
the library's stacked NTT kernel. The tour shows (1) that kernel against
TensorFHE's Algorithm 1, which executes the tensor-core uint8 limb-GEMM
dataflow for real, plus the inverse round trip, and (2) how the
variants' simulated A100 throughput compares (the Fig. 6 experiment),
including the headline: the fused tensor+CUDA kernel beats any single
kind of processing unit.

Run: python examples/ntt_variants_tour.py
"""

import numpy as np

from repro.baselines.tensorfhe import functional_five_stage_ntt
from repro.core import VARIANTS, WarpDriveNtt
from repro.ntt import NttTables, build_plan
from repro.numtheory import find_ntt_prime


def correctness_tour():
    n = 4096
    q = find_ntt_prime(28, n)
    tables = NttTables(q, n)
    x = np.random.default_rng(0).integers(0, q, size=(4, n),
                                          dtype=np.uint64)

    print(f"N = {n}, q = {q}, {len(x)} polynomials")
    print(f"priced plan: {build_plan(n).describe()} "
          f"(the paper's (16x16)x16 for N=4096)")
    engine = WarpDriveNtt(n)
    y = engine.forward(x, tables)
    checks = {
        "stacked kernel == TensorFHE uint8 Algorithm 1":
            np.array_equal(y, functional_five_stage_ntt(x, tables)),
        "inverse(forward(x)) == x":
            np.array_equal(engine.inverse(y, tables), x),
    }
    for name, ok in checks.items():
        print(f"  {name}: {'OK' if ok else 'FAILED'}")
    if not all(checks.values()):
        raise SystemExit("NTT correctness tour failed")


def throughput_tour():
    print()
    print(f"{'variant':<10}" + "".join(
        f"{'N=2^' + str(b):>12}" for b in (12, 14, 16)
    ) + "   (KOPS, batch 1024, simulated A100)")
    results = {}
    for variant in VARIANTS:
        row = [variant]
        for bits in (12, 14, 16):
            kops = WarpDriveNtt(1 << bits, variant=variant).throughput_kops(
                1024
            )
            results[(variant, bits)] = kops
            row.append(f"{kops:,.0f}")
        print(f"{row[0]:<10}" + "".join(f"{c:>12}" for c in row[1:]))

    print()
    for bits in (12, 14, 16):
        gain = (results[("wd-fuse", bits)] / results[("wd-tensor", bits)]
                - 1) * 100
        print(f"  N=2^{bits}: WD-FUSE beats WD-Tensor by {gain:.1f}% "
              f"(paper: 4-7%) — tensor + CUDA cores running concurrently")


if __name__ == "__main__":
    correctness_tour()
    throughput_tour()
