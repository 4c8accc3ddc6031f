"""Figure 4: PE kernels vs KF kernels on ModUp/ModDown.

The kernel-fused (KF) design still processes one polynomial per launch;
the parallelism-enhanced (PE) design adds the polynomial dimension to the
grid. This benchmark isolates exactly the ModUp/ModDown stages of Fig. 4
and shows the PE form using more of the machine per launch and finishing
the multi-polynomial batch faster.
"""

from repro.analysis import format_table
from repro.ckks import ParameterSets
from repro.core import kernels as K
from repro.gpusim import A100_PCIE_80G, run_serial, simulate_kernel

PARAMS = ParameterSets.set_d()
DEV = A100_PCIE_80G


def measure():
    n = PARAMS.n
    lvl = PARAMS.max_level + 1
    special = PARAMS.num_special
    dnum = PARAMS.dnum
    alpha = -(-lvl // dnum)
    ext = lvl + special

    # KF: one ModUp launch per digit, one ModDown launch per polynomial.
    kf_modup = [
        K.modup_kernel(f"kf.modup[{d}]", n, alpha, ext, polys=1)
        for d in range(dnum)
    ]
    kf_moddown = [
        K.moddown_kernel(f"kf.moddown[{p}]", n, lvl, special, polys=1)
        for p in range(2)
    ]
    # PE: the whole digit set / polynomial pair in one launch each.
    pe_modup = [K.modup_kernel("pe.modup", n, alpha, ext, polys=dnum)]
    pe_moddown = [
        K.moddown_kernel("pe.moddown", n, lvl, special, polys=2)
    ]

    return {
        "KF ModUp": run_serial(kf_modup, DEV),
        "PE ModUp": run_serial(pe_modup, DEV),
        "KF ModDown": run_serial(kf_moddown, DEV),
        "PE ModDown": run_serial(pe_moddown, DEV),
    }


def build_table(results):
    rows = []
    for name, res in results.items():
        blocks = sum(e.spec.blocks for e in res.entries)
        rows.append([
            name, res.kernel_count, round(res.elapsed_us, 1), blocks,
        ])
    return format_table(
        ["design", "kernels", "elapsed us", "total blocks"], rows,
        title="Fig. 4 — PE vs KF kernels on KeySwitch ModUp/ModDown "
              "(SET-D)",
    )


def test_fig04_pe_vs_kf(benchmark, record_table):
    results = benchmark(measure)
    record_table("fig04_pe_vs_kf", build_table(results))

    # PE needs one launch where KF needs one per polynomial/digit...
    assert results["PE ModUp"].kernel_count == 1
    assert results["KF ModUp"].kernel_count == PARAMS.dnum
    # ...and finishes the same total work sooner (launch overhead and
    # better machine fill).
    assert results["PE ModUp"].elapsed_us < results["KF ModUp"].elapsed_us
    assert (
        results["PE ModDown"].elapsed_us
        < results["KF ModDown"].elapsed_us
    )
