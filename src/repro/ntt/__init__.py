"""NTT algorithm suite: the library's transform and the paper's planner.

- :mod:`.stacked` — the batched RNS engine: one transform over a whole
  ``(num_primes, [digits,] N)`` residue tensor, the only batched NTT the
  library runs (the single-level 4-step of Eq. 2 as exact float64 GEMMs);
- :mod:`.decompose` — WarpDrive's multi-level decomposition plans
  (Fig. 2, Table IV), which price every variant of
  :class:`~repro.core.WarpDriveNtt`;
- :mod:`.bitsplit` — the tensor-core uint8 limb GEMM, executed exactly by
  TensorFHE's Algorithm 1
  (:func:`~repro.baselines.tensorfhe.functional_five_stage_ntt`).

The paper's NTT variants differ only in how the GPU runs the transform;
functionally every one of them is the stacked kernel.

The O(N^2) ground-truth transforms and the per-row radix-2 Montgomery
transform that the stacked kernel is tested against are test oracles
(``tests/oracles``), not library code.
"""

from .bitsplit import bitsplit_matmul_mod
from .decompose import (
    DEFAULT_LEAF_SIZE,
    DecompositionCost,
    NttPlan,
    build_plan,
    table_iv_rows,
)
from .stacked import (
    ShoupStack,
    get_shoup_stack,
    shoup_stack_cache_stats,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from .tables import (
    TABLE_CACHE_SIZE,
    NttTables,
    get_tables,
    table_cache_stats,
)

__all__ = [
    "DEFAULT_LEAF_SIZE",
    "DecompositionCost",
    "NttPlan",
    "NttTables",
    "ShoupStack",
    "TABLE_CACHE_SIZE",
    "bitsplit_matmul_mod",
    "build_plan",
    "get_shoup_stack",
    "get_tables",
    "shoup_stack_cache_stats",
    "stacked_negacyclic_intt",
    "stacked_negacyclic_ntt",
    "table_cache_stats",
    "table_iv_rows",
]
