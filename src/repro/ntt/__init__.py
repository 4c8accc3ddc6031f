"""NTT algorithm suite: every transform strategy the paper discusses.

- :mod:`.radix2` — iterative Cooley-Tukey transform of one prime's rows
  (the per-row reference for the stacked kernel);
- :mod:`.stacked` — the batched RNS engine: one transform over a whole
  ``(num_primes, [digits,] N)`` residue tensor, the only batched NTT the
  library runs (the single-level 4-step of Eq. 2 as exact float64 GEMMs
  on the numpy backend);
- :mod:`.decompose` / :mod:`.hierarchical` — WarpDrive's multi-level
  decomposition (Fig. 2, Table IV) with pluggable leaf engines;
- :mod:`.gemm` / :mod:`.bitsplit` — CUDA-core and tensor-core (uint8 limb)
  GEMM inner NTTs;
- :mod:`.butterfly` — high-radix butterfly inner NTTs (WD-BO).

The O(N^2) ground-truth transforms that every engine is tested against
are test oracles (``tests/oracles``), not library code.
"""

from .bitsplit import bitsplit_matmul_mod, count_limb_gemms
from .butterfly import SUPPORTED_RADICES, butterfly_inner_ntt, choose_radix
from .decompose import (
    DEFAULT_LEAF_SIZE,
    DecompositionCost,
    NttPlan,
    build_plan,
    table_iv_rows,
)
from .gemm import gemm_inner_ntt, matmul_mod_uint32
from .hierarchical import LEAF_ENGINES, ExecutionStats, HierarchicalNtt
from .radix2 import cyclic_ntt, negacyclic_intt, negacyclic_ntt
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
    "ExecutionStats",
    "HierarchicalNtt",
    "LEAF_ENGINES",
    "NttPlan",
    "NttTables",
    "SUPPORTED_RADICES",
    "ShoupStack",
    "TABLE_CACHE_SIZE",
    "bitsplit_matmul_mod",
    "build_plan",
    "butterfly_inner_ntt",
    "choose_radix",
    "count_limb_gemms",
    "cyclic_ntt",
    "gemm_inner_ntt",
    "get_shoup_stack",
    "get_tables",
    "matmul_mod_uint32",
    "negacyclic_intt",
    "negacyclic_ntt",
    "shoup_stack_cache_stats",
    "stacked_negacyclic_intt",
    "stacked_negacyclic_ntt",
    "table_cache_stats",
    "table_iv_rows",
]
