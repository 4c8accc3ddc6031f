"""WarpDrive core: the paper's contribution, as a library.

- :mod:`.ntt_engine` — WarpDrive-NTT and its five variants (§IV-A/B);
- :mod:`.warp_allocation` — tensor/CUDA warp co-scheduling (§IV-B-3);
- :mod:`.scheduler` — homomorphic-operation lowering to parallelism-enhanced
  (PE) ciphertext-level kernel plans (§IV-C);
- :mod:`.framework` — the §IV-D runtime facade;
- :mod:`.memory_pool` / :mod:`.kernels` / :mod:`.costs` — supporting
  pieces (S_max pool, kernel builders, instruction-cost model).
"""

from .costs import NttWorkCounts, plan_work_counts
from .framework import FrameworkConfig, WarpDriveFramework
from .kernels import DEFAULT_GEOMETRY, WORD_BYTES, GeometryConfig
from .memory_pool import MemoryPool, max_working_set_bytes
from .ntt_engine import (
    VARIANTS,
    WarpDriveNtt,
    batched_rns_forward,
    batched_rns_inverse,
)
from .scheduler import HOMOMORPHIC_OPS, OperationScheduler
from .warp_allocation import (
    WarpAllocation,
    balance_fraction,
    default_allocation,
    fused_times,
)

__all__ = [
    "DEFAULT_GEOMETRY",
    "FrameworkConfig",
    "GeometryConfig",
    "HOMOMORPHIC_OPS",
    "MemoryPool",
    "NttWorkCounts",
    "OperationScheduler",
    "VARIANTS",
    "batched_rns_forward",
    "batched_rns_inverse",
    "WORD_BYTES",
    "WarpAllocation",
    "WarpDriveFramework",
    "WarpDriveNtt",
    "balance_fraction",
    "default_allocation",
    "fused_times",
    "max_working_set_bytes",
    "plan_work_counts",
]
