"""Reference implementations the tests and benches compare against.

Nothing in ``repro`` runs these: they are the slow, obviously-correct
twins of library kernels, kept here so ``src/`` holds only code its
callers run. They include the per-row radix-2 Montgomery NTT and the
per-prime Barrett and Montgomery reducers that the stacked kernel and
the backend ``%`` kernels replaced. Import them from the repository root
(``from tests.oracles import keyswitch_looped``); the benches need the
root on ``PYTHONPATH``.
"""

from .barrett import BarrettReducer, get_reducer, reducer_cache_stats
from .ckks import (
    hoisted_rotations_looped,
    keyswitch_looped,
    linear_transform_looped,
)
from .ntt import (
    apply_automorphism,
    cyclic_convolution,
    negacyclic_convolution,
    reference_cyclic_intt,
    reference_cyclic_ntt,
    reference_negacyclic_intt,
    reference_negacyclic_ntt,
)
from .montgomery import MontgomeryReducer
from .radix2 import (
    MontTables,
    cyclic_ntt,
    mont_tables,
    negacyclic_intt,
    negacyclic_ntt,
)
from .rns import mod_down_exact_t
from .schedule import (
    dag_lanes_in_loop,
    dag_windows_full_scan,
    greedy_topo_order_min_scan,
    kahn_min_scan,
    schedule_orders_min_scan,
)

__all__ = [
    "BarrettReducer",
    "MontTables",
    "MontgomeryReducer",
    "apply_automorphism",
    "cyclic_convolution",
    "cyclic_ntt",
    "dag_lanes_in_loop",
    "dag_windows_full_scan",
    "get_reducer",
    "greedy_topo_order_min_scan",
    "hoisted_rotations_looped",
    "kahn_min_scan",
    "keyswitch_looped",
    "linear_transform_looped",
    "mod_down_exact_t",
    "mont_tables",
    "negacyclic_convolution",
    "negacyclic_intt",
    "negacyclic_ntt",
    "reference_cyclic_intt",
    "reference_cyclic_ntt",
    "reference_negacyclic_intt",
    "reducer_cache_stats",
    "reference_negacyclic_ntt",
    "schedule_orders_min_scan",
]
