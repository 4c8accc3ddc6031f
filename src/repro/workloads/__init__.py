"""FHE workloads: packed bootstrapping, HELR, ResNet-20, transciphering.

Each workload has a full-scale *operation schedule* priced by the GPU
simulator (for the Table XIV/XV reproductions) and, where feasible, a
*functional mini* that really runs under encryption at toy ring sizes.
"""

from .aes import ctr_encrypt, ctr_keystream, encrypt_block, expand_key
from .aes_transcipher import (
    TranscipherResult,
    cpu_transcipher_minutes,
    simulate_transcipher,
    transcipher_schedule,
)
from .bootstrap_workload import (
    bootstrap_schedule,
    eval_mod_schedule,
    linear_transform_schedule,
    simulate_bootstrap,
)
from .mlp import (
    DenseLayer,
    EncryptedMlp,
    plaintext_mlp,
    random_mlp,
)
from .helr import (
    EncryptedLogisticRegression,
    helr_iteration_schedule,
    plaintext_reference,
    simulate_helr_iteration,
)
from .resnet import (
    EncryptedConv2d,
    conv2d_reference,
    resnet20_schedule,
    simulate_resnet20,
)
from .statistics import EncryptedStatistics
from .schedules import (
    ScheduleItem,
    WorkloadSchedule,
    WorkloadTiming,
)
from .recorded import (
    RECORDED_BOOT_CONFIG,
    derived_hoisted_rotation_factor,
    proxy_params_for,
    record_bootstrap_trace,
    record_helr_iteration_trace,
    record_resnet_block_trace,
    record_transcipher_block_trace,
    recorded_workload_timing,
    simulate_recorded_bootstrap,
    simulate_recorded_helr_iteration,
    simulate_recorded_resnet20,
)

__all__ = [
    "EncryptedConv2d",
    "EncryptedLogisticRegression",
    "ScheduleItem",
    "TranscipherResult",
    "WorkloadSchedule",
    "WorkloadTiming",
    "bootstrap_schedule",
    "conv2d_reference",
    "cpu_transcipher_minutes",
    "ctr_encrypt",
    "DenseLayer",
    "EncryptedMlp",
    "plaintext_mlp",
    "random_mlp",
    "ctr_keystream",
    "encrypt_block",
    "eval_mod_schedule",
    "expand_key",
    "helr_iteration_schedule",
    "linear_transform_schedule",
    "plaintext_reference",
    "resnet20_schedule",
    "simulate_bootstrap",
    "simulate_helr_iteration",
    "simulate_resnet20",
    "EncryptedStatistics",
    "simulate_transcipher",
    "transcipher_schedule",
    "RECORDED_BOOT_CONFIG",
    "derived_hoisted_rotation_factor",
    "proxy_params_for",
    "record_bootstrap_trace",
    "record_helr_iteration_trace",
    "record_resnet_block_trace",
    "record_transcipher_block_trace",
    "recorded_workload_timing",
    "simulate_recorded_bootstrap",
    "simulate_recorded_helr_iteration",
    "simulate_recorded_resnet20",
]
