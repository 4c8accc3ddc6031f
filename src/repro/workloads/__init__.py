"""FHE workloads: packed bootstrapping, HELR, ResNet-20, transciphering.

The bootstrap is priced from one recording of the functional bootstrap.
HELR, ResNet-20 and AES transciphering each have a full-scale *operation
schedule* that counts its bootstraps, priced by the GPU simulator (for
the Table XIV/XV reproductions), and, where feasible, a *functional
mini* that really runs under encryption at toy ring sizes.
"""

from .aes import ctr_encrypt, ctr_keystream, encrypt_block, expand_key
from .aes_transcipher import (
    TranscipherResult,
    cpu_transcipher_minutes,
    simulate_transcipher,
    transcipher_schedule,
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
    simulate_recorded_bootstrap,
)

__all__ = [
    "EncryptedConv2d",
    "EncryptedLogisticRegression",
    "ScheduleItem",
    "TranscipherResult",
    "WorkloadSchedule",
    "WorkloadTiming",
    "conv2d_reference",
    "cpu_transcipher_minutes",
    "ctr_encrypt",
    "DenseLayer",
    "EncryptedMlp",
    "plaintext_mlp",
    "random_mlp",
    "ctr_keystream",
    "encrypt_block",
    "expand_key",
    "helr_iteration_schedule",
    "plaintext_reference",
    "resnet20_schedule",
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
    "simulate_recorded_bootstrap",
]
