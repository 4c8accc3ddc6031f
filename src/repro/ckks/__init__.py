"""Functional 32-bit-word RNS-CKKS — the scheme the paper accelerates.

High-level entry point::

    from repro.ckks import CkksContext, ParameterSets
    ctx = CkksContext.create(ParameterSets.toy(), seed=0)
    keys = ctx.keygen()
    ct = ctx.encrypt([1.0, 2.0], keys)
    print(ctx.decrypt_decode_real(ctx.hmult(ct, ct, keys), keys)[:2])
"""

from .ciphertext import Ciphertext, Plaintext
from .compare import approx_max, approx_relu, approx_sign
from .context import CkksContext
from .encoding import Encoder
from .hoisting import hoisted_rotations
from .linear_transform import LinearTransform
from .polyeval import PolynomialEvaluator
from .slots import SlotOps
from .keys import KeyGenerator, KeySet, KeySwitchKey, PublicKey, SecretKey
from .keyswitch import keyswitch
from .noise import NoiseEstimator, NoiseState, measured_noise_bits
from .ops import Evaluator
from .params import CkksParams, ParameterSets
from .poly import COEFF, EVAL, RnsPoly
from .rns_context import RnsContext, all_cache_stats, get_rns_context
from .sampling import sample_error, sample_ternary, sample_uniform
from .serialize import (
    deserialize_ciphertext,
    deserialize_plaintext,
    serialize_ciphertext,
    serialize_plaintext,
)

__all__ = [
    "COEFF",
    "Ciphertext",
    "CkksContext",
    "CkksParams",
    "EVAL",
    "Encoder",
    "Evaluator",
    "KeyGenerator",
    "KeySet",
    "KeySwitchKey",
    "LinearTransform",
    "NoiseEstimator",
    "NoiseState",
    "PolynomialEvaluator",
    "RnsContext",
    "SlotOps",
    "all_cache_stats",
    "get_rns_context",
    "approx_max",
    "approx_relu",
    "approx_sign",
    "ParameterSets",
    "Plaintext",
    "PublicKey",
    "RnsPoly",
    "SecretKey",
    "deserialize_ciphertext",
    "deserialize_plaintext",
    "hoisted_rotations",
    "keyswitch",
    "measured_noise_bits",
    "sample_error",
    "sample_ternary",
    "sample_uniform",
    "serialize_ciphertext",
    "serialize_plaintext",
]
