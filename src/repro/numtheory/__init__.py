"""Number-theory substrate: modular arithmetic, primes, RNS, CRT."""

from .barrett import BarrettReducer, BatchBarrettReducer
from .crt import CRTReconstructor
from .karatsuba import (
    KARATSUBA_COST,
    SCHOOLBOOK_COST,
    karatsuba_limb_product,
    merge_limbs,
    schoolbook_limb_product,
    split_limbs,
)
from .modmath import (
    bit_reverse,
    bit_reverse_permutation,
    is_power_of_two,
    is_probable_prime,
    modinv,
    modpow,
    primitive_root,
    root_of_unity,
)
from .montgomery import MontgomeryReducer
from .primes import (
    MAX_MODULUS_BITS,
    PrimeChain,
    build_prime_chain,
    find_ntt_prime,
    find_ntt_primes,
)
from .rns import (
    RNSBasis,
    digit_partition,
    extend_basis,
    extend_basis_stacked,
    mod_down,
)

__all__ = [
    "BarrettReducer",
    "BatchBarrettReducer",
    "CRTReconstructor",
    "KARATSUBA_COST",
    "MAX_MODULUS_BITS",
    "MontgomeryReducer",
    "PrimeChain",
    "RNSBasis",
    "SCHOOLBOOK_COST",
    "bit_reverse",
    "bit_reverse_permutation",
    "build_prime_chain",
    "digit_partition",
    "extend_basis",
    "extend_basis_stacked",
    "find_ntt_prime",
    "find_ntt_primes",
    "is_power_of_two",
    "is_probable_prime",
    "karatsuba_limb_product",
    "merge_limbs",
    "mod_down",
    "modinv",
    "modpow",
    "primitive_root",
    "root_of_unity",
    "schoolbook_limb_product",
    "split_limbs",
]
