"""Number-theory substrate: modular arithmetic, primes, RNS, CRT.

Vector reduction has one path: :class:`BatchBarrettReducer` runs the
backend kernels over a whole residue matrix. The per-prime Barrett and
Montgomery reducers are test references (``tests/oracles``).
"""

from .barrett import BatchBarrettReducer
from .crt import CRTReconstructor
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
    "BatchBarrettReducer",
    "CRTReconstructor",
    "MAX_MODULUS_BITS",
    "PrimeChain",
    "RNSBasis",
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
    "mod_down",
    "modinv",
    "modpow",
    "primitive_root",
    "root_of_unity",
]
