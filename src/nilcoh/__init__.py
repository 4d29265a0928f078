"""nilcoh: nonabelian first cohomology of finite nilpotent group actions.

Finite groups live as dense multiplication tables; cohomology sets are
enumerated exactly and checked against brute-force oracles; the conjugacy and
fixed-point verifiers report hypotheses and conclusions separately.
"""

from .actions import (
    ActionOnGroup,
    GSet,
    SemidirectProduct,
    action_from_generator_images,
    coset_gset,
    fixed_points,
    is_transitive,
    semidirect,
    stabilizer,
    trivial_action,
)
from .cohomology import (
    Cocycle,
    CohomologySet,
    DecompositionReport,
    cocycle_to_complement,
    cocycles,
    cocycles_bruteforce,
    decomposition_map,
    eq3_check,
    extend_from_sylow,
    fixed_classes,
    h1,
    shared_primes,
)
from .groups import (
    Group,
    GroupHom,
    Subgroup,
    are_conjugate_subgroups,
    centralizer,
    full_subgroup,
    group_from_permutations,
    group_from_table,
    normalizer,
    quotient,
    subgroup_generated,
)
from .structure import (
    complement_classes,
    complements,
    enumerate_subgroups_of_order,
    hall_pprime,
    is_nilpotent,
    is_nilpotent_subgroup,
    locally_conjugate,
    p_parts,
    prime_factors,
    subgroup_conjugacy_classes,
    sylow_subgroup,
)
from .theorems import (
    VerificationReport,
    find_conjugator,
    verify_lemma1,
    verify_prop2,
    verify_prop3,
    verify_prop5,
    verify_thm4,
)

__version__ = "0.1.0"
