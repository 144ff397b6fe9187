"""Invariants of one-sided topological Markov shifts and their cocycle groupoids.

The package computes, over a 0/1 transition matrix: admissible-word
combinatorics and block recodings; integer cocycle arithmetic for
locally constant potentials; the bisection calculus of the shift
groupoid with membership splitting along a potential; saturation,
first-passage families and inclusion matrices of support algebras;
coboundary detection and potential solving; suspended (tower) matrices
with return-time decoding; and exact Smith-form K-theory with Bratteli
dimension data.  A small CLI exposes the same operations over JSON
files.
"""

from .sft import (
    TransitionMatrix,
    PointSpec,
    enumerate_words,
    higher_block,
    has_cycle_within,
    is_irreducible,
    is_primitive,
)
from .locfun import (
    LocFun,
    BlockCode,
    FullGroupElement,
    TransferIdentityError,
    make_chi_H,
    cocycle_sum,
    coboundary_transform,
    psi_transfer,
)
from .groupoid import (
    Bisection,
    MembershipSplit,
    MinimalityWitness,
    MinimalityVerdict,
    canonicalize,
    compose,
    invert,
    membership_split,
    generator_fixed,
    expectation_support,
    minimality_search,
    minimality_verdict,
)
from .support import (
    NotSaturatedError,
    SigmaFamily,
    InclusionMatrix,
    CensusResult,
    is_saturated,
    sigma_family,
    inclusion_matrix,
    weight_word_census,
)
from .coboundary import (
    NotCoboundaryError,
    PotentialClass,
    cycle_sums,
    shortest_nonzero_cycle,
    solve_potential,
    classify_potential,
)
from .suspension import (
    SuspendedMatrix,
    suspended_matrix,
    reduce_to_first_coordinate,
    encode_word,
    decode_return_times,
    corner_partition_check,
)
from .ktheory import (
    smith_normal_form,
    ck_k_groups,
    dimension_report,
    perron_value,
)

__version__ = "0.1.0"
