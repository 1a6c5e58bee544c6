"""Exact-arithmetic toolkit for folded Cartan data and twining characters.

Builds orbit Cartan data from diagram automorphisms of symmetrizable
generalized Cartan matrices and verifies the twining character of a
Demazure module against the lifted Demazure character of the folded
side, with both sides computed by disjoint exact routes.
"""

from .characters import (
    CharacterPolynomial,
    canonical_serialize,
    demazure_character,
    demazure_op,
    freudenthal_character,
    map_character,
)
from .errors import TwiningError
from .folding import (
    DiagramAutomorphism,
    FoldingData,
    fold,
    fold_weight,
    fold_word,
    is_symmetric_weight,
    unfold_weight,
    unfold_word,
    validate_automorphism,
)
from .harness import (
    BatteryConfig,
    Instance,
    VerificationReport,
    run_battery,
    verify,
)
from .root_data import (
    GeneralizedCartanMatrix,
    cartan_matrix,
    is_finite_type,
    positive_roots,
    validate_gcm,
    weyl_dimension,
)
from .weyl import (
    enumerate_weyl,
    is_in_w_tilde,
    length,
    longest_element,
    reduced_word,
)
from .word_model import (
    PairingVector,
    Subspace,
    demazure_subspaces,
    extremal_vector,
    twining_character,
    twining_trace,
    weight_space,
)

__version__ = "0.1.0"

__all__ = [
    "BatteryConfig",
    "CharacterPolynomial",
    "DiagramAutomorphism",
    "FoldingData",
    "GeneralizedCartanMatrix",
    "Instance",
    "PairingVector",
    "Subspace",
    "TwiningError",
    "VerificationReport",
    "canonical_serialize",
    "cartan_matrix",
    "demazure_character",
    "demazure_op",
    "demazure_subspaces",
    "enumerate_weyl",
    "extremal_vector",
    "fold",
    "fold_weight",
    "fold_word",
    "freudenthal_character",
    "is_finite_type",
    "is_in_w_tilde",
    "is_symmetric_weight",
    "length",
    "longest_element",
    "map_character",
    "positive_roots",
    "reduced_word",
    "run_battery",
    "twining_character",
    "twining_trace",
    "unfold_weight",
    "unfold_word",
    "validate_automorphism",
    "validate_gcm",
    "verify",
    "weight_space",
    "weyl_dimension",
]
