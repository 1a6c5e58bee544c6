"""Exact-arithmetic toolkit for folded Cartan data and twining characters.

Builds orbit Cartan data from diagram automorphisms of symmetrizable
generalized Cartan matrices and verifies the twining character of a
Demazure module against the lifted Demazure character of the folded
side, with both sides computed by disjoint exact routes.
"""

from .characters import (
    canonical_serialize,
    demazure_character,
    demazure_op,
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
)
from .harness import (
    BatteryConfig,
    Instance,
    VerificationReport,
    run_battery,
    verify,
)
from .root_data import (
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    cartan_matrix,
    positive_roots,
    validate_gcm,
    weyl_dimension,
)
from .weyl import (
    enumerate_weyl,
    is_in_w_tilde,
    longest_element,
)
from .word_model import (
    demazure_subspaces,
    twining_character,
)

__version__ = "0.1.0"

__all__ = [
    "BatteryConfig",
    "CharacterPolynomial",
    "DiagramAutomorphism",
    "FoldingData",
    "GeneralizedCartanMatrix",
    "Instance",
    "TwiningError",
    "VerificationReport",
    "canonical_serialize",
    "cartan_matrix",
    "demazure_character",
    "demazure_op",
    "demazure_subspaces",
    "enumerate_weyl",
    "fold",
    "fold_weight",
    "fold_word",
    "is_in_w_tilde",
    "is_symmetric_weight",
    "longest_element",
    "map_character",
    "positive_roots",
    "run_battery",
    "twining_character",
    "unfold_weight",
    "unfold_word",
    "validate_gcm",
    "verify",
    "weyl_dimension",
]
