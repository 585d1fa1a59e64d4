"""dehnsom: exact verification of generalized Dehn-Sommerville identities."""

from .complexes import (
    FVector,
    FaceError,
    HVector,
    SimplicialComplex,
    SingularityProfile,
    build_complex,
    f_vector,
    face_error,
    face_error_table,
    face_errors,
    h_vector,
    join,
    link,
    reduced_euler_characteristic,
    short_h_vector,
    singularity_profile,
    verify_pure_ds,
)
from .balanced import (
    BalancedComplex,
    FlagVector,
    flag_f_vector,
    flag_h_vector,
    rank_selected,
    short_flag_sum,
    validate_coloring,
    verify_flag_ds,
)
from .posets import (
    GradedPoset,
    PosetClassification,
    build_poset,
    chain_error,
    classify_poset,
    dual,
    flag_alpha_beta,
    interval_error,
    order_complex,
    simplicial_poset_h,
    verify_flag_poset,
    verify_simplicial_ds,
)
from .toric import (
    DefectSequence,
    ToricPair,
    coeff_C,
    defect_sequence,
    dual_defect_report,
    lower_eulerian_defect,
    toric_pair,
    verify_1sing,
    verify_euler_relation,
    verify_generalized,
    verify_lower_eulerian,
    verify_main,
    verify_stanley,
    verify_swartz,
)
from .generators import GeneratorSpec, generate, generate_from_string, parse_spec
from .polynomial import ExactPolynomial, binom
from .reports import Row, VerificationReport

__version__ = "0.1.0"
