"""Conjugacy classes and characters of finite p-groups of class c < p.

Everything is computed on the Lie ring side of the Lazard correspondence:
class vectors from the rank distribution of the commutator matrix A(x),
character vectors from the corank distribution of the skew matrix B(y),
and class numbers from either. A brute-force group-side oracle (truncated
Hausdorff series) is included for independent verification.
"""

__version__ = "0.1.0"

from .field import FieldSpec, make_field, is_prime
from .liecore import (
    ModRing,
    LieRing,
    SubspaceBasis,
    AdaptedBasis,
    AntisymmetryViolation,
    JacobiViolation,
    NotNilpotent,
    is_field,
    validate,
    derived,
    centre,
    lower_central_series,
    nilpotency_class,
    adapt_basis,
    base_change,
)
from .commat import (
    LinearFormMatrix,
    NotSkew,
    BudgetExceeded,
    build_commutator_matrices,
    rank,
    batch_rank,
    pfaffian,
    projective_points,
    projective_rank_census,
)
from .enumctr import (
    DEFAULT_BUDGET,
    CountVector,
    ClassTooLarge,
    InexactDivision,
    DuplicateNode,
    NonIntegralCoefficient,
    QPolynomial,
    rank_distribution,
    rank_distribution_A,
    rank_distribution_B,
    vectors_theoremB,
    vectors_dual,
    class_number,
    s_size_from_mu,
    s_size_from_nu,
    poly_fit,
)
from .freenil import (
    ExceptionalCase,
    UnknownFixture,
    BasicCommutator,
    HallBasis,
    witt,
    free_dimension,
    n_bound,
    k_exponent,
    N_exponent,
    hall_basis,
    collect,
    free_table,
    class_vector_closed,
    class_number_closed,
    char_degrees_closed,
    char_vector_class2,
    char_vector_closed,
    char_count_degree_q,
    fixture_vectors,
)
from .lazard import (
    DEFAULT_ORACLE_BUDGET,
    DenominatorNotInvertible,
    NonPowerClass,
    NonSquareOrbit,
    BchSeries,
    bch,
    bch_matrix_sum,
    matrix_exp,
    matrix_log,
    star,
    star_inverse,
    conjugacy_census,
    coadjoint_census,
    centralizer_order,
)
from .catalog import (
    ZeroAlpha,
    HypothesesFailed,
    PfaffianReport,
    CatalogEntry,
    CATALOG_NAMES,
    boston_isaacs_table,
    quadric_table,
    isaacs_cd_table,
    fm_table,
    pfaffian_case_vectors,
    build_entry,
)
from .cli import parse_lie, emit_lie, LieSyntaxError, DuplicateBracket, BadCoefficient
