"""locnash: complex lattice algebra, Weierstrass function numerics, period
groups of the classical addition-theorem families, numerical relation
certificates, and locally Nash isomorphism verdicts."""

__version__ = "0.1.0"

from .classify import (
    CanonicalForm1D,
    Family2D,
    Verdict,
    classify_1d,
    classify_2d,
    compare_2d,
    isomorphic_1d,
    rational_detect,
)
from .descriptors import load_descriptor, parse_descriptor, serialize_descriptor
from .errors import (
    DegenerateGenerators,
    InsufficientSamples,
    InternalInconsistency,
    LocNashError,
    NonIntegerTransition,
    NotASublattice,
    NotRealStructure,
    ParseError,
    RankOutOfRange,
)
from .lattices import (
    DiscreteSubgroup,
    Lattice1,
    common_real_sublattice,
    conjugation,
    contains,
    coset_representatives,
    index,
    is_real,
    is_sublattice,
    subgroup,
)
from .relations import (
    AATReport,
    RelationCertificate,
    dependent,
    find_relation,
    format_polynomial,
    map_sampler,
    monomial_exponents,
    translate_algebraicity_check,
    verify_aat,
    wp_sampler,
)
from .scalars import ExactReal, parse_complex, parse_exact_real
from .structures import (
    AATBox,
    MapValue,
    PeriodGroupReport,
    StructureDescriptor,
    evaluate_map,
    exp_map,
    identity_map,
    is_real_structure,
    map_batch,
    painleve,
    period_group,
    sin_map,
    wp_real,
    z_rank,
)
from .weierstrass import (
    EvalResult,
    WeierstrassContext,
    conjugate_lattice_check,
    coset_sum_check,
    get_context,
    sample_reduced,
)
