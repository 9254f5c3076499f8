"""Zero-weight super dynamical r-matrices: construction and verification.

Layers, bottom up:

  scalars       exact rational functions, coth atoms and their exact zero test
  superalgebra  gl(m|n) / sl(m|n), root data, Casimir element
  tensor        Koszul-signed tensor algebra on g (x) g and g (x) g (x) g
  rmatrix       the solution families and their hypotheses
  verifier      residuals of the defining equations, decided exactly
  cli           `sdybe algebra | construct | verify`
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    NotRationalError,
    PoleError,
    Poly,
    RationalFunction,
    ScalarExpr,
)
from .superalgebra import (  # noqa: F401
    DegenerateFormError,
    LieSuperalgebra,
    NonDiagonalizableError,
    Root,
    RootDatum,
    build_gl,
    build_sl,
    casimir,
    root_decomposition,
    sign_A,
)
from .tensor import (  # noqa: F401
    OddActorError,
    Tensor2,
    Tensor3,
    ad_action,
    alt_s,
    bracket_12_13,
    bracket_12_23,
    bracket_13_23,
    signed_permutation,
    super_twist,
    yb_bracket,
)
from .rmatrix import (  # noqa: F401
    MissingSignChoiceError,
    RMatrixSpec,
    TwoForm,
    ValidationError,
    constant_example,
    construct,
    phi_coupled,
    phi_zero_coupling,
    shift_to_s,
    validate,
)
from .verifier import (  # noqa: F401
    PreconditionError,
    ResidualReport,
    VerifyConfig,
    cdybe_residual,
    differential_dr,
    lemma_consistency_check,
    limit_behavior_check,
    mdybe_residual,
    unitarity_residual,
    zero_weight_residual,
)
