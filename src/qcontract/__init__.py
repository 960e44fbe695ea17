"""Exact symbolic engine for quantum-group presentations and the
kappa-contraction of quantum SU(2) to the kappa-deformed Euclidean group."""

__version__ = "0.1.0"

from .freealg import (  # noqa: F401
    Alphabet,
    Element,
    GeneratorId,
    GeneratorMap,
    MapKind,
    tensor_embed,
)
from .hopf import HopfPresentation  # noqa: F401
from .rewrite import (  # noqa: F401
    Presentation,
    RewriteRule,
    check_local_confluence,
    critical_pairs,
)
from .scalars import GaussianRational, ParamMonomial, Scalar, q_power  # noqa: F401
