"""Certified arithmetic and isometry synthesis for lp sequence spaces
presented through norm oracles."""

from .errors import (
    BudgetExhaustedError,
    EnumerationStalledError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    InvalidInputError,
    LpisoError,
    NoBackdoorError,
    NonterminalRequiredError,
    NotPartialDisintegrationError,
    PEqualsTwoError,
    PrecisionExhaustedError,
    ProvisionalError,
    ZeroInCeSetError,
)
from .scalar_core import (
    CReal,
    DyadicInterval,
    GaussianRational,
    PExponent,
    abs_pow,
    lamperti_constant,
    lamperti_objective,
    sigma1_scalar,
    sigma_scalar,
)
from .lp_vectors import (
    FinSuppVector,
    is_disjointly_supported,
    norm_p,
    precedes,
    sigma1_vec,
)
from .presentations import (
    AdversarialPresentation,
    CeSet,
    ComputableVector,
    GenCombo,
    Presentation,
    RotatedPresentation,
    StandardPresentation,
    norm_approx,
    presentation_from_descriptor,
    transparent_eval,
)
from .tree_maps import (
    FiniteTree,
    TreeMap,
    TreeNode,
    distance_bound,
    project_to_strong_hom,
    sigma_tree,
    success_index,
    validate_partial_disintegration,
)
from .extension_engine import (
    BallCertificate,
    RationalBall,
    StagedDisintegration,
    approximate_extend,
    build_disintegration,
    certify_ball,
)
from .chain_partition import (
    ChainPartition,
    FiniteDisintegration,
    LazyDisintegration,
    chain_limit,
    find_anm_child,
    partition_chains,
    stage_bounds,
)

# The CLI module is loaded on first use, so that ``python -m lpiso.iso_cli``
# does not find it already imported by the package.
_CLI_EXPORTS = (
    "IsometryApprox",
    "apply_isometry",
    "identity_reduction",
    "recover_p",
    "recover_scale_from_atom",
    "synthesize_isometry",
)


def __getattr__(name):
    if name in _CLI_EXPORTS:
        from . import iso_cli

        return getattr(iso_cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_CLI_EXPORTS)
