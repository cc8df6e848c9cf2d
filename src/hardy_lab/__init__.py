"""Weighted discrete Hardy constants on trees, cube coverings of Holder cusp
domains, constructive mean-zero decompositions, and inequality checkers."""

__version__ = "0.1.0"

from .tree import (  # noqa: F401
    RootedTree,
    TreeError,
    build_tree,
    chain_tree,
    random_tree,
    star_tree,
)
from .hardy import (  # noqa: F401
    HardyProblem,
    HardyReport,
    HullCapExceeded,
    a_chain,
    a_tree,
    assemble_uv,
    ehp_B,
    exact_constant,
    hardy_report,
    make_problem,
    optimize_theta,
)
from .covering import (  # noqa: F401
    CubeCovering,
    HolderProfile,
    build_covering,
    check_disjoint_and_coverage,
    profile_demo,
    profile_flat,
    profile_rough,
    tail_integrability,
    verify_counting_bounds,
    weights_from_beta,
)
from .decomp import (  # noqa: F401
    CellFunction,
    CellSpace,
    DecompositionError,
    decompose,
    random_mean_zero,
    space_from_covering,
    verify_decomposition,
)
from .inequalities import (  # noqa: F401
    RatioReport,
    TestFunction,
    density_split,
    f_bilinear,
    f_linear,
    inequality_ratio,
    parameter_sweep,
    u_shear,
)
