"""Exact-arithmetic suspension quivers of finite directed graphs.

Graph combinatorics, the suspension-quiver construction with rational
parameter, the associated flow, truncated path-space representations with
generator-level identity checking, and K-theoretic invariants.
"""

from .errors import (
    CompositionError,
    PrecisionError,
    PreconditionError,
    StructuralError,
    SuspensionError,
)
from .graph import (
    Edge,
    Graph,
    IntMatrix,
    Path,
    adjacency,
    concatenate,
    enumerate_paths,
    path_count,
    validate,
    vertex_path,
)
from .transform import (
    LabeledGraph,
    delay,
    delay_embed_path,
    higher_dual,
    higher_power,
    join_ids,
    opposite,
)
from .quiver import (
    QuiverEdge,
    QuiverPath,
    SuspensionVertex,
    as_circle,
    base_vertex,
    edge_range,
    edge_source,
    fibre_paths,
    fibre_words,
    normalize_edge,
    openness_report,
)
from .flow import (
    FlowPoint,
    apply_flow,
    lattice_decomposition_check,
    make_flow_point,
    orbit_lines,
)
from .operators import (
    Basis,
    SparseOperator,
    TruncatedRep,
    build_rep,
    combo,
    norm_squared,
    operator_norm_est,
    rank_on_columns,
    sum_sq_norm,
)
from .opalg import (
    FunctionOnEdges,
    check_tck,
    edge_fn_interpolated,
    eta_generators,
    jmath,
    kappa_eval,
    limit_formulas,
    morita_combinatorics,
    vertex_fn_interpolated,
)
from .ktheory import (
    AbelianGroup,
    dual_K_invariance,
    coker_ker,
    direct_sum,
    graph_K,
    homology,
    hypothesis_check,
    smith_normal_form,
    suspension_K,
)
from .report import Check, RunReport, rat_str

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
