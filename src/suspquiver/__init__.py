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
    every_cycle_has_entrance,
    is_strongly_connected,
    path_count,
    period,
    validate,
    vertex_path,
)
from .transform import (
    LabeledGraph,
    delay,
    delay_embed_path,
    dual_word_to_path,
    higher_dual,
    higher_power,
    join_ids,
    opposite,
)
from .quiver import (
    QuiverEdge,
    QuiverPath,
    ReduceResult,
    SuspensionVertex,
    as_circle,
    base_vertex,
    compose,
    edge_path,
    edge_range,
    edge_source,
    fibre_dual,
    fibre_paths,
    fibre_words,
    from_dual_word,
    normalize_edge,
    normalize_vertex,
    openness_report,
    reduce_parameter,
    to_dual_word,
    varpi,
    vertex_along,
)
from .flow import (
    CylinderSpec,
    FlowPoint,
    apply_flow,
    cylinder_intersection,
    in_cylinder,
    in_cylinder_list,
    lattice_decomposition_check,
    make_flow_point,
    mu_vee,
    orbit_lines,
    theta_inf,
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
)
from .opalg import (
    FunctionOnEdges,
    FunctionOnVertices,
    check_tck,
    edge_fn_interpolated,
    eta_generators,
    jmath,
    kappa_eval,
    limit_formulas,
    matrix_unit,
    morita_combinatorics,
    rho_psi,
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
    hypothesis_check_closure,
    smith_normal_form,
    suspension_K,
)
from .report import Check, RunReport, rat_str

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
