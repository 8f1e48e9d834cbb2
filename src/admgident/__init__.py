"""Identifiability certificates and dependence-minimizing estimation for
linear non-Gaussian structural equation models over mixed graphs."""

from .admg import (
    LatentFactorGraph,
    MixedGraph,
    bidirected_connected_components,
    graph_from_json,
    graph_to_json,
    is_acyclic,
    latent_projection_bidirected,
)
from .estimate import (
    EstimateResult,
    KernelSpec,
    fit,
    gradient,
    hsic_biased,
    normalized_frobenius_loss,
    objective,
    polynomial_kernel,
    rbf_kernel,
    regression_init,
    residuals,
)
from .ident import (
    FlowNetwork,
    IdentReport,
    build_flow_network,
    cycle_decomposition_identifiable,
    cyclic_necessary_condition,
    genericity_sufficient,
    is_identifiable,
    is_identifiable_with_knowledge,
    is_matrix_identifiable,
    matrix_generically_identifiable,
    max_flow,
    removable_ancestors,
    v_rank,
    witness_paths,
)
from .oracle import (
    a_matrix,
    brute_force_v_rank,
    cross_check_graph,
    enumerate_path_systems,
    fiber_dimension,
    fiber_dimension_modal,
    fiber_q_unique,
    gvl_check,
    nongeneric_locus_check,
    verify_sweep,
)
from .simulate import (
    Dataset,
    ErrorModel,
    ParamMatrix,
    empirical_cumulant,
    generate_data,
    path_matrix,
    random_admg,
    read_dataset,
    sample_errors,
    sample_factor_errors,
    sample_parameters,
    write_dataset,
)

__version__ = "0.1.0"
