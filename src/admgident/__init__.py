"""Identifiability certificates and dependence-minimizing estimation for
linear non-Gaussian structural equation models over mixed graphs.

Public names resolve on first use (PEP 562): `import admgident` loads no
submodule. Names from `admg` and `ident` need only the standard library;
names from `simulate`, `oracle` and `estimate` load numpy.
"""

import importlib

# public name -> the submodule that defines it
_HOMES = {
    "LatentFactorGraph": "admg",
    "MixedGraph": "admg",
    "bidirected_connected_components": "admg",
    "graph_from_json": "admg",
    "graph_to_json": "admg",
    "is_acyclic": "admg",
    "latent_projection_bidirected": "admg",
    "EstimateResult": "estimate",
    "KernelSpec": "estimate",
    "fit": "estimate",
    "gradient": "estimate",
    "hsic_biased": "estimate",
    "normalized_frobenius_loss": "estimate",
    "objective": "estimate",
    "polynomial_kernel": "estimate",
    "rbf_kernel": "estimate",
    "regression_init": "estimate",
    "residuals": "estimate",
    "FlowNetwork": "ident",
    "IdentReport": "ident",
    "build_flow_network": "ident",
    "cycle_decomposition_identifiable": "ident",
    "cyclic_necessary_condition": "ident",
    "genericity_sufficient": "ident",
    "is_identifiable": "ident",
    "is_identifiable_with_knowledge": "ident",
    "is_matrix_identifiable": "ident",
    "matrix_generically_identifiable": "ident",
    "max_flow": "ident",
    "removable_ancestors": "ident",
    "v_rank": "ident",
    "witness_paths": "ident",
    "a_matrix": "oracle",
    "brute_force_v_rank": "oracle",
    "cross_check_graph": "oracle",
    "enumerate_path_systems": "oracle",
    "fiber_dimension": "oracle",
    "fiber_dimension_modal": "oracle",
    "fiber_q_unique": "oracle",
    "gvl_check": "oracle",
    "nongeneric_locus_check": "oracle",
    "verify_sweep": "oracle",
    "Dataset": "simulate",
    "ErrorModel": "simulate",
    "ParamMatrix": "simulate",
    "empirical_cumulant": "simulate",
    "generate_data": "simulate",
    "path_matrix": "simulate",
    "random_admg": "simulate",
    "read_dataset": "simulate",
    "sample_errors": "simulate",
    "sample_factor_errors": "simulate",
    "sample_parameters": "simulate",
    "write_dataset": "simulate",
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's home submodule on first use and keep the value here."""
    home = _HOMES.get(name)
    if home is None:
        # Not a public name; `from admgident import admg` then falls back to importing the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
