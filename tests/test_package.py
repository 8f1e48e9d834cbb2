"""What the package exposes and what importing it loads."""

import inspect
import os
import subprocess
import sys

import admgident
from admgident import graph_to_json, random_admg

PUBLIC_NAMES = [
    "Dataset", "ErrorModel", "EstimateResult", "FlowNetwork", "IdentReport", "KernelSpec",
    "LatentFactorGraph", "MixedGraph", "ParamMatrix", "a_matrix", "bidirected_connected_components",
    "brute_force_v_rank", "build_flow_network", "cross_check_graph", "cycle_decomposition_identifiable",
    "cyclic_necessary_condition", "empirical_cumulant", "enumerate_path_systems", "fiber_dimension",
    "fiber_dimension_modal", "fiber_q_unique", "fit", "generate_data", "genericity_sufficient", "gradient",
    "graph_from_json", "graph_to_json", "gvl_check", "hsic_biased", "is_acyclic", "is_identifiable",
    "is_identifiable_with_knowledge", "is_matrix_identifiable", "latent_projection_bidirected",
    "matrix_generically_identifiable", "max_flow", "nongeneric_locus_check", "normalized_frobenius_loss",
    "objective", "path_matrix", "polynomial_kernel", "random_admg", "rbf_kernel", "read_dataset",
    "regression_init", "removable_ancestors", "residuals", "sample_errors", "sample_factor_errors",
    "sample_parameters", "v_rank", "verify_sweep", "witness_paths", "write_dataset",
]


def test_public_names():
    # Submodules are left out: which of them are attributes depends on what was imported before.
    names = [n for n in dir(admgident) if not n.startswith("_") and not inspect.ismodule(getattr(admgident, n))]
    assert names == PUBLIC_NAMES


def test_check_leaves_scipy_optimize_unloaded(tmp_path):
    # Only `estimate` fits need scipy; a fresh interpreter shows what `check` loads.
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(random_admg(25, 0.5, 0)))
    script = "import sys; from admgident.cli import main; main(sys.argv[1:]); print('scipy.optimize' in sys.modules, file=sys.stderr)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(admgident.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", script, "check", str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0
    assert done.stderr == "False\n"
