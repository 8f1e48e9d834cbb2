"""What the package exposes, what importing it loads, and how its modules layer."""

import ast
import graphlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in Path(admgident.__file__).parent.glob("*.py")}


def _relative_imports(tree) -> list:
    """(sibling module, whether the import sits inside a function) per relative import in `tree`."""
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                out.extend((name, in_function) for name in ([child.module] if child.module else [a.name for a in child.names]))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return out


def test_modules_layer_without_cycles():
    # admg -> ident -> simulate -> {oracle, estimate} -> cli: the model layer imports no verifier.
    modules = _modules()
    imports = {name: _relative_imports(tree) for name, tree in modules.items()}
    assert [(name, sibling) for name, found in imports.items() for sibling, inside in found if inside] == []
    # static_order raises graphlib.CycleError on an import cycle
    list(graphlib.TopologicalSorter({name: {sibling for sibling, _ in found} for name, found in imports.items()}).static_order())
    assert "oracle" not in {sibling for sibling, _ in imports["simulate"] + imports["estimate"]}
    seeded = {
        name for name, tree in modules.items() for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) in ("SeedSequence", "default_rng")
    }
    assert seeded == {"simulate"}
    assert "numpy" not in {alias.name for node in ast.walk(modules["cli"]) if isinstance(node, ast.Import) for alias in node.names}
