"""What the package exposes, what importing it loads, and how its modules layer."""

import ast
import builtins
import graphlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_private_definitions_are_used_in_src():
    # A private top-level function or class that no src/ code outside its own definition
    # references is test-only code, and belongs in the tests.
    modules = _modules()
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__") and node.name.endswith("__"):
                continue
            outside = [other for other in modules.values() if other is not tree] + [n for n in tree.body if n is not node]
            names = {getattr(n, "id", getattr(n, "attr", None)) for part in outside for n in ast.walk(part)}
            if node.name not in names:
                unused.append(f"{name}.{node.name}")
    assert unused == []


def _attributes(tree, dotted: str) -> list:
    """Every attribute node in `tree` that reads as `dotted`, such as "json.dumps"."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and ast.unparse(node) == dotted]


def test_json_documents_and_stdout_have_one_writer():
    # admg.dump_json renders every JSON document the package writes; cli writes stdout only in _emit.
    modules = _modules()
    assert {name for name, tree in modules.items() if _attributes(tree, "json.dumps")} == {"admg"}
    for name in ("cli", "ident"):
        tree = modules[name]
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "json" not in imported, name
    emit = next(node for node in modules["cli"].body if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    assert len(_attributes(modules["cli"], "sys.stdout.write")) == len(_attributes(emit, "sys.stdout.write")) == 1


def _where(modules: dict, found) -> list:
    """(module, top-level function or class, or "<module>") of every node in `modules` that `found` accepts."""
    return sorted(
        (name, getattr(top, "name", "<module>")) for name, tree in modules.items() for top in tree.body
        for node in ast.walk(top) if found(node)
    )


def test_each_precondition_has_one_guard():
    # "g is a DAG" is tested by admg._require_acyclic; `check` refuses --edge on a cyclic graph
    # itself, before the edge is parsed, which decides its exit code.  "ds is bound to g" is
    # simulate._require_columns: no other code compares dataset columns with graph vertices.
    modules = _modules()

    def raises_cyclic(node):
        return isinstance(node, ast.Raise) and "CyclicGraph" in {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    def compares_columns(node):
        attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} if isinstance(node, ast.Compare) else set()
        return {"columns", "vertices"} <= attrs

    assert _where(modules, raises_cyclic) == [("admg", "_require_acyclic"), ("cli", "cmd_check")]
    assert _where(modules, compares_columns) == [("simulate", "_require_columns")]


def test_exception_classes_live_in_errors():
    # An error is raised as its public type where it is found: no private exception type
    # exists to be relayed, or to escape a public call when a relay misses it.
    classes = [(name, node) for name, tree in _modules().items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    for _ in classes:  # each pass reaches one base further down every chain
        found = {(name, node.name) for name, node in classes if exceptions & {ast.unparse(b).split(".")[-1] for b in node.bases}}
        exceptions |= {cls for _, cls in found}
    assert {name for name, _ in found} == {"errors"}, sorted(found)


def _fresh(script: str) -> str:
    """Stdout of `script` run by a fresh interpreter that finds admgident where this test did."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(admgident.__file__))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_numpy_and_no_submodule():
    script = "import sys, admgident; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('admgident.')))"
    assert _fresh(script) == "[]\n"


def test_graph_names_leave_numpy_unloaded():
    # admg and ident need only the standard library.
    script = (
        "import sys, admgident as ai; "
        "g = ai.MixedGraph(['a', 'b', 'c'], directed=[('a', 'b'), ('b', 'c')], bidirected=[('b', 'c')]); "
        "print(ai.is_matrix_identifiable(g).all_identifiable, 'numpy' in sys.modules)"
    )
    assert _fresh(script) == "True False\n"


def test_fit_loads_estimate_but_not_scipy_optimize():
    script = "import sys, admgident; admgident.fit; print('admgident.estimate' in sys.modules, 'scipy.optimize' in sys.modules)"
    assert _fresh(script) == "True False\n"


def test_public_names_are_their_home_modules_objects():
    for name in PUBLIC_NAMES:
        value = getattr(admgident, name)
        home = sys.modules[value.__module__]
        assert home is not admgident and home.__name__.startswith("admgident."), name
        assert getattr(home, name) is value, name


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="^module 'admgident' has no attribute 'no_such'$"):
        admgident.no_such


def test_from_import_of_unknown_name_is_an_import_error():
    with pytest.raises(ImportError, match="no_such"):
        exec("from admgident import no_such", {})


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from admgident import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(admgident, name) for name in PUBLIC_NAMES)
