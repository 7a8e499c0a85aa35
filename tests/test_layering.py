"""Import layering: every module imports only from modules of strictly lower rank.

Modules of equal rank (composer and mappers; training and retrieval) may not
import each other. The package ``__init__`` imports no package module: callers
import the modules themselves. The benchmark's span tracer names functions
of these modules too, and each must still exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cirmap
from oracles import spans

RANKS = {
    "errors": 0,
    "fileio": 1,
    "autodiff": 2,
    "composer": 3,
    "mappers": 3,
    "mining": 4,
    "losses": 5,
    "training": 6,
    "retrieval": 6,
    "worldgen": 7,
    "config": 8,
    "cli": 9,
}
PACKAGE_DIR = Path(cirmap.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def package_imports(module: str) -> set[str]:
    """Names of the package modules that ``module`` imports."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cirmap"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cirmap" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_is_ranked():
    assert set(MODULES) == set(RANKS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_ranks(module):
    upward = sorted(
        dep for dep in package_imports(module) if RANKS.get(dep, len(RANKS)) >= RANKS[module]
    )
    assert upward == [], f"{module} (rank {RANKS[module]}) imports {upward}"


def test_parser_sees_relative_imports():
    assert package_imports("retrieval") >= {"autodiff", "composer", "mappers", "errors"}
    assert package_imports("cli") >= {"config", "fileio", "mining", "worldgen", "training"}


def test_mining_reads_plain_arrays():
    # selection is bookkeeping over detached values, so it needs no tape types
    assert package_imports("mining") == {"errors"}


def test_package_root_imports_no_module():
    assert package_imports("__init__") == set()


def test_cli_reads_no_embedding_file_itself():
    # Each data file is checked where it is read (fileio, worldgen, mappers),
    # so the CLI holds no file-format check of its own.
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    assert "read_embedding_pair" in read and "read_embeddings" not in read


def names_read_from_autodiff(module: str) -> set[str]:
    """Names that ``module`` reads from autodiff: those it imports by name and
    the attributes it reads off the module's alias."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                used.update(alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == "autodiff")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add(node.attr)
    return used


def test_every_public_autodiff_function_has_a_package_caller():
    # The op set is the set of ops the pipeline records: an op that only the
    # tests call is surface to keep correct for no caller.
    tree = ast.parse((PACKAGE_DIR / "autodiff.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set().union(*(names_read_from_autodiff(m) for m in MODULES if m != "autodiff"))
    assert "linear" in public and "Tensor" in used
    assert sorted(public - used) == []


# Traced functions that no longer exist: the benchmark's span table still
# names them, and a change to the benchmark drops them from it.
STALE_BOUNDARIES = {
    "cirmap.composer.PromptComposer.compose",
    "cirmap.composer.PromptComposer.prompt_text",
    "cirmap.composer.PromptComposer.prompt_text_rows",
    "cirmap.mappers.map_token",
    "cirmap.losses.loss_ts",
    "cirmap.losses.loss_deg",
    "cirmap.losses.info_nce_bidirectional",
    "cirmap.retrieval.recall_at_k",
    "cirmap.retrieval.map_at_k",
    "cirmap.retrieval.average_precision_at_k",
}


def test_every_traced_function_exists():
    # The benchmark times each layer by wrapping the functions its span
    # table names; a renamed or deleted one would drop out of its timings.
    for module in MODULES:
        importlib.import_module(f"cirmap.{module}")
    with spans.Tracer(spans.Recorder()) as tracer:
        pass
    missing = set(tracer.absent) - STALE_BOUNDARIES
    assert not missing, f"traced functions not found: {sorted(missing)}"
