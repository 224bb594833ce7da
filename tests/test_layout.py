"""Guards on the package's layout: which modules touch files, what it imports, and
the names the benchmark reads and its tracer wraps."""

import ast
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

from margfact import Model

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "margfact"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = PACKAGE.parent.parent / "bench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    """Top-level names of the absolute imports in tree; relative imports are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def opens_files(tree):
    """Whether tree calls open(), bare or as an attribute (io.open, os.open, ...)."""
    return any(isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "open"
                    or getattr(node.func, "attr", None) == "open")
               for node in ast.walk(tree))


def test_package_modules_found():
    assert {"data_io.py", "model.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_data_io_reads_or_writes_files(path):
    tree = parse(path)
    file_formats = {"json", "csv"} & set(imported_names(tree))
    if path.name == "data_io.py":
        assert file_formats == {"json", "csv"} and opens_files(tree)
    else:
        assert not file_formats, f"{path.name} imports {sorted(file_formats)}"
        assert not opens_files(tree), f"{path.name} calls open()"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_numpy_is_the_only_third_party_import(path):
    third_party = set(imported_names(parse(path))) - sys.stdlib_module_names
    assert third_party <= {"numpy"}, f"{path.name} imports {sorted(third_party)}"


def test_import_leaves_the_process_pool_modules_out():
    # five_fold_cv imports them when it runs: at module level they would add
    # 15-30 ms to the set-up of every program that imports margfact
    pool_modules = ["multiprocessing", "concurrent.futures.process"]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, margfact; print([m for m in {pool_modules} "
                               "if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def tracer_bindings():
    """The (module, attribute, span) triples of bench/tracer.py's BINDINGS, read
    without importing it."""
    tree = parse(BENCH / "tracer.py")
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["BINDINGS"])
    return ast.literal_eval(node.value)


def test_every_tracer_binding_resolves():
    # the benchmark's traced run wraps each name where its caller looks it up
    bindings = tracer_bindings()
    assert ("margfact.solver", "objective", "model.objective") in bindings
    for module, attribute, _ in bindings:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute}")


def margfact_reads(path):
    """The dotted margfact names the script at path reads: each name it imports
    from margfact, and each attribute it reads on one of those names."""
    tree = parse(path)
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            local.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            local.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                         for alias in node.names)
    local = {name: dotted for name, dotted in local.items()
             if dotted.partition(".")[0] == "margfact"}
    return set(local.values()) | {
        f"{local[node.value.id]}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in local}


def test_every_name_the_benchmark_reads_resolves():
    # tier-1 does not run bench's own tests, so this is where a deleted name shows
    reads = margfact_reads(BENCH / "workloads.py") | margfact_reads(BENCH / "run.py")
    assert {"margfact.model.objective", "margfact.data_io.save_observations"} <= reads
    for dotted in sorted(reads):
        pkgutil.resolve_name(dotted)
    # heldout_nll_per_cell calls terms() on a fitted model
    assert callable(getattr(Model, "terms", None)), "Model.terms"
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        workload.spec(0)  # its SolverConfig keywords must all still exist
