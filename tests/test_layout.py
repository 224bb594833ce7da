"""Guards on the package's layout: which modules touch files, and what it imports."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "margfact"
MODULES = sorted(PACKAGE.glob("*.py"))


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
