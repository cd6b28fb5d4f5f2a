"""Static checks on the package source, run with the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skewtwist"


def _annotation_strings(tree):
    """String annotations ("TwistTriple"), whose names ast sees only as text."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def imported_names(tree) -> list[str]:
    """The names a module's import statements bind, in source order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, in source order."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = {
        n.id
        for root in [tree, *_annotation_strings(tree)]
        for n in ast.walk(root)
        if isinstance(n, ast.Name)
    }
    return [name for name in imported if name not in used]


def test_unused_import_check_sees_reads_through_attributes_and_annotations():
    source = (
        "import os\nimport sys\nimport os.path as osp\nfrom . import errors\n"
        "from .tables import PairMap, Perm\n"
        "def f(x: 'Perm') -> None:\n    raise errors.BadParams(sys.argv)\n"
    )
    assert unused_imports(source) == ["os", "osp", "PairMap"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    # __init__.py is left out: its imports are the package's re-exports.
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_reexport_list_matches_the_imports():
    # The names __init__.py imports are the package's re-exports; __all__
    # lists each of them once and nothing else.
    import skewtwist

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(skewtwist.__all__) == sorted(set(imported_names(tree)))


# The idiom that scans two sequences for their first differing index.
SCAN_IDIOM = {("itertools", "compress"), ("operator", "ne")}


def scan_idiom_uses(source: str) -> list[tuple[str, str]]:
    """The SCAN_IDIOM names a module imports, by `from m import name` or as
    an attribute of an imported module (`itertools.compress`), in walk order."""
    tree = ast.parse(source)
    modules = {
        a.asname or a.name: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.module, a.name) for a in node.names if (node.module, a.name) in SCAN_IDIOM]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (modules.get(node.value.id), node.attr) in SCAN_IDIOM:
                found.append((modules[node.value.id], node.attr))
    return found


def test_scan_idiom_check_sees_both_import_forms():
    source = (
        "import itertools\nimport operator as op\nfrom itertools import count\n"
        "from operator import itemgetter, ne\n"
        "i = next(itertools.compress(count(), map(op.ne, a, b)))\n"
    )
    want = [("itertools", "compress"), ("operator", "ne"), ("operator", "ne")]
    assert sorted(scan_idiom_uses(source)) == want
    assert scan_idiom_uses("from itertools import chain\nimport operator\nf = operator.eq\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_tables_scans_for_a_first_difference(module):
    # tables.first_failure is the one first-failure scan; any other module
    # that needs a least failing point calls it instead of scanning itself.
    uses = scan_idiom_uses((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(uses) == (sorted(SCAN_IDIOM) if module == "tables.py" else [])


def foreign_imports(source: str) -> list[str]:
    """The top-level modules a module imports that are neither the package
    (relative imports and skewtwist) nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.partition(".")[0]]
        else:
            continue
        found += [m for m in roots if m != "skewtwist" and m not in sys.stdlib_module_names]
    return found


def test_foreign_import_check_sees_third_party_modules():
    source = (
        "from __future__ import annotations\nimport os, numpy as np\n"
        "from . import tables\nfrom .errors import BadParams\nfrom skewtwist import cli\n"
        "from sympy.core import S\nimport hypothesis.strategies\n"
    )
    assert foreign_imports(source) == ["numpy", "sympy", "hypothesis"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_imports_only_itself_and_the_standard_library(module):
    # numpy, sympy and hypothesis are for the tests; the library runs on the
    # standard library alone.
    assert foreign_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
