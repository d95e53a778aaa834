import ast
import importlib
import re
from pathlib import Path

import pytest

import su21
from su21.value import Value

SRC = Path(su21.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

# README's Python API, the types it takes or returns, and the errors
# weight_denominator_of raises
API = [
    "DenominatorReport",
    "GroupMatrix",
    "IndexOverflowError",
    "InfiniteOrderError",
    "OracleInconsistencyError",
    "SubgroupSpec",
    "decompose",
    "generators_upsilon",
    "multiplier_system_exists",
    "sigma",
    "survey_index3",
    "weight_denominator_of",
    "__version__",
]

# names the package namespace used to re-export, by the module defining them
MODULE_ONLY = {
    "matgroup": (
        "F_map", "IDENTITY", "ZETA_IDENTITY", "all_index3_vectors",
        "in_gamma_sqrt3", "in_upsilon", "make_n",
    ),
    "cocycle": ("COVER_IDENTITY", "CoverElement", "cover_inv", "cover_mul"),
    "fpgroup": (
        "CosetGraph", "Presentation", "Word", "evaluate_word",
        "lift_word", "reidemeister_schreier", "upsilon_presentation",
    ),
    "zlinalg": (
        "cokernel_invariants", "eliminate_unit_pivots", "hermite_normal_form",
        "last_coordinate_order_of_hnf", "smith_normal_form",
    ),
    "weightdenom": ("weight_denominator",),
    "gendecomp": ("first_column_height", "nearest_lattice_point"),
}


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from su21 import *", namespace)  # raises AttributeError on a stale name
    assert su21.__all__ == API
    assert [name for name in su21.__all__ if name not in namespace] == []
    # helpers that only tests called live in tests/helpers.py, and so does
    # EisensteinInt, the reference arithmetic of the package's (a, b) pairs
    for removed in ("order_of_last_coordinate", "central_commutator_witness", "EisensteinInt"):
        assert not hasattr(su21, removed)
    assert importlib.util.find_spec("su21.eisenstein") is None


def test_other_names_import_only_from_their_modules():
    """Each name dropped from the package namespace is still defined in
    its own module, so only the second import path went."""
    assert sum(len(names) for names in MODULE_ONLY.values()) == 26
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module("su21." + module_name)
        for name in names:
            value = getattr(module, name)
            if callable(value):
                assert value.__module__ == module.__name__, name
            assert name not in vars(su21), name


def _readme_python_block() -> str:
    section = README.read_text().split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_api_block_runs_as_commented():
    """README's Python API block runs, and each expression line whose
    comment is a literal evaluates to that literal."""
    block = _readme_python_block()
    lines = block.splitlines()
    namespace, values, comments = {}, {}, {}
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        try:
            comments[code] = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue  # a prose comment
        values[code] = value
    assert values == comments
    assert comments == {
        "report.weight_denominator": 3,
        "report.index_in_upsilon": 81,
        "report.torsion_invariants": (3,) * 7,
        "report.free_rank": 10,
        'multiplier_system_exists(SubgroupSpec.parse("gamma3"), Fraction(1, 3))': True,
        "spec.name()": "index9:1,0,0,0;0,1,0,0",
        "spec.index_in_upsilon()": 9,
    }


def _import_problems(path: Path) -> list:
    """Imports below module level, and imported names the module never
    reads (from __future__ imports aside)."""
    tree = ast.parse(path.read_text())
    problems, bound = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if node not in tree.body:
            problems.append("line %d: import below module level" % node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    problems += [
        "line %d: %s is imported but never used" % (line, name)
        for name, line in bound.items()
        if name not in used
    ]
    return problems


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_imports_are_top_level_and_used(path):
    assert _import_problems(path) == []


# Value writes the protocol of the immutable value types once; GroupMatrix
# extends Value's __setstate__ with a check of its coordinates, since a
# pickle from before that field existed holds its rows
PROTOCOL = {"__setattr__", "__delattr__", "__reduce__", "__setstate__", "__eq__", "__hash__"}
WRITES_PROTOCOL = {
    "Value": PROTOCOL,
    "GroupMatrix": {"__setstate__"},
}
VALUE_TYPES = {
    "matgroup": ("GroupMatrix", "SubgroupSpec"),
    "fpgroup": ("Word", "Presentation"),
    "cocycle": ("CoverElement",),
}


def _subclasses_value(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "Value" for b in node.bases)


def _protocol_problems(path: Path) -> list:
    """Classes that write their own copy of the value-type protocol, and
    Value subclasses that declare no __slots__ of their own."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for name in sorted(defined & PROTOCOL - WRITES_PROTOCOL.get(node.name, set())):
            problems.append("line %d: %s defines %s" % (node.lineno, node.name, name))
        assigned = {
            target.id
            for item in node.body
            if isinstance(item, ast.Assign)
            for target in item.targets
            if isinstance(target, ast.Name)
        }
        if _subclasses_value(node) and "__slots__" not in assigned:
            problems.append("line %d: %s declares no __slots__" % (node.lineno, node.name))
    return problems


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_value_protocol_is_written_once(path):
    assert _protocol_problems(path) == []


def _value_subclasses() -> dict:
    """The classes under src/su21 that subclass Value, by module, in
    source order."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _subclasses_value(node):
                found[path.stem] = found.get(path.stem, ()) + (node.name,)
    return found


def _readme_value_types() -> set:
    """The value types named by the first sentence of README's su21.value
    entry."""
    entry = README.read_text().split("- `su21.value` — ", 1)[1]
    return set(re.findall(r"`(\w+)`", entry.split(". ", 1)[0])) - {"Value"}


def test_value_types_subclass_value():
    """VALUE_TYPES and README's list are the Value subclasses the source
    defines, so neither can go stale."""
    assert _value_subclasses() == VALUE_TYPES
    assert _readme_value_types() == {name for names in VALUE_TYPES.values() for name in names}
    for module_name, names in VALUE_TYPES.items():
        module = importlib.import_module("su21." + module_name)
        for name in names:
            assert issubclass(getattr(module, name), Value), name


# Module-level names that nothing under src/su21 reads and su21.__all__ does
# not export, each kept on purpose
UNREAD_BY_DESIGN = {}


def _unread_names() -> set:
    """Module-level names defined under src/su21 that no module there reads
    and su21.__all__ does not list."""
    defined, read = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        read |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    return {
        name
        for name in defined - read - set(su21.__all__)
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_every_module_level_name_is_read_or_exported():
    """A helper that only tests call is either deleted or listed, with its
    reason, in UNREAD_BY_DESIGN; a listed name that is read again leaves
    the list."""
    assert _unread_names() == set(UNREAD_BY_DESIGN)
