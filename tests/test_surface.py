"""Every public top-level name of the package is reached by the program.

A public function, class or constant of ``src/hesselab`` counts as reached
when an ``ast.Name`` or ``ast.Attribute`` load outside its own definition
names it, in ``src/hesselab`` (the ``__init__`` re-exports aside) or in
``perfbench/*.py``.  Imports, strings and comments do not count, so a name
that survives only in an error message or a comment is caught.  ``KEPT``
lists the names that only tests reach, each with the reason it stays.

A field of a ``src/hesselab`` dataclass counts as read when an
``ast.Attribute`` load names it in ``src/hesselab``, ``perfbench/*.py`` or
``tests``; a field that is only ever written is caught.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hesselab"

KEPT = {
    "polarization_bounds": "the only check of the componentwise lemma",
    "reevaluate_witness": "re-evaluates a certificate's witness on the unit "
                          "sphere, the measure of the n >= 3 extremizer fault",
    "hsc_full": "checks the README's constant-2 calibration of the "
                "polarized sectional",
}


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _loads(tree: ast.Module):
    """(name, line) of each Name or Attribute load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unreached_names() -> set[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    loads = defaultdict(list)  # name -> (file, line) of each load
    for path, tree in trees.items():
        for name, line in _loads(tree):
            loads[name].append((path, line))
    unreached = set()
    for path in sources:
        if path.parent != PACKAGE:
            continue
        for name, first, last in _public_definitions(trees[path]):
            if all(p == path and first <= line <= last for p, line in loads[name]):
                unreached.add(name)
    return unreached


def test_every_public_name_is_reached_or_kept_for_a_reason():
    unreached = unreached_names()
    assert unreached - set(KEPT) == set(), "public names nothing reaches"
    assert set(KEPT) - unreached == set(), "kept names the program now reaches"


def _dataclass_fields(tree: ast.Module):
    """(class, field) of each annotated field of a @dataclass class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id


def unread_fields() -> set[str]:
    sources = sorted(PACKAGE.glob("*.py"))
    readers = sources + sorted((ROOT / "perfbench").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in readers}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{cls}.{name}" for p in sources for cls, name in _dataclass_fields(trees[p])
            if name not in read}


def test_every_dataclass_field_is_read():
    assert unread_fields() == set(), "dataclass fields nothing reads"
