"""Every public top-level name of the package is reached by the program.

A public function, class or constant of ``src/hesselab`` counts as reached
when an ``ast.Name`` or ``ast.Attribute`` load outside its own definition
names it, in ``src/hesselab`` (the ``__init__`` re-exports aside) or in
``perfbench/*.py``.  Imports, strings and comments do not count, so a name
that survives only in an error message or a comment is caught.  ``KEPT``
lists the names that only tests reach, each with the reason it stays.
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
