"""Every public name, method and property of the package is reached.

A public function, class or constant of ``src/hesselab`` counts as reached
when an ``ast.Name`` or ``ast.Attribute`` load outside its own definition
names it, in ``src/hesselab`` (the ``__init__`` re-exports aside) or in
``perfbench/*.py``.  Imports, strings and comments do not count, so a name
that survives only in an error message or a comment is caught.  A public
method or property ``Class.member`` of a ``src/hesselab`` class counts as
reached when an ``ast.Attribute`` load outside its own definition names the
member in the same files.  ``KEPT`` lists the names and members that only
tests reach, each with the reason it stays.

A field of a ``src/hesselab`` dataclass counts as read when an
``ast.Attribute`` load names it in ``src/hesselab``, ``perfbench/*.py`` or
``tests``; a field that is only ever written is caught.

A defaulted parameter of a public function or method of ``src/hesselab``
(``__init__`` aside) counts as passed when a call in ``src/hesselab`` or
``perfbench/*.py`` passes it, by keyword or by position.
``KEPT_PARAMETERS`` lists the parameters that only tests pass, each with
the reason it stays.  A bare-name call in a file that defines a function of
that name (outside a class body) calls that file's own function, so it
counts for that function alone: ``perfbench/selftest.py``'s local
``run(**orth)`` passes nothing to ``flow.run``.  Every other call is matched
by the callee's name alone, and a ``**mapping`` or ``*sequence`` argument
counts as passing every keyword or later positional parameter.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hesselab"

KEPT = {
    "polarization_bounds": "the only check of the componentwise lemma",
    "reevaluate_witness": "re-evaluates a certificate's witness, as the tests "
                          "that HSC_POL witnesses reproduce their value need",
    "hsc_full": "checks the README's constant-2 calibration of the "
                "polarized sectional",
    "AlgCurvTensor.from_text": "reads a serialized tensor back, as the checks "
                               "of noab_counterexample.txt need",
}

KEPT_PARAMETERS = {
    "ricci_average.direction": "criterion 11 averages along given directions; "
                               "berger-suite draws its directions with a seed",
    "hsc_full.normalized": "hsc_full is kept, and its tests read both values",
    "polarization_bounds.check_sign": "polarization_bounds is kept, and its tests "
                                      "read both values",
    "run_config.outdir": "an entry point: a caller names the output directory",
    "main.argv": "an entry point: a caller passes the command line",
}


def _trees() -> dict:
    """Path -> parsed module of src/hesselab (its __init__ re-exports aside)
    and perfbench/*.py."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}


def _public_definitions(tree: ast.Module):
    """(name, name, first line, last line) of each public top-level
    definition: the name is its own key."""
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
                yield name, name, node.lineno, node.end_lineno


def _loads(tree: ast.Module, kinds: tuple):
    """(name, line) of each load by a node of the given kinds (ast.Name,
    ast.Attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load):
            yield node.attr if isinstance(node, ast.Attribute) else node.id, node.lineno


def _public_members(tree: ast.Module):
    """(Class.member, member, first line, last line) of each public method
    or property of a top-level class: the qualified name is its key."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _unreached(definitions, kinds: tuple) -> set[str]:
    """Keys of the package's definitions (the generator definitions(tree)
    yields (key, name, first line, last line)) whose name has no load by a
    node of the given kinds outside the definition's own lines."""
    trees = _trees()
    loads = defaultdict(list)  # name -> (file, line) of each load
    for path, tree in trees.items():
        for name, line in _loads(tree, kinds):
            loads[name].append((path, line))
    return {key for path in trees if path.parent == PACKAGE
            for key, name, first, last in definitions(trees[path])
            if all(p == path and first <= line <= last for p, line in loads[name])}


def unreached_names() -> set[str]:
    return _unreached(_public_definitions, (ast.Name, ast.Attribute))


def unreached_members() -> set[str]:
    return _unreached(_public_members, (ast.Attribute,))


def test_every_public_name_is_reached_or_kept_for_a_reason():
    unreached, kept = unreached_names(), {k for k in KEPT if "." not in k}
    assert unreached - kept == set(), "public names nothing reaches"
    assert kept - unreached == set(), "kept names the program now reaches"


def test_every_public_method_is_reached_or_kept_for_a_reason():
    unreached, kept = unreached_members(), {k for k in KEPT if "." in k}
    assert unreached - kept == set(), "public methods and properties nothing reaches"
    assert kept - unreached == set(), "kept members the program now reaches"


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


def _defaulted_parameters(tree: ast.Module):
    """(function.parameter, function name, parameter, position, method) of
    each defaulted parameter of a public top-level function or public method
    (keyed Class.method.parameter); position counts the arguments a call
    passes before it (None for keyword-only parameters)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):  # a call passes no self or cls
            functions = [(f"{node.name}.{item.name}", item, 1) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for key, fn, bound in functions:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield f"{key}.{arg.arg}", fn.name, arg.arg, i - bound, bool(bound)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{key}.{arg.arg}", fn.name, arg.arg, None, bool(bound)


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(k.arg in (None, parameter) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def _local_functions(tree: ast.Module) -> set[str]:
    """Names of the functions a file defines outside class bodies."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and id(node) not in methods}


def unpassed_parameters() -> set[str]:
    trees = _trees()
    calls = defaultdict(list)  # (callee name, defining file or None) -> calls
    for path, tree in trees.items():
        local = _local_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id, path if func.id in local else None].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr, None].append(node)
    return {key for path, tree in trees.items() if path.parent == PACKAGE
            for key, name, parameter, position, method in _defaulted_parameters(tree)
            if not any(_passes(call, parameter, position)
                       for call in calls[name, None] + ([] if method else calls[name, path]))}


def test_every_defaulted_parameter_is_passed_or_kept_for_a_reason():
    unpassed, kept = unpassed_parameters(), set(KEPT_PARAMETERS)
    assert unpassed - kept == set(), "defaulted parameters only tests pass"
    assert kept - unpassed == set(), "kept parameters the program now passes"
