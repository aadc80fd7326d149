"""Lint: no built-in ``hash()`` outside ``__hash__`` methods.

Python randomizes ``hash()`` of str and bytes per process, so a seed,
shard key or fixture derived from it is different data on every run.
Seeds and keys here come from SHA-256 instead.  This test walks the
syntax tree of every module under ``src/`` and of the shared test
helpers (``tests/*.py``, every ``conftest.py``) and fails on any call
to the built-in ``hash`` except inside a ``__hash__`` method, where it
is the object protocol and never feeds data.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _scanned_files():
    tests = ROOT / "tests"
    files = set((ROOT / "src").rglob("*.py"))
    files.update(tests.glob("*.py"))
    files.update(tests.rglob("conftest.py"))
    return sorted(files)


def _is_builtin_hash(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "hash"
    return (isinstance(func, ast.Attribute) and func.attr == "hash"
            and isinstance(func.value, ast.Name)
            and func.value.id == "builtins")


def _hash_calls(tree):
    """``(lineno, enclosing function)`` of each built-in hash call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _is_builtin_hash(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _offenders(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return ["{}:{}".format(path.relative_to(ROOT), lineno)
            for lineno, function in _hash_calls(tree)
            if function != "__hash__"]


def test_no_builtin_hash_outside_dunder_hash():
    files = _scanned_files()
    assert any(p.name == "synthetic.py" for p in files)
    offenders = [o for path in files for o in _offenders(path)]
    assert not offenders, (
        "built-in hash() is randomized per process; derive seeds and "
        "keys from hashlib instead: {}".format(", ".join(offenders)))


def test_lint_flags_seed_derivation_and_spares_dunder_hash():
    source = (
        "import builtins\n"
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return hash((self.a, self.b))\n"
        "def seed(params):\n"
        "    return hash(params.tobytes())\n"
        "def other(x):\n"
        "    return builtins.hash(x)\n"
        "def fine(x):\n"
        "    return x.hash()\n")
    calls = _hash_calls(ast.parse(source))
    assert calls == [(4, "__hash__"), (6, "seed"), (8, "other")]
