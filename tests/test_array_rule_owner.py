"""One owner of the array rule: graphs._require_array is the only function
in the package that calls np.asarray, so every array a caller hands in
meets one dtype rule, one ragged-nesting rule and one bool-entry scan, and
a hand-written array check cannot creep back in beside it. Likewise
graphs._is_index, the per-value integer test, is called only by the scalar
rules require_int and require_real, so no per-element integer walk (over
edges, ids or anything else) can come back beside the array rule."""

import ast
from pathlib import Path

import gwmixer

PACKAGE = Path(gwmixer.__file__).parent


def _callers(name, package=PACKAGE):
    """(file, innermost enclosing function) of every call of name in the
    package's modules, in source order, called as an attribute (np.asarray,
    numpy.asarray, graphs._is_index) or as a bare imported name."""
    callers = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        calls = []
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if isinstance(node, ast.Call) and called == name:
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(inside, key=lambda f: f.lineno, default=None)
                calls.append((node.lineno, getattr(owner, "name", "<module>")))
        callers += [(path.relative_to(package).as_posix(), owner) for _, owner in sorted(calls)]
    return callers


def test_only_the_array_rule_calls_asarray():
    assert _callers("asarray") == [("graphs.py", "_require_array")]


def test_only_the_scalar_rules_call_is_index():
    assert _callers("_is_index") == [("graphs.py", "require_int"), ("graphs.py", "require_real")]


def test_a_stray_asarray_call_is_caught(tmp_path):
    (tmp_path / "stray.py").write_text(
        "from numpy import asarray\nimport numpy\n\n\n"
        "def check(x):\n    return asarray(x)\n\n\n"
        "class Reader:\n    def read(self, x):\n        return numpy.asarray(x, dtype=float)\n")
    assert _callers("asarray", tmp_path) == [("stray.py", "check"), ("stray.py", "read")]


def test_a_stray_is_index_call_is_caught(tmp_path):
    (tmp_path / "walk.py").write_text(
        "from .graphs import _is_index\nfrom . import graphs\n\n\n"
        "def pairs(edges):\n    return [e for e in edges if _is_index(e[0])]\n\n\n"
        "def ids(values):\n    return all(graphs._is_index(v) for v in values)\n")
    assert _callers("_is_index", tmp_path) == [("walk.py", "pairs"), ("walk.py", "ids")]
