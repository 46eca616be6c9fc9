"""One owner of the array rule: graphs._require_array is the only function
in the package that calls np.asarray, so every array a caller hands in
meets one dtype rule, one ragged-nesting rule and one bool-entry scan, and
a hand-written array check cannot creep back in beside it."""

import ast
from pathlib import Path

import gwmixer

PACKAGE = Path(gwmixer.__file__).parent


def _asarray_callers(package=PACKAGE):
    """(file, innermost enclosing function) of every asarray call in the
    package's modules, called as np.asarray, numpy.asarray or a bare
    imported asarray."""
    callers = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if isinstance(node, ast.Call) and name == "asarray":
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(inside, key=lambda f: f.lineno, default=None)
                callers.append((path.relative_to(package).as_posix(),
                                getattr(owner, "name", "<module>")))
    return callers


def test_only_the_array_rule_calls_asarray():
    assert _asarray_callers() == [("graphs.py", "_require_array")]


def test_a_stray_asarray_call_is_caught(tmp_path):
    (tmp_path / "stray.py").write_text(
        "from numpy import asarray\nimport numpy\n\n\n"
        "def check(x):\n    return asarray(x)\n\n\n"
        "class Reader:\n    def read(self, x):\n        return numpy.asarray(x, dtype=float)\n")
    assert _asarray_callers(tmp_path) == [("stray.py", "check"), ("stray.py", "read")]
