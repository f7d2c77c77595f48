"""Tooling guards: the benchmark's span tracer keeps finding what it wraps,
and the package carries no API that only the tests use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_targets_resolve_in_their_owners(monkeypatch):
    """`perfbench/run.py --trace 1` wraps each target as vars(owner)[attr], so
    a traced method moved into a base class, or a renamed function, must
    fail here rather than break the traced run."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.trace import _targets

    targets = _targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []


# public names the program keeps without a caller in src/ or perfbench/
ALLOWED_WITHOUT_CALLER = {
    "gauge_transform": "user API, checked by acceptance criterion 2",
    "calligraphic_q": "the paper's combined null form, which pins calligraphic_q_factors "
                      "to the named forms in the tests",
    "PlaneWaveField.sample": "point values of an exact field, for inspecting it",
}


def _trees(directory):
    return [ast.parse(p.read_text(), filename=str(p))
            for p in sorted((ROOT / directory).rglob("*.py"))]


def test_package_has_no_test_only_api():
    """Every public top-level function and class of the package, and every
    public method, is referenced from src/ or perfbench/ (by name, attribute
    or import, or as a trace target string), or allowed above."""
    src, bench = _trees("src"), _trees("perfbench")
    public = []  # (name, qualified name)
    for tree in _trees("src/ym2d"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                public.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                public += [(f.name, f"{node.name}.{f.name}") for f in node.body
                           if isinstance(f, ast.FunctionDef) and f.name[0] != "_"]
    used = set()
    for node in (n for tree in src + bench for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    used.update(n.value for tree in bench for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str))
    unused = sorted(q for name, q in public
                    if name not in used and q not in ALLOWED_WITHOUT_CALLER)
    assert unused == []
