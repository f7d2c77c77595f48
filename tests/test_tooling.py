"""The benchmark's span tracer keeps finding what it wraps."""

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
