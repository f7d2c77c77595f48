"""The counts and constants the README states, read back from their source."""

import re
from pathlib import Path

from scipy.optimize import brentq

from test_evolve import RHS_PRODUCTS
from ym2d.estimates import elliptic_i_limit

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _stated(pattern):
    """Every value the README states where `pattern` matches; at least one."""
    values = re.findall(pattern, README)
    assert values, f"README states nothing matching {pattern!r}"
    return values


def test_readme_product_count():
    assert _stated(r"(\d+) dealiased products") == [str(RHS_PRODUCTS)]


def test_readme_endpoint_limit():
    limit = f"{elliptic_i_limit(1.1):.2f}"
    stated = _stated(r"I_inf\(1\.1\) = (\d+\.\d+)") + _stated(r"(\d+\.\d+) at\s+`r = 1\.1`")
    assert stated == [limit] * len(stated)


def test_readme_threshold_crossing():
    r_star = brentq(lambda r: elliptic_i_limit(r) - 4.0, 1.2, 2.0)
    assert _stated(r"`r\* = (\d+\.\d+)`") == [f"{r_star:.4f}"]
