"""The counts and constants the README states, read back from their source."""

import math
import re
from pathlib import Path

from scipy.optimize import brentq

from test_evolve import RHS_PRODUCTS
from ym2d.estimates import SampleConfig, elliptic_i, elliptic_i_limit

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


def test_readme_sampled_radius_decades():
    rmin, rmax = SampleConfig().radius_range
    decades = math.log10(rmax / rmin)
    words = {"four": 4, "five": 5, "six": 6, "seven": 7}
    assert [words[w] for w in _stated(r"log-uniform radii over (\w+)\s+decades")] == [
        round(decades)]
    assert abs(decades - round(decades)) < 1e-12


def test_readme_endpoint_approach():
    """The values of I(1 + eps, (1, 0), 1.1) the README quotes, and their
    increments."""
    (match,) = _stated(r"still rising: ([\d.]+), ([\d.]+), ([\d.]+)\s+and ([\d.]+) "
                       r"for `eps` = (\S+), (\S+), (\S+) and (\S+) ")
    values = [elliptic_i(1.0 + float(eps), (1.0, 0.0), 1.1) for eps in match[4:]]
    assert list(match[:4]) == [f"{v:.1f}" for v in values]
    (steps,) = _stated(r"increments\s+\(([\d.]+), ([\d.]+), ([\d.]+)\)")
    assert list(steps) == [f"{b - a:.1f}" for a, b in zip(values, values[1:])]
