"""Discrete torus geometry, Fourier multipliers, dealiased products, norms.

Fields are Lie-algebra valued functions on an N x N periodic torus, with
real coefficient lattices over the algebra basis as point values (shape
(dim, N, N)).  Their spectra live on one layout, the rfft2 half-plane (shape
(..., N, N/2 + 1)): the fields are real, so the other half of the plane is the
mirror image.  Every symbol lattice, the dealiasing mask and the
Fourier-Lebesgue norms use that layout.

A GridField holds its values, its spectrum or both, and makes the missing one
by one transform when it is first asked for.  A third representation, raw,
holds the untruncated point values of a product or of a sum of products; the
field it stands for is the 2/3-rule truncation of raw, whose spectrum is made
by one masked forward transform on first use and whose values are made from
that spectrum.  Multipliers act on the spectrum alone, so a chain of them
costs no transform.  Columns 0 and N/2 of the half-plane are their own
mirror images; there every symbol is replaced by its part that maps real
fields to real fields, (m(k) + conj m(-k))/2, so a multiplied spectrum is
again the spectrum of a real field (odd symbols vanish at the Nyquist
frequencies), exactly as if each multiplier were followed by an inverse and
a forward real transform.

A dealiased product uses each factor's 2/3-rule truncated values, made once
per field by one inverse transform (the factor's memoized dealias()), and
returns the pointwise product as a raw field, with no transform.  The
truncation and the transform are linear, so a sum of products stays raw and
costs one masked forward transform when its spectrum is first needed.  The
transform backend is numpy's FFT, looked up at call time; a direct O(N^4)
discrete transform oracle is provided for cross-checking at small N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io
import struct

import numpy as np

from .algebra import AlgebraSpec, bracket_coeffs

SNAPSHOT_MAGIC = b"YMF2"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class TorusGrid:
    """N x N periodic grid of period L; frequencies 2 pi k / L."""

    N: int
    L: float = 2.0 * np.pi
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError("N must be even and >= 8")

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and self.N == other.N and self.L == other.L

    def __hash__(self):
        return hash((self.N, self.L))

    @property
    def points(self):
        """Coordinate arrays x1, x2 of shape (N, N)."""
        x = np.arange(self.N) * (self.L / self.N)
        return np.meshgrid(x, x, indexing="ij")

    @property
    def freqs(self):
        """Frequency arrays xi1, xi2 of shape (N, N) (full fftfreq layout).

        Only for transforms of complex fields; real fields use rfreqs.
        """
        if "freqs" not in self._cache:
            self._cache["freqs"] = np.meshgrid(self._k, self._k, indexing="ij")
        return self._cache["freqs"]

    @property
    def rfreqs(self):
        """Frequency arrays xi1, xi2 of shape (N, N/2 + 1) (rfft2 layout).

        The columns keep the fftfreq signs, so the Nyquist column has
        xi2 = -N/2 (in units of 2 pi / L), as in the full plane.
        """
        if "rfreqs" not in self._cache:
            k = self._k
            self._cache["rfreqs"] = np.meshgrid(k, k[: self.N // 2 + 1], indexing="ij")
        return self._cache["rfreqs"]

    @property
    def _k(self):
        return np.fft.fftfreq(self.N, d=1.0 / self.N) * (2.0 * np.pi / self.L)

    @property
    def column_weight(self):
        """How often each rfft2 column occurs in the full plane: 1 for the
        columns 0 and N/2, which are their own mirror images, 2 otherwise."""
        if "column_weight" not in self._cache:
            w = np.full(self.N // 2 + 1, 2.0)
            w[[0, -1]] = 1.0
            self._cache["column_weight"] = w
        return self._cache["column_weight"]

    @property
    def xi_abs(self):
        if "xi_abs" not in self._cache:
            k1, k2 = self.rfreqs
            self._cache["xi_abs"] = np.hypot(k1, k2)
        return self._cache["xi_abs"]

    @property
    def xi_bracket(self):
        """<xi> = (1 + |xi|^2)^(1/2)."""
        if "xi_bracket" not in self._cache:
            self._cache["xi_bracket"] = np.sqrt(1.0 + self.xi_abs**2)
        return self._cache["xi_bracket"]

    @property
    def dealias_mask(self):
        """2/3-rule mask (rfft2 layout)."""
        if "dealias" not in self._cache:
            k = np.fft.fftfreq(self.N, d=1.0 / self.N)
            keep = np.abs(k) < self.N / 3.0
            self._cache["dealias"] = np.outer(keep, keep[: self.N // 2 + 1])
        return self._cache["dealias"]

    def multiplier_array(self, kind: str, param=None) -> np.ndarray:
        """Scalar symbol lattice of a named multiplier (see GridField)."""
        key = (kind, param)
        if key in self._cache:
            return self._cache[key]
        k1, k2 = self.rfreqs
        xa = self.xi_abs
        xb = self.xi_bracket
        if kind == "lambda_pow":
            m = xb ** float(param)
        elif kind == "d_pow":
            a = float(param)
            if a == 0:
                m = np.ones_like(xa)
            else:
                with np.errstate(divide="ignore"):
                    m = np.where(xa > 0, np.where(xa > 0, xa, 1.0) ** a, 0.0)
        elif kind == "riesz":
            ki = k1 if param == 1 else k2
            m = 1j * ki / xb
        elif kind == "derivative":
            ki = k1 if param == 1 else k2
            m = 1j * ki
        elif kind == "laplacian":
            m = -(xa**2)
        elif kind == "inv_laplacian":
            # zero mode annihilated
            with np.errstate(divide="ignore"):
                m = np.where(xa > 0, -1.0 / np.where(xa > 0, xa**2, 1.0), 0.0)
        else:
            raise ValueError(f"unknown multiplier kind {kind!r}")
        # the real-to-real part on the self-mirrored columns 0 and N/2
        m = np.array(m)
        edges = m[:, [0, -1]]
        m[:, [0, -1]] = 0.5 * (edges + np.conj(edges[-np.arange(self.N)]))
        self._cache[key] = m
        return m


class GridField:
    """Algebra-valued grid function; immutable.

    A field stores its point values (real, (dim, N, N)), its mean-normalized
    half-plane spectrum rhat (rfft2 / N^2, (dim, N, N/2 + 1)), or both; or it
    is a raw field, given by untruncated point values raw (real, (dim, N, N))
    and standing for their 2/3-rule truncation, rhat = mask * rfft2(raw) / N^2.
    The missing representations are made on first use and kept (a raw
    field's rhat by one masked transform, its values from rhat); values are
    read-only once made.  The finiteness check runs on what the field is
    built from (raw if given, else its values if given, else its spectrum).

    Multipliers (dx, riesz, lambda_pow, ...) multiply rhat by a symbol
    lattice and return a spectrum-only field, memoized per field and symbol
    (the memo holds only results, so it makes no reference cycle).  +, - and
    scalar * act on raw when both operands carry it; otherwise on every
    other representation both operands have, and on rhat when they share
    none.  A truncated field's spectrum vanishes outside the 2/3-rule mask:
    raw fields (dealiased products and their sums) and multipliers of
    truncated fields are truncated, so their values need no further
    truncation.
    """

    __slots__ = ("spec", "grid", "_values", "_rhat", "_raw", "_truncated", "_mcache")

    def __init__(self, spec: AlgebraSpec, grid: TorusGrid, values=None, rhat=None,
                 truncated: bool = False, raw=None):
        N = grid.N
        if raw is not None:
            _check_lattice(raw, (spec.dim, N, N))
            truncated = True
        elif values is not None:
            # no copy: the caller's array becomes read-only too, so the
            # stored spectrum cannot go stale through an in-place write
            values = np.asarray(values, dtype=float)
            _check_lattice(values, (spec.dim, N, N))
            values.flags.writeable = False
        elif rhat is not None:
            _check_lattice(rhat, (spec.dim, N, N // 2 + 1))
        else:
            raise ValueError("a grid field needs values, rhat or raw")
        self.spec = spec
        self.grid = grid
        self._values = values
        self._rhat = rhat
        self._raw = raw
        self._truncated = truncated
        self._mcache = {}

    @staticmethod
    def zero(spec, grid):
        shape = (spec.dim, grid.N, grid.N)
        return GridField(spec, grid, np.zeros(shape),
                         np.zeros(shape[:2] + (grid.N // 2 + 1,), dtype=complex),
                         truncated=True)

    @staticmethod
    def from_rhat(spec, grid, rhat):
        return GridField(spec, grid, rhat=rhat)

    @property
    def values(self):
        """Point values (dim, N, N), read-only."""
        if self._values is None:
            N = self.grid.N
            vals = np.fft.irfft2(self.rhat, s=(N, N), axes=(-2, -1), norm="forward")
            vals.flags.writeable = False
            self._values = vals
        return self._values

    @property
    def rhat(self):
        """Mean-normalized half-plane coefficients (rfft2 / N^2)."""
        if self._rhat is None:
            if self._raw is None:
                self._rhat = np.fft.rfft2(self._values, axes=(-2, -1), norm="forward")
            else:
                self._rhat = (np.fft.rfft2(self._raw, axes=(-2, -1), norm="forward")
                              * self.grid.dealias_mask)
        return self._rhat

    # --- linear structure -------------------------------------------------
    def _combine(self, other, op):
        self._check(other)
        if self._raw is not None and other._raw is not None:
            return GridField(self.spec, self.grid, raw=op(self._raw, other._raw))
        values = rhat = None
        if self._values is not None and other._values is not None:
            values = op(self._values, other._values)
        if self._rhat is not None and other._rhat is not None:
            rhat = op(self._rhat, other._rhat)
        if values is None and rhat is None:
            rhat = op(self.rhat, other.rhat)
        return GridField(self.spec, self.grid, values, rhat,
                         self._truncated and other._truncated)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, s):
        if self._raw is not None:
            return GridField(self.spec, self.grid, raw=self._raw * s)
        values = None if self._values is None else self._values * s
        rhat = None if self._rhat is None else self._rhat * s
        return GridField(self.spec, self.grid, values, rhat, self._truncated)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("algebra mismatch")

    # --- multiplier calculus ---------------------------------------------
    def _apply_symbol(self, m, truncates=False):
        # memoize by symbol-array identity: the grid caches its multiplier
        # lattices, so repeated applications of the same operator to one
        # immutable field cost a dict lookup
        key = id(m)
        out = self._mcache.get(key)
        if out is None:
            out = GridField(self.spec, self.grid, rhat=self.rhat * m,
                            truncated=truncates or self._truncated)
            self._mcache[key] = out
        return out

    def dx(self, i: int):
        return self._apply_symbol(self.grid.multiplier_array("derivative", i))

    def lambda_pow(self, s: float):
        return self._apply_symbol(self.grid.multiplier_array("lambda_pow", s))

    def d_pow(self, a: float):
        return self._apply_symbol(self.grid.multiplier_array("d_pow", a))

    def riesz(self, i: int):
        return self._apply_symbol(self.grid.multiplier_array("riesz", i))

    def inv_laplacian(self):
        return self._apply_symbol(self.grid.multiplier_array("inv_laplacian"))

    def laplacian(self):
        return self._apply_symbol(self.grid.multiplier_array("laplacian"))

    def dealias(self):
        if self._truncated:
            return self
        return self._apply_symbol(self.grid.dealias_mask, truncates=True)

    def bracket(self, other):
        """Dealiased pointwise commutator [u, v]."""
        return dealiased_product(self, other)

    def norm(self) -> float:
        """Grid-quadrature L^2 norm over the torus."""
        h = self.grid.L / self.grid.N
        return float(np.sqrt(np.sum(self.values**2) * h * h))

    def sup_norm(self) -> float:
        return float(np.max(np.sqrt(np.sum(self.values**2, axis=0))))


def _check_lattice(a: np.ndarray, shape: tuple):
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite values in grid field")


def dealiased_product(u: GridField, v: GridField) -> GridField:
    """Pointwise bracket [u, v] (structure constants) of the 2/3-rule
    truncations of u and v, as a raw field (truncated again on first use)."""
    u._check(v)
    # the truncated values of a factor are made once and kept in its memo
    w = bracket_coeffs(u.spec, u.dealias().values, v.dealias().values)
    return GridField(u.spec, u.grid, raw=w)


def discrete_norm(u: GridField, s: float, r: float) -> float:
    """Discrete Fourier-Lebesgue norm || <xi>^s u_hat ||_{l^{r'}}.

    u_hat is normalized as a Riemann-sum approximation of the continuum
    transform with the (2 pi)^(-d/2) convention, so that r=2, s=0 reproduces
    the grid L^2 norm exactly (discrete Parseval).
    """
    return weighted_hat_norm(u.grid, u.rhat, s, r)


def weighted_hat_norm(grid: TorusGrid, rhat: np.ndarray, s: float, r: float) -> float:
    """discrete_norm of a real field given by its mean-normalized rhat lattice.

    rhat has shape (..., N, N/2 + 1); leading axes are contracted in
    Frobenius norm (so algebra components combine isometrically).  Each
    column also stands for its mirror image (grid.column_weight), so the sum
    runs over the full frequency plane.
    """
    if not (1.0 < r <= 2.0):
        raise ValueError("Lebesgue exponent r must satisfy 1 < r <= 2")
    rp = r / (r - 1.0)
    # continuum-normalized coefficients: (2 pi)^-1 * L^2 * (mean-normalized hat)
    chat = rhat * (grid.L**2 / (2.0 * np.pi))
    axes = tuple(range(chat.ndim - 2))
    mag = np.sqrt(np.sum(np.abs(chat) ** 2, axis=axes))
    w = grid.xi_bracket**s * mag
    dxi = (2.0 * np.pi / grid.L) ** 2
    return float((np.sum(w**rp * grid.column_weight) * dxi) ** (1.0 / rp))


def dft_oracle(values: np.ndarray) -> np.ndarray:
    """Direct O(N^4) forward transform (mean-normalized), for small-N checks."""
    N = values.shape[-1]
    n = np.arange(N)
    w = np.exp(-2j * np.pi * np.outer(n, n) / N)
    return np.einsum("ka,...ab,lb->...kl", w, values, w) / N**2


# --- snapshot format ------------------------------------------------------

def write_snapshot(fh: io.BufferedIOBase, fields: list[GridField]):
    """Write components in the "YMF2" binary layout.

    Header: magic, u32 {version, N, dim, componentCount}, f64 L; then
    componentCount * dim * N^2 little-endian f64 in (component, basis, x2, x1)
    row-major order.
    """
    if not fields:
        raise ValueError("no components")
    g = fields[0].grid
    dim = fields[0].spec.dim
    fh.write(SNAPSHOT_MAGIC)
    fh.write(struct.pack("<IIII", SNAPSHOT_VERSION, g.N, dim, len(fields)))
    fh.write(struct.pack("<d", g.L))
    for f in fields:
        # stored order (component, basisIndex, x2, x1)
        arr = np.ascontiguousarray(f.values.transpose(0, 2, 1), dtype="<f8")
        fh.write(arr.tobytes())


def read_snapshot(fh: io.BufferedIOBase, spec: AlgebraSpec) -> list[GridField]:
    magic = fh.read(4)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    version, N, dim, count = struct.unpack("<IIII", fh.read(16))
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if dim != spec.dim:
        raise ValueError("algebra dimension mismatch")
    (L,) = struct.unpack("<d", fh.read(8))
    grid = TorusGrid(N, L)
    out = []
    for _ in range(count):
        raw = np.frombuffer(fh.read(8 * dim * N * N), dtype="<f8")
        vals = raw.reshape(dim, N, N).transpose(0, 2, 1)
        out.append(GridField(spec, grid, vals.copy()))
    return out
