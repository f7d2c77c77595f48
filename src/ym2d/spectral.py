"""Discrete torus geometry, Fourier multipliers, dealiased products, norms.

Fields are Lie-algebra valued functions on an N x N periodic torus, with
real coefficient lattices over the algebra basis as point values (shape
(dim, N, N)).  Their spectra live on one layout, the rfft2 half-plane (shape
(..., N, N/2 + 1)): the fields are real, so the other half of the plane is the
mirror image.  Every symbol lattice, the dealiasing mask and the
Fourier-Lebesgue norms use that layout.

Spectra are the only operand.  A GridField is built from its values or its
spectrum and makes the other by one transform on first use; +, - and scalar
* combine spectra, never values.  A raw field, made by a dealiased product or
a sum of them, holds untruncated point values and stands for their 2/3-rule
truncation (spectrum by one masked forward transform on first use); raw
fields alone are truncated by construction.  Multipliers act on the spectrum
alone and compose: a multiplier (the dealiasing mask too) applied to a field
whose spectrum is not made yet multiplies symbols, not spectra, so a chain
holds its root spectrum and one composed lattice cached on the grid, and
costs one multiply, made on first use.  The symbols are those of
nullforms.MULTIPLIER_SYMBOLS, which the plane-wave oracle evaluates too.
Columns 0 and N/2 of the half-plane are their own mirror images; there every
symbol is replaced by its part that maps real fields to real fields,
(m(k) + conj m(-k))/2, so a multiplied spectrum is again the spectrum of a
real field (odd symbols vanish at the Nyquist frequencies), exactly as if
each multiplier were followed by an inverse and a forward real transform.

A dealiased product brackets its factors' 2/3-rule truncated values (made
once per field by one inverse transform, the factor's memoized dealias())
into a raw field, with no transform; a sum of products stays raw, since
truncation and transform are linear.  Finiteness is checked once, where data
enters: by the GridField constructor (so by from_rhat and read_snapshot) and
on each raw product.  Fields derived from checked ones are not checked
again; every stored array is read-only, so a checked field cannot change.
Transforms are numpy's real FFT, looked up at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io
import struct

import numpy as np

from .algebra import AlgebraSpec, bracket_coeffs
from .nullforms import MULTIPLIER_SYMBOLS, _spatial_index, angle_bracket

SNAPSHOT_MAGIC = b"YMF2"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class TorusGrid:
    """N x N periodic grid of period L; frequencies 2 pi k / L, on the rfft2
    half-plane only (rfreqs).  Equal and hashed by (N, L); the cache of
    lattices takes no part."""

    N: int
    L: float = 2.0 * np.pi
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError("N must be even and >= 8")

    @property
    def points(self):
        """Coordinate arrays x1, x2 of shape (N, N)."""
        x = np.arange(self.N) * (self.L / self.N)
        return np.meshgrid(x, x, indexing="ij")

    @property
    def rfreqs(self):
        """Frequency arrays xi1, xi2 of shape (N, N/2 + 1) (rfft2 layout).

        The columns keep the fftfreq signs, so the Nyquist column has
        xi2 = -N/2 (in units of 2 pi / L), as numpy.fft.fftfreq gives it.
        """
        if "rfreqs" not in self._cache:
            k = np.fft.fftfreq(self.N, d=1.0 / self.N) * (2.0 * np.pi / self.L)
            self._cache["rfreqs"] = np.meshgrid(k, k[: self.N // 2 + 1], indexing="ij")
        return self._cache["rfreqs"]

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
            self._cache["xi_bracket"] = angle_bracket(*self.rfreqs)
        return self._cache["xi_bracket"]

    @property
    def dealias_mask(self):
        """2/3-rule mask (rfft2 layout)."""
        if "dealias" not in self._cache:
            k = np.fft.fftfreq(self.N, d=1.0 / self.N)
            keep = np.abs(k) < self.N / 3.0
            mask = np.outer(keep, keep[: self.N // 2 + 1])
            mask.flags.writeable = False
            self._cache["dealias"] = mask
        return self._cache["dealias"]

    def chain_array(self, chain: tuple) -> np.ndarray:
        """Composed symbol lattice of a chain of multipliers, given by their
        name keys (kind, param) in the order they act; kind "dealias" is the
        2/3-rule mask.  Cached and read-only, like the single lattices."""
        m = self._cache.get(chain)
        if m is None:
            for kind, param in chain:
                link = (self.dealias_mask if kind == "dealias"
                        else self.multiplier_array(kind, param))
                m = link if m is None else m * link
            m.flags.writeable = False
            self._cache[chain] = m
        return m

    def multiplier_array(self, kind: str, param=None) -> np.ndarray:
        """Scalar symbol lattice of a named multiplier: its MULTIPLIER_SYMBOLS
        entry on rfreqs, or the grid's own inv_laplacian."""
        key = (kind, param)
        if key in self._cache:
            return self._cache[key]
        if kind == "inv_laplacian":
            # pseudo-inverse of the Laplacian the derivative symbols make,
            # d_1^2 + d_2^2: -|k|^2 except where the real-to-real part zeroes
            # a derivative on the self-mirrored columns (Nyquist lines)
            d1, d2 = (self.multiplier_array("derivative", i) for i in (1, 2))
            lap = (d1 * d1 + d2 * d2).real
            with np.errstate(divide="ignore"):
                m = np.where(lap != 0, 1.0 / np.where(lap != 0, lap, 1.0), 0.0)
        elif kind in MULTIPLIER_SYMBOLS:
            m = MULTIPLIER_SYMBOLS[kind](*self.rfreqs, param)
        else:
            raise ValueError(f"unknown multiplier kind {kind!r}")
        # the real-to-real part on the self-mirrored columns 0 and N/2
        m = np.array(m)
        edges = m[:, [0, -1]]
        m[:, [0, -1]] = 0.5 * (edges + np.conj(edges[-np.arange(self.N)]))
        m.flags.writeable = False  # multiplier outputs are not checked again
        self._cache[key] = m
        return m


class GridField:
    """Algebra-valued grid function; immutable.

    Built from point values (real, (dim, N, N)) or from the mean-normalized
    half-plane spectrum rhat (rfft2 / N^2, (dim, N, N/2 + 1)); the other is
    made on first use and kept.  A raw field (dealiased_product, and sums and
    multiples of raw fields) holds untruncated values raw and stands for
    rhat = mask * rfft2(raw) / N^2.  Stored arrays are read-only, a caller's
    too (a view is copied, its base would stay writable).  The constructor
    checks that its input is finite; derived fields (multiplier outputs, +, -
    and scalar *) are built by _derived, without one.

    +, - and scalar * act on raw when both operands are raw, otherwise on
    rhat alone, so values are what a field was built from or the inverse
    transform of its spectrum.  Multipliers (dx, riesz, lambda_pow, ..., and
    dealias) return a field whose spectrum is rhat times the symbol lattice,
    memoized per field and name key (kind, param).  Until that spectrum is
    made, the output holds the spectrum it descends from (root) and the chain
    of name keys applied to it (its lattice cached on the grid), so a chain
    costs one spectrum multiply.  A derived field refers to arrays only, never
    to the field it came from, so the memo makes no reference cycle.
    dealias() returns the field itself iff it is raw.
    """

    __slots__ = ("spec", "grid", "_values", "_rhat", "_raw", "_root", "_chain",
                 "_mcache")

    def __init__(self, spec: AlgebraSpec, grid: TorusGrid, values=None, rhat=None):
        N = grid.N
        if (values is None) == (rhat is None):
            raise ValueError("a grid field is built from values or from rhat")
        if values is not None:
            values = np.asarray(values, dtype=float)
        values, rhat = (a if a is None or a.flags.owndata else a.copy()
                        for a in (values, rhat))
        if values is not None:
            _check_lattice(values, (spec.dim, N, N))
        else:
            _check_lattice(rhat, (spec.dim, N, N // 2 + 1))
        self._store(spec, grid, values, rhat)

    def _derived(self, rhat=None, raw=None, root=None, chain=None):
        """A field computed from checked fields: stored without a finiteness check."""
        out = GridField.__new__(GridField)
        return out._store(self.spec, self.grid, None, rhat, raw, root, chain)

    def _store(self, spec, grid, values=None, rhat=None, raw=None, root=None, chain=None):
        # each array is the field's own (a caller's view is copied) and becomes
        # read-only: a field cannot change after its check, nor its forms
        # disagree; a root is another field's spectrum, read-only already
        for a in (values, rhat, raw):
            if a is not None:
                a.flags.writeable = False
        self.spec, self.grid, self._mcache = spec, grid, {}
        self._values, self._rhat, self._raw = values, rhat, raw
        self._root, self._chain = root, chain
        return self

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
        """Mean-normalized half-plane coefficients (rfft2 / N^2), read-only."""
        if self._rhat is None:
            if self._root is not None:
                rhat = self._root * self.grid.chain_array(self._chain)
                self._root = self._chain = None
            elif self._raw is None:
                rhat = np.fft.rfft2(self._values, axes=(-2, -1), norm="forward")
            else:
                rhat = np.fft.rfft2(self._raw, axes=(-2, -1), norm="forward")
                rhat *= self.grid.dealias_mask
            rhat.flags.writeable = False
            self._rhat = rhat
        return self._rhat

    # --- linear structure -------------------------------------------------
    def _combine(self, other, op):
        self._check(other)
        if self._raw is not None and other._raw is not None:
            return self._derived(raw=op(self._raw, other._raw))
        return self._derived(rhat=op(self.rhat, other.rhat))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, s):
        if self._raw is not None:
            return self._derived(raw=self._raw * s)
        return self._derived(rhat=self.rhat * s)

    __rmul__ = __mul__

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("algebra mismatch")

    # --- multiplier calculus ---------------------------------------------
    def _apply_symbol(self, kind, param=None):
        # memoized by name key: repeated applications of the same operator to
        # one immutable field cost a dict lookup
        key = (kind, param)
        out = self._mcache.get(key)
        if out is None:
            if self._root is not None:  # no spectrum made yet: compose symbols
                root, chain = self._root, self._chain + (key,)
            else:
                root, chain = self.rhat, (key,)
            out = self._derived(root=root, chain=chain)
            self._mcache[key] = out
        return out

    def dx(self, i: int):
        return self._apply_symbol("derivative", _spatial_index(i))

    def lambda_pow(self, s: float):
        return self._apply_symbol("lambda_pow", s)

    def d_pow(self, a: float):
        return self._apply_symbol("d_pow", a)

    def riesz(self, i: int):
        return self._apply_symbol("riesz", _spatial_index(i))

    def inv_laplacian(self):
        return self._apply_symbol("inv_laplacian")

    def laplacian(self):
        return self._apply_symbol("laplacian")

    def dealias(self):
        """The 2/3-rule truncation; a raw field is truncated already."""
        if self._raw is not None:
            return self
        return self._apply_symbol("dealias")

    def bracket(self, other):
        """Dealiased pointwise commutator [u, v]."""
        return dealiased_product(self, other)

    def norm(self) -> float:
        """Grid-quadrature L^2 norm over the torus."""
        h = self.grid.L / self.grid.N
        return float(np.sqrt(np.sum(self.values**2) * h * h))


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
    # w is a fresh array (a reshaped view nobody else holds): checked, not copied
    _check_lattice(w, (u.spec.dim, u.grid.N, u.grid.N))
    return u._derived(raw=w)


def weighted_hat_norm(grid: TorusGrid, rhat: np.ndarray, s: float, r: float) -> float:
    """Discrete Fourier-Lebesgue norm || <xi>^s u_hat ||_{l^{r'}} of a real
    field given by its mean-normalized rhat lattice.

    u_hat is normalized as a Riemann-sum approximation of the continuum
    transform with the (2 pi)^(-d/2) convention, so that r=2, s=0 reproduces
    the grid L^2 norm exactly (discrete Parseval).  rhat has shape
    (..., N, N/2 + 1); leading axes are contracted in Frobenius norm (so
    algebra components combine isometrically).  Each column also stands for
    its mirror image (grid.column_weight), so the sum runs over the full
    frequency plane.
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
    data = np.frombuffer(fh.read(8 * count * dim * N * N), dtype="<f8")
    comps = data.reshape(count, dim, N, N).transpose(0, 1, 3, 2)
    return [GridField(spec, grid, c) for c in comps]
