"""Matrix Lie algebra arithmetic for su(n) and so(n).

Elements are plain real coefficient arrays over a fixed orthonormal basis
(inner product Re tr(X Y^dagger)), with the basis on the leading axis, so
that the bracket is a bilinear form given by precomputed structure constants
(bracket_coeffs); AlgebraSpec converts to and from matrices.  There is no
element class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class AlgebraKind(Enum):
    SU = "su"
    SO = "so"


def _su_basis(n: int) -> np.ndarray:
    """Orthonormal basis of su(n): skew-hermitian, trace free, <E_a,E_b>=delta."""
    mats = []
    # off-diagonal pairs
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m / np.sqrt(2.0))
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0j
            m[j, i] = 1.0j
            mats.append(m / np.sqrt(2.0))
    # diagonal generators
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -k
        m = 1.0j * np.diag(d) / np.sqrt(k * (k + 1))
        mats.append(m)
    return np.array(mats)


def _so_basis(n: int) -> np.ndarray:
    """Orthonormal basis of so(n): real antisymmetric matrices."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m / np.sqrt(2.0))
    return np.array(mats)


@dataclass(frozen=True)
class AlgebraSpec:
    """su(n) or so(n) with a fixed orthonormal basis and structure constants.

    Immutable; safe to share between threads.
    """

    kind: AlgebraKind
    n: int
    basis: np.ndarray = field(repr=False, compare=False, default=None)
    structure: np.ndarray = field(repr=False, compare=False, default=None)
    structure_matrix: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("matrix size must be at least 2")
        basis = _su_basis(self.n) if self.kind is AlgebraKind.SU else _so_basis(self.n)
        # f[a,b,c] = <[E_a,E_b], E_c>
        comm = np.einsum("aij,bjk->abik", basis, basis) - np.einsum(
            "bij,ajk->abik", basis, basis
        )
        f = np.real(np.einsum("abik,cki->abc", comm, np.conj(basis).transpose(0, 2, 1)))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "structure", f)
        # row (b, c), column a: f[a, b, c], so one matmul contracts the first
        # bracket argument for every output component at once
        d = len(basis)
        object.__setattr__(self, "structure_matrix",
                           np.ascontiguousarray(f.reshape(d, d * d).T))

    @property
    def dim(self) -> int:
        if self.kind is AlgebraKind.SU:
            return self.n * self.n - 1
        return self.n * (self.n - 1) // 2

    def to_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """The matrices sum_a coeffs[a] E_a (..., n, n) of coefficients on a
        leading axis (dim, ...); coeffs may be complex."""
        return np.tensordot(coeffs, self.basis, axes=(0, 0))

    def from_matrix(self, m: np.ndarray) -> np.ndarray:
        """Project matrices m (..., n, n) onto the basis, coefficients on a
        leading axis (dim, ...); exact for algebra-valued m."""
        c = np.einsum("...ij,aji->a...", m, np.conj(self.basis).transpose(0, 2, 1))
        return np.real(c)


def su(n: int) -> AlgebraSpec:
    return AlgebraSpec(AlgebraKind.SU, n)


def so(n: int) -> AlgebraSpec:
    return AlgebraSpec(AlgebraKind.SO, n)


def bracket_coeffs(spec: AlgebraSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket on raw coefficient arrays with leading basis axis.

    x, y have one shape (dim, ...).
    [x, y]_c = sum_b (sum_a f[a, b, c] x_a) y_b: one matmul with
    spec.structure_matrix, then a pointwise product with y summed over b.
    """
    shape = np.shape(x)
    if np.shape(y) != shape:
        raise ValueError(f"bracket operands differ in shape: {shape} and {np.shape(y)}")
    d = spec.dim
    t = (spec.structure_matrix @ np.reshape(x, (d, -1))).reshape(d, d, -1)
    return np.einsum("bcp,bp->cp", t, np.reshape(y, (d, -1))).reshape(shape)


def random_element(spec: AlgebraSpec, rng_seed: int, scale: float) -> np.ndarray:
    """Deterministic random coefficients (dim,), i.i.d. uniform in [-scale, scale]."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(-scale, scale, size=spec.dim)
