"""Cell-centered rectangular meshes and their no-flux discrete calculus.

The domain is a product of intervals split into equal cells; fields carry one
value per cell center. Ghost cells mirror the adjacent interior value, which
encodes the homogeneous Neumann (zero normal flux) boundary condition and
makes three identities exact in floating point:

* the gradient of a constant field vanishes,
* the Laplacian telescopes, so the integral of ``laplacian_values`` is 0,
* midpoint quadrature is exact for cellwise-constant integrands.

The backward-Euler diffusion solve inverts that stencil exactly with a type-II
cosine transform, which diagonalizes it. Along each axis the transform is
Makhoul's even/odd reorder, one ``numpy.fft`` real FFT and one twiddle, so
the module needs numpy alone.

Both 1D and 2D grids are supported; 1D grids exist mainly as fast oracles for
the time-stepping and certification machinery. The calculus and the transform
below are written over the grid's axes and never branch on their number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np


class GridError(ValueError):
    """Invalid mesh specification."""


class NonFiniteFieldError(ValueError):
    """A field value is NaN or infinite."""


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on an interval (1D) or rectangle (2D).

    ``cells`` and ``lengths`` have one entry per axis; the spacing along axis
    ``a`` is ``lengths[a] / cells[a]``.
    """

    cells: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        cells = tuple(int(n) for n in np.atleast_1d(self.cells))
        lengths = tuple(float(l) for l in np.atleast_1d(self.lengths))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "lengths", lengths)
        if len(cells) not in (1, 2):
            raise GridError(f"grid must be 1D or 2D, got {len(cells)} axes")
        if len(lengths) != len(cells):
            raise GridError("cells and lengths need one entry per axis")
        if any(n < 1 for n in cells):
            raise GridError(f"cells per axis must be positive, got {cells}")
        if any(l <= 0 for l in lengths):
            raise GridError(f"axis lengths must be positive, got {lengths}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    # cached on the instance: the stepper reads these on every step, and the
    # frozen dataclass compares and hashes by its fields only
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.cells))

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def measure(self) -> float:
        """Measure of the domain (length or area)."""
        return float(np.prod(self.lengths))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    def centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each of shape ``grid.shape``."""
        return tuple(np.meshgrid(*(self.centers(a) for a in range(self.dim)),
                                 indexing="ij"))

    def field(self, values) -> "Field":
        return Field(self, np.asarray(values, dtype=float))

    def constant_field(self, value: float) -> "Field":
        return Field(self, np.full(self.shape, float(value)))


@dataclass(frozen=True)
class Field:
    """One real value per cell of a :class:`Grid`; immutable after creation."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid {self.grid.shape}")
        self.__setstate__({"grid": self.grid, "values": values})

    def __setstate__(self, state):
        """Take ``state``'s values as they are, checked finite and made read-only.

        Unpickling lands here with the array the unpickler made, so a
        received field holds its data once, not beside a copy of it.
        """
        _require_finite(state["values"])
        state["values"].setflags(write=False)
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        idx = np.argwhere(~np.isfinite(np.atleast_1d(values)))[0]
        raise NonFiniteFieldError(
            f"non-finite value at cell {tuple(int(i) for i in idx)}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate_values(grid: Grid, values: np.ndarray) -> float:
    """Midpoint quadrature: sum of cell values times the cell volume."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"shape {values.shape} does not match grid {grid.shape}")
    _require_finite(values)
    return float(values.sum()) * grid.cell_volume


def _pow(base, expo: float):
    """base**expo for nonnegative base with the convention 0**expo := 0."""
    base = np.asarray(base, dtype=float)
    if base.size and base.min() > 0.0:
        # no zero to mask: the same exp(expo*log) without the gather and scatter
        out = np.exp(expo * np.log(base))
    else:
        out = np.zeros_like(base)
        pos = base > 0
        out[pos] = np.exp(expo * np.log(base[pos]))
    if out.ndim == 0:
        return float(out)
    return out


def lp_norm_values(grid: Grid, values: np.ndarray, p: float) -> float:
    """L^p norm over the domain, fractional p included.

    Powers are taken as exp(p*log|f|) with the convention 0**p := 0.
    """
    p = float(p)
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    return integrate_values(grid, _pow(np.abs(values), p)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------

def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple:
    """Index ``sl`` along axis ``axis`` of ``ndim``."""
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def face_gradient_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis normal derivative on cell faces.

    Along axis ``a`` the returned array has ``cells[a] + 1`` entries in that
    axis: interior faces carry ``(f[i+1] - f[i]) / h`` and the two boundary
    faces are zero (mirrored ghosts, i.e. no flux). A single-cell axis has
    only boundary faces, hence a zero gradient.
    """
    values = np.asarray(values, dtype=float)
    return tuple(_face_gradient(grid, values, a) for a in range(grid.dim))


def _face_gradient(grid: Grid, values: np.ndarray, a: int) -> np.ndarray:
    """The faces across axis ``a`` of :func:`face_gradient_values`."""
    n = grid.cells[a]
    shape = list(values.shape)
    shape[a] = n + 1
    g = np.zeros(shape)
    if n >= 2:
        hi = values[_axis_slice(grid.dim, a, slice(1, None))]
        lo = values[_axis_slice(grid.dim, a, slice(None, -1))]
        # (hi - lo) / h, formed in the interior faces themselves
        interior = g[_axis_slice(grid.dim, a, slice(1, n))]
        np.subtract(hi, lo, out=interior)
        interior /= grid.spacing[a]
    return g


def _face_mean(grid: Grid, g: np.ndarray, a: int) -> np.ndarray:
    """The mean of each cell's two faces across axis ``a``."""
    mean = np.add(g[_axis_slice(grid.dim, a, slice(None, -1))],
                  g[_axis_slice(grid.dim, a, slice(1, None))])
    mean *= 0.5
    return mean


def _sum_of_squares(comps) -> np.ndarray:
    """The sum of the squares of ``comps``, each squared in place, into the first."""
    out = None
    for c in comps:
        np.square(c, out=c)
        out = c if out is None else np.add(out, c, out=out)
    return out


def gradient_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cell-centered gradient: average of the two adjacent face values.

    Interior cells see the usual central difference; boundary cells see the
    one-sided half difference implied by the mirrored ghost.
    """
    return tuple(_face_mean(grid, g, a)
                 for a, g in enumerate(face_gradient_values(grid, values)))


def gradient_sq_from_faces(grid: Grid, face_g: tuple[np.ndarray, ...]) -> np.ndarray:
    """Squared magnitude of the cell-centered gradient with these face values.

    ``face_g`` is what :func:`face_gradient_values` returns; a caller that
    already holds it skips the differencing.
    """
    return _sum_of_squares(_face_mean(grid, g, a) for a, g in enumerate(face_g))


def gradient_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Pointwise squared magnitude of the cell-centered gradient.

    One axis's faces are held at a time, each only until its cell means exist.
    """
    values = np.asarray(values, dtype=float)
    return _sum_of_squares(_face_mean(grid, _face_gradient(grid, values, a), a)
                           for a in range(grid.dim))


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second differences with mirrored ghosts, summed over axes.

    Telescoping of the flux differences makes the integral of the result
    vanish identically; a single-cell axis contributes nothing.
    """
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    for a in range(grid.dim):
        if grid.cells[a] < 2:
            continue
        h2 = grid.spacing[a] ** 2
        padded = np.pad(values, _pad_width(grid.dim, a), mode="edge")
        left = padded[_axis_slice(grid.dim, a, slice(None, -2))]
        right = padded[_axis_slice(grid.dim, a, slice(2, None))]
        out += (left - 2.0 * values + right) / h2
    return out


def _pad_width(ndim: int, axis: int) -> list[tuple[int, int]]:
    pw = [(0, 0)] * ndim
    pw[axis] = (1, 1)
    return pw


# ---------------------------------------------------------------------------
# cosine transform: Makhoul's reorder, one real FFT and one twiddle per axis
# ---------------------------------------------------------------------------

class _AxisPlan(NamedTuple):
    """What the cosine transform needs along one axis of length ``n``.

    The index tuples select along this axis and take the rest whole; the
    twiddles are shaped to broadcast along it.
    """

    n: int
    half_shape: tuple[int, ...]   # the array's shape with n // 2 + 1 along the axis
    half_size: int                # the number of entries of that shape
    forward: np.ndarray           # exp(-i*pi*k/(2n)), k = 0 .. n // 2
    inverse: np.ndarray           # its conjugate, but itself at an even n's Nyquist k
    low: tuple                    # spectrum entries 0 .. n // 2
    high: tuple                   # spectrum entries n // 2 + 1 .. n - 1
    descending: tuple             # rfft entries (n - 1) // 2 down to 1
    first: tuple                  # rfft entry 0
    rest: tuple                   # rfft entries 1 .. n // 2
    mirror: tuple                 # spectrum entries n - 1 down to n - n // 2


class _CosinePlan(NamedTuple):
    blocks: tuple[tuple[tuple, tuple], ...]   # (cells, reordered) index pairs
    axes: tuple[_AxisPlan, ...]
    work_size: int                            # complex entries of the largest half_shape


def _makhoul_halves(n: int) -> tuple[tuple[slice, slice], ...]:
    """(cells, reordered) slice pairs of Makhoul's reorder of a length-``n`` axis.

    The even cells come first in ascending order, then the odd cells in
    descending order.
    """
    return ((slice(0, None, 2), slice(0, (n + 1) // 2)),
            (slice(2 * (n // 2) - 1, 0, -2), slice((n + 1) // 2, None)))


@lru_cache(maxsize=16)
def _cosine_plan(shape: tuple[int, ...]) -> _CosinePlan:
    """The reorder blocks and per-axis twiddles for arrays of ``shape``."""
    ndim = len(shape)
    blocks = tuple((tuple(c for c, _ in pairs), tuple(r for _, r in pairs))
                   for pairs in product(*(_makhoul_halves(n) for n in shape)))
    axes = []
    for a, n in enumerate(shape):
        h = n // 2
        forward = np.exp(-0.5j * np.pi / n * np.arange(h + 1))
        inverse = forward.conj()
        if n % 2 == 0:
            # the Nyquist entry is read back as c + ic where it was c - ic
            inverse[h] = forward[h]
        along = [1] * ndim
        along[a] = h + 1
        for twiddle in (forward, inverse):
            twiddle.setflags(write=False)
        half_shape = shape[:a] + (h + 1,) + shape[a + 1:]
        axes.append(_AxisPlan(
            n, half_shape, int(np.prod(half_shape)),
            forward.reshape(along), inverse.reshape(along),
            _axis_slice(ndim, a, slice(0, h + 1)),
            _axis_slice(ndim, a, slice(h + 1, None)),
            _axis_slice(ndim, a, slice((n - 1) // 2, 0, -1)),
            _axis_slice(ndim, a, slice(0, 1)),
            _axis_slice(ndim, a, slice(1, None)),
            _axis_slice(ndim, a, slice(n - 1, n - h - 1, -1))))
    return _CosinePlan(blocks, tuple(axes), max(ax.half_size for ax in axes))


def _cosine_transform(values: np.ndarray) -> np.ndarray:
    """Half the type-II cosine transform along every axis, upper halves negated.

    Along an axis of length ``n`` entry ``k`` holds
    ``sum_j x_j cos(pi*k*(2j+1)/(2n))`` for ``k <= n // 2`` and its negative
    above. Each axis is one real FFT of Makhoul's reorder times one twiddle
    (J. Makhoul, IEEE Trans. ASSP 28 (1980) 27-34): entry ``k`` is the real
    part of the twiddled FFT and entry ``n - k`` its imaginary part, stored
    as it comes, hence the sign. Dividing entries by per-entry eigenvalues
    commutes with that sign, so :func:`_inverse_cosine_transform` reads the
    quotient back as it is. ``values`` is only read.
    """
    plan = _cosine_plan(values.shape)
    out = np.empty(values.shape)
    for cells, reordered in plan.blocks:
        out[reordered] = values[cells]
    work = np.empty(plan.work_size, dtype=complex)
    for a, ax in enumerate(plan.axes):
        half = np.fft.rfft(out, axis=a, out=work[:ax.half_size].reshape(ax.half_shape))
        half *= ax.forward
        out[ax.low] = half.real
        out[ax.high] = half.imag[ax.descending]
    return out


def _inverse_cosine_transform(spectrum: np.ndarray) -> np.ndarray:
    """Undo :func:`_cosine_transform`, overwriting ``spectrum`` on the way."""
    plan = _cosine_plan(spectrum.shape)
    work = np.empty(plan.work_size, dtype=complex)
    for a, ax in enumerate(plan.axes):
        half = work[:ax.half_size].reshape(ax.half_shape)
        half.real[...] = spectrum[ax.low]
        imag = half.imag
        imag[ax.first] = 0.0
        imag[ax.rest] = spectrum[ax.mirror]
        half *= ax.inverse
        np.fft.irfft(half, ax.n, axis=a, out=spectrum)
    out = np.empty(spectrum.shape)
    for cells, reordered in plan.blocks:
        out[cells] = spectrum[reordered]
    return out


# ---------------------------------------------------------------------------
# backward-Euler diffusion solve: (I - tau*Laplacian) x = b
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -Laplacian in the DCT-II basis, summed across axes.

    The mirrored-ghost stencil satisfies the half-sample symmetry of the
    type-II cosine transform exactly, including its boundary rows, so the
    spectral solve below inverts the very same matrix the stencil defines.
    """
    per_axis = [(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h ** 2
                for n, h in zip(grid.cells, grid.spacing)]
    lam = reduce(np.add.outer, per_axis)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=1)
def _diffusion_denominator(grid: Grid, tau: float) -> np.ndarray:
    """``1 + tau*lambda``, formed once for the three solves of a step.

    Only the last step's is kept: the next step's dt is another key.
    """
    denominator = tau * _neumann_eigenvalues(grid)
    denominator += 1.0
    denominator.setflags(write=False)
    return denominator


def solve_diffusion(grid: Grid, rhs: np.ndarray, tau: float) -> np.ndarray:
    """Solve ``(I - tau*Laplacian) x = rhs`` with the mirrored-ghost stencil.

    The type-II cosine transform diagonalizes the stencil, so the solve is
    exact to roundoff. The transform pair is unnormalized and its scale
    cancels between forward and inverse; the zero mode is divided by 1, so
    the total is conserved up to the rounding of the real FFTs. ``rhs`` is
    only read, so it may be a read-only ``Field.values``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if tau < 0:
        raise ValueError(f"diffusion pseudo-time must be >= 0, got {tau}")
    if tau == 0.0:
        return rhs.copy()
    spectrum = _cosine_transform(rhs)
    spectrum /= _diffusion_denominator(grid, tau)
    return _inverse_cosine_transform(spectrum)


def restrict_values(fine: Grid, coarse: Grid, values: np.ndarray) -> np.ndarray:
    """Average fine cells onto a coarser grid with the same domain.

    Requires each axis of the fine grid to be an integer multiple of the
    coarse one; used by refinement studies to compare levels in L^1.
    """
    if fine.lengths != coarse.lengths:
        raise GridError("restriction requires matching domains")
    factors = []
    for nf, nc in zip(fine.cells, coarse.cells):
        if nf % nc != 0:
            raise GridError(f"fine cells {nf} not a multiple of coarse {nc}")
        factors.append(nf // nc)
    blocks = [n for pair in zip(coarse.cells, factors) for n in pair]
    return np.asarray(values, dtype=float).reshape(blocks).mean(
        axis=tuple(range(1, 2 * fine.dim, 2)))
