"""Structured chart grids, sampled tensor fields, finite differences,
quadrature, and small dense index contractions.

Everything else in the library is built on this layer.  A chart is a
rectangular box, each axis either a closed interval or a full period of a
flat torus.  Fields store one small dense tensor per node.

Nodewise contractions in ``riemann``'s curvature tensor, ``gl_space`` and
``field_equations`` are batched ``@`` on contiguous reshapes; a slot
contracted against a vector that is the same at every node (the fiber
vector y) goes through :func:`contract_vector`.  einsum remains for
matrix-vector products per node, quadratic forms and traces, and in
``energy`` and ``systems``; ``energy`` takes the per-node products of an
exact conformal residual, and ``riemann`` those of Ricci, entry by entry.

A finite difference along one axis reads the field through shifted slices
of its flat C-ordered values, one pass per stencil term, and copies a
strided field once, never once per term.

Pointwise linear algebra of per-node matrices (determinant, inverse,
2-norm condition number, positive-definiteness) goes through
``NodeMatrices`` only.  Chosen on the matrix order n: for n <= 2 it uses
closed forms (the adjugate inverse, Blinn's closed-form 2x2 SVD for the
condition number, the Cholesky recurrence for definiteness), because
numpy's batched LAPACK calls cost far more than the arithmetic on
large batches of tiny matrices; for n >= 3 it calls ``np.linalg``.

The metric checks cost about what their arithmetic costs.  Symmetry and
finiteness are taken entry by entry over the n x n slots, not over
whole-grid copies.  ``invert_metric`` screens each node with the
inverse it returns anyway, ||A||_F ||A^-1||_F, an upper bound of the
2-norm condition number, and computes the condition number itself (an
SVD for n >= 3) only at the nodes the screen does not clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import SingularMetricError, StencilSupportError

_MIN_NODES = 5

# the largest condition number invert_metric accepts at a node
COND_BOUND = 1e12


@dataclass(frozen=True)
class ChartGrid:
    """A rectangular sampled chart: per-axis extents, node counts and
    periodicity flags.

    On a periodic axis the node at ``hi`` is identified with the node at
    ``lo`` and is not stored; spacing is therefore ``(hi - lo) / n`` there
    and ``(hi - lo) / (n - 1)`` on interval axes.  ``stencil_order`` (2 or
    4) is inherited by every finite-difference call on fields over this
    grid.
    """

    extents: tuple[tuple[float, float], ...]
    nodes_per_axis: tuple[int, ...]
    periodic: tuple[bool, ...]
    stencil_order: int = 2

    def __post_init__(self):
        extents = tuple((float(lo), float(hi)) for lo, hi in self.extents)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "nodes_per_axis", tuple(int(n) for n in self.nodes_per_axis))
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))
        if not (len(extents) == len(self.nodes_per_axis) == len(self.periodic)):
            raise ValueError("extents, nodes_per_axis and periodic must have equal length")
        if self.stencil_order not in (2, 4):
            raise ValueError(f"stencil_order must be 2 or 4, got {self.stencil_order}")
        for k, ((lo, hi), n) in enumerate(zip(extents, self.nodes_per_axis)):
            if hi <= lo:
                raise ValueError(f"axis {k}: empty extent [{lo}, {hi}]")
            if n < _MIN_NODES:
                raise ValueError(f"axis {k}: need at least {_MIN_NODES} nodes, got {n}")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes_per_axis

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n if per else n - 1)
            for (lo, hi), n, per in zip(self.extents, self.nodes_per_axis, self.periodic)
        )

    def axis_coords(self, k: int) -> np.ndarray:
        lo, _ = self.extents[k]
        return lo + self.spacing[k] * np.arange(self.nodes_per_axis[k])

    def points(self) -> np.ndarray:
        """Node coordinates, shape ``(*shape, dim)``."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def axis_weights(self, k: int) -> np.ndarray:
        """Quadrature weights along one axis: rectangle rule when periodic,
        trapezoid rule otherwise."""
        n = self.nodes_per_axis[k]
        h = self.spacing[k]
        w = np.full(n, h)
        if not self.periodic[k]:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    def quadrature_weights(self) -> np.ndarray:
        """Tensor-product node weights, shape ``shape``."""
        w = self.axis_weights(0)
        for k in range(1, self.dim):
            w = np.multiply.outer(w, self.axis_weights(k))
        return w


def interval_grid(lo: float, hi: float, nodes: int, periodic: bool = False,
                  stencil_order: int = 2) -> ChartGrid:
    return ChartGrid(((lo, hi),), (nodes,), (periodic,), stencil_order)


def box_grid(extents: Sequence[tuple[float, float]], nodes: Sequence[int],
             periodic: bool | Sequence[bool] = False, stencil_order: int = 2) -> ChartGrid:
    if isinstance(periodic, bool):
        periodic = [periodic] * len(nodes)
    return ChartGrid(tuple(extents), tuple(nodes), tuple(periodic), stencil_order)


@dataclass(frozen=True)
class TensorField:
    """A tensor sampled at every grid node.

    ``values`` has shape ``(*grid.shape, *slot_dims)``.  Slots may have
    different dimensions (sections of pulled back bundles mix source and
    target indices).  Variance is not tagged: indices are raised and
    lowered only by explicit contractions.
    """

    grid: ChartGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape[: self.grid.dim] != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not start with grid shape {self.grid.shape}")

    @property
    def slot_dims(self) -> tuple[int, ...]:
        return self.values.shape[self.grid.dim:]


def sample_scalar(grid: ChartGrid, fn: Callable[[np.ndarray], np.ndarray]) -> TensorField:
    """Sample an evaluator ``fn(points) -> values`` once at construction."""
    return TensorField(grid, np.asarray(fn(grid.points()), dtype=float))


@dataclass(frozen=True)
class MetricField(TensorField):
    """Symmetric two-slot field: a metric or its inverse.  Every metric is
    checked finite at every node, before symmetry; Riemannian metrics also
    positive definite.  The symmetry defect is the largest |g_ij - g_ji|
    over the pairs i < j, taken one pair at a time."""

    definite: str = field(default="riemannian", compare=False)

    def __post_init__(self):
        TensorField.__post_init__(self)
        if len(self.slot_dims) != 2:
            raise ValueError("a metric carries exactly two slots")
        n1, n2 = self.slot_dims
        if n1 != n2:
            raise ValueError("metric slots must have equal dimension")
        v = self.values
        # max |v| without a whole-grid |v|: nan or inf iff an entry is
        scale = float(np.maximum(np.max(v), -np.min(v)))
        if not np.isfinite(scale):
            node = _first_false(np.isfinite(v).all(axis=(-2, -1)))
            raise SingularMetricError(f"metric is not finite at node {node}", node=node)
        # |a - b| == |b - a| exactly, and the diagonal adds zeros
        sym_defect = max((np.max(np.abs(v[..., i, j] - v[..., j, i]))
                          for i in range(n1) for j in range(i + 1, n1)), default=0.0)
        if not sym_defect <= 1e-10 * max(1.0, scale):
            raise ValueError(f"metric is not symmetric (max defect {sym_defect:.3e})")
        if self.definite == "riemannian":
            ok = NodeMatrices(v).positive_definite
            if not ok.all():
                node = _first_false(ok)
                raise SingularMetricError(f"metric is not positive definite at node {node}",
                                          node=node)


def _first_false(mask: np.ndarray) -> tuple[int, ...]:
    """The first node, in C order, where ``mask`` is False."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(mask)), mask.shape))


def sample_metric(grid: ChartGrid, fn: Callable[[np.ndarray], np.ndarray]) -> MetricField:
    return MetricField(grid, np.asarray(fn(grid.points()), dtype=float))


def identity_metric(grid: ChartGrid) -> MetricField:
    n = grid.dim
    return MetricField(grid, np.broadcast_to(np.eye(n), grid.shape + (n, n)).copy())


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

# one-sided stencils at the low boundary, rows ordered from the edge inward;
# high boundary uses the mirror image with flipped signs
_ONESIDED = {
    2: [np.array([-3.0, 4.0, -1.0]) / 2.0],
    4: [
        np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
        np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
    ],
}


# entries of the flat stencil per pass: the operands of a pass stay in
# cache, and its one temporary (8 v at order 4) is 256 KiB at most
_CHUNK = 1 << 15


def _central(v: np.ndarray, out: np.ndarray, s: int, h: float, order: int) -> None:
    """The central stencil of step ``s`` along the flat array ``v`` into
    ``out``, which is 2ws entries shorter (w = order // 2):
    (v[i+s] - v[i-s]) / 2h, or (v[i-2s] - 8 v[i-s] + 8 v[i+s] - v[i+2s]) / 12h
    summed left to right."""
    for lo in range(0, len(out), _CHUNK):
        o, u = out[lo:lo + _CHUNK], v[lo:]
        k = len(o)
        if order == 2:
            np.subtract(u[2 * s:2 * s + k], u[:k], out=o)
            o /= 2 * h
        else:
            np.multiply(u[s:s + k], 8, out=o)
            np.subtract(u[:k], o, out=o)
            o += 8 * u[3 * s:3 * s + k]
            o -= u[4 * s:4 * s + k]
            o /= 12 * h


def _derivative_1d(values: np.ndarray, axis: int, h: float, order: int, periodic: bool) -> np.ndarray:
    # A ChartGrid axis has order 2 or 4 and 5 or more nodes: every stencil
    # fits.  On the flat C-ordered array a step along ``axis`` is a shift by
    # its stride, so each term of the central stencil is one shifted slice;
    # only the w rows at each end of the axis, where that shift crosses into
    # the next row, are written again, through views with ``axis`` first.
    n, w = values.shape[axis], order // 2
    v = np.ascontiguousarray(values, dtype=float)
    s = v.strides[axis] // v.itemsize
    out = np.empty(v.shape)
    _central(v.reshape(-1), out.reshape(-1)[w * s:out.size - w * s], s, h, order)
    v, o = v.swapaxes(0, axis), out.swapaxes(0, axis)
    if periodic:
        # the wrap rows: the stencil over the 4w rows around the seam
        seam = np.concatenate((v[n - 2 * w:], v[:2 * w]))
        wrap = np.empty((2 * w,) + seam.shape[1:])
        _central(seam.reshape(-1), wrap.reshape(-1), wrap[0].size, h, order)
        o[n - w:] = wrap[:w]
        o[:w] = wrap[w:]
        return out

    # one-sided stencils of matching order at each boundary; node offsets
    # are measured from the boundary, not from the row
    for r, coeffs in enumerate(_ONESIDED[order]):
        o[r] = sum(c * v[j] for j, c in enumerate(coeffs)) / h
        o[n - 1 - r] = -sum(c * v[n - 1 - j] for j, c in enumerate(coeffs)) / h
    return out


def fd_partial(f: TensorField, axis: int) -> TensorField:
    """Partial derivative of a sampled field along one grid axis.

    Central differences of the grid's stencil order in the interior; periodic
    axes wrap, interval axes fall back to one-sided stencils of the same
    order at the boundary.  The derivative lives on the same grid with the
    same slots.
    """
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for a {f.grid.dim}-dimensional grid")
    out = _derivative_1d(f.values, axis, f.grid.spacing[axis], f.grid.stencil_order,
                         f.grid.periodic[axis])
    return TensorField(f.grid, out)


def grid_partials(f: TensorField) -> np.ndarray:
    """``fd_partial`` along every grid axis, stacked with the derivative
    axis last: (*grid, *slots, dim)."""
    return np.stack([fd_partial(f, k).values for k in range(f.grid.dim)], axis=-1)


def interior_mask(grid: ChartGrid) -> np.ndarray:
    """Boolean mask of nodes beyond the reach of the one-sided boundary
    stencils at the grid's order from any non-periodic boundary.  An axis
    too short to keep one such node raises StencilSupportError."""
    margin = 3 if grid.stencil_order == 2 else 6
    mask = np.ones(grid.shape, dtype=bool)
    for k in range(grid.dim):
        if grid.periodic[k]:
            continue
        if grid.shape[k] <= 2 * margin:
            raise StencilSupportError(f"axis {k} has {grid.shape[k]} nodes; an interior node "
                                      f"at stencil order {grid.stencil_order} needs {2 * margin + 1}")
        idx = [slice(None)] * grid.dim
        idx[k] = slice(0, margin)
        mask[tuple(idx)] = False
        idx[k] = slice(grid.shape[k] - margin, grid.shape[k])
        mask[tuple(idx)] = False
    return mask


# ---------------------------------------------------------------------------
# pointwise linear algebra
# ---------------------------------------------------------------------------


class NodeMatrices:
    """Square matrices stacked along leading node axes, shape ``(..., n, n)``,
    with their determinant, inverse, 2-norm condition number and
    positive-definiteness per node, each computed on first use.

    For n <= 2 every quantity is a closed form of the entries
    [[a, b], [c, d]]; symmetry is not assumed.  For n >= 3 they are numpy's
    batched LAPACK results.  Division and NaN warnings of the closed forms
    are silenced: a NaN entry gives NaN results (and fails the
    definiteness test), an exactly singular node an infinite condition
    number.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = np.asarray(mats, dtype=float)
        self.n = self.mats.shape[-1]

    def _entries(self):
        m = self.mats
        return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]

    @cached_property
    def det(self) -> np.ndarray:
        if self.n == 1:
            return self.mats[..., 0, 0].copy()
        if self.n == 2:
            a, b, c, d = self._entries()
            with np.errstate(all="ignore"):
                return a * d - b * c
        return np.linalg.det(self.mats)

    @cached_property
    def inv(self) -> np.ndarray:
        """Pointwise inverse.  Raises ``np.linalg.LinAlgError`` when a node
        is exactly singular (det == 0 for n <= 2, a zero pivot for LAPACK)."""
        if self.n >= 3:
            return np.linalg.inv(self.mats)
        det = self.det
        if np.any(det == 0):
            raise np.linalg.LinAlgError("Singular matrix")
        with np.errstate(all="ignore"):
            if self.n == 1:
                return 1.0 / self.mats
            a, b, c, d = self._entries()
            out = np.empty_like(self.mats)
            out[..., 0, 0] = d / det
            out[..., 0, 1] = -b / det
            out[..., 1, 0] = -c / det
            out[..., 1, 1] = a / det
        return out

    @cached_property
    def cond(self) -> np.ndarray:
        """2-norm condition number sigma_max / sigma_min; infinite where the
        matrix is exactly singular, as ``np.linalg.cond`` reports it.

        For n = 2, sigma_max = Q + R with Q = hypot((a + d)/2, (c - b)/2)
        and R = hypot((a - d)/2, (c + b)/2) (the closed-form 2x2 SVD:
        Blinn, "Consider the lowly 2x2 matrix", IEEE CG&A 1996), and
        sigma_min = |det| / sigma_max, which involves no cancellation."""
        if self.n >= 3:
            return np.linalg.cond(self.mats)
        det = self.det
        with np.errstate(all="ignore"):
            if self.n == 1:
                cond = np.abs(det) / np.abs(det)
            else:
                a, b, c, d = self._entries()
                s_max = (np.hypot(0.5 * (a + d), 0.5 * (c - b))
                         + np.hypot(0.5 * (a - d), 0.5 * (c + b)))
                cond = s_max * s_max / np.abs(det)
        return np.where(det == 0, np.inf, cond)

    @cached_property
    def positive_definite(self) -> np.ndarray:
        """Boolean per node: every entry finite and the matrix positive
        definite.  For n <= 2 this runs the Cholesky recurrence on the lower
        triangle exactly as LAPACK does (l21 = a21 * (1 / sqrt(a11)),
        then a22 - l21^2 > 0), so on finite input it agrees with
        ``np.linalg.cholesky`` succeeding; NaN fails each comparison."""
        m = self.mats
        finite = np.isfinite(m[..., 0, 0])
        for i, j in product(range(self.n), repeat=2):
            if i or j:
                finite &= np.isfinite(m[..., i, j])
        a = m[..., 0, 0]
        if self.n == 1:
            return finite & (a > 0)
        if self.n == 2:
            with np.errstate(all="ignore"):
                l21 = m[..., 1, 0] * (1.0 / np.sqrt(a))
                return finite & (a > 0) & (m[..., 1, 1] - l21 * l21 > 0)
        try:
            np.linalg.cholesky(m)
            return finite
        except np.linalg.LinAlgError:
            ok = finite.reshape(-1)
            flat = m.reshape(-1, self.n, self.n)
            for idx in np.flatnonzero(ok):
                try:
                    np.linalg.cholesky(flat[idx])
                except np.linalg.LinAlgError:
                    ok[idx] = False
            return ok.reshape(finite.shape)


def _condition_gate(values: np.ndarray, doubtful: np.ndarray) -> None:
    """Raise a singular-metric error at the first node of the mask
    ``doubtful`` whose 2-norm condition number exceeds ``COND_BOUND`` or is
    NaN; the condition number is computed at those nodes only."""
    cond = NodeMatrices(values[doubtful]).cond
    bad = ~(cond <= COND_BOUND)
    if bad.any():
        flat = np.flatnonzero(doubtful)[np.argmax(bad)]
        node = tuple(int(i) for i in np.unravel_index(flat, doubtful.shape))
        raise SingularMetricError(
            f"metric condition number {cond[bad].max():.3e} exceeds bound at node {node}",
            node=node,
        )


def metric_inverse(values: np.ndarray) -> np.ndarray:
    """Pointwise inverse of metric matrices stacked along leading node
    axes, ``(..., n, n)``, symmetrized.

    Nodes whose 2-norm condition number exceeds ``COND_BOUND``, or is NaN,
    raise a singular-metric error naming the first offending node.  The
    condition number is computed only at the nodes the screen
    ||A||_F ||A^-1||_F <= COND_BOUND / 2 does not clear.  The screen is at
    least the condition number and at most n times it, and its factor-2
    margin covers the eps * cond rounding of both the screen and the
    condition number, so every node it clears passes the bound.  A NaN or
    overflowing screen clears nothing, and neither does an inverse that
    raises ``np.linalg.LinAlgError``.
    """
    try:
        inv = NodeMatrices(values).inv
    except np.linalg.LinAlgError:
        _condition_gate(values, np.ones(values.shape[:-2], dtype=bool))
        raise
    with np.errstate(all="ignore"):
        screen = (np.einsum("...ij,...ij->...", values, values)
                  * np.einsum("...ij,...ij->...", inv, inv))
    doubtful = ~(screen <= (0.5 * COND_BOUND) ** 2)
    if doubtful.any():
        _condition_gate(values, doubtful)
    # for n <= 2 the adjugate inverse of an exactly symmetric input is
    # exactly symmetric already, and averaging it would return it unchanged
    n = values.shape[-1]
    if n > 2 or (n == 2 and not np.array_equal(values[..., 0, 1], values[..., 1, 0])):
        inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
    return inv


def invert_metric(g: MetricField) -> MetricField:
    """Pointwise inverse of a metric field, by ``metric_inverse``."""
    return MetricField(g.grid, metric_inverse(g.values), definite="pseudo")


def sqrt_det(g: MetricField) -> TensorField:
    """Scalar field of sqrt(|det g|) per node (the volume weight)."""
    return TensorField(g.grid, np.sqrt(np.abs(NodeMatrices(g.values).det)))


def volume_integral(rho: TensorField, g: MetricField) -> float:
    """Integral of a scalar field against the volume weight sqrt(|det g|)."""
    return quadrature(TensorField(rho.grid, rho.values * sqrt_det(g).values))


def quadrature(rho: TensorField) -> float:
    """Integral of a scalar field: tensor-product trapezoid rule with
    rectangle weights on periodic axes."""
    if rho.slot_dims:
        raise ValueError("quadrature integrates scalar fields")
    return float(np.sum(rho.values * rho.grid.quadrature_weights()))


def contract_vector(values: np.ndarray, vec: np.ndarray, axis: int) -> np.ndarray:
    """sum_k vec[k] * values[..., k, ...] along ``axis``: one slot of a
    per-node array contracted against a vector that is the same at every
    node, accumulated in place over the n slices of that slot."""
    vec = np.asarray(vec, float)
    slices = np.moveaxis(values, axis, 0)
    out = vec[0] * slices[0]
    for k in range(1, vec.shape[0]):
        out += vec[k] * slices[k]
    return out
