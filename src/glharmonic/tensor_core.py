"""Structured chart grids, sampled tensor fields, finite differences,
quadrature, and small dense index contractions.

Everything else in the library is built on this layer.  A chart is a
rectangular box, each axis either a closed interval or a full period of a
flat torus.  Fields store one small dense tensor per node; nodewise
contractions are vectorized with einsum.

Pointwise linear algebra of per-node matrices (determinant, inverse,
2-norm condition number, positive-definiteness) goes through
``NodeMatrices`` only.  Chosen on the matrix order n: for n <= 2 it uses
closed forms (the adjugate inverse, Blinn's closed-form 2x2 SVD for the
condition number, the Cholesky recurrence for definiteness), because
numpy's batched LAPACK calls cost far more than the arithmetic on
large batches of tiny matrices; for n >= 3 it calls ``np.linalg``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ContractionError, SingularMetricError, StencilSupportError

UP = "up"
LO = "lo"

_MIN_NODES = 5


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

    def with_stencil_order(self, order: int) -> "ChartGrid":
        return replace(self, stencil_order=order)

    def refined(self, factor: int = 2) -> "ChartGrid":
        """Grid with ``factor`` times as many intervals per axis."""
        nodes = tuple(
            n * factor if per else (n - 1) * factor + 1
            for n, per in zip(self.nodes_per_axis, self.periodic)
        )
        return replace(self, nodes_per_axis=nodes)


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

    ``values`` has shape ``(*grid.shape, *slot_dims)``; ``index_kinds``
    tags each trailing slot as contravariant (``"up"``) or covariant
    (``"lo"``).  Slots may have different dimensions (sections of pulled
    back bundles mix source and target indices).
    """

    grid: ChartGrid
    values: np.ndarray
    index_kinds: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index_kinds", tuple(self.index_kinds))
        expected = values.ndim - self.grid.dim
        if expected != len(self.index_kinds):
            raise ValueError(
                f"index_kinds has {len(self.index_kinds)} entries but values "
                f"carry {expected} slots beyond the grid axes"
            )
        if values.shape[: self.grid.dim] != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not start with grid shape {self.grid.shape}")
        for kind in self.index_kinds:
            if kind not in (UP, LO):
                raise ValueError(f"unknown index kind {kind!r}")

    @property
    def arity(self) -> int:
        return len(self.index_kinds)

    @property
    def slot_dims(self) -> tuple[int, ...]:
        return self.values.shape[self.grid.dim:]

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return TensorField(self.grid, self.values + other.values, self.index_kinds)

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return TensorField(self.grid, self.values - other.values, self.index_kinds)

    def __mul__(self, factor) -> "TensorField":
        if isinstance(factor, TensorField):
            if factor.arity != 0:
                raise ValueError("can only multiply by a scalar field")
            extra = (1,) * self.arity
            return TensorField(self.grid, self.values * factor.values.reshape(factor.values.shape + extra),
                               self.index_kinds)
        return TensorField(self.grid, self.values * float(factor), self.index_kinds)

    __rmul__ = __mul__

    def _check_compatible(self, other: "TensorField"):
        if self.grid != other.grid or self.index_kinds != other.index_kinds \
                or self.values.shape != other.values.shape:
            raise ValueError("fields are not defined on the same grid with the same slots")


def scalar_field(grid: ChartGrid, values: np.ndarray) -> TensorField:
    return TensorField(grid, values, ())


def vector_field(grid: ChartGrid, values: np.ndarray) -> TensorField:
    return TensorField(grid, values, (UP,))


def covector_field(grid: ChartGrid, values: np.ndarray) -> TensorField:
    return TensorField(grid, values, (LO,))


def tensor3_field(grid: ChartGrid, values: np.ndarray,
                  index_kinds: tuple[str, str, str]) -> TensorField:
    return TensorField(grid, values, index_kinds)


def tensor4_field(grid: ChartGrid, values: np.ndarray,
                  index_kinds: tuple[str, str, str, str]) -> TensorField:
    return TensorField(grid, values, index_kinds)


def sample_scalar(grid: ChartGrid, fn: Callable[[np.ndarray], np.ndarray]) -> TensorField:
    """Sample an evaluator ``fn(points) -> values`` once at construction."""
    return scalar_field(grid, np.asarray(fn(grid.points()), dtype=float))


@dataclass(frozen=True)
class MetricField(TensorField):
    """Symmetric two-slot field: a metric (``lo,lo``) or its inverse
    (``up,up``).  Every metric is checked finite at every node, before
    symmetry; Riemannian metrics also positive definite."""

    index_kinds: tuple[str, str] = (LO, LO)
    definite: str = field(default="riemannian", compare=False)

    def __post_init__(self):
        TensorField.__post_init__(self)
        if self.arity != 2 or self.index_kinds not in ((LO, LO), (UP, UP)):
            raise ValueError("a metric carries exactly two like-variance slots")
        n1, n2 = self.slot_dims
        if n1 != n2:
            raise ValueError("metric slots must have equal dimension")
        scale = float(np.max(np.abs(self.values)))    # nan or inf iff an entry is
        if not np.isfinite(scale):
            node = _first_false(np.isfinite(self.values).all(axis=(-2, -1)))
            raise SingularMetricError(f"metric is not finite at node {node}", node=node)
        sym_defect = np.max(np.abs(self.values - np.swapaxes(self.values, -1, -2)))
        if not sym_defect <= 1e-10 * max(1.0, scale):
            raise ValueError(f"metric is not symmetric (max defect {sym_defect:.3e})")
        if self.definite == "riemannian":
            ok = NodeMatrices(self.values).positive_definite
            if not ok.all():
                node = _first_false(ok)
                raise SingularMetricError(f"metric is not positive definite at node {node}",
                                          node=node)


def _first_false(mask: np.ndarray) -> tuple[int, ...]:
    """The first node, in C order, where ``mask`` is False."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(mask)), mask.shape))


def metric_field(grid: ChartGrid, values: np.ndarray, contravariant: bool = False,
                 definite: str = "riemannian") -> MetricField:
    kinds = (UP, UP) if contravariant else (LO, LO)
    return MetricField(grid, values, kinds, definite)


def sample_metric(grid: ChartGrid, fn: Callable[[np.ndarray], np.ndarray],
                  definite: str = "riemannian") -> MetricField:
    return metric_field(grid, np.asarray(fn(grid.points()), dtype=float), definite=definite)


def identity_metric(grid: ChartGrid, dim: int | None = None) -> MetricField:
    n = dim if dim is not None else grid.dim
    values = np.broadcast_to(np.eye(n), grid.shape + (n, n)).copy()
    return metric_field(grid, values)


@dataclass(frozen=True)
class TangentSample:
    """A point of a chart together with one tangent vector over it."""

    base_point: np.ndarray
    fiber: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base_point, dtype=float)
        fib = np.asarray(self.fiber, dtype=float)
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "fiber", fib)
        if fib.shape != base.shape:
            raise ValueError(
                f"fiber length {fib.shape} does not match chart dimension {base.shape}"
            )


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


def _derivative_1d(values: np.ndarray, axis: int, h: float, order: int, periodic: bool) -> np.ndarray:
    n = values.shape[axis]
    if order == 2:
        if n < 3:
            raise StencilSupportError(f"axis has {n} nodes; order-2 stencil needs 3")
        out = (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * h)
    elif order == 4:
        if n < 5:
            raise StencilSupportError(f"axis has {n} nodes; order-4 stencil needs 5")
        out = (
            np.roll(values, 2, axis=axis)
            - 8 * np.roll(values, 1, axis=axis)
            + 8 * np.roll(values, -1, axis=axis)
            - np.roll(values, -2, axis=axis)
        ) / (12 * h)
    else:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    if periodic:
        return out

    # repair the wrapped rows with one-sided stencils of matching order
    rows = _ONESIDED[order]
    width = rows[0].shape[0]
    if n < width:
        raise StencilSupportError(f"axis has {n} nodes; one-sided order-{order} stencil needs {width}")

    def take(i):
        return np.take(values, i, axis=axis)

    # stencil node offsets are measured from the boundary, not from the row
    for r, coeffs in enumerate(rows):
        low = sum(c * take(j) for j, c in enumerate(coeffs)) / h
        high = -sum(c * take(n - 1 - j) for j, c in enumerate(coeffs)) / h
        idx_lo = [slice(None)] * values.ndim
        idx_lo[axis] = r
        idx_hi = [slice(None)] * values.ndim
        idx_hi[axis] = n - 1 - r
        out[tuple(idx_lo)] = low
        out[tuple(idx_hi)] = high
    return out


def fd_partial(f: TensorField, axis: int, order: int | None = None) -> TensorField:
    """Partial derivative of a sampled field along one grid axis.

    Central differences of the requested order in the interior; periodic
    axes wrap, interval axes fall back to one-sided stencils of the same
    order at the boundary.  The derivative lives on the same grid with the
    same slots.
    """
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for a {f.grid.dim}-dimensional grid")
    order = f.grid.stencil_order if order is None else order
    out = _derivative_1d(f.values, axis, f.grid.spacing[axis], order, f.grid.periodic[axis])
    return TensorField(f.grid, out, f.index_kinds)


def fd_gradient(f: TensorField, order: int | None = None) -> TensorField:
    """All partials stacked into one extra covariant slot (the last)."""
    parts = [fd_partial(f, k, order).values for k in range(f.grid.dim)]
    return TensorField(f.grid, np.stack(parts, axis=-1), f.index_kinds + (LO,))


def interior_mask(grid: ChartGrid, margin: int | None = None) -> np.ndarray:
    """Boolean mask of nodes at least ``margin`` nodes away from any
    non-periodic boundary.  Default margin covers the reach of the
    one-sided boundary stencils at the grid's order."""
    if margin is None:
        margin = 3 if grid.stencil_order == 2 else 6
    mask = np.ones(grid.shape, dtype=bool)
    for k in range(grid.dim):
        if grid.periodic[k]:
            continue
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
        finite = np.isfinite(m).all(axis=(-2, -1))
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


def invert_metric(g: MetricField, cond_bound: float = 1e12) -> MetricField:
    """Pointwise matrix inverse with flipped variance.

    Nodes whose condition number exceeds ``cond_bound``, or is NaN, raise
    a singular-metric error naming the first offending node.
    """
    mats = NodeMatrices(g.values)
    cond = mats.cond
    bad = ~(cond <= cond_bound)
    if np.any(bad):
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SingularMetricError(
            f"metric condition number {cond[bad].max():.3e} exceeds bound at node {node}",
            node=node,
        )
    inv = mats.inv
    inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
    kinds = (UP, UP) if g.index_kinds == (LO, LO) else (LO, LO)
    return MetricField(g.grid, inv, kinds, definite="pseudo")


def sqrt_det(g: MetricField) -> TensorField:
    """Scalar field of sqrt(|det g|) per node (the volume weight)."""
    return scalar_field(g.grid, np.sqrt(np.abs(NodeMatrices(g.values).det)))


def volume_integral(rho: TensorField, g: MetricField) -> float:
    """Integral of a scalar field against the volume weight sqrt(|det g|)."""
    return quadrature(scalar_field(rho.grid, rho.values * sqrt_det(g).values))


def quadrature(rho: TensorField) -> float:
    """Integral of a scalar field: tensor-product trapezoid rule with
    rectangle weights on periodic axes."""
    if rho.arity != 0:
        raise ValueError("quadrature integrates scalar fields")
    return float(np.sum(rho.values * rho.grid.quadrature_weights()))


def contract(t1: TensorField, t2: TensorField,
             slot_pairs: Sequence[tuple[int, int]]) -> TensorField:
    """Nodewise Einstein summation over paired slots of two fields.

    Each pair names one slot of ``t1`` and one of ``t2``; the paired slots
    must have opposite variance and equal dimension.  Unpaired slots are
    kept, those of ``t1`` first.
    """
    if t1.grid != t2.grid:
        raise ContractionError("fields live on different grids")
    pairs = [(int(i), int(j)) for i, j in slot_pairs]
    for i, j in pairs:
        if not (0 <= i < t1.arity and 0 <= j < t2.arity):
            raise ContractionError(f"slot pair ({i}, {j}) out of range")
        if t1.index_kinds[i] == t2.index_kinds[j]:
            raise ContractionError(
                f"slot {i} of the first field and slot {j} of the second have the "
                f"same variance ({t1.index_kinds[i]}); contraction needs one up, one lo"
            )
        if t1.slot_dims[i] != t2.slot_dims[j]:
            raise ContractionError(
                f"paired slots have dimensions {t1.slot_dims[i]} != {t2.slot_dims[j]}"
            )
    letters = iter(string.ascii_lowercase)
    sub1 = [next(letters) for _ in range(t1.arity)]
    sub2 = [next(letters) for _ in range(t2.arity)]
    for i, j in pairs:
        sub2[j] = sub1[i]
    paired1 = {i for i, _ in pairs}
    paired2 = {j for _, j in pairs}
    out_sub = [s for k, s in enumerate(sub1) if k not in paired1] + \
              [s for k, s in enumerate(sub2) if k not in paired2]
    spec = f"...{''.join(sub1)},...{''.join(sub2)}->...{''.join(out_sub)}"
    values = np.einsum(spec, t1.values, t2.values)
    kinds = tuple(k for i, k in enumerate(t1.index_kinds) if i not in paired1) + \
            tuple(k for j, k in enumerate(t2.index_kinds) if j not in paired2)
    return TensorField(t1.grid, values, kinds)
