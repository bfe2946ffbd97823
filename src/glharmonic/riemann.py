"""Riemannian machinery of a base metric sampled on a chart: Christoffel
symbols, curvature tensor, Ricci tensor and scalar curvature.

Index conventions.  The curvature tensor ``r^i_{jkl}`` is antisymmetric in
its last two slots and its overall sign is fixed so that the round sphere
has positive scalar curvature under the trace ``r_ij = r^k_{ijk}`` (upper
slot against the *last* lower slot).  Ricci, the scalar, the Einstein
tensor and the field equations built on them all use this one trace; texts
that trace against the middle slot have the opposite sign of Ricci and R.

What is computed when.  ``curvature_package`` computes the inverse metric
and the Christoffel symbols.  Ricci, the scalar and the curvature tensor
are each computed when first read and then kept.  The Einstein equations
of a chart without a conformal factor read only Ricci, R and the Einstein
tensor, so such a chart forms no array with n^4 entries per node; the
deflection tensor of a conformal factor and the Maxwell residuals (n >= 3)
also read the curvature tensor.  Ricci comes from its contracted form, not from the trace of the
curvature tensor: the two are the same sums in another order, so they
agree to round-off, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .tensor_core import (
    ChartGrid,
    MetricField,
    TensorField,
    _derivative_1d,
    fd_partial,
    grid_partials,
    invert_metric,
)


@dataclass(frozen=True)
class RiemannPackage:
    """The curvature data of one base metric.  The inverse metric and the
    Christoffel symbols are computed with the package; the curvature tensor,
    Ricci and the scalar each when first read, and then kept."""

    gamma: MetricField
    gamma_inv: MetricField
    christoffel: TensorField   # Gamma^i_{jk}, slots (up, lo, lo)

    @property
    def grid(self) -> ChartGrid:
        return self.gamma.grid

    @property
    def dim(self) -> int:
        return self.gamma.slot_dims[0]

    @cached_property
    def curvature(self) -> TensorField:
        """r^i_{jkl}, slots (up, lo, lo, lo):

        r^i_{jkl} = d_l Gamma^i_{jk} - d_k Gamma^i_{jl}
                    + Gamma^i_{ml} Gamma^m_{jk} - Gamma^i_{mk} Gamma^m_{jl},

        the sign chosen so the sphere comes out positive under the trace
        r_ij = r^k_{ijk}.  n^4 entries per node: only the fields that
        contract it read it."""
        gam = self.christoffel
        n, lead, g = self.grid.dim, self.grid.shape, gam.values
        # Gamma^i_{ml} Gamma^m_{jk} from one batched product (il, m) @ (m, jk),
        # viewed in (..., i, j, k, l) order; d_l Gamma^i_{jk} added in place
        prod = g.swapaxes(-2, -1).reshape(lead + (n * n, n)) @ g.reshape(lead + (n, n * n))
        riem = np.moveaxis(prod.reshape(lead + (n,) * 4), -3, -1)
        for axis in range(n):
            riem[..., axis] += fd_partial(gam, axis).values
        # antisymmetrize in (k, l) into a C-ordered array
        riem = np.subtract(riem, riem.swapaxes(-2, -1), out=np.empty(riem.shape))
        return TensorField(self.grid, riem)

    @cached_property
    def ricci(self) -> TensorField:
        """r_ij = r^k_{ijk} in its contracted form

        r_ij = d_k Gamma^k_{ij} - d_j Gamma^k_{ik}
               + Gamma^k_{mk} Gamma^m_{ij} - Gamma^k_{mj} Gamma^m_{ik},

        all n^2 entries (the discrete Ricci is not symmetric), with no
        symmetry of Gamma assumed and no n^4 array.  Gamma is copied once
        into entry planes, so each product reads contiguous memory and each
        stencil runs over a whole (n, n) or (n,) block of planes."""
        grid = self.grid
        n = grid.dim
        # planes[k, i, j] = Gamma^k_{ij} and trace[i] = Gamma^k_{ik}, grid last
        planes = np.moveaxis(self.christoffel.values, (-3, -2, -1), (0, 1, 2)).copy()
        trace = sum(planes[k, :, k] for k in range(n))

        def partial(vals: np.ndarray, k: int) -> np.ndarray:
            return _derivative_1d(vals, vals.ndim - n + k, grid.spacing[k],
                                  grid.stencil_order, grid.periodic[k])

        ricci = partial(planes[0], 0)
        for k in range(1, n):
            ricci += partial(planes[k], k)
        for j in range(n):
            ricci[:, j] -= partial(trace, j)
        for i, j in product(range(n), repeat=2):
            entry = ricci[i, j]
            for m in range(n):
                entry += trace[m] * planes[m, i, j]
            for k, m in product(range(n), repeat=2):
                entry -= planes[k, m, j] * planes[m, i, k]
        return TensorField(grid, np.moveaxis(ricci, (0, 1), (-2, -1)).copy())

    @cached_property
    def scalar(self) -> TensorField:
        """R = gamma^{ij} r_ij."""
        vals = np.einsum("...ij,...ij->...", self.gamma_inv.values, self.ricci.values)
        return TensorField(self.grid, vals)

    def einstein_tensor(self) -> TensorField:
        """r_ij - r gamma_ij / 2 as a (0,2) field."""
        vals = self.ricci.values - 0.5 * self.scalar.values[..., None, None] * self.gamma.values
        return TensorField(self.grid, vals)


def christoffel(gamma: MetricField, gamma_inv: MetricField | None = None) -> TensorField:
    """Christoffel symbols Gamma^i_{jk} of a metric, by finite differences.

    Gamma^i_{jk} = g^{im} (d_j g_{mk} + d_k g_{mj} - d_m g_{jk}) / 2.
    """
    if gamma_inv is None:
        gamma_inv = invert_metric(gamma)
    dg = grid_partials(gamma)  # (..., m, k, j) = d_j gamma_{mk}
    n = dg.shape[-1]
    term = (
        dg.swapaxes(-2, -1)           # d_j gamma_{mk}
        + dg                          # d_k gamma_{mj}
        - np.moveaxis(dg, -1, -3)     # d_m gamma_{jk}
    )
    vals = gamma_inv.values @ term.reshape(term.shape[:-3] + (n, n * n))
    vals *= 0.5
    return TensorField(gamma.grid, vals.reshape(term.shape))


def curvature_package(gamma: MetricField) -> RiemannPackage:
    """The curvature data of a metric: its inverse and Christoffel symbols
    now, the rest when read (see :class:`RiemannPackage`)."""
    gamma_inv = invert_metric(gamma)
    return RiemannPackage(gamma=gamma, gamma_inv=gamma_inv,
                          christoffel=christoffel(gamma, gamma_inv))


def sphere_metric(grid: ChartGrid, radius: float = 1.0) -> MetricField:
    """Round-sphere chart metric diag(R^2, R^2 sin^2 theta); the first grid
    axis is the polar angle (keep it away from the poles)."""
    pts = grid.points()
    theta = pts[..., 0]
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = radius**2
    vals[..., 1, 1] = (radius * np.sin(theta)) ** 2
    return MetricField(grid, vals)
