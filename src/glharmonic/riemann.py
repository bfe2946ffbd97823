"""Riemannian machinery of a base metric sampled on a chart: Christoffel
symbols, curvature tensor, Ricci tensor and scalar curvature.

Index conventions.  The curvature tensor ``r^i_{jkl}`` is antisymmetric in
its last two slots and its overall sign is fixed so that the round sphere
has positive scalar curvature under the trace ``r_ij = r^k_{ijk}`` (upper
slot against the *last* lower slot).  Ricci, the scalar, the Einstein
tensor and the field equations built on them all use this one trace; texts
that trace against the middle slot have the opposite sign of Ricci and R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    ChartGrid,
    MetricField,
    TensorField,
    fd_partial,
    grid_partials,
    invert_metric,
)


@dataclass(frozen=True)
class RiemannPackage:
    """All curvature data of one base metric, computed in a single pass."""

    gamma: MetricField
    gamma_inv: MetricField
    christoffel: TensorField   # Gamma^i_{jk}, slots (up, lo, lo)
    curvature: TensorField     # r^i_{jkl}, slots (up, lo, lo, lo)
    ricci: TensorField         # r_ij, slots (lo, lo)
    scalar: TensorField

    @property
    def grid(self) -> ChartGrid:
        return self.gamma.grid

    @property
    def dim(self) -> int:
        return self.gamma.slot_dims[0]

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
    """Full curvature data of a metric.

    r^i_{jkl} = d_l Gamma^i_{jk} - d_k Gamma^i_{jl}
                + Gamma^i_{ml} Gamma^m_{jk} - Gamma^i_{mk} Gamma^m_{jl},
    the sign chosen so the sphere comes out positive under the trace
    r_ij = r^k_{ijk}, the only one taken.
    """
    gamma_inv = invert_metric(gamma)
    gam = christoffel(gamma, gamma_inv)
    n, lead, g = gamma.grid.dim, gamma.grid.shape, gam.values
    # Gamma^i_{ml} Gamma^m_{jk} from one batched product (il, m) @ (m, jk),
    # viewed in (..., i, j, k, l) order; d_l Gamma^i_{jk} added in place
    prod = g.swapaxes(-2, -1).reshape(lead + (n * n, n)) @ g.reshape(lead + (n, n * n))
    riem = np.moveaxis(prod.reshape(lead + (n,) * 4), -3, -1)
    for axis in range(n):
        riem[..., axis] += fd_partial(gam, axis).values
    # antisymmetrize in (k, l) into a C-ordered array
    riem = np.subtract(riem, riem.swapaxes(-2, -1), out=np.empty(riem.shape))
    curvature = TensorField(gamma.grid, riem)
    ricci_vals = np.einsum("...kijk->...ij", riem)
    ricci = TensorField(gamma.grid, ricci_vals)
    scalar_vals = np.einsum("...ij,...ij->...", gamma_inv.values, ricci_vals)
    return RiemannPackage(
        gamma=gamma,
        gamma_inv=gamma_inv,
        christoffel=gam,
        curvature=curvature,
        ricci=ricci,
        scalar=TensorField(gamma.grid, scalar_vals),
    )


def sphere_metric(grid: ChartGrid, radius: float = 1.0) -> MetricField:
    """Round-sphere chart metric diag(R^2, R^2 sin^2 theta); the first grid
    axis is the polar angle (keep it away from the poles)."""
    pts = grid.points()
    theta = pts[..., 0]
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = radius**2
    vals[..., 1, 1] = (radius * np.sin(theta)) ** 2
    return MetricField(grid, vals)
