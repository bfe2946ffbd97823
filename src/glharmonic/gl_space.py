"""Conformal generalized Lagrange space over a chart: a base metric
gamma_ij(x) rescaled by exp(2 sigma(x,y)) with a direction-dependent log
factor sigma.

The nonlinear connection is N^i_j(x,y) = Gamma^i_{jk}(x) y^k (algebraic in
y, no differencing).  Horizontal derivatives follow the adapted frame
d/dx^i - N^j_i d/dy^j; vertical derivatives are plain fiber partials,
because the linear connection behind the h-/v- covariant rules is the
Berwald-type pair (Gamma^i_{jk}, 0), whose vertical coefficients are zero.

Direction-dependent quantities are evaluated one fiber vector at a time:
a "fibered" field is a callable ``y -> grid samples``, and fiber partials
are central differences with a relative step h = fiber_step(y).  Each
fibered quantity is evaluated once at y and once at each of the 2n points
y +- h e_k, and its h- and v-derivatives both come from that one stencil;
several quantities share the stencil through :func:`joint_fiber_partials`.
The gradient stage of the log factor, (sigma, grad_h, grad_v) at one
fiber, costs 1 + 2n sigma calls, so its Hessian blocks, a Maxwell sample
and an Einstein sample each cost (1 + 2n)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .riemann import RiemannPackage
from .tensor_core import (
    LO,
    ChartGrid,
    TensorField,
    contract_vector,
    fd_partial,
    scalar_field,
)

FIBER_STEP_SCALE = 1e-4


def fiber_step(y: np.ndarray, scale: float = FIBER_STEP_SCALE) -> float:
    """Relative central-difference step in the fiber: scale * (1 + |y|).

    This is deliberately not ``energy.central_partials``'s per-coordinate
    rule: a fibered field is sampled at one constant fiber vector for the
    whole grid, so one step (from the norm of y) serves every coordinate,
    and every field-equation output is defined by this step.
    """
    return scale * (1.0 + float(np.linalg.norm(y)))


@dataclass(frozen=True)
class ConformalLagrangeSpace:
    """(chart, gamma, sigma): all curvature data of gamma plus the log
    conformal factor sigma(x, y) with optional analytic partials.

    ``sigma`` is vectorized over grid points at one constant fiber vector:
    ``sigma(points, y) -> scalars``.  When ``sigma_dx``/``sigma_dy`` are
    omitted the partials fall back to grid stencils (base) and central
    fiber differences (fiber).
    """

    base: RiemannPackage
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma_dx: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    sigma_dy: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fiber_step_scale: float = FIBER_STEP_SCALE

    @property
    def grid(self) -> ChartGrid:
        return self.base.grid

    @property
    def dim(self) -> int:
        return self.base.dim

    def sigma_field(self, y: np.ndarray) -> TensorField:
        pts = self.grid.points()
        return scalar_field(self.grid, np.asarray(self.sigma(pts, np.asarray(y, float)), float))

    def metric_values(self, y: np.ndarray) -> np.ndarray:
        """g_ij(x, y) = exp(2 sigma) gamma_ij(x) at every node, fixed fiber."""
        s = self.sigma_field(y).values
        return np.exp(2.0 * s)[..., None, None] * self.base.gamma.values

    def nonlinear_connection(self, y: np.ndarray) -> np.ndarray:
        """N^i_j = Gamma^i_{jk} y^k per node, shape (..., i, j)."""
        return contract_vector(self.base.christoffel.values, y, -1)


def conformal_space(base: RiemannPackage, sigma, sigma_dx=None, sigma_dy=None,
                    fiber_step_scale=FIBER_STEP_SCALE) -> ConformalLagrangeSpace:
    return ConformalLagrangeSpace(base, sigma, sigma_dx, sigma_dy, fiber_step_scale)


def zero_sigma(points: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.zeros(points.shape[:-1])


# ---------------------------------------------------------------------------
# fibered fields and adapted derivatives
# ---------------------------------------------------------------------------


def fiber_partials(make_values: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                   dim: int, step_scale: float = FIBER_STEP_SCALE) -> np.ndarray:
    """Central fiber differences of a fibered field at constant fiber y.

    ``make_values(y)`` returns grid samples of any shape; the result stacks
    d(values)/dy^k along a new last axis.
    """
    return joint_fiber_partials(lambda yy: (make_values(yy),), y, dim, step_scale)[0]


def joint_fiber_partials(make_values: Callable[[np.ndarray], tuple], y: np.ndarray,
                         dim: int, step_scale: float = FIBER_STEP_SCALE) -> tuple:
    """:func:`fiber_partials` of several fibered fields over one stencil.

    ``make_values(y)`` returns a tuple of grid-sample arrays and is called
    once at each point y +- h e_k; the result is the tuple of their
    partials, each stacked along a new last axis.
    """
    y = np.asarray(y, float)
    h = fiber_step(y, step_scale)
    cols = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        plus, minus = make_values(y + e), make_values(y - e)
        cols.append([(p - m) / (2 * h) for p, m in zip(plus, minus)])
    return tuple(np.stack(c, axis=-1) for c in zip(*cols))


def _grid_partials(field: TensorField) -> np.ndarray:
    return np.stack([fd_partial(field, k).values for k in range(field.grid.dim)], axis=-1)


def delta_derivative(F: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     space: ConformalLagrangeSpace, y: np.ndarray) -> TensorField:
    """Horizontal derivative of a scalar on the tangent bundle along the
    adapted frame: dF/dx^i - N^j_i dF/dy^j, at one constant fiber."""
    y = np.asarray(y, float)
    pts = space.grid.points()
    sampled = scalar_field(space.grid, np.asarray(F(pts, y), float))
    dx = _grid_partials(sampled)                      # (..., i)
    dy = fiber_partials(lambda yy: np.asarray(F(pts, yy), float), y,
                        space.dim, space.fiber_step_scale)
    n_conn = space.nonlinear_connection(y)            # (..., j, i)
    vals = dx - np.einsum("...ji,...j->...i", n_conn, dy)
    return TensorField(space.grid, vals, (LO,))


def hv_covariant(X: Callable[[np.ndarray], np.ndarray],
                 space: ConformalLagrangeSpace, y: np.ndarray) -> tuple[TensorField, TensorField]:
    """h- and v-covariant derivatives of a fibered all-covariant tensor.

    ``X(y)`` returns samples of shape (*grid, n, ..., n); the rank is read
    from the array.  X is evaluated at y and y +- h e_k only.  Returns the
    pair (horizontal, vertical) with the derivative slot appended last:
    horizontal = delta X / dx^j minus one Gamma-term per slot,
    vertical = dX/dy^a.
    """
    y = np.asarray(y, float)
    vals = np.asarray(X(y), float)
    dy = fiber_partials(lambda yy: np.asarray(X(yy), float), y, space.dim,
                        space.fiber_step_scale)
    kinds = (LO,) * (vals.ndim - space.grid.dim + 1)
    return (TensorField(space.grid, h_covariant(vals, dy, space, y), kinds),
            TensorField(space.grid, dy, kinds))


hv_covariant_cov2 = hv_covariant


def h_covariant(vals: np.ndarray, dy: np.ndarray, space: ConformalLagrangeSpace,
                y: np.ndarray) -> np.ndarray:
    """h-covariant derivative of a fibered all-covariant tensor from its
    values at y and its fiber partials ``dy`` (the v-covariant derivative):
    delta/dx^k of the components minus one Gamma-term per slot; the new
    derivative slot is appended last.  A caller with several fibered
    tensors takes all their partials from one stencil with
    :func:`joint_fiber_partials`."""
    gd = space.grid.dim
    n = space.dim
    lead = space.grid.shape
    n_slots = vals.ndim - gd
    field = TensorField(space.grid, vals, (LO,) * n_slots)
    delta_vals = _grid_partials(field)                             # (*grid, *slots, k)
    # N-correction: dy carries the fiber slot m last, N^m_k is (m, k)
    correction = dy.reshape(lead + (-1, n)) @ space.nonlinear_connection(y)
    delta_vals -= correction.reshape(delta_vals.shape)
    gam = space.base.christoffel.values.reshape(lead + (n, n * n))  # (*grid, m, ik)
    for slot in range(n_slots):
        x_m_last = np.moveaxis(vals, gd + slot, -1)                # (*grid, rest, m)
        term = x_m_last.reshape(lead + (-1, n)) @ gam              # (*grid, rest, ik)
        term = term.reshape(x_m_last.shape[:-1] + (n, n))          # (*grid, rest, i, k)
        delta_vals -= np.moveaxis(term, -2, gd + slot)
    return delta_vals


# ---------------------------------------------------------------------------
# derivative blocks of the log conformal factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalFactorDerivatives:
    """First and second adapted derivatives of the log factor at one fiber:

    - ``grad_h``: horizontal derivative along the adapted frame
    - ``grad_v``: fiber partial
    - ``sq_h`` / ``sq_v``: squared lengths of the two gradients in gamma
    - ``hess_h``: horizontal Hessian-type block
      grad_h_i|j + grad_h_i grad_h_j - gamma_ij sq_h / 2
    - ``hess_v``: the vertical analogue with fiber partials
    - ``tr_h`` / ``tr_v``: gamma-traces of the two Hessian blocks
    """

    grad_h: TensorField
    grad_v: TensorField
    sq_h: TensorField
    hess_h: TensorField
    tr_h: TensorField
    sq_v: TensorField
    hess_v: TensorField
    tr_v: TensorField


def sigma_gradients(space: ConformalLagrangeSpace, y: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient stage of the log factor at one fiber: the samples of
    (sigma, grad_h, grad_v) with grad_v_i = d sigma/dy^i and
    grad_h_i = d sigma/dx^i - N^j_i grad_v_j.  One sigma call for the
    value and one fiber stencil (2n calls) shared by both gradients;
    analytic partials replace the stencils when given."""
    y = np.asarray(y, float)
    pts = space.grid.points()
    s = np.asarray(space.sigma(pts, y), float)
    if space.sigma_dy is not None:
        grad_v = np.asarray(space.sigma_dy(pts, y), float)
    else:
        grad_v = fiber_partials(lambda yy: np.asarray(space.sigma(pts, yy), float), y,
                                space.dim, space.fiber_step_scale)
    if space.sigma_dx is not None:
        dx = np.asarray(space.sigma_dx(pts, y), float)
    else:
        dx = _grid_partials(scalar_field(space.grid, s))
    grad_h = dx - np.einsum("...ji,...j->...i", space.nonlinear_connection(y), grad_v)
    return s, grad_h, grad_v


def sigma_blocks(space: ConformalLagrangeSpace, y: np.ndarray) -> ConformalFactorDerivatives:
    """All derivative blocks of the log factor at one fiber vector: the
    gradient stage at y, then the Hessian stage, which differences the pair
    (grad_h, grad_v) over one stencil y +- h e_k; (1 + 2n)^2 sigma calls."""
    y = np.asarray(y, float)
    grid = space.grid
    gamma = space.base.gamma.values
    gamma_inv = space.base.gamma_inv.values

    _, grad_h, grad_v = sigma_gradients(space, y)
    d_grad_h, d_grad_v = joint_fiber_partials(lambda yy: sigma_gradients(space, yy)[1:], y,
                                              space.dim, space.fiber_step_scale)

    sq_h = np.einsum("...kl,...k,...l->...", gamma_inv, grad_h, grad_h)
    sq_v = np.einsum("...ab,...a,...b->...", gamma_inv, grad_v, grad_v)

    # horizontal covariant derivative of grad_h
    hess_h = h_covariant(grad_h, d_grad_h, space, y) \
        + grad_h[..., :, None] * grad_h[..., None, :] - 0.5 * gamma * sq_h[..., None, None]
    # vertical derivative of grad_v (plain fiber partial, zero v-connection)
    hess_v = d_grad_v + grad_v[..., :, None] * grad_v[..., None, :] \
        - 0.5 * gamma * sq_v[..., None, None]

    tr_h = np.einsum("...ij,...ij->...", gamma_inv, hess_h)
    tr_v = np.einsum("...ab,...ab->...", gamma_inv, hess_v)

    return ConformalFactorDerivatives(
        grad_h=TensorField(grid, grad_h, (LO,)),
        grad_v=TensorField(grid, grad_v, (LO,)),
        sq_h=scalar_field(grid, sq_h),
        hess_h=TensorField(grid, hess_h, (LO, LO)),
        tr_h=scalar_field(grid, tr_h),
        sq_v=scalar_field(grid, sq_v),
        hess_v=TensorField(grid, hess_v, (LO, LO)),
        tr_v=scalar_field(grid, tr_v),
    )
