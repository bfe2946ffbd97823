"""Conformal generalized Lagrange space over a chart: a base metric
gamma_ij(x) rescaled by exp(2 sigma(x,y)) with a direction-dependent log
factor sigma.

The nonlinear connection is N^i_j(x,y) = Gamma^i_{jk}(x) y^k (algebraic in
y, no differencing).  Horizontal derivatives follow the adapted frame
d/dx^i - N^j_i d/dy^j; vertical derivatives are plain fiber partials,
because the linear connection behind the h-/v- covariant rules is the
Berwald-type pair (Gamma^i_{jk}, 0), whose vertical coefficients are zero.

Direction-dependent quantities are evaluated one fiber vector at a time:
a "fibered" field is a callable ``y -> grid samples``.  Partials in x are
grid stencils.  ``sigma`` None means no factor (sigma = 0, the zero jet).
Fiber partials of the log factor come one of two ways:

- With the ``sigma_jet`` hook (every scenario-built space: the runner
  differentiates the sigma expression, ``scenarios.sigma_jet_evaluator``)
  one jet call gives sigma and its exact first and second fiber
  derivatives, and the derivative blocks, the electromagnetic tensors and
  their fiber partials follow in closed form.  These outputs are
  fiber-exact: they move with the grid, not with the fiber step, and no
  sigma call is made.
- Without it (a space built from a plain library callable) fiber partials
  are central differences with a relative step h = fiber_step(y), and the
  outputs are defined by that step.  Each fibered quantity is evaluated
  once at y and once at each of the 2n points y +- h e_k, and its h- and
  v-derivatives both come from that one stencil; several quantities share
  the stencil through :func:`joint_fiber_partials`.  The gradient stage of
  the log factor, (sigma, grad_h, grad_v) at one fiber, costs 1 + 2n sigma
  calls, so its Hessian blocks, a Maxwell sample and an Einstein sample
  each cost (1 + 2n)^2.

:func:`delta_derivative` and :func:`hv_covariant` of other fibered fields
always difference in the fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .riemann import RiemannPackage
from .tensor_core import (
    ChartGrid,
    TensorField,
    contract_vector,
    fd_partial,
    grid_partials,
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


SigmaJet = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ConformalLagrangeSpace:
    """(chart, gamma, sigma): all curvature data of gamma plus the log
    conformal factor sigma(x, y), optionally with its fiber jet.

    ``sigma`` is vectorized over grid points at one constant fiber vector:
    ``sigma(points, y) -> scalars``.  ``sigma_jet(points, y)`` returns
    (sigma, d sigma/dy^k, d^2 sigma/dy^j dy^k) with shapes (...), (..., n)
    and (..., n, n); with it a derivative block or a Maxwell or Einstein
    sample makes one jet call and no sigma call, and its fiber partials
    are exact.  Without it they are central fiber differences,
    (1 + 2n)^2 sigma calls per block or sample.  x-partials are grid
    stencils either way.
    ``sigma`` None means no factor: its readers take the zero jet
    (``factor``) and ``einstein_system`` drops its terms.
    """

    base: RiemannPackage
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    sigma_jet: SigmaJet | None = None
    fiber_step_scale: float = FIBER_STEP_SCALE

    @property
    def grid(self) -> ChartGrid:
        return self.base.grid

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def factor(self) -> tuple:
        """(sigma, sigma_jet) as their readers call them; zero for no factor."""
        return (zero_sigma, zero_sigma_jet) if self.sigma is None else (self.sigma, self.sigma_jet)

    def metric_values(self, y: np.ndarray) -> np.ndarray:
        """g_ij(x, y) = exp(2 sigma) gamma_ij(x) at every node, fixed fiber."""
        s = np.asarray(self.factor[0](self.grid.points(), np.asarray(y, float)), float)
        return np.exp(2.0 * s)[..., None, None] * self.base.gamma.values

    def nonlinear_connection(self, y: np.ndarray) -> np.ndarray:
        """N^i_j = Gamma^i_{jk} y^k per node, shape (..., i, j)."""
        return contract_vector(self.base.christoffel.values, y, -1)


def conformal_space(base: RiemannPackage, sigma, sigma_jet=None,
                    fiber_step_scale=FIBER_STEP_SCALE) -> ConformalLagrangeSpace:
    return ConformalLagrangeSpace(base, sigma, sigma_jet, fiber_step_scale)


def zero_sigma(points: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.zeros(points.shape[:-1])


def zero_sigma_jet(points: np.ndarray, y: np.ndarray):
    """The jet of :func:`zero_sigma`: every entry 0."""
    lead = points.shape[:-1]
    n = len(y)
    return np.zeros(lead), np.zeros(lead + (n,)), np.zeros(lead + (n, n))


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


def delta_derivative(F: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     space: ConformalLagrangeSpace, y: np.ndarray) -> TensorField:
    """Horizontal derivative of a scalar on the tangent bundle along the
    adapted frame: dF/dx^i - N^j_i dF/dy^j, at one constant fiber."""
    y = np.asarray(y, float)
    pts = space.grid.points()
    values = np.asarray(F(pts, y), float)
    dy = fiber_partials(lambda yy: np.asarray(F(pts, yy), float), y,
                        space.dim, space.fiber_step_scale)
    return TensorField(space.grid, _horizontal(values, dy, space, space.nonlinear_connection(y)))


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
    return (TensorField(space.grid, h_covariant(vals, dy, space, y)),
            TensorField(space.grid, dy))


hv_covariant_cov2 = hv_covariant


def h_covariant(vals: np.ndarray, dy: np.ndarray, space: ConformalLagrangeSpace,
                y: np.ndarray, n_conn: np.ndarray | None = None) -> np.ndarray:
    """h-covariant derivative of a fibered all-covariant tensor from its
    values at y and its fiber partials ``dy`` (the v-covariant derivative):
    delta/dx^k of the components minus one Gamma-term per slot; the new
    derivative slot is appended last.  A caller with several fibered
    tensors takes all their partials from one stencil with
    :func:`joint_fiber_partials`, and passes N(y) as ``n_conn`` when it
    already holds it."""
    gd = space.grid.dim
    n = space.dim
    lead = space.grid.shape
    n_slots = vals.ndim - gd
    field = TensorField(space.grid, vals)
    delta_vals = grid_partials(field)                              # (*grid, *slots, k)
    # N-correction: dy carries the fiber slot m last, N^m_k is (m, k)
    if n_conn is None:
        n_conn = space.nonlinear_connection(y)
    correction = dy.reshape(lead + (-1, n)) @ n_conn
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


def sigma_gradients(space: ConformalLagrangeSpace, y: np.ndarray,
                    n_conn: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient stage of the log factor at one fiber: the samples of
    (sigma, grad_h, grad_v) with grad_v_i = d sigma/dy^i and
    grad_h_i = d sigma/dx^i - N^j_i grad_v_j, d/dx^i a grid stencil.
    grad_v is the jet's when the space has one; otherwise one sigma call
    for the value and one fiber stencil (2n calls).  ``n_conn`` is N(y)
    when the caller holds it."""
    y = np.asarray(y, float)
    pts = space.grid.points()
    if n_conn is None:
        n_conn = space.nonlinear_connection(y)
    sigma, jet = space.factor
    if jet is not None:
        s, grad_v, _ = jet(pts, y)
    else:
        s = np.asarray(sigma(pts, y), float)
        grad_v = fiber_partials(lambda yy: np.asarray(sigma(pts, yy), float), y,
                                space.dim, space.fiber_step_scale)
    return s, _horizontal(s, grad_v, space, n_conn), grad_v


def _horizontal(s: np.ndarray, grad_v: np.ndarray, space: ConformalLagrangeSpace,
                n_conn: np.ndarray) -> np.ndarray:
    """The horizontal derivative of the samples ``s`` of a scalar from its
    fiber partials: d s/dx^i - N^j_i grad_v_j."""
    # a jet may return a broadcast view, which np.roll in the stencil
    # copies several times slower than a contiguous array
    dx = grid_partials(TensorField(space.grid, np.ascontiguousarray(s)))
    return dx - np.einsum("...ji,...j->...i", n_conn, grad_v)


def sigma_gradient_partials(space: ConformalLagrangeSpace, y: np.ndarray,
                            n_conn: np.ndarray | None = None) -> tuple:
    """The gradient stage at one fiber and its fiber partials:
    (sigma, grad_h, grad_v, d grad_h, d grad_v), the fiber slot last.

    With the jet, in closed form from one jet call and grid partials of
    sigma and of each d sigma/dy^k:
    d grad_v = sigma_yy, and, since dN^j_i/dy^k = Gamma^j_{ik},
    d grad_h_ik = d/dx^i (sigma_{y^k}) - Gamma^j_{ik} sigma_{y^j}
    - N^j_i sigma_{y^j y^k}.
    Without it, (grad_h, grad_v) is differenced over one stencil
    y +- h e_k: (1 + 2n)^2 sigma calls."""
    y = np.asarray(y, float)
    if n_conn is None:
        n_conn = space.nonlinear_connection(y)
    if space.factor[1] is None:
        s, grad_h, grad_v = sigma_gradients(space, y, n_conn)
        d_grad_h, d_grad_v = joint_fiber_partials(lambda yy: sigma_gradients(space, yy)[1:],
                                                  y, space.dim, space.fiber_step_scale)
        return s, grad_h, grad_v, d_grad_h, d_grad_v
    s, s_y, s_yy = space.factor[1](space.grid.points(), y)
    grad_h = _horizontal(s, s_y, space, n_conn)
    # d/dx^i of each sigma_{y^k}, then the connection terms entry by entry:
    # no temporary beyond one grid of values
    s_y_field = TensorField(space.grid, np.ascontiguousarray(s_y))
    d_grad_h = np.stack([fd_partial(s_y_field, i).values for i in range(space.grid.dim)],
                        axis=-2)                                       # (*grid, i, k)
    gam = space.base.christoffel.values                               # (*grid, j, i, k)
    n = space.dim
    for i in range(n):
        for k in range(n):
            entry = d_grad_h[..., i, k]
            for j in range(n):
                entry -= s_y[..., j] * gam[..., j, i, k]
                entry -= n_conn[..., j, i] * s_yy[..., j, k]
    return s, grad_h, s_y, d_grad_h, s_yy


def sigma_blocks(space: ConformalLagrangeSpace, y: np.ndarray) -> ConformalFactorDerivatives:
    """All derivative blocks of the log factor at one fiber vector, from
    :func:`sigma_gradient_partials`: one jet call with the jet hook,
    (1 + 2n)^2 sigma calls without it."""
    y = np.asarray(y, float)
    grid = space.grid
    gamma = space.base.gamma.values
    gamma_inv = space.base.gamma_inv.values

    n_conn = space.nonlinear_connection(y)
    _, grad_h, grad_v, d_grad_h, d_grad_v = sigma_gradient_partials(space, y, n_conn)

    sq_h = np.einsum("...kl,...k,...l->...", gamma_inv, grad_h, grad_h)
    sq_v = np.einsum("...ab,...a,...b->...", gamma_inv, grad_v, grad_v)

    # horizontal covariant derivative of grad_h
    hess_h = h_covariant(grad_h, d_grad_h, space, y, n_conn) \
        + grad_h[..., :, None] * grad_h[..., None, :] - 0.5 * gamma * sq_h[..., None, None]
    # vertical derivative of grad_v (plain fiber partial, zero v-connection)
    hess_v = d_grad_v + grad_v[..., :, None] * grad_v[..., None, :] \
        - 0.5 * gamma * sq_v[..., None, None]

    tr_h = np.einsum("...ij,...ij->...", gamma_inv, hess_h)
    tr_v = np.einsum("...ab,...ab->...", gamma_inv, hess_v)

    return ConformalFactorDerivatives(
        grad_h=TensorField(grid, grad_h),
        grad_v=TensorField(grid, grad_v),
        sq_h=TensorField(grid, sq_h),
        hess_h=TensorField(grid, hess_h),
        tr_h=TensorField(grid, tr_h),
        sq_v=TensorField(grid, sq_v),
        hess_v=TensorField(grid, hess_v),
        tr_v=TensorField(grid, tr_v),
    )
