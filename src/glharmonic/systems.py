"""First-order systems df = T and their geometry: the scalar product on
sections, the Cauchy-Schwarz quotient functional whose global minimum is
half the source volume, minimizer certificates, and the named
constructions.

Orbits, Pfaff systems, pseudolinear maps and transformation groups are
one factorized form T = sum_r xi_r(x) (x) A^r(a), see FirstOrderSystem.
Their attached energy is one construction over the summed generators: a
conformal pair and a one-form-source connection.

The quotient functional's integrand is a pointwise Cauchy-Schwarz ratio,
so it is >= 1 at every node algebraically; its integral can only reach
half the volume when the differential of the map is proportional to T.
Certificates report both the defect against T itself and against the
best-fit scalar multiple of T, because the minimizer set is the
proportional family, not only exact solutions.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .energy import (
    ConnectionTensor,
    MapJet,
    MetricPair,
    constant_metric,
    el_residual,
    lagrangian_density,
)
from .errors import AdmissibilityError, SingularDirectionError, SingularMetricError, StepLimitError
from .tensor_core import (
    ChartGrid,
    MetricField,
    TensorField,
    fd_partial,
    grid_partials,
    identity_metric,
    interior_mask,
    interval_grid,
    invert_metric,
    metric_inverse,
    quadrature,
    sqrt_det,
    volume_integral,
)

DEFAULT_EPS_SING = 1e-8
DEFAULT_RK4_STEP = 1e-3
MAX_RK4_SUBSTEPS = 10**6


# ---------------------------------------------------------------------------
# systems and curves
# ---------------------------------------------------------------------------


def unit(pts: np.ndarray) -> np.ndarray:
    """The constant factor 1 of an orbit's or a Pfaff system's generator."""
    return np.ones(pts.shape[:-1] + (1,))


def _sum(terms):
    """The left-to-right sum of the terms.  A single term is returned as it
    is: 0 + x would turn -0.0 into 0.0."""
    return functools.reduce(operator.add, terms)


@dataclass(frozen=True)
class FirstOrderSystem:
    """A tensor T^i_a(a, x) defining the system df^i/da^a = T^i_a.

    ``T(a_pts, x_vals) -> (..., n, m)``.  Every named system is the
    factorized form T = sum_r xi_r(x) (x) A^r(a) and keeps its generators
    (xi_r, A^r): an orbit is (xi, 1), a Pfaff system (1, A), a
    pseudolinear system (xi, A) and a transformation group its list.  A
    general system has none.
    """

    T: Callable[[np.ndarray, np.ndarray], np.ndarray]
    generators: tuple = ()

    @classmethod
    def orbit(cls, xi) -> "FirstOrderSystem":
        """dc/dt = xi(c) on a one-dimensional source."""
        return cls.group([(xi, unit)])

    @classmethod
    def pfaff(cls, A) -> "FirstOrderSystem":
        """df = A for a scalar map and a covector A on the source."""
        return cls.group([(unit, A)])

    @classmethod
    def pseudolinear(cls, xi, A) -> "FirstOrderSystem":
        """Factorized system T^k_b = xi^k(x) A_b(a)."""
        return cls.group([(xi, A)])

    @classmethod
    def group(cls, generators: Sequence[tuple]) -> "FirstOrderSystem":
        """Summed system T^i_a = sum_r xi_r^i(x) A^r_a(a)."""
        gens = tuple(generators)

        def T(a_pts, x_vals):
            return _sum(np.asarray(xi_r(x_vals), float)[..., :, None]
                        * np.asarray(A_r(a_pts), float)[..., None, :] for xi_r, A_r in gens)

        return cls(T=T, generators=gens)

    @property
    def xi(self) -> Callable[[np.ndarray], np.ndarray]:
        """xi of the single generator (ValueError unless there is one)."""
        (xi, _), = self.generators
        return xi

    @property
    def A(self) -> Callable[[np.ndarray], np.ndarray]:
        """A of the single generator (ValueError unless there is one)."""
        (_, A), = self.generators
        return A


@dataclass(frozen=True)
class SampledCurve:
    """A curve into the target sampled on an interval grid, with its
    velocity from grid stencils (recomputed at construction, never stale)."""

    grid: ChartGrid
    values: np.ndarray       # (nodes, n)
    velocity: np.ndarray     # (nodes, n)

    @classmethod
    def from_values(cls, grid: ChartGrid, values: np.ndarray) -> "SampledCurve":
        if grid.dim != 1:
            raise ValueError("curves live on one-dimensional grids")
        values = np.asarray(values, dtype=float)
        field = TensorField(grid, values)
        vel = fd_partial(field, 0).values
        return cls(grid=grid, values=values, velocity=vel)

    def as_map(self) -> MapJet:
        return MapJet.from_values(self.grid, self.values)


def rk4_substeps(grid: ChartGrid, max_step: float) -> int:
    """The number of equal RK4 substeps, each no longer than ``max_step``,
    that split every interval of a curve grid.  Raises StepLimitError when
    the whole curve would take more than MAX_RK4_SUBSTEPS, including a step
    so small that the count overflows."""
    per_interval = max(1.0, float(np.ceil(grid.spacing[0] / max_step - 1e-12)))
    intervals = grid.nodes_per_axis[0] - 1
    if intervals * per_interval > MAX_RK4_SUBSTEPS:
        raise StepLimitError(
            f"a step of at most {max_step!r} takes {intervals * per_interval:.3g} RK4 "
            f"substeps over {intervals} grid intervals; at most {MAX_RK4_SUBSTEPS} are run")
    return int(per_interval)


def integrate_orbit(xi, x0, t0: float, t1: float, nodes: int,
                    max_step: float = DEFAULT_RK4_STEP, stencil_order: int = 4) -> SampledCurve:
    """Fixed-step classical fourth-order Runge-Kutta orbit of a vector
    field, landing exactly on the curve grid nodes (each grid interval is
    split into equal substeps no longer than ``max_step``, see
    :func:`rk4_substeps`).  A scenario evaluator is called through its float
    entry ``at_point``, any other callable on one point as an array.
    numpy's floating-point warnings are silenced here, in the stages and
    in the velocity stencil: an orbit that leaves the domain of xi gives
    non-finite samples, which callers count."""
    grid = interval_grid(t0, t1, nodes, stencil_order=stencil_order)
    k = rk4_substeps(grid, max_step)
    h = grid.spacing[0] / k
    half_h, sixth_h = 0.5 * h, h / 6.0

    at_point = getattr(xi, "at_point", None)

    def slope(point):
        if at_point is not None:
            return at_point(*point)
        return np.asarray(xi(np.array(point)), float).tolist()

    # The stages are combined in Python floats: the same IEEE operations in
    # the same order as the array expressions x + h/2 k1, ...,
    # x + h/6 (k1 + 2 k2 + 2 k3 + k4), without numpy's per-operation
    # overhead on a handful of components.
    x = np.asarray(x0, dtype=float).tolist()
    samples = [x]
    with np.errstate(all="ignore"):
        for _ in range(nodes - 1):
            for _ in range(k):
                k1 = slope(x)
                k2 = slope([a + half_h * b for a, b in zip(x, k1)])
                k3 = slope([a + half_h * b for a, b in zip(x, k2)])
                k4 = slope([a + h * b for a, b in zip(x, k3)])
                x = [a + sixth_h * (p + 2 * q + 2 * r + s)
                     for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
            samples.append(x)
        return SampledCurve.from_values(grid, np.array(samples))


# ---------------------------------------------------------------------------
# scalar product and quotient functional
# ---------------------------------------------------------------------------


def section_scalar_product(T_vals: np.ndarray, S_vals: np.ndarray,
                           phi_inv: np.ndarray, psi_vals: np.ndarray) -> np.ndarray:
    """<T, S> = phi^{ab} psi_ij T^i_a S^j_b per node."""
    return np.einsum("...ab,...ij,...ia,...jb->...", phi_inv, psi_vals, T_vals, S_vals)


def _pairing_guard(pair_vals, norm_df, norm_T, eps_sing, grid):
    floor = eps_sing * np.sqrt(np.maximum(norm_df * norm_T, 0.0))
    bad = np.abs(pair_vals) <= floor
    if np.any(bad):
        nodes = [tuple(int(i) for i in idx) for idx in np.argwhere(bad)[:5]]
        raise AdmissibilityError(
            f"<df, T> vanishes at {int(bad.sum())} node(s), first {nodes}: "
            "the map is outside the functional's domain",
            nodes=nodes,
        )


def _quotient(f: MapJet, system: FirstOrderSystem, phi: MetricField, psi, eps_sing: float):
    """The quotient functional's value with the nodewise data a certificate
    reuses: (value, phi^{-1}, psi, T, |T|^2, <df, T>)."""
    phi_inv = invert_metric(phi).values
    psi_vals = np.asarray(psi(f.values), float)
    T_vals = np.asarray(system.T(f.grid.points(), f.values), float)
    norm_T = section_scalar_product(T_vals, T_vals, phi_inv, psi_vals)
    norm_df = section_scalar_product(f.jet, f.jet, phi_inv, psi_vals)
    pair = section_scalar_product(f.jet, T_vals, phi_inv, psi_vals)
    _pairing_guard(pair, norm_df, norm_T, eps_sing, f.grid)
    integrand = norm_T * norm_df / pair**2
    value = 0.5 * volume_integral(TensorField(f.grid, integrand), phi)
    return value, phi_inv, psi_vals, T_vals, norm_T, pair


def quotient_functional(f: MapJet, system: FirstOrderSystem, phi: MetricField,
                        psi, eps_sing: float = DEFAULT_EPS_SING) -> float:
    """The Cauchy-Schwarz quotient
    (1/2) integral of |T|^2 |df|^2 / <df, T>^2 against the volume weight.

    Nodes where the pairing vanishes (relative to |df| |T|) are domain
    violations and raise, with locations.
    """
    return _quotient(f, system, phi, psi, eps_sing)[0]


def half_volume(phi: MetricField) -> float:
    return 0.5 * quadrature(sqrt_det(phi))


@dataclass(frozen=True)
class MinimizerCertificate:
    """Outcome of checking a map against the global-minimum law of the
    quotient functional.

    ``max_defect`` measures df - T nodewise in the product norm;
    ``max_defect_best_fit`` measures df - kappa T for the nodewise
    least-squares scalar kappa (the full minimizer family)."""

    functional_value: float
    half_volume: float
    gap: float
    max_defect: float
    verdict: bool
    kappa: np.ndarray
    max_defect_best_fit: float


def certify_minimizer(f: MapJet, system: FirstOrderSystem, phi: MetricField, psi,
                      tol_gap: float = 1e-6, tol_defect: float = 1e-3,
                      eps_sing: float = DEFAULT_EPS_SING) -> MinimizerCertificate:
    """Certify that a map attains the functional's global minimum value of
    half the source volume and solves the first-order system."""
    value, phi_inv, psi_vals, T_vals, norm_T, pair = _quotient(f, system, phi, psi, eps_sing)
    half_vol = half_volume(phi)
    gap = value - half_vol

    diff = f.jet - T_vals
    defect = np.sqrt(np.maximum(section_scalar_product(diff, diff, phi_inv, psi_vals), 0.0))
    max_defect = float(np.max(defect))

    kappa = pair / np.maximum(norm_T, 1e-300)
    diff_k = f.jet - kappa[..., None, None] * T_vals
    defect_k = np.sqrt(np.maximum(section_scalar_product(diff_k, diff_k, phi_inv, psi_vals), 0.0))

    return MinimizerCertificate(
        functional_value=float(value),
        half_volume=float(half_vol),
        gap=float(gap),
        max_defect=max_defect,
        verdict=bool(abs(gap) <= tol_gap and max_defect <= tol_defect),
        kappa=kappa,
        max_defect_best_fit=float(np.max(defect_k)),
    )


# ---------------------------------------------------------------------------
# orbit construction
# ---------------------------------------------------------------------------


def _check_pairing(pairing, eps_sing: float, message: str, points, directions) -> None:
    """Raise SingularDirectionError, with ``message`` and the first node's
    point and direction, where a direction pairing is within eps_sing of 0."""
    bad = np.abs(pairing) <= eps_sing
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        points, directions = np.asarray(points), np.asarray(directions)
        raise SingularDirectionError(
            message, point=points[idx] if points.ndim > 1 else points,
            direction=directions[idx] if directions.ndim > 1 else directions)


def _orbit_factor(xi, psi, x_vals, y_vals, eps_sing: float, message: str):
    """(psi, xi_flat, xi_flat(y), |xi|^2_psi) at (x, y), after checking that
    the pairing xi_flat(y) does not vanish."""
    psi_vals = np.asarray(psi(x_vals), float)
    xi_vals = np.asarray(xi(x_vals), float)
    xi_flat = np.einsum("...ij,...j->...i", psi_vals, xi_vals)
    pairing = np.einsum("...i,...i->...", xi_flat, np.asarray(y_vals, float))
    _check_pairing(pairing, eps_sing, message, x_vals, y_vals)
    return psi_vals, xi_flat, pairing, np.einsum("...i,...i->...", xi_flat, xi_vals)


def orbit_metric(xi, psi, eps_sing: float = DEFAULT_EPS_SING):
    """Direction-dependent target metric that turns orbits of xi into
    geodesics: h_ij(x, y) = |xi(x)|^2_psi / (xi_flat(y))^2 psi_ij(x)."""

    def h(x_vals, y_vals):
        psi_vals, _, pairing, norm2 = _orbit_factor(
            xi, psi, x_vals, y_vals, eps_sing,
            "orbit metric queried where the direction pairing vanishes")
        return (norm2 / pairing**2)[..., None, None] * psi_vals

    return h


def orbit_geodesic_residual(c: SampledCurve, xi, psi, eps_sing: float = DEFAULT_EPS_SING,
                            xi_dx=None, psi_dx=None) -> TensorField:
    """Residual of the geodesic equations of the orbit metric along a
    sampled curve, with the velocity as the direction argument.

    This is ``energy.el_residual`` on a one-dimensional source with
    phi = 1, the velocity connection (the jet is the velocity) and the
    conformal target factor tau = ln|xi|_psi - ln|xi_flat(cdot)|, whose
    direction gradient -xi_flat / xi_flat(cdot) is exact: d/dt would
    amplify the noise of a differenced one by 1/dt.  Residual =
    dL/dc - d/dt dL/dcdot, matching the energy-gradient sign convention.

    With both hooks, the exact partials ``xi_dx(x) -> (..., n, n)`` and
    ``psi_dx(x) -> (..., n, n, n)`` (derivative axis last), the
    x-partials of psi and of tau at fixed y are exact too:
    dtau/dx = (xi^T psi dxi + xi^T dpsi xi / 2) / |xi|^2_psi
              - y^T (dpsi xi + psi dxi) / xi_flat(y).
    Without them, each is differenced on a stencil of its own.
    """
    message = "orbit residual queried where the direction pairing vanishes"

    def tau(x_vals, y_vals):
        _, _, pairing, norm2 = _orbit_factor(xi, psi, x_vals, y_vals, eps_sing, message)
        return 0.5 * np.log(norm2) - np.log(np.abs(pairing))

    # el_residual asks for the partials of tau and psi only at the curve
    # itself, (c, cdot)
    psi_vals, xi_flat, pairing, norm2 = _orbit_factor(xi, psi, c.values, c.velocity,
                                                      eps_sing, message)
    dtau_dy = -xi_flat / pairing[..., None]
    hooks = {}
    if xi_dx is not None and psi_dx is not None:
        dxi, dpsi = np.asarray(xi_dx(c.values), float), np.asarray(psi_dx(c.values), float)
        xi_vals, y = np.asarray(xi(c.values), float), c.velocity
        half_dnorm2 = (np.einsum("...i,...ij->...j", xi_flat, dxi)
                       + 0.5 * np.einsum("...k,...klj,...l->...j", xi_vals, dpsi, xi_vals))
        dpairing = (np.einsum("...k,...klj,...l->...j", y, dpsi, xi_vals)
                    + np.einsum("...k,...kl,...lj->...j", y, psi_vals, dxi))
        dtau_dx = half_dnorm2 / norm2[..., None] - dpairing / pairing[..., None]
        hooks = {"tau_dx": lambda x_vals, y_vals: dtau_dx, "psi_dx": lambda x_vals: dpsi}
    pair = MetricPair.conformal(constant_metric(np.eye(1)), psi, tau=tau,
                                tau_dy=lambda x_vals, y_vals: dtau_dy, **hooks)
    f = MapJet(grid=c.grid, values=c.values, jet=c.velocity[..., None])
    return el_residual(f, pair, ConnectionTensor.velocity(), identity_metric(c.grid))


# ---------------------------------------------------------------------------
# Pfaff and pseudolinear constructions
# ---------------------------------------------------------------------------


def _pfaff_factor(A, phi_eval, a_pts, b_vals, eps_sing: float, message: str):
    """(phi(a), A(b), |A|^2_phi) at (a, b), after checking that A(b) does
    not vanish; ``message`` names the caller in the error."""
    phi_vals = np.asarray(phi_eval(a_pts), float)
    try:
        phi_inv = metric_inverse(phi_vals)
    except SingularMetricError as exc:
        raise SingularMetricError(f"source metric phi: {exc}", node=exc.node) from None
    A_vals = np.asarray(A(a_pts), float)
    Ab = np.einsum("...a,...a->...", A_vals, np.asarray(b_vals, float))
    norm2 = np.einsum("...ab,...a,...b->...", phi_inv, A_vals, A_vals)
    _check_pairing(Ab, eps_sing, message, a_pts, b_vals)
    return phi_vals, Ab, norm2


def pfaff_metric(A, phi_eval, eps_sing: float = DEFAULT_EPS_SING):
    """Direction-dependent source metric of the Pfaff system df = A:
    g_ab(a, b) = (A(b))^2 / |A|^2_phi phi_ab(a)."""

    def g(a_pts, b_vals):
        phi_vals, Ab, norm2 = _pfaff_factor(
            A, phi_eval, a_pts, b_vals, eps_sing,
            "Pfaff metric queried where A vanishes on the direction")
        return (Ab**2 / norm2)[..., None, None] * phi_vals

    return g


def _attached_energy(generators: Sequence[tuple], phi_eval, psi_eval, eps_sing: float
                     ) -> tuple[MetricPair, ConnectionTensor]:
    """The conformal pair and connection attached to T = sum_r xi_r (x) A^r,
    built over the summed generators xi_flat = sum_r psi xi_r,
    |xi|^2 = sum_r |xi_r|^2_psi and A = sum_r A^r:

    - target metric h_ij(x) = |xi|^2 psi_ij(x)  (log factor ln|xi|)
    - source metric from the Pfaff construction on A
    - connection source block d^g_b xi_flat_i, so the induced source
      argument pairs the jet with xi_flat.
    """
    gens = tuple(generators)

    def A(a_pts):
        return _sum(np.asarray(A_r(a_pts), float) for _, A_r in gens)

    def over_xi(x_vals, term):
        psi_vals = np.asarray(psi_eval(x_vals), float)
        return _sum(term(psi_vals, np.asarray(xi_r(x_vals), float)) for xi_r, _ in gens)

    def sigma(a_pts, b_vals):
        _, Ab, norm2 = _pfaff_factor(A, phi_eval, a_pts, b_vals, eps_sing,
                                     "pseudolinear source factor queried where A(b) vanishes")
        return 0.5 * np.log(norm2) - np.log(np.abs(Ab))

    def tau(x_vals, y_vals):
        norm2 = over_xi(x_vals, lambda psi, xi: np.einsum("...ij,...i,...j->...", psi, xi, xi))
        return 0.5 * np.log(np.maximum(norm2, 1e-300))

    def xi_flat(x_vals):
        return over_xi(x_vals, lambda psi, xi: np.einsum("...ij,...j->...i", psi, xi))

    pair = MetricPair.conformal(phi_eval, psi_eval, sigma=sigma, tau=tau)
    return pair, ConnectionTensor.oneform_source(xi_flat)


def pseudolinear_scenario(xi, A, phi_eval, psi_eval,
                          eps_sing: float = DEFAULT_EPS_SING
                          ) -> tuple[MetricPair, ConnectionTensor, FirstOrderSystem]:
    """Everything needed to treat the factorized system T = xi (x) A as a
    harmonic-map problem: the attached pair and connection (see
    ``_attached_energy``) and the system itself."""
    pair, P = _attached_energy([(xi, A)], phi_eval, psi_eval, eps_sing)
    return pair, P, FirstOrderSystem.pseudolinear(xi, A)


def group_system_lagrangian(generators: Sequence[tuple], f: MapJet,
                            phi: MetricField, psi_eval,
                            eps_sing: float = DEFAULT_EPS_SING) -> TensorField:
    """Density of the energy attached to the summed system
    T^i_a = sum_r xi_r^i(x) A^r_a(a): the pseudolinear construction over the
    summed generators.  Where the summed covector vanishes on the induced
    argument it raises SingularDirectionError."""
    pair, P = _attached_energy(generators, lambda a_pts: phi.values, psi_eval, eps_sing)
    return lagrangian_density(f, pair, P, phi)


# ---------------------------------------------------------------------------
# level-set geometry of scalar maps
# ---------------------------------------------------------------------------


def level_set_geodesic_defect(f: MapJet) -> float:
    """How far the constant-level hypersurfaces of a scalar map on a flat
    chart are from being totally geodesic: the tangential variation of the
    unit normal, maximized over interior nodes."""
    if f.target_dim != 1:
        raise ValueError("level sets are defined for scalar maps")
    grad = f.jet[..., 0, :]
    norm = np.linalg.norm(grad, axis=-1)
    if np.any(norm < 1e-14):
        raise ValueError("gradient vanishes somewhere: level sets degenerate")
    unit = grad / norm[..., None]
    grid = f.grid
    unit_field = TensorField(grid, unit)
    jac = grid_partials(unit_field)
    proj = np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)) \
        - unit[..., :, None] * unit[..., None, :]
    shape_op = np.einsum("...im,...mk,...kj->...ij", proj, jac, proj)
    mask = interior_mask(grid)
    return float(np.max(np.abs(shape_op[mask])))
