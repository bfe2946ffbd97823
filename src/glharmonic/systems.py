"""First-order systems df = T and their geometry: the scalar product on
sections, the Cauchy-Schwarz quotient functional whose global minimum is
half the source volume, minimizer certificates, and the named
constructions (orbits, Pfaff systems, pseudolinear maps, transformation
group systems).

The quotient functional's integrand is a pointwise Cauchy-Schwarz ratio,
so it is >= 1 at every node algebraically; its integral can only reach
half the volume when the differential of the map is proportional to T.
Certificates report both the defect against T itself and against the
best-fit scalar multiple of T, because the minimizer set is the
proportional family, not only exact solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .energy import ConnectionTensor, MapJet, MetricPair
from .errors import AdmissibilityError, SingularDirectionError
from .tensor_core import (
    ChartGrid,
    MetricField,
    NodeMatrices,
    TensorField,
    fd_partial,
    interior_mask,
    interval_grid,
    invert_metric,
    quadrature,
    scalar_field,
    sqrt_det,
    volume_integral,
)

DEFAULT_EPS_SING = 1e-8


# ---------------------------------------------------------------------------
# systems and curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstOrderSystem:
    """A tensor T^i_a(a, x) defining the system df^i/da^a = T^i_a.

    ``T(a_pts, x_vals) -> (..., n, m)``.  The tag records how the system
    was built; factorized kinds keep their ingredients for the
    constructions that need them.
    """

    T: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "general"
    xi: Callable[[np.ndarray], np.ndarray] | None = None
    A: Callable[[np.ndarray], np.ndarray] | None = None
    generators: tuple = ()

    @classmethod
    def general(cls, T) -> "FirstOrderSystem":
        return cls(T=T, kind="general")

    @classmethod
    def orbit(cls, xi) -> "FirstOrderSystem":
        """dc/dt = xi(c) on a one-dimensional source."""

        def T(a_pts, x_vals):
            return np.asarray(xi(x_vals), float)[..., None]

        return cls(T=T, kind="orbit", xi=xi)

    @classmethod
    def pfaff(cls, A) -> "FirstOrderSystem":
        """df = A for a scalar map and a covector A on the source."""

        def T(a_pts, x_vals):
            return np.asarray(A(a_pts), float)[..., None, :]

        return cls(T=T, kind="pfaff", A=A)

    @classmethod
    def pseudolinear(cls, xi, A) -> "FirstOrderSystem":
        """Factorized system T^k_b = xi^k(x) A_b(a)."""

        def T(a_pts, x_vals):
            return np.asarray(xi(x_vals), float)[..., :, None] \
                * np.asarray(A(a_pts), float)[..., None, :]

        return cls(T=T, kind="pseudolinear", xi=xi, A=A)

    @classmethod
    def group(cls, generators: Sequence[tuple]) -> "FirstOrderSystem":
        """Summed system T^i_a = sum_r xi_r^i(x) A^r_a(a)."""
        gens = tuple(generators)

        def T(a_pts, x_vals):
            out = None
            for xi_r, A_r in gens:
                term = np.asarray(xi_r(x_vals), float)[..., :, None] \
                    * np.asarray(A_r(a_pts), float)[..., None, :]
                out = term if out is None else out + term
            return out

        return cls(T=T, kind="group", generators=gens)


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
        field = TensorField(grid, values, ("lo",))
        vel = fd_partial(field, 0).values
        return cls(grid=grid, values=values, velocity=vel)

    def as_map(self) -> MapJet:
        return MapJet.from_values(self.grid, self.values)


def integrate_orbit(xi, x0, t0: float, t1: float, nodes: int,
                    max_step: float = 1e-3, stencil_order: int = 4) -> SampledCurve:
    """Fixed-step classical fourth-order Runge-Kutta orbit of a vector
    field, landing exactly on the curve grid nodes (each grid interval is
    split into equal substeps no longer than ``max_step``)."""
    grid = interval_grid(t0, t1, nodes, stencil_order=stencil_order)
    h_grid = grid.spacing[0]
    k = max(1, int(np.ceil(h_grid / max_step - 1e-12)))
    h = h_grid / k
    x = np.asarray(x0, dtype=float)
    samples = [x]
    for _ in range(nodes - 1):
        for _ in range(k):
            k1 = np.asarray(xi(x), float)
            k2 = np.asarray(xi(x + 0.5 * h * k1), float)
            k3 = np.asarray(xi(x + 0.5 * h * k2), float)
            k4 = np.asarray(xi(x + h * k3), float)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append(x)
    return SampledCurve.from_values(grid, np.stack(samples, axis=0))


# ---------------------------------------------------------------------------
# scalar product and quotient functional
# ---------------------------------------------------------------------------


def section_scalar_product(T_vals: np.ndarray, S_vals: np.ndarray,
                           phi_inv: np.ndarray, psi_vals: np.ndarray) -> np.ndarray:
    """<T, S> = phi^{ab} psi_ij T^i_a S^j_b per node."""
    return np.einsum("...ab,...ij,...ia,...jb->...", phi_inv, psi_vals, T_vals, S_vals)


def _system_data(f: MapJet, system: FirstOrderSystem, phi: MetricField, psi):
    a_pts = f.grid.points()
    phi_inv = invert_metric(phi).values
    psi_vals = np.asarray(psi(f.values), float)
    T_vals = np.asarray(system.T(a_pts, f.values), float)
    return phi_inv, psi_vals, T_vals


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


def quotient_functional(f: MapJet, system: FirstOrderSystem, phi: MetricField,
                        psi, eps_sing: float = DEFAULT_EPS_SING) -> float:
    """The Cauchy-Schwarz quotient
    (1/2) integral of |T|^2 |df|^2 / <df, T>^2 against the volume weight.

    Nodes where the pairing vanishes (relative to |df| |T|) are domain
    violations and raise, with locations.
    """
    phi_inv, psi_vals, T_vals = _system_data(f, system, phi, psi)
    norm_T = section_scalar_product(T_vals, T_vals, phi_inv, psi_vals)
    norm_df = section_scalar_product(f.jet, f.jet, phi_inv, psi_vals)
    pair = section_scalar_product(f.jet, T_vals, phi_inv, psi_vals)
    _pairing_guard(pair, norm_df, norm_T, eps_sing, f.grid)
    integrand = norm_T * norm_df / pair**2
    return 0.5 * volume_integral(scalar_field(f.grid, integrand), phi)


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
    phi_inv, psi_vals, T_vals = _system_data(f, system, phi, psi)
    value = quotient_functional(f, system, phi, psi, eps_sing)
    half_vol = half_volume(phi)
    gap = value - half_vol

    diff = f.jet - T_vals
    defect = np.sqrt(np.maximum(section_scalar_product(diff, diff, phi_inv, psi_vals), 0.0))
    max_defect = float(np.max(defect))

    norm_T = section_scalar_product(T_vals, T_vals, phi_inv, psi_vals)
    pair = section_scalar_product(f.jet, T_vals, phi_inv, psi_vals)
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


def orbit_metric(xi, psi, eps_sing: float = DEFAULT_EPS_SING):
    """Direction-dependent target metric that turns orbits of xi into
    geodesics: h_ij(x, y) = |xi(x)|^2_psi / (xi_flat(y))^2 psi_ij(x)."""

    def h(x_vals, y_vals):
        psi_vals = np.asarray(psi(x_vals), float)
        xi_vals = np.asarray(xi(x_vals), float)
        xi_flat = np.einsum("...ij,...j->...i", psi_vals, xi_vals)
        pairing = np.einsum("...i,...i->...", xi_flat, np.asarray(y_vals, float))
        norm2 = np.einsum("...i,...i->...", xi_flat, xi_vals)
        bad = np.abs(pairing) <= eps_sing
        if np.any(bad):
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise SingularDirectionError(
                "orbit metric queried where the direction pairing vanishes",
                point=np.asarray(x_vals)[idx] if np.asarray(x_vals).ndim > 1 else x_vals,
                direction=np.asarray(y_vals)[idx] if np.asarray(y_vals).ndim > 1 else y_vals,
            )
        return (norm2 / pairing**2)[..., None, None] * psi_vals

    return h


def orbit_geodesic_residual(c: SampledCurve, xi, psi,
                            eps_sing: float = DEFAULT_EPS_SING,
                            x_step: float = 1e-6) -> TensorField:
    """Residual of the geodesic equations of the orbit metric along a
    sampled curve, with the velocity as the direction argument.

    dL/dcdot_i = e^{2t} { psi_kl (dt/dcdot^i) cdot^k cdot^l + psi_ik cdot^k }
    with t = ln(|xi|_psi / |xi_flat(cdot)|); dL/dc^i differentiates the
    direction-dependent metric in position only.  Residual =
    dL/dc - d/dt dL/dcdot, matching the energy-gradient sign convention.
    """
    xvals, yvals = c.values, c.velocity
    psi_vals = np.asarray(psi(xvals), float)
    xi_vals = np.asarray(xi(xvals), float)
    xi_flat = np.einsum("...ij,...j->...i", psi_vals, xi_vals)
    pairing = np.einsum("...i,...i->...", xi_flat, yvals)
    if np.any(np.abs(pairing) <= eps_sing):
        idx = int(np.argwhere(np.abs(pairing) <= eps_sing)[0][0])
        raise SingularDirectionError(
            "orbit residual queried where the direction pairing vanishes",
            point=xvals[idx], direction=yvals[idx])
    norm2 = np.einsum("...i,...i->...", xi_flat, xi_vals)
    e2t = norm2 / pairing**2
    dt_dy = -xi_flat / pairing[..., None]
    yy = np.einsum("...kl,...k,...l->...", psi_vals, yvals, yvals)
    dLdydot = e2t[..., None] * (
        dt_dy * yy[..., None] + np.einsum("...ik,...k->...i", psi_vals, yvals)
    )

    h_eval = orbit_metric(xi, psi, eps_sing)

    def h_of_x(x):
        return h_eval(x, yvals)

    from .energy import central_partials

    dh_dx = central_partials(h_of_x, xvals, x_step)       # (..., k, l, i)
    dLdx = 0.5 * np.einsum("...kli,...k,...l->...i", dh_dx, yvals, yvals)

    flux = TensorField(c.grid, dLdydot, ("lo",))
    res = dLdx - fd_partial(flux, 0).values
    return TensorField(c.grid, res, ("lo",))


# ---------------------------------------------------------------------------
# Pfaff and pseudolinear constructions
# ---------------------------------------------------------------------------


def _pfaff_factor(A, phi_eval, a_pts, b_vals, eps_sing: float, message: str):
    """(phi(a), A(b), |A|^2_phi) at (a, b), after checking that A(b) does
    not vanish; ``message`` names the caller in the error."""
    phi_vals = np.asarray(phi_eval(a_pts), float)
    phi_inv = NodeMatrices(phi_vals).inv
    A_vals = np.asarray(A(a_pts), float)
    Ab = np.einsum("...a,...a->...", A_vals, np.asarray(b_vals, float))
    norm2 = np.einsum("...ab,...a,...b->...", phi_inv, A_vals, A_vals)
    bad = np.abs(Ab) <= eps_sing
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SingularDirectionError(
            message,
            point=np.asarray(a_pts)[idx] if np.asarray(a_pts).ndim > 1 else a_pts,
            direction=np.asarray(b_vals)[idx] if np.asarray(b_vals).ndim > 1 else b_vals,
        )
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


def pseudolinear_scenario(xi, A, phi_eval, psi_eval,
                          eps_sing: float = DEFAULT_EPS_SING
                          ) -> tuple[MetricPair, ConnectionTensor, FirstOrderSystem]:
    """Everything needed to treat the factorized system T = xi (x) A as a
    harmonic-map problem:

    - target metric h_ij(x) = |xi|^2_psi psi_ij(x)  (log factor ln|xi|)
    - source metric from the Pfaff construction on A
    - connection source block d^g_b (psi xi)_i, so the induced source
      argument pairs the jet with xi
    - the system itself.
    """

    def norm_xi2(x_vals):
        psi_vals = np.asarray(psi_eval(x_vals), float)
        xi_vals = np.asarray(xi(x_vals), float)
        return np.einsum("...ij,...i,...j->...", psi_vals, xi_vals, xi_vals)

    def sigma(a_pts, b_vals):
        _, Ab, norm2 = _pfaff_factor(A, phi_eval, a_pts, b_vals, eps_sing,
                                     "pseudolinear source factor queried where A(b) vanishes")
        return 0.5 * np.log(norm2) - np.log(np.abs(Ab))

    def tau(x_vals, y_vals):
        return 0.5 * np.log(np.maximum(norm_xi2(x_vals), 1e-300))

    pair = MetricPair.conformal(phi_eval, psi_eval, sigma=sigma, tau=tau)

    def xi_flat(x_vals):
        psi_vals = np.asarray(psi_eval(x_vals), float)
        return np.einsum("...ij,...j->...i", psi_vals, np.asarray(xi(x_vals), float))

    P = ConnectionTensor.oneform_source(xi_flat)
    system = FirstOrderSystem.pseudolinear(xi, A)
    return pair, P, system


def group_system_lagrangian(generators: Sequence[tuple], f: MapJet,
                            phi: MetricField, psi_eval,
                            eps_sing: float = DEFAULT_EPS_SING) -> TensorField:
    """Density of the energy attached to the summed system
    T^i_a = sum_r xi_r^i(x) A^r_a(a), built per generator exactly like the
    pseudolinear case and then summed: the source argument pairs the jet
    with the summed lowered generators, the fiber with the summed
    covectors, the target factor adds the generator norms and the source
    factor uses the summed covector."""
    gens = tuple(generators)
    a_pts = f.grid.points()
    phi_inv = invert_metric(phi).values
    psi_vals = np.asarray(psi_eval(f.values), float)

    xi_flat_sum = None
    norm_sum = None
    A_sum = None
    for xi_r, A_r in gens:
        xi_vals = np.asarray(xi_r(f.values), float)
        flat = np.einsum("...ij,...j->...i", psi_vals, xi_vals)
        norm = np.einsum("...i,...i->...", flat, xi_vals)
        A_vals = np.asarray(A_r(a_pts), float)
        xi_flat_sum = flat if xi_flat_sum is None else xi_flat_sum + flat
        norm_sum = norm if norm_sum is None else norm_sum + norm
        A_sum = A_vals if A_sum is None else A_sum + A_vals

    b = np.einsum("...gb,...i,...ib->...g", phi_inv, xi_flat_sum, f.jet)

    Ab = np.einsum("...a,...a->...", A_sum, b)
    normA2 = np.einsum("...ab,...a,...b->...", phi_inv, A_sum, A_sum)
    if np.any(np.abs(Ab) <= eps_sing):
        nodes = [tuple(int(i) for i in idx) for idx in np.argwhere(np.abs(Ab) <= eps_sing)[:5]]
        raise SingularDirectionError(
            f"summed covector vanishes on the induced argument at {nodes}")
    ginv_vals = (normA2 / Ab**2)[..., None, None] * phi_inv
    h_vals = norm_sum[..., None, None] * psi_vals
    density = 0.5 * np.einsum("...gm,...kl,...kg,...lm->...", ginv_vals, h_vals, f.jet, f.jet)
    return scalar_field(f.grid, density)


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
    unit_field = TensorField(grid, unit, ("lo",))
    jac = np.stack([fd_partial(unit_field, k).values for k in range(grid.dim)], axis=-1)
    proj = np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)) \
        - unit[..., :, None] * unit[..., None, :]
    shape_op = np.einsum("...im,...mk,...kj->...ij", proj, jac, proj)
    mask = interior_mask(grid)
    return float(np.max(np.abs(shape_op[mask])))
