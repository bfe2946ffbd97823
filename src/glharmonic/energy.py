"""The energy functional between two generalized Lagrange spaces and its
Euler-Lagrange residuals.

A connection tensor P couples a map's first-order jet to direction
arguments on both sides: b on the source manifold and y along the map.
The density is L = g^{gm}(a, b) h_{kl}(f(a), y) f^k_g f^l_m / 2, the energy
its integral against the source volume weight, and a map is harmonic when
the discrete energy gradient vanishes.

Evaluation.  Per node, b and y are one matrix-vector product each of P's
flattened blocks with w_{bi} = phi^{ab} f^i_a, and the density is
g^{gm} (f^T h f)_{gm} / 2.  The generic residual differences the density
by central steps in each map value and each jet entry; P depends on
(a, f) only, so one evaluation of P serves all 2nm jet perturbations and
a residual evaluates each P block 2n + 1 times.

Sign convention.  The residual returned here *is* the nodewise density
form of the discrete energy gradient: at interior nodes of the grid,
``quadrature_weight * residual`` reproduces central finite differences of
the energy with respect to nodal map values (this pins the sign between
the two Euler-Lagrange terms: the derivative term enters with a minus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularMetricError
from .tensor_core import (
    LO,
    ChartGrid,
    MetricField,
    NodeMatrices,
    TensorField,
    fd_partial,
    invert_metric,
    scalar_field,
    sqrt_det,
    volume_integral,
)

DEFAULT_FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# evaluator helpers
# ---------------------------------------------------------------------------


def constant_metric(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of a position-independent metric."""
    mat = np.asarray(mat, dtype=float)

    def ev(pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(mat, pts.shape[:-1] + mat.shape).copy()

    return ev


def central_partials(fn: Callable[[np.ndarray], np.ndarray], pts: np.ndarray,
                     rel_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central differences of a vectorized point evaluator in each
    coordinate of its argument; one trailing axis is appended.

    The step is h = rel_step * (1 + |x_k|), per node and per coordinate.
    This is the one map-side step rule: the generic and closed-form
    residuals take every partial in a map value, jet entry or induced
    direction from here.  ``fn`` is called exactly 2d times.
    """
    d = pts.shape[-1]
    out = None
    for k in range(d):
        h = rel_step * (1.0 + np.abs(pts[..., k]))
        plus = pts.copy()
        plus[..., k] += h
        minus = pts.copy()
        minus[..., k] -= h
        num = np.asarray(fn(plus), float) - np.asarray(fn(minus), float)
        col = num / _expand(2.0 * h, num.ndim)
        if out is None:
            out = np.empty(col.shape + (d,))
        out[..., k] = col
    return out


def _expand(arr: np.ndarray, ndim: int) -> np.ndarray:
    while arr.ndim < ndim:
        arr = arr[..., None]
    return arr


# ---------------------------------------------------------------------------
# connection tensor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionTensor:
    """Coupling object with a source block P^g_{ai}(a, x) and a target
    block P^k_{ai}(a, x).

    Evaluators are vectorized: ``source(a_pts, x_vals) -> (..., m, m, n)``
    with axes [upper, lower-source, lower-target] and
    ``target(a_pts, x_vals) -> (..., n, m, n)`` with axes
    [upper, lower-source, lower-target].
    """

    source: Callable[[np.ndarray, np.ndarray], np.ndarray]
    target: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: int
    n: int

    @classmethod
    def zero(cls, m: int, n: int) -> "ConnectionTensor":
        return cls(
            source=lambda a, x: np.zeros(a.shape[:-1] + (m, m, n)),
            target=lambda a, x: np.zeros(a.shape[:-1] + (n, m, n)),
            m=m, n=n,
        )

    @classmethod
    def constant(cls, source_block: np.ndarray, target_block: np.ndarray) -> "ConnectionTensor":
        sb = np.asarray(source_block, float)
        tb = np.asarray(target_block, float)
        m, n = sb.shape[1], sb.shape[2]
        return cls(
            source=lambda a, x: np.broadcast_to(sb, a.shape[:-1] + sb.shape).copy(),
            target=lambda a, x: np.broadcast_to(tb, a.shape[:-1] + tb.shape).copy(),
            m=m, n=n,
        )

    @classmethod
    def covector_fiber(cls, A: Callable[[np.ndarray], np.ndarray],
                       source: Callable | None = None, m: int = -1, n: int = -1
                       ) -> "ConnectionTensor":
        """Target block A_a(a) d^k_i (the induced fiber is the A-weighted
        jet); source block free, defaulting to zero.  Dimensions are read
        off the arguments at evaluation time."""

        def target(a_pts, x_vals):
            avals = np.asarray(A(a_pts), float)      # (..., m)
            eye = np.eye(x_vals.shape[-1])
            return avals[..., None, :, None] * eye[:, None, :]

        def zero_source(a_pts, x_vals):
            mm, nn = a_pts.shape[-1], x_vals.shape[-1]
            return np.zeros(a_pts.shape[:-1] + (mm, mm, nn))

        return cls(source=source or zero_source, target=target, m=m, n=n)

    @classmethod
    def oneform_source(cls, xi: Callable[[np.ndarray], np.ndarray],
                       target: Callable | None = None, m: int = -1, n: int = -1
                       ) -> "ConnectionTensor":
        """Source block d^g_a xi_i(x) (the induced source argument is the
        xi-weighted jet, raised); target block free, defaulting to zero."""

        def source(a_pts, x_vals):
            xivals = np.asarray(xi(x_vals), float)   # (..., n)
            eye = np.eye(a_pts.shape[-1])
            return eye[:, :, None] * xivals[..., None, None, :]

        def zero_target(a_pts, x_vals):
            mm, nn = a_pts.shape[-1], x_vals.shape[-1]
            return np.zeros(a_pts.shape[:-1] + (nn, mm, nn))

        return cls(source=source, target=target or zero_target, m=m, n=n)

    @classmethod
    def velocity(cls, n: int = -1, source: Callable | None = None) -> "ConnectionTensor":
        """One-dimensional source with unit covector: the induced fiber is
        the curve velocity."""
        return cls.covector_fiber(lambda a: np.ones(a.shape[:-1] + (1,)), source, 1, n)


# ---------------------------------------------------------------------------
# map jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapJet:
    """A sampled map f: M -> N with its first-order jet.

    Immutable: jets are computed at construction, so they can never go
    stale against the values.
    """

    grid: ChartGrid
    values: np.ndarray          # (*grid, n)
    jet: np.ndarray             # (*grid, n, m)

    @classmethod
    def from_values(cls, grid: ChartGrid, values: np.ndarray,
                    linear_jet: np.ndarray | None = None) -> "MapJet":
        """Build the jet by grid stencils.

        ``linear_jet`` (n x m) subtracts a linear winding part before
        differencing and adds its constant jet back; use it for maps into a
        torus or for maps like the identity whose values wrap across
        periodic seams.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == grid.dim:
            values = values[..., None]
        if linear_jet is None:
            resid = values
            extra = 0.0
        else:
            linear_jet = np.asarray(linear_jet, dtype=float)
            pts = grid.points()
            resid = values - np.einsum("km,...m->...k", linear_jet, pts)
            extra = linear_jet
        field = TensorField(grid, resid, (LO,))  # variance irrelevant for stencils
        jet = np.stack([fd_partial(field, ax).values for ax in range(grid.dim)], axis=-1)
        jet = jet + extra
        return cls(grid=grid, values=values, jet=jet)

    @property
    def target_dim(self) -> int:
        return self.values.shape[-1]


def induced_arguments(f: MapJet, P: ConnectionTensor, phi_inv: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Direction arguments manufactured from the jet:
    b^g = phi^{ab} f^i_a P^g_{bi}(a, f) and y^k = phi^{ab} f^i_a P^k_{bi}(a, f)."""
    return _arguments(_connection_blocks(P, f.grid.points(), f.values), f.jet, phi_inv)


def _connection_blocks(P: ConnectionTensor, a_pts: np.ndarray, f_vals: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """P's source and target blocks at (a, f) with the two lower slots
    flattened: (..., m, m*n) and (..., n, m*n)."""
    src = np.asarray(P.source(a_pts, f_vals), float)
    tgt = np.asarray(P.target(a_pts, f_vals), float)
    return (src.reshape(src.shape[:-2] + (-1,)), tgt.reshape(tgt.shape[:-2] + (-1,)))


def _arguments(blocks: tuple[np.ndarray, np.ndarray], jet_vals: np.ndarray,
               phi_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b and y from flattened connection blocks and a jet."""
    src, tgt = blocks
    # w_{bi} = phi^{ab} f^i_a, flattened like the blocks' lower slots
    w = np.swapaxes(jet_vals @ phi_inv, -1, -2).reshape(jet_vals.shape[:-2] + (-1, 1))
    return (src @ w)[..., 0], (tgt @ w)[..., 0]


# ---------------------------------------------------------------------------
# metric pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricPair:
    """The two direction-dependent metrics of an energy functional.

    ``g(a_pts, b) -> (..., m, m)`` on the source side and
    ``h(x_vals, y) -> (..., n, n)`` along the map.  Conformal pairs carry
    their ingredients so specialized residual formulas can reuse them:
    g = exp(-2 sigma(a,b)) phi(a) and h = exp(2 tau(x,y)) psi(x).
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "general"
    phi: Callable[[np.ndarray], np.ndarray] | None = None
    psi: Callable[[np.ndarray], np.ndarray] | None = None
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    tau: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @classmethod
    def general(cls, g, h) -> "MetricPair":
        return cls(g=g, h=h, kind="general")

    @classmethod
    def riemannian(cls, phi, psi) -> "MetricPair":
        """Direction-independent pair: the classical harmonic-map setting."""
        return cls(
            g=lambda a, b: np.asarray(phi(a), float),
            h=lambda x, y: np.asarray(psi(x), float),
            kind="conformal", phi=phi, psi=psi, sigma=None, tau=None,
        )

    @classmethod
    def conformal(cls, phi, psi, sigma=None, tau=None) -> "MetricPair":
        def g(a, b):
            base = np.asarray(phi(a), float)
            if sigma is None:
                return base
            s = np.asarray(sigma(a, b), float)
            return np.exp(-2.0 * s)[..., None, None] * base

        def h(x, y):
            base = np.asarray(psi(x), float)
            if tau is None:
                return base
            t = np.asarray(tau(x, y), float)
            return np.exp(2.0 * t)[..., None, None] * base

        return cls(g=g, h=h, kind="conformal", phi=phi, psi=psi, sigma=sigma, tau=tau)


def _inverse_with_guard(mats: np.ndarray, what: str, grid_dim: int) -> np.ndarray:
    try:
        inv = NodeMatrices(mats).inv
    except np.linalg.LinAlgError:
        node = _worst_node(mats, grid_dim)
        raise SingularMetricError(f"{what} is singular at node {node}", node=node) from None
    defect = np.abs(mats @ inv - np.eye(mats.shape[-1]))
    worst = np.max(defect)
    if not np.isfinite(worst) or worst > 1e-6:
        flat = defect.reshape(defect.shape[:grid_dim] + (-1,)).max(axis=-1)
        node = tuple(int(i) for i in np.argwhere(~np.isfinite(flat) | (flat > 1e-6))[0])
        raise SingularMetricError(
            f"{what} is numerically singular at node {node} (inverse defect {worst:.2e})",
            node=node,
        )
    return inv


def _worst_node(mats: np.ndarray, grid_dim: int):
    det = np.abs(NodeMatrices(mats).det)
    idx = np.argmin(det.reshape(-1))
    return tuple(int(i) for i in np.unravel_index(idx, mats.shape[:grid_dim]))


# ---------------------------------------------------------------------------
# density, energy, residuals
# ---------------------------------------------------------------------------


def _density_values(a_pts: np.ndarray, f_vals: np.ndarray, jet_vals: np.ndarray,
                    pair: MetricPair, blocks: tuple[np.ndarray, np.ndarray],
                    phi_inv: np.ndarray, grid_dim: int) -> np.ndarray:
    """Pointwise density with b and y recomputed from the given jet (their
    dependence on the map is part of the variational structure); ``blocks``
    are the flattened connection blocks at (a, f_vals)."""
    b, y = _arguments(blocks, jet_vals, phi_inv)
    gmat = np.asarray(pair.g(a_pts, b), float)
    ginv = _inverse_with_guard(gmat, "source metric g(a, b)", grid_dim)
    hmat = np.asarray(pair.h(f_vals, y), float)
    pulled = np.swapaxes(jet_vals, -1, -2) @ hmat @ jet_vals    # f^k_g h_kl f^l_m
    return 0.5 * (ginv * pulled).sum((-2, -1))


def lagrangian_density(f: MapJet, pair: MetricPair, P: ConnectionTensor,
                       phi: MetricField) -> TensorField:
    """The density L = g^{gm}(a,b) h_{kl}(f,y) f^k_g f^l_m / 2 per node."""
    a_pts = f.grid.points()
    phi_inv = invert_metric(phi).values
    blocks = _connection_blocks(P, a_pts, f.values)
    vals = _density_values(a_pts, f.values, f.jet, pair, blocks, phi_inv, f.grid.dim)
    return scalar_field(f.grid, vals)


def energy(f: MapJet, pair: MetricPair, P: ConnectionTensor, phi: MetricField) -> float:
    """Quadrature of the density against the source volume weight."""
    return volume_integral(lagrangian_density(f, pair, P, phi), phi)


def density_partials(f: MapJet, pair: MetricPair, P: ConnectionTensor,
                     phi: MetricField, fd_step: float = DEFAULT_FD_STEP
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise partials of the density with respect to map values and
    jet entries, by nodewise central differences with relative steps.

    Returns (dL/df^i of shape (*grid, n), dL/df^i_a of shape (*grid, n, m)).
    """
    grid = f.grid
    a_pts = grid.points()
    phi_inv = invert_metric(phi).values
    n = f.target_dim
    m = grid.dim

    dLdf = central_partials(
        lambda fv: _density_values(a_pts, fv, f.jet, pair, _connection_blocks(P, a_pts, fv),
                                   phi_inv, grid.dim),
        f.values, fd_step)

    # P depends on (a, f) only: one evaluation serves every jet perturbation.
    # The jet is differenced as n*m coordinates per node, entry (i, a) at i*m + a.
    blocks = _connection_blocks(P, a_pts, f.values)
    dLdjet = central_partials(
        lambda jv: _density_values(a_pts, f.values, jv.reshape(jv.shape[:-1] + (n, m)),
                                   pair, blocks, phi_inv, grid.dim),
        f.jet.reshape(grid.shape + (n * m,)), fd_step)
    return dLdf, dLdjet.reshape(grid.shape + (n, m))


def assemble_residual(grid: ChartGrid, sqrt_phi: np.ndarray, dLdf: np.ndarray,
                      dLdjet: np.ndarray) -> TensorField:
    """residual_i = sqrt(phi) dL/df^i - d_a (sqrt(phi) dL/df^i_a): the
    nodewise density form of the discrete energy gradient."""
    res = sqrt_phi[..., None] * dLdf
    for al in range(grid.dim):
        flux = TensorField(grid, sqrt_phi[..., None] * dLdjet[..., al], (LO,))
        res = res - fd_partial(flux, al).values
    return TensorField(grid, res, (LO,))


def el_residual(f: MapJet, pair: MetricPair, P: ConnectionTensor, phi: MetricField,
                fd_step: float = DEFAULT_FD_STEP) -> TensorField:
    """Euler-Lagrange residual of the energy; zero residual characterizes
    discrete harmonic maps."""
    dLdf, dLdjet = density_partials(f, pair, P, phi, fd_step)
    return assemble_residual(f.grid, sqrt_det(phi).values, dLdf, dLdjet)


# ---------------------------------------------------------------------------
# closed-form residuals for the two conformal couplings
# ---------------------------------------------------------------------------


def el_residual_fiber_covector(f: MapJet, sigma_a, tau, A, phi: MetricField, psi,
                               source_block=None, tau_dy=None,
                               fd_step: float = DEFAULT_FD_STEP) -> TensorField:
    """Closed-form residual when the fiber is induced by a covector A on
    the source (target connection block A_a d^k_i) and the source log
    factor depends on position only.

    dL/df^i   = g^{gm} (dh_{kl}/dx^i) f^k_g f^l_m / 2
    dL/df^i_a = e^{2s+2t} { phi^{gm} phi^{ae} psi_{kl} A_e (dt/dy^i)
                f^k_g f^l_m + phi^{ga} psi_{ik} f^k_g }.
    """
    grid = f.grid
    a_pts = grid.points()
    phi_inv = invert_metric(phi).values
    A_vals = np.asarray(A(a_pts), float)
    y = np.einsum("...ab,...b,...ka->...k", phi_inv, A_vals, f.jet)

    s_vals = np.asarray(sigma_a(a_pts), float)
    t_vals = np.asarray(tau(f.values, y), float)
    psi_vals = np.asarray(psi(f.values), float)
    if tau_dy is not None:
        dt_dy = np.asarray(tau_dy(f.values, y), float)
    else:
        dt_dy = central_partials(lambda v: tau(f.values, v), y, fd_step)

    pref = np.exp(2.0 * s_vals + 2.0 * t_vals)
    jj = np.einsum("...gm,...kl,...kg,...lm->...", phi_inv, psi_vals, f.jet, f.jet)
    Ae_up = np.einsum("...ae,...e->...a", phi_inv, A_vals)
    dLdjet = pref[..., None, None] * (
        Ae_up[..., None, :] * dt_dy[..., :, None] * jj[..., None, None]
        + np.einsum("...ga,...ik,...kg->...ia", phi_inv, psi_vals, f.jet)
    )

    # full x-partial of h at fixed y: e^{2t} (2 dt/dx psi + dpsi/dx)
    def h_of_x(xv):
        return np.exp(2.0 * np.asarray(tau(xv, y), float))[..., None, None] \
            * np.asarray(psi(xv), float)

    dh_dx = central_partials(h_of_x, f.values, fd_step)      # (..., k, l, i)
    ginv_scale = np.exp(2.0 * s_vals)                        # g^{gm} = e^{2s} phi^{gm}
    dLdf = 0.5 * np.einsum("...,...gm,...kli,...kg,...lm->...i",
                           ginv_scale, phi_inv, dh_dx, f.jet, f.jet)
    return assemble_residual(grid, sqrt_det(phi).values, dLdf, dLdjet)


def el_residual_oneform_source(f: MapJet, sigma, tau_x, xi, phi: MetricField, psi,
                               sigma_db=None, fd_step: float = DEFAULT_FD_STEP
                               ) -> TensorField:
    """Closed-form residual when the source argument is induced by a
    one-form xi along the map (source connection block d^g_a xi_i) and the
    target log factor depends on position only.

    dL/df^i   = e^{2s+2t} phi^{gm} phi^{de} psi_{kl} (dxi_p/dx^i)
                (ds/db^e) f^p_d f^k_g f^l_m + g^{gm} (dh_{kl}/dx^i)
                f^k_g f^l_m / 2
    dL/df^i_a = e^{2s+2t} { phi^{gm} phi^{ae} psi_{kl} (ds/db^e) xi_i
                f^k_g f^l_m + phi^{ga} psi_{ik} f^k_g }.
    """
    grid = f.grid
    a_pts = grid.points()
    phi_inv = invert_metric(phi).values
    xi_vals = np.asarray(xi(f.values), float)
    b = np.einsum("...gb,...i,...ib->...g", phi_inv, xi_vals, f.jet)

    s_vals = np.asarray(sigma(a_pts, b), float)
    t_vals = np.asarray(tau_x(f.values), float)
    psi_vals = np.asarray(psi(f.values), float)
    if sigma_db is not None:
        ds_db = np.asarray(sigma_db(a_pts, b), float)
    else:
        ds_db = central_partials(lambda v: sigma(a_pts, v), b, fd_step)
    dxi_dx = central_partials(lambda xv: np.asarray(xi(xv), float), f.values, fd_step)

    pref = np.exp(2.0 * s_vals + 2.0 * t_vals)
    jj = np.einsum("...gm,...kl,...kg,...lm->...", phi_inv, psi_vals, f.jet, f.jet)
    ds_up = np.einsum("...de,...e->...d", phi_inv, ds_db)

    dLdjet = pref[..., None, None] * (
        ds_up[..., None, :] * xi_vals[..., :, None] * jj[..., None, None]
        + np.einsum("...ga,...ik,...kg->...ia", phi_inv, psi_vals, f.jet)
    )

    first = pref[..., None] * jj[..., None] * np.einsum(
        "...d,...pi,...pd->...i", ds_up, dxi_dx, f.jet)

    def h_of_x(xv):
        return np.exp(2.0 * np.asarray(tau_x(xv), float))[..., None, None] \
            * np.asarray(psi(xv), float)

    dh_dx = central_partials(h_of_x, f.values, fd_step)
    ginv_scale = np.exp(2.0 * s_vals)
    second = 0.5 * np.einsum("...,...gm,...kli,...kg,...lm->...i",
                             ginv_scale, phi_inv, dh_dx, f.jet, f.jet)
    dLdf = first + second
    return assemble_residual(grid, sqrt_det(phi).values, dLdf, dLdjet)
