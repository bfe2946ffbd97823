"""The energy functional between two generalized Lagrange spaces and its
Euler-Lagrange residuals.

A connection tensor P couples a map's first-order jet to direction
arguments on both sides: b on the source manifold and y along the map.
The density is L = g^{gm}(a, b) h_{kl}(f(a), y) f^k_g f^l_m / 2, the energy
its integral against the source volume weight, and a map is harmonic when
the discrete energy gradient vanishes.

Evaluation.  One first-stage evaluation of a pair at a map
(``DensityEvaluation``) holds P's flattened blocks, b and y (one
matrix-vector product each of the blocks with w_{bi} = phi^{ab} f^i_a,
each only where the pair reads it: a conformal pair reads b only through
sigma and y only through tau, and a block is evaluated only for its own),
g^{-1}(a, b) by ``invert_metric``, h(f, y) and L = g^{gm} (f^T h f)_{gm} / 2;
``lagrangian_density`` and ``density_partials`` both read it, so the
energy and the residual of one map share it.  A general pair's residual
differences the density by central steps in each map value and each jet
entry.  A conformal pair, its ingredients g = e^{-2 sigma(a,b)} phi(a)
and h = e^{2 tau(x,y)} psi(x) alone, takes both partials by the chain
rule (``_conformal_partials``): L scales as e^{2 sigma + 2 tau}, so one
pair of direction gradients dsigma/db and dtau/dy serves both, and dL/df
needs the x-partials of psi, of tau at fixed y and of the connection
blocks that depend on x.

Hooks and differences.  Each of those partials is exact where the pair
or P carries its hook (``MetricPair.conformal``'s ``sigma_db``,
``tau_dy``, ``tau_dx`` and ``psi_dx``, ``ConnectionTensor``'s
``source_dx``); a partial without one, and the x-partials of a target
block that depends on x, are central differences of that ingredient
alone (``central_partials``, relative step ``fd_step``), and the hooks
the pair does carry are still used.  The scenario builders compile every
hook from the expression grammar, and their target blocks are x-free,
so a scenario-built conformal residual differences nothing pointwise:
only the divergence in ``assemble_residual`` is a grid stencil (the
orbit-geodesic residual carries ``tau_dy``, and ``tau_dx`` and ``psi_dx``
when it is given the partials of xi and psi, as the runner gives them).
Every conformal per-node product goes entry by entry.  The fiber-covector,
one-form-source and orbit-geodesic residuals are (pair, P) constructions
over this one path.

Sign convention.  The residual returned here *is* the nodewise density
form of the discrete energy gradient: at interior nodes of the grid,
``quadrature_weight * residual`` reproduces central finite differences of
the energy with respect to nodal map values (this pins the sign between
the two Euler-Lagrange terms: the derivative term enters with a minus).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import SingularMetricError
from .tensor_core import (
    ChartGrid,
    MetricField,
    TensorField,
    fd_partial,
    grid_partials,
    invert_metric,
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


def unit(pts: np.ndarray) -> np.ndarray:
    """The constant factor 1: the velocity connection's covector and the
    unit factor of an orbit's or a Pfaff system's generator."""
    return np.ones(pts.shape[:-1] + (1,))


def central_partials(fn: Callable[[np.ndarray], np.ndarray], pts: np.ndarray,
                     rel_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central differences of a vectorized point evaluator in each
    coordinate of its argument; one trailing axis is appended.

    The step is h = rel_step * (1 + |x_k|), per node and per coordinate.
    This is the one map-side step rule: the residual takes every
    differenced partial in a map value, jet entry or induced direction
    from here.  ``fn`` is called exactly 2d times.
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
        col = num / (2.0 * h).reshape(h.shape + (1,) * (num.ndim - h.ndim))
        if out is None:
            out = np.empty(col.shape + (d,))
        out[..., k] = col
    return out


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
    [upper, lower-source, lower-target].  ``source_depends_on_x`` and
    ``target_depends_on_x`` say whether a block depends on x; a conformal
    pair's residual never re-evaluates one that does not at perturbed map
    values (a general pair's dL/df difference re-evaluates both blocks at
    every perturbed f).  Both default to True, which is always correct.
    ``source_dx(a_pts, x_vals) -> (..., m, m, n, n)`` is the optional exact
    x-partial of the source block, the derivative axis last (the layout of
    ``central_partials``); an x-dependent block without one is differenced.
    """

    source: Callable[[np.ndarray, np.ndarray], np.ndarray]
    target: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: int
    n: int
    source_depends_on_x: bool = True
    target_depends_on_x: bool = True
    source_dx: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @classmethod
    def zero(cls, m: int, n: int) -> "ConnectionTensor":
        return cls(source=_zero_source, target=_zero_target, m=m, n=n,
                   source_depends_on_x=False, target_depends_on_x=False)

    @classmethod
    def constant(cls, source_block: np.ndarray, target_block: np.ndarray) -> "ConnectionTensor":
        sb = np.asarray(source_block, float)
        tb = np.asarray(target_block, float)
        m, n = sb.shape[1], sb.shape[2]
        return cls(
            source=lambda a, x: np.broadcast_to(sb, a.shape[:-1] + sb.shape).copy(),
            target=lambda a, x: np.broadcast_to(tb, a.shape[:-1] + tb.shape).copy(),
            m=m, n=n, source_depends_on_x=False, target_depends_on_x=False,
        )

    @classmethod
    def covector_fiber(cls, A: Callable[[np.ndarray], np.ndarray],
                       source: Callable | None = None, m: int = -1, n: int = -1
                       ) -> "ConnectionTensor":
        """Target block A_a(a) d^k_i (the induced fiber is the A-weighted
        jet); source block free, defaulting to zero.  Dimensions are read
        off the arguments at evaluation time.  The target and the default
        source do not depend on x; a given source is taken to."""

        def target(a_pts, x_vals):
            avals = np.asarray(A(a_pts), float)      # (..., m)
            eye = np.eye(x_vals.shape[-1])
            return avals[..., None, :, None] * eye[:, None, :]

        return cls(source=source or _zero_source, target=target, m=m, n=n,
                   source_depends_on_x=source is not None, target_depends_on_x=False)

    @classmethod
    def oneform_source(cls, xi: Callable[[np.ndarray], np.ndarray],
                       target: Callable | None = None, m: int = -1, n: int = -1,
                       xi_dx: Callable[[np.ndarray], np.ndarray] | None = None
                       ) -> "ConnectionTensor":
        """Source block d^g_a xi_i(x) (the induced source argument is the
        xi-weighted jet, raised); target block free, defaulting to zero.
        The source depends on x, the default target does not; a given
        target is taken to.  ``xi_dx(x) -> (..., n, n)``, the exact
        partials d xi_i / d x^j, gives the source its x-partials."""

        def source(a_pts, x_vals):
            xivals = np.asarray(xi(x_vals), float)   # (..., n)
            eye = np.eye(a_pts.shape[-1])
            return eye[:, :, None] * xivals[..., None, None, :]

        def source_dx(a_pts, x_vals):
            dxi = np.asarray(xi_dx(x_vals), float)   # (..., n, n)
            eye = np.eye(a_pts.shape[-1])
            return eye[:, :, None, None] * dxi[..., None, None, :, :]

        return cls(source=source, target=target or _zero_target, m=m, n=n,
                   source_depends_on_x=True, target_depends_on_x=target is not None,
                   source_dx=None if xi_dx is None else source_dx)

    @classmethod
    def velocity(cls, n: int = -1) -> "ConnectionTensor":
        """One-dimensional source with unit covector: the induced fiber is
        the curve velocity."""
        return cls.covector_fiber(unit, None, 1, n)


def _zero_source(a_pts: np.ndarray, x_vals: np.ndarray) -> np.ndarray:
    """The zero source block, m and n read off the arguments."""
    m, n = a_pts.shape[-1], x_vals.shape[-1]
    return np.zeros(a_pts.shape[:-1] + (m, m, n))


def _zero_target(a_pts: np.ndarray, x_vals: np.ndarray) -> np.ndarray:
    """The zero target block, m and n read off the arguments."""
    m, n = a_pts.shape[-1], x_vals.shape[-1]
    return np.zeros(a_pts.shape[:-1] + (n, m, n))


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
        field = TensorField(grid, resid)
        jet = grid_partials(field) + extra
        return cls(grid=grid, values=values, jet=jet)

    @property
    def target_dim(self) -> int:
        return self.values.shape[-1]


def induced_arguments(f: MapJet, P: ConnectionTensor, phi_inv: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Direction arguments manufactured from the jet:
    b^g = phi^{ab} f^i_a P^g_{bi}(a, f) and y^k = phi^{ab} f^i_a P^k_{bi}(a, f)."""
    blocks = _connection_blocks(P, f.grid.points(), f.values)
    return _arguments(blocks, _raised_jet(f.jet, phi_inv))


def _connection_blocks(P: ConnectionTensor, a_pts: np.ndarray, f_vals: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """P's source and target blocks at (a, f) with the two lower slots
    flattened: (..., m, m*n) and (..., n, m*n)."""
    return _flat_block(P.source, a_pts, f_vals), _flat_block(P.target, a_pts, f_vals)


def _flat_block(block, a_pts: np.ndarray, f_vals: np.ndarray) -> np.ndarray:
    """One block of P at (a, f), its two lower slots flattened."""
    vals = np.asarray(block(a_pts, f_vals), float)
    return vals.reshape(vals.shape[:-2] + (-1,))


def _raised_jet(jet_vals: np.ndarray, phi_inv: np.ndarray) -> np.ndarray:
    """w_{bi} = phi^{ab} f^i_a per node, (..., m, n)."""
    return np.swapaxes(jet_vals @ phi_inv, -1, -2)


def _arguments(blocks: tuple, w: np.ndarray) -> tuple:
    """b and y from flattened connection blocks and the raised jet w; an
    argument whose block is given as None is None."""
    flat = w.reshape(w.shape[:-2] + (-1, 1))     # flattened like the blocks' lower slots
    return tuple(None if block is None else (block @ flat)[..., 0] for block in blocks)


# ---------------------------------------------------------------------------
# metric pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricPair:
    """The two direction-dependent metrics of an energy functional.

    A general pair carries ``g(a_pts, b) -> (..., m, m)`` and
    ``h(x_vals, y) -> (..., n, n)``.  A conformal pair carries psi, and no
    g or h: it is its ingredients g = exp(-2 sigma(a,b)) phi(a) and
    h = exp(2 tau(x,y)) psi(x), which let the residual take its partials
    by the chain rule.  The optional hooks are exact partials of the
    ingredients, the derivative axis last: ``sigma_db(a, b) -> (..., m)``,
    ``tau_dy(x, y)`` and ``tau_dx(x, y) -> (..., n)`` and
    ``psi_dx(x) -> (..., n, n, n)``.  Without one, the partial it stands
    for is differenced.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    h: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    phi: Callable[[np.ndarray], np.ndarray] | None = None
    psi: Callable[[np.ndarray], np.ndarray] | None = None
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    tau: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    tau_dy: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    sigma_db: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    tau_dx: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    psi_dx: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (None not in (self.g, self.h) if self.psi is None
                else self.phi is not None and self.g is None and self.h is None):
            raise TypeError("a MetricPair carries g and h, or phi and psi without g and h")

    @classmethod
    def riemannian(cls, phi, psi) -> "MetricPair":
        """Direction-independent pair: the classical harmonic-map setting."""
        return cls.conformal(phi, psi)

    @classmethod
    def conformal(cls, phi, psi, sigma=None, tau=None, tau_dy=None, sigma_db=None,
                  tau_dx=None, psi_dx=None) -> "MetricPair":
        return cls(phi=phi, psi=psi, sigma=sigma, tau=tau, tau_dy=tau_dy,
                   sigma_db=sigma_db, tau_dx=tau_dx, psi_dx=psi_dx)


def _scaled(base, log_factor, weight: float) -> tuple[np.ndarray, np.ndarray | None]:
    """(e^{weight * log_factor} base, e^{weight * log_factor}) per node, or
    (base, None) without a log factor."""
    base = np.asarray(base, float)
    if log_factor is None:
        return base, None
    scale = np.exp(weight * np.asarray(log_factor, float))
    return scale[..., None, None] * base, scale


def _node_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B per node, entry by entry.  Batched ``@`` makes one BLAS call
    per node, which on small matrices costs several times the arithmetic."""
    rows, inner, cols = A.shape[-2], A.shape[-1], B.shape[-1]
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = A[..., i, 0] * B[..., 0, j]
            for k in range(1, inner):
                acc += A[..., i, k] * B[..., k, j]
            out[..., i, j] = acc
    return out


# ---------------------------------------------------------------------------
# density, energy, residuals
# ---------------------------------------------------------------------------


class _Stage(NamedTuple):
    """The first stage of the density at one map: the induced arguments,
    g^{-1}(a, b), h(x, y), e^{2 tau} (None without tau or for a general
    pair) and L, per node.  b and y are None where the pair does not read
    them, so their blocks were not given (``DensityEvaluation.stage``)."""

    b: np.ndarray | None
    y: np.ndarray | None
    ginv: np.ndarray
    h: np.ndarray
    tau_scale: np.ndarray | None
    density: np.ndarray


def _first_stage(a_pts: np.ndarray, f_vals: np.ndarray, jet_vals: np.ndarray,
                 pair: MetricPair, blocks: tuple, phi_inv: np.ndarray, grid: ChartGrid
                 ) -> _Stage:
    """The density and its intermediates with b and y recomputed from the
    given jet (their dependence on the map is part of the variational
    structure); ``blocks`` are the flattened source and target blocks of
    the connection at (a, f_vals), either None where the pair does not read
    its argument, which is then None too.  A conformal pair is evaluated
    from its ingredients, so e^{2 tau} is kept."""
    b = y = None
    if any(block is not None for block in blocks):
        b, y = _arguments(blocks, _raised_jet(jet_vals, phi_inv))
    conformal = pair.psi is not None
    if conformal:
        gmat = _scaled(pair.phi(a_pts), None if pair.sigma is None else pair.sigma(a_pts, b),
                       -2.0)[0]
    else:
        gmat = pair.g(a_pts, b)
    try:
        ginv = invert_metric(MetricField(grid, gmat, definite="pseudo")).values
    except SingularMetricError as exc:
        raise SingularMetricError(f"source metric g(a, b): {exc}", node=exc.node) from None
    if conformal:
        hmat, scale = _scaled(pair.psi(f_vals), None if pair.tau is None else pair.tau(f_vals, y),
                              2.0)
    else:
        hmat, scale = np.asarray(pair.h(f_vals, y), float), None
    pulled = np.swapaxes(jet_vals, -1, -2) @ hmat @ jet_vals    # f^k_g h_kl f^l_m
    return _Stage(b, y, ginv, hmat, scale, 0.5 * (ginv * pulled).sum((-2, -1)))


class DensityEvaluation:
    """The first-stage evaluation of a pair's density at a map, each part
    computed on first use: phi^{-1} and sqrt(phi) of the sampled source
    metric, P's flattened source and target blocks at (a, f) and the
    ``_Stage`` (b, y, g^{-1} by ``invert_metric``, h, e^{2 tau} and L).
    The stage evaluates a block only where the pair reads its argument: a
    general pair reads both, a conformal pair b only through sigma and y
    only through tau, so one with neither never evaluates P.
    ``lagrangian_density``,
    ``density_partials`` and ``el_residual`` take one as ``evaluation``,
    so the energy and the residual of a map evaluate the pair there once;
    it must be an evaluation of the very (f, pair, P, phi) they are given.
    Only the pair's metrics and log factors are read, not its hooks."""

    def __init__(self, f: MapJet, pair: MetricPair, P: ConnectionTensor, phi: MetricField):
        self.f, self.pair, self.P, self.phi = f, pair, P, phi

    @cached_property
    def points(self) -> np.ndarray:
        return self.f.grid.points()

    @cached_property
    def phi_inv(self) -> np.ndarray:
        return invert_metric(self.phi).values

    @cached_property
    def sqrt_phi(self) -> np.ndarray:
        return sqrt_det(self.phi).values

    @cached_property
    def source_block(self) -> np.ndarray:
        return _flat_block(self.P.source, self.points, self.f.values)

    @cached_property
    def target_block(self) -> np.ndarray:
        return _flat_block(self.P.target, self.points, self.f.values)

    @cached_property
    def stage(self) -> _Stage:
        f, pair = self.f, self.pair
        general = pair.psi is None
        blocks = (self.source_block if general or pair.sigma is not None else None,
                  self.target_block if general or pair.tau is not None else None)
        return _first_stage(self.points, f.values, f.jet, pair, blocks, self.phi_inv, f.grid)


def _evaluation_of(f: MapJet, pair: MetricPair, P: ConnectionTensor, phi: MetricField,
                   evaluation: DensityEvaluation | None) -> DensityEvaluation:
    """``evaluation`` after checking that it evaluates exactly these
    arguments, or a new evaluation of them."""
    if evaluation is None:
        return DensityEvaluation(f, pair, P, phi)
    given = (evaluation.f, evaluation.pair, evaluation.P, evaluation.phi)
    if any(e is not a for e, a in zip(given, (f, pair, P, phi))):
        raise ValueError("evaluation is of another map, pair, connection or source metric")
    return evaluation


def lagrangian_density(f: MapJet, pair: MetricPair, P: ConnectionTensor,
                       phi: MetricField, evaluation: DensityEvaluation | None = None
                       ) -> TensorField:
    """The density L = g^{gm}(a,b) h_{kl}(f,y) f^k_g f^l_m / 2 per node,
    from ``evaluation`` (a ``DensityEvaluation`` of these arguments) when
    given."""
    ev = _evaluation_of(f, pair, P, phi, evaluation)
    return TensorField(f.grid, ev.stage.density)


def energy(f: MapJet, pair: MetricPair, P: ConnectionTensor, phi: MetricField) -> float:
    """Quadrature of the density against the source volume weight."""
    return volume_integral(lagrangian_density(f, pair, P, phi), phi)


def density_partials(f: MapJet, pair: MetricPair, P: ConnectionTensor,
                     phi: MetricField, fd_step: float = DEFAULT_FD_STEP,
                     evaluation: DensityEvaluation | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise partials of the density with respect to map values and
    jet entries.  A general pair takes both by nodewise central differences
    with relative steps; a conformal pair takes them by the chain rule
    (``_conformal_partials``).  ``evaluation`` is a ``DensityEvaluation``
    of these arguments to reuse.

    Returns (dL/df^i of shape (*grid, n), dL/df^i_a of shape (*grid, n, m)).
    """
    ev = _evaluation_of(f, pair, P, phi, evaluation)
    if pair.psi is not None:
        return _conformal_partials(ev, pair, P, fd_step)
    grid = f.grid
    a_pts, phi_inv = ev.points, ev.phi_inv
    n = f.target_dim
    m = grid.dim
    dLdf = central_partials(
        lambda fv: _first_stage(a_pts, fv, f.jet, pair, _connection_blocks(P, a_pts, fv),
                                phi_inv, grid).density,
        f.values, fd_step)
    # P depends on (a, f) only: one evaluation serves every jet partial.
    # The jet is differenced as n*m coordinates per node, entry (i, a) at i*m + a.
    dLdjet = central_partials(
        lambda jv: _first_stage(a_pts, f.values, jv.reshape(jv.shape[:-1] + (n, m)),
                                pair, (ev.source_block, ev.target_block), phi_inv,
                                grid).density,
        f.jet.reshape(grid.shape + (n * m,)), fd_step)
    return dLdf, dLdjet.reshape(grid.shape + (n, m))


def _conformal_partials(ev: DensityEvaluation, pair: MetricPair, P: ConnectionTensor,
                        fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """dL/df^i (..., n) and dL/df^i_a (..., n, m) of a conformal pair by
    the chain rule:

    dL/dJ   = h J g^{-1} + 2L (phi^{-1} R)^T,
    R_{bi}  = S^g_{bi} dsigma/db^g + T^k_{bi} dtau/dy^k,
    dL/df^i = e^{2 tau} tr(g^{-1} J^T d_i psi J) / 2 + 2L d_i tau|_y
              + 2L (dsigma/db . (d_i S) w + dtau/dy . (d_i T) w),

    where S, T are P's flattened blocks and b = S w, y = T w with
    w = vec((J phi^{-1})^T).  L scales as e^{2 sigma + 2 tau}, so its
    direction partials are 2L dsigma/db and 2L dtau/dy.  g^{-1} is the
    ``invert_metric`` inverse of g(a, b) itself: ``pair.phi`` need not be the metric
    whose inverse ``phi_inv`` defines w.  A missing sigma or tau drops its
    terms, and so does a block that does not depend on x.

    Each of the five partials (dsigma/db, dtau/dy, d psi/dx, dtau/dx at
    fixed y and the x-partials of a block) is the pair's or P's hook where
    one is given, and otherwise the central partials of its own ingredient
    (``_partials``); the per-node products go entry by entry."""
    dLdjet, two_L, spread, in_x = _conformal_jet_partials(ev, pair, P, fd_step)
    st, a_pts, x = ev.stage, ev.points, ev.f.values
    dLdf = _half_trace(spread, _partials(pair.psi, pair.psi_dx, (x,), 0, fd_step))
    del spread
    if st.tau_scale is not None:
        dLdf = (st.tau_scale[..., None] * dLdf
                + two_L[..., None] * _partials(pair.tau, pair.tau_dx, (x, st.y), 0, fd_step))
    for block, block_dx, coef in in_x:
        dLdf = dLdf + np.einsum("...gbi,...gbij->...j", coef,
                                _partials(block, block_dx, (a_pts, x), 1, fd_step))
    return dLdf, dLdjet


def _partials(fn, hook, args: tuple, k: int, fd_step: float) -> np.ndarray:
    """The partials of ``fn(*args)`` in its argument k, the derivative axis
    last: the exact ``hook(*args)`` where it is given, else the central
    partials in that argument (2 d calls of ``fn`` for a d-vector)."""
    if hook is not None:
        return np.asarray(hook(*args), float)
    return central_partials(lambda u: fn(*args[:k], u, *args[k + 1:]), args[k], fd_step)


def _half_trace(spread: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """tr(J g^{-1} J^T d psi / dx^j) / 2 per node and j, entry by entry,
    from spread = J g^{-1} J^T (..., n, n) and dpsi (..., n, n, n)."""
    n = dpsi.shape[-1]
    out = np.empty(dpsi.shape[:-3] + (n,))
    for j in range(n):
        acc = spread[..., 0, 0] * dpsi[..., 0, 0, j]
        for k, l in np.ndindex(n, n):
            if k or l:
                acc += spread[..., l, k] * dpsi[..., k, l, j]
        out[..., j] = 0.5 * acc
    return out


def _conformal_jet_partials(ev: DensityEvaluation, pair: MetricPair, P: ConnectionTensor,
                            fd_step: float):
    """dL/dJ of a conformal pair, with what its dL/df reuses: 2L,
    J g^{-1} J^T and each x-dependent block with its x-partials hook (None
    for the target) and its coefficient 2L dlog/darg (x) w.  Each
    intermediate is freed once read, so little besides the evaluation is
    held at once."""
    st, a_pts, x, jet = ev.stage, ev.points, ev.f.values, ev.f.jet
    jet_t = np.swapaxes(jet, -1, -2)
    hj = _node_product(st.h, jet)
    dLdjet = _node_product(hj, st.ginv)
    two_L = (st.ginv * _node_product(jet_t, hj)).sum((-2, -1))
    del hj
    R = 0.0
    in_x = []
    if (pair.sigma is not None and P.source_depends_on_x
            or pair.tau is not None and P.target_depends_on_x):
        w = _raised_jet(jet, ev.phi_inv)[..., None, :, :]
    if pair.sigma is not None:
        ds = _partials(pair.sigma, pair.sigma_db, (a_pts, st.b), 1, fd_step)
        R = _node_product(ds[..., None, :], ev.source_block)
        if P.source_depends_on_x:
            in_x.append((P.source, P.source_dx, (two_L[..., None] * ds)[..., None, None] * w))
        del ds
    if pair.tau is not None:
        dt = _partials(pair.tau, pair.tau_dy, (x, st.y), 1, fd_step)
        R = R + _node_product(dt[..., None, :], ev.target_block)
        if P.target_depends_on_x:
            in_x.append((P.target, None, (two_L[..., None] * dt)[..., None, None] * w))
        del dt
    if pair.sigma is not None or pair.tau is not None:
        n, m = jet.shape[-2:]
        raised = _node_product(ev.phi_inv, R.reshape(R.shape[:-2] + (m, n)))     # (..., a, i)
        del R
        raised *= two_L[..., None, None]
        dLdjet += np.swapaxes(raised, -1, -2)
        del raised
    return dLdjet, two_L, _node_product(_node_product(jet, st.ginv), jet_t), in_x


def assemble_residual(grid: ChartGrid, sqrt_phi: np.ndarray, dLdf: np.ndarray,
                      dLdjet: np.ndarray) -> TensorField:
    """residual_i = sqrt(phi) dL/df^i - d_a (sqrt(phi) dL/df^i_a): the
    nodewise density form of the discrete energy gradient."""
    res = sqrt_phi[..., None] * dLdf
    for al in range(grid.dim):
        flux = TensorField(grid, sqrt_phi[..., None] * dLdjet[..., al])
        res = res - fd_partial(flux, al).values
    return TensorField(grid, res)


def el_residual(f: MapJet, pair: MetricPair, P: ConnectionTensor, phi: MetricField,
                fd_step: float = DEFAULT_FD_STEP,
                evaluation: DensityEvaluation | None = None) -> TensorField:
    """Euler-Lagrange residual of the energy; zero residual characterizes
    discrete harmonic maps.  ``evaluation`` is a ``DensityEvaluation`` of
    these arguments to reuse."""
    ev = _evaluation_of(f, pair, P, phi, evaluation)
    dLdf, dLdjet = density_partials(f, pair, P, phi, fd_step, ev)
    return assemble_residual(f.grid, ev.sqrt_phi, dLdf, dLdjet)


# ---------------------------------------------------------------------------
# conformal residuals with one direction-dependent log factor
# ---------------------------------------------------------------------------


def el_residual_fiber_covector(f: MapJet, sigma_a, tau, A, phi: MetricField, psi) -> TensorField:
    """Residual when the fiber is induced by a covector A on the source
    (target connection block A_a d^k_i, independent of x) and the source
    log factor depends on position only."""
    pair = MetricPair.conformal(lambda a: phi.values, psi, sigma=lambda a, b: sigma_a(a), tau=tau)
    return el_residual(f, pair, ConnectionTensor.covector_fiber(A), phi)


def el_residual_oneform_source(f: MapJet, sigma, tau_x, xi, phi: MetricField, psi) -> TensorField:
    """Residual when the source argument is induced by a one-form xi along
    the map (source connection block d^g_a xi_i(x)) and the target log
    factor depends on position only."""
    pair = MetricPair.conformal(lambda a: phi.values, psi, sigma=sigma, tau=lambda x, y: tau_x(x))
    return el_residual(f, pair, ConnectionTensor.oneform_source(xi), phi)
