"""Field theory on a conformal generalized Lagrange space: the two
electromagnetic tensors built from the log factor's horizontal and
vertical gradients, cyclic Maxwell residuals, the deflection correction
t_ij, and the Einstein-type equations with their implied energy-momentum
components.

Every quantity is direction-dependent and is evaluated at one fiber
vector at a time; the h-/v- covariant derivatives come from gl_space
(Berwald-type rules).  Their fiber partials are exact on a space with the
``sigma_jet`` hook (every scenario-built space): F and f come from one jet
call, and their fiber partials from the product rule with
d(g_ip y^p)/dy^k = 2 sigma_{y^k} g_ip y^p + g_ik, so the third cyclic
residual vanishes up to round-off.  On a space built from a plain sigma
callable, F and f are evaluated together once at each point of the fiber
stencil y, y +- h e_k, (1 + 2n)^2 sigma calls per sample, and the outputs
are defined by the fiber step.

All three cyclic residuals are 3-forms, taken only at their C(n, 3)
independent components and so zero for n < 3.  The identities behind the
first two involve the curvature convention of the riemann module; on
curved base metrics their magnitudes are reported rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DivisionGuardError
from .gl_space import (
    ConformalFactorDerivatives,
    ConformalLagrangeSpace,
    joint_fiber_partials,
    sigma_blocks,
    sigma_gradient_partials,
    sigma_gradients,
)
from .tensor_core import TensorField, contract_vector, fd_partial


@dataclass(frozen=True)
class ElectromagneticTensors:
    """Antisymmetric pair at one fiber vector: F from the horizontal
    gradient of the log factor, f from the vertical one."""

    F: TensorField
    f: TensorField


@dataclass(frozen=True)
class EinsteinSystem:
    """Left-hand sides of the two Einstein-type equations at one fiber,
    with the deflection correction and (for nonzero coupling K) the
    implied energy-momentum components."""

    h_lhs: TensorField
    v_lhs: TensorField
    t_field: TensorField
    TH: TensorField | None
    TV: TensorField | None


def _em_values(space: ConformalLagrangeSpace, y: np.ndarray,
               n_conn: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F, f, g_ip y^p and grad_v at one fiber from the gradient stage alone
    (one jet call, or 1 + 2n sigma calls)."""
    s, gh, gv = sigma_gradients(space, y, n_conn)
    F, f, gy, _ = _em_from(space, y, s, gh, gv)
    return F, f, gy, gv


def _em_from(space: ConformalLagrangeSpace, y: np.ndarray, s: np.ndarray,
             gh: np.ndarray, gv: np.ndarray) -> tuple:
    """F, f, g_ip y^p and g = exp(2 sigma) gamma from the gradient stage."""
    g = np.exp(2.0 * s)[..., None, None] * space.base.gamma.values
    gy = np.einsum("...ip,p->...i", g, y)
    return _wedge(gy, gh), _wedge(gy, gv), gy, g


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_j - a_j b_i."""
    return a[..., :, None] * b[..., None, :] - a[..., None, :] * b[..., :, None]


def _em_jet(space: ConformalLagrangeSpace, y: np.ndarray, n_conn: np.ndarray) -> tuple:
    """F, f, their fiber partials as functions of index arrays (a, b) giving
    rows dF_abk and df_abk (slot k last), g_ip y^p and grad_v at one fiber,
    exactly, from the jet (:func:`_wedge_partials`)."""
    s, gh, gv, d_gh, d_gv = sigma_gradient_partials(space, y, n_conn)
    F, f, gy, g = _em_from(space, y, s, gh, gv)
    G = 2.0 * gy[..., :, None] * gv[..., None, :] + g
    return F, f, _wedge_partials(G, gy, gh, d_gh), _wedge_partials(G, gy, gv, d_gv), gy, gv


def _wedge_partials(G: np.ndarray, gy: np.ndarray, grad: np.ndarray, d_grad: np.ndarray):
    """The fiber partials of gy_i grad_j - gy_j grad_i at rows (a, b), as a
    function of index arrays: with G_ik = d(g_ip y^p)/dy^k =
    2 sigma_{y^k} g_ip y^p + g_ik, d_ijk = term_ijk - term_jik where
    term_ijk = G_ik grad_j + g_ip y^p d grad_jk."""
    def term(i, j):
        return G[..., i, :] * grad[..., j, None] + gy[..., i, None] * d_grad[..., j, :]

    return lambda a, b: term(a, b) - term(b, a)


def em_tensors(space: ConformalLagrangeSpace, y: np.ndarray) -> ElectromagneticTensors:
    """F_ij = (g_ip s_j - g_jp s_i) y^p and f_ij = (g_ip sdot_j - g_jp
    sdot_i) y^p at one fiber vector."""
    F, f, _, _ = _em_values(space, np.asarray(y, float))
    return ElectromagneticTensors(F=TensorField(space.grid, F), f=TensorField(space.grid, f))


def maxwell_residuals(space: ConformalLagrangeSpace, y: np.ndarray
                      ) -> tuple[TensorField, TensorField, TensorField]:
    """The three cyclic Maxwell residuals at one fiber vector.

    residual1 = cyc F_ij|k  -  cyc g_ip r^h_{qjk} sdot_h y^p y^q
    residual2 = cyc F_ij[v_k]  +  cyc f_ij|k
    residual3 = cyc f_ij[v_k]

    where | is the h-covariant derivative and [v] the fiber partial.  The
    third vanishes identically in the continuum; the first two depend on
    the base curvature convention on curved charts.

    All three are 3-forms: F, f and their fiber partials are antisymmetric
    in their first two slots, and the curvature r^h_{qjk} in (j, k), as
    every ``curvature_package`` result is exactly.  Each residual is taken
    only at its C(n, 3) components i < j < k, as X_ijk + X_jki + X_kij
    with X1 = F_ab|c - g_ap y^p r^h_{qbc} sdot_h y^q,
    X2 = F_ab[v_c] + f_ab|c and X3 = f_ab[v_c], and written with its sign
    into the six permutations of a zero array; for n < 3, which has no
    components, all three are zero.  Each F_ab|c and f_ab|c is one grid
    stencil of F_ab along axis c minus the N-term and the two Gamma-terms.
    Every residual1 and residual2 entry of a node is NaN where one of
    their components there is not finite, and every residual3 entry where
    its own is; for n < 3, every entry of all three where F, f or a fiber
    partial of them is not finite.

    With the jet hook, (F, f) and their fiber partials come in closed form
    from one jet call, dF and df only at the rows the components read.
    Without it, (F, f) is evaluated once at each of the 2n + 1 points
    y, y +- h e_k; all four derivatives come from that stencil and the
    curvature term reuses the centre point, (1 + 2n)^2 sigma calls in all.
    N(y) is formed once and shared.
    """
    y = np.asarray(y, float)
    grid = space.grid
    n = space.dim
    lead = grid.shape
    n_conn = space.nonlinear_connection(y)

    if space.factor[1] is not None:
        F, f, dF_rows, df_rows, gy, gv = _em_jet(space, y, n_conn)
    else:
        F, f, gy, gv = _em_values(space, y, n_conn)    # gy = g_ip y^p
        dF_rows, df_rows = ((lambda a, b, d=d: d[..., a, b, :]) for d in joint_fiber_partials(
            lambda yy: _em_values(space, yy)[:2], y, space.dim, space.fiber_step_scale))

    def nonfinite(*arrays):
        bad = np.zeros(lead, dtype=bool)
        for arr in arrays:
            bad |= ~np.isfinite(arr.reshape(lead + (-1,))).all(-1)
        return bad

    if n >= 3:
        riem = space.base.curvature.values         # (..., h, q, j, k)
        # sdot_h first, against the contiguous (h, qjk) layout, then y^q
        curv = gv[..., None, :] @ riem.reshape(lead + (n, n ** 3))
        curv = contract_vector(curv.reshape(lead + (n, n, n)), y, -3)
        a, b, c = _rotations(n)
        at_c = (Ellipsis, np.arange(len(c)), c)
        dF_ab, df_ab = dF_rows(a, b), df_rows(a, b)    # (..., rotation, m)
        X1 = _h_components(F, dF_ab, space, n_conn, a, b, c) - gy[..., a] * curv[..., b, c]
        X2 = dF_ab[at_c] + _h_components(f, df_ab, space, n_conn, a, b, c)
        comps = [X[..., 0::3] + X[..., 1::3] + X[..., 2::3] for X in (X1, X2, df_ab[at_c])]
        # the components of 1 and 2 read all of F and f at their node and
        # the rows (a, b) of dF and df, whose other rows are negatives or
        # x - x of the same products; a non-finite operand stays non-finite
        bad12 = nonfinite(comps[0], comps[1])
        bads = (bad12, bad12, nonfinite(comps[2]))
    else:
        # no components: the zero 3-form, NaN where F, f or a fiber partial
        # is (the row (0, 1) at n = 2, none at n = 1)
        p, q = np.triu_indices(n, 1)
        comps = [np.zeros(lead + (0,))] * 3
        bads = (nonfinite(F, f, dF_rows(p, q), df_rows(p, q)),) * 3
    out = []
    for comp, bad in zip(comps, bads):
        res = _three_form(comp, n)
        res[bad] = np.nan
        out.append(TensorField(grid, res))
    return tuple(out)


def _h_components(vals: np.ndarray, rows: np.ndarray, space: ConformalLagrangeSpace,
                  n_conn: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
                  ) -> np.ndarray:
    """vals_ab|c at the index arrays (a, b, c), shape (..., len(a)): the grid
    stencil of vals_ab along axis c, minus N^m_c rows_m with ``rows`` the
    fiber partials d vals_ab/dy^m, (..., len(a), m), minus
    Gamma^m_ac vals_mb and Gamma^m_bc vals_am."""
    out = np.stack([fd_partial(TensorField(space.grid, vals[..., i, j]), k).values
                    for i, j, k in zip(a, b, c)], axis=-1)
    gam = space.base.christoffel.values            # (..., m, i, k)
    out -= np.einsum("...pm,...mp->...p", rows, n_conn[..., :, c])
    out -= np.einsum("...mp,...mp->...p", gam[..., :, a, c], vals[..., :, b])
    out -= np.einsum("...mp,...pm->...p", gam[..., :, b, c], vals[..., a, :])
    return out


def _rotations(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (a, b, c) of the rotations (i, j, k), (j, k, i),
    (k, i, j) of each triple i < j < k in the order of combinations."""
    rot = [t[r:] + t[:r] for t in combinations(range(n), 3) for r in range(3)]
    return tuple(np.array([r[s] for r in rot], dtype=np.intp) for s in range(3))


def _three_form(comp: np.ndarray, n: int) -> np.ndarray:
    """The totally antisymmetric (..., n, n, n) array with components
    ``comp`` (..., triple) at i < j < k, in the order of combinations."""
    out = np.zeros(comp.shape[:-1] + (n, n, n))
    i, j, k = (s[0::3] for s in _rotations(n))
    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
        out[..., p, q, r] = comp
    neg = -comp
    for p, q, r in ((j, i, k), (i, k, j), (k, j, i)):
        out[..., p, q, r] = neg
    return out


def deflection_tensor(space: ConformalLagrangeSpace, y: np.ndarray,
                      return_terms: bool = False):
    """The sigma-dependent correction added to the Einstein tensor:

    t_ij = (n-2)(gamma_ij tr_h - hess_h_ij)
           + gamma_ij r_st y^s gamma^{tp} sdot_p
           + sdot_i r^a_{tja} y^t
           - gamma_is gamma^{ap} sdot_p r^s_{tja} y^t

    With ``return_terms`` the four addends come back separately for
    debugging.
    """
    y = np.asarray(y, float)
    return _deflection(space, y, sigma_blocks(space, y), return_terms)


def _deflection(space: ConformalLagrangeSpace, y: np.ndarray,
                blocks: ConformalFactorDerivatives, return_terms: bool = False):
    base = space.base
    n = base.dim
    gamma = base.gamma.values
    gamma_inv = base.gamma_inv.values
    ricci = base.ricci.values          # r_st with the first-last trace
    riem = base.curvature.values       # (..., s, t, j, a)
    gv = blocks.grad_v.values
    gv_up = np.einsum("...ap,...p->...a", gamma_inv, gv)

    term1 = (n - 2) * (gamma * blocks.tr_h.values[..., None, None] - blocks.hess_h.values)
    scalar2 = np.einsum("...st,s,...t->...", ricci, y, gv_up)
    term2 = gamma * scalar2[..., None, None]
    ricci_y = np.einsum("...tj,t->...j", ricci, y)
    term3 = gv[..., :, None] * ricci_y[..., None, :]
    # gamma^{ap} sdot_p first, against the contiguous (stj, a) layout, then y^t
    lead = space.grid.shape
    mixed = riem.reshape(lead + (n ** 3, n)) @ gv_up[..., None]
    mixed = contract_vector(mixed.reshape(lead + (n, n, n)), y, -2)
    term4 = -(gamma @ mixed)

    total = TensorField(space.grid, term1 + term2 + term3 + term4)
    if return_terms:
        terms = {
            "trace_part": TensorField(space.grid, term1),
            "ricci_scalar_part": TensorField(space.grid, term2),
            "ricci_vector_part": TensorField(space.grid, term3),
            "curvature_mixed_part": TensorField(space.grid, term4),
        }
        return total, terms
    return total


def einstein_system(space: ConformalLagrangeSpace, K: float, y: np.ndarray,
                    energy_momentum: bool = True) -> EinsteinSystem:
    """Left-hand sides r_ij - r gamma_ij / 2 + t_ij (horizontal) and
    (2-n)(hess_v_ab - tr_v gamma_ab) (vertical) at one fiber; with a
    nonzero gravific constant the implied energy-momentum components are
    LHS / K.  Without a factor (``sigma`` None) t_ij is zero and the
    vertical side is the full path's (2 - n)(+0.0) at every entry, so -0.0
    for n > 2; the base Einstein tensor is still added to t, as on the full
    path, which maps its -0.0 entries alike and keeps non-finite ones."""
    y = np.asarray(y, float)
    base = space.base
    n = base.dim
    if space.sigma is None:
        t_vals, v_vals = np.zeros((2,) + space.grid.shape + (n, n))
        if n > 2:
            v_vals[...] = -0.0      # the full path's (2 - n)(+0.0)
    else:
        blocks = sigma_blocks(space, y)
        t_vals = _deflection(space, y, blocks).values
        v_vals = (2.0 - n) * (blocks.hess_v.values - blocks.tr_v.values[..., None, None] * base.gamma.values)
    h_vals = base.einstein_tensor().values + t_vals
    h_lhs = TensorField(space.grid, h_vals)
    v_lhs = TensorField(space.grid, v_vals)

    TH = TV = None
    if energy_momentum:
        if K == 0.0:
            raise DivisionGuardError(
                "energy-momentum components require a nonzero gravific constant")
        TH = TensorField(space.grid, h_vals / K)
        TV = TensorField(space.grid, v_vals / K)
    return EinsteinSystem(h_lhs=h_lhs, v_lhs=v_lhs, t_field=TensorField(space.grid, t_vals),
                          TH=TH, TV=TV)
