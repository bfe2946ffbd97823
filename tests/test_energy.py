import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic.energy import (
    DEFAULT_FD_STEP,
    ConnectionTensor,
    MapJet,
    MetricPair,
    _connection_blocks,
    _density_values,
    _inverse_with_guard,
    central_partials,
    constant_metric,
    density_partials,
    el_residual,
    el_residual_fiber_covector,
    el_residual_oneform_source,
    energy,
    induced_arguments,
    lagrangian_density,
)
from glharmonic.tensor_core import (
    box_grid,
    identity_metric,
    interval_grid,
    invert_metric,
    metric_field,
    quadrature,
    scalar_field,
)

rng = np.random.default_rng(314159)


def torus(n=17, size=2 * np.pi, dim=2):
    return box_grid([(0, size)] * dim, [n] * dim, periodic=True)


def smooth_map(grid, n_target, amp=0.4, seed=0):
    """Random low-frequency trigonometric map on a periodic chart."""
    r = np.random.default_rng(seed)
    pts = grid.points()
    vals = np.zeros(grid.shape + (n_target,))
    for i in range(n_target):
        vals[..., i] = r.normal() * 0.5
        for k1 in (0, 1):
            for k2 in (0, 1):
                if k1 == k2 == 0:
                    continue
                phase = r.uniform(0, 2 * np.pi)
                c = amp * r.normal() / (1 + k1 + k2)
                arg = k1 * pts[..., 0] + (k2 * pts[..., 1] if grid.dim > 1 else 0.0)
                vals[..., i] += c * np.sin(arg + phase)
    return vals


eye2 = constant_metric(np.eye(2))
one1 = constant_metric(np.eye(1))


# ---------------------------------------------------------------------------
# induced arguments
# ---------------------------------------------------------------------------


def test_zero_connection_gives_zero_arguments():
    grid = torus(9)
    f = MapJet.from_values(grid, smooth_map(grid, 2))
    P = ConnectionTensor.zero(2, 2)
    b, y = induced_arguments(f, P, identity_metric(grid).values)
    assert np.allclose(b, 0.0)
    assert np.allclose(y, 0.0)


def test_velocity_connection_reproduces_curve_velocity():
    grid = interval_grid(0.0, 1.0, 41)
    t = grid.points()[..., 0]
    vals = np.stack([np.sin(t), t**2], axis=-1)
    f = MapJet.from_values(grid, vals)
    P = ConnectionTensor.velocity(n=2)
    b, y = induced_arguments(f, P, identity_metric(grid).values)
    assert np.allclose(y, f.jet[..., 0], atol=1e-12)
    assert np.allclose(b, 0.0)


def test_induced_arguments_match_loop_oracle():
    grid = box_grid([(0, 1), (0, 1)], [5, 5])
    m, n = 2, 2
    f = MapJet.from_values(grid, rng.normal(size=(5, 5, n)))
    sb = rng.normal(size=(m, m, n))
    tb = rng.normal(size=(n, m, n))
    P = ConnectionTensor.constant(sb, tb)
    a = rng.normal(size=(5, 5, m, m))
    phi_vals = np.einsum("...ij,...kj->...ik", a, a) + 3 * np.eye(m)
    from glharmonic.tensor_core import metric_field

    phi_inv = invert_metric(metric_field(grid, phi_vals)).values
    b, y = induced_arguments(f, P, phi_inv)
    b_oracle = np.zeros_like(b)
    y_oracle = np.zeros_like(y)
    for g in range(m):
        for al in range(m):
            for be in range(m):
                for i in range(n):
                    b_oracle[..., g] += phi_inv[..., al, be] * f.jet[..., i, al] * sb[g, be, i]
    for k in range(n):
        for al in range(m):
            for be in range(m):
                for i in range(n):
                    y_oracle[..., k] += phi_inv[..., al, be] * f.jet[..., i, al] * tb[k, be, i]
    assert np.max(np.abs(b - b_oracle)) < 1e-12
    assert np.max(np.abs(y - y_oracle)) < 1e-12


# ---------------------------------------------------------------------------
# density and energy
# ---------------------------------------------------------------------------


def test_constant_map_has_zero_density_and_energy():
    grid = torus(9)
    f = MapJet.from_values(grid, np.tile([0.3, -1.2], grid.shape + (1,)))
    pair = MetricPair.riemannian(eye2, eye2)
    P = ConnectionTensor.zero(2, 2)
    phi = identity_metric(grid)
    assert np.allclose(lagrangian_density(f, pair, P, phi).values, 0.0)
    assert energy(f, pair, P, phi) == pytest.approx(0.0, abs=1e-15)


def test_riemannian_reduction_is_dirichlet_density():
    grid = torus(17)
    vals = smooth_map(grid, 2, seed=3)
    f = MapJet.from_values(grid, vals)
    pair = MetricPair.riemannian(eye2, eye2)
    P = ConnectionTensor.constant(rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2, 2)))
    phi = identity_metric(grid)
    L = lagrangian_density(f, pair, P, phi)
    dirichlet = 0.5 * np.einsum("...ka,...ka->...", f.jet, f.jet)
    assert np.max(np.abs(L.values - dirichlet)) < 1e-13


def test_identity_map_on_flat_torus():
    grid = torus(17)
    pts = grid.points()
    f = MapJet.from_values(grid, pts.copy(), linear_jet=np.eye(2))
    assert np.allclose(f.jet, np.broadcast_to(np.eye(2), grid.shape + (2, 2)), atol=1e-13)
    pair = MetricPair.riemannian(eye2, eye2)
    P = ConnectionTensor.zero(2, 2)
    phi = identity_metric(grid)
    L = lagrangian_density(f, pair, P, phi)
    assert np.allclose(L.values, 1.0, atol=1e-13)
    vol = (2 * np.pi) ** 2
    assert energy(f, pair, P, phi) == pytest.approx(vol, rel=1e-12)


def test_unit_speed_line_energy_is_half_interval():
    grid = interval_grid(0.0, 2.0, 33)
    t = grid.points()[..., 0]
    v = np.array([0.6, 0.8])
    vals = np.stack([0.1 + v[0] * t, -0.4 + v[1] * t], axis=-1)
    f = MapJet.from_values(grid, vals)
    pair = MetricPair.riemannian(one1, eye2)
    P = ConnectionTensor.velocity(n=2)
    phi = identity_metric(grid)
    assert energy(f, pair, P, phi) == pytest.approx(0.5 * 2.0, rel=1e-12)


def test_scalar_reduction_energy_matches_direct_formula():
    # target R, unit target metric, source block the identity one-form:
    # the induced source argument is the gradient and the energy is
    # the conformal Dirichlet integral of the scalar
    grid = torus(17)
    pts = grid.points()
    fvals = (0.5 * np.sin(pts[..., 0]) + 0.2 * np.cos(pts[..., 1]))[..., None]
    f = MapJet.from_values(grid, fvals)
    phi = identity_metric(grid)

    def sigma(a, b):
        return 0.1 * np.sin(a[..., 0]) * b[..., 0] / (1.0 + b[..., 0] ** 2)

    pair = MetricPair.conformal(eye2, one1, sigma=sigma, tau=None)
    P = ConnectionTensor.oneform_source(lambda x: np.ones(x.shape[:-1] + (1,)), m=2, n=1)
    E = energy(f, pair, P, phi)

    grad = np.einsum("km,...m->...k", np.eye(2), f.jet[..., 0, :])
    s = sigma(pts, grad)
    direct = 0.5 * np.exp(2 * s) * np.einsum("...a,...a->...", f.jet[..., 0, :], f.jet[..., 0, :])
    assert E == pytest.approx(quadrature(scalar_field(grid, direct)), rel=1e-12)


def test_singular_source_metric_names_node():
    from glharmonic.errors import SingularMetricError

    grid = torus(9)
    f = MapJet.from_values(grid, smooth_map(grid, 2, seed=5))

    def g_degenerate(a, b):
        out = np.broadcast_to(np.eye(2), a.shape[:-1] + (2, 2)).copy()
        out[3, 4] = [[1.0, 1.0], [1.0, 1.0]]
        return out

    pair = MetricPair.general(g_degenerate, eye2)
    with pytest.raises(SingularMetricError) as err:
        lagrangian_density(f, pair, ConnectionTensor.zero(2, 2), identity_metric(grid))
    assert err.value.node == (3, 4)
    assert str(err.value) == "source metric g(a, b) is singular at node (3, 4)"


def test_energy_nonnegative_and_axis_relabel_invariant():
    grid = torus(13)
    vals = smooth_map(grid, 2, seed=9)
    f = MapJet.from_values(grid, vals)
    pair = MetricPair.riemannian(eye2, eye2)
    P = ConnectionTensor.zero(2, 2)
    phi = identity_metric(grid)
    E = energy(f, pair, P, phi)
    assert E >= 0.0
    # swap the two chart axes together with the map samples
    f_swapped = MapJet.from_values(grid, np.transpose(vals, (1, 0, 2)))
    assert energy(f_swapped, pair, P, phi) == pytest.approx(E, rel=1e-12)


# ---------------------------------------------------------------------------
# Euler-Lagrange residual and the discrete-gradient oracle
# ---------------------------------------------------------------------------


def fd_energy_gradient(grid, vals, pair, P, phi, node, i, linear_jet=None, step=1e-6):
    eps = step * (1.0 + abs(vals[node + (i,)]))

    def E(v):
        return energy(MapJet.from_values(grid, v, linear_jet), pair, P, phi)

    vp = vals.copy()
    vp[node + (i,)] += eps
    vm = vals.copy()
    vm[node + (i,)] -= eps
    return (E(vp) - E(vm)) / (2 * eps)


def check_residual_against_fd_gradient(grid, vals, pair, P, phi, probes=12,
                                       rel_tol=1e-3, linear_jet=None, seed=0,
                                       residual=None):
    f = MapJet.from_values(grid, vals, linear_jet)
    if residual is None:
        residual = el_residual(f, pair, P, phi)
    w = grid.quadrature_weights()
    r = np.random.default_rng(seed)
    n = vals.shape[-1]
    scale = np.max(np.abs(residual.values)) + 1e-12
    for _ in range(probes):
        node = tuple(int(r.integers(0, s)) for s in grid.shape)
        i = int(r.integers(0, n))
        grad = fd_energy_gradient(grid, vals, pair, P, phi, node, i, linear_jet)
        pred = w[node] * residual.values[node + (i,)]
        assert abs(grad - pred) < rel_tol * max(abs(grad), w[node] * scale * 1e-3), (
            node, i, grad, pred)


def test_linear_map_is_harmonic_in_flat_reduction():
    grid = torus(17)
    pts = grid.points()
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    vals = np.einsum("km,...m->...k", M, pts) + np.array([0.3, -0.1])
    f = MapJet.from_values(grid, vals, linear_jet=M)
    pair = MetricPair.riemannian(eye2, eye2)
    P = ConnectionTensor.zero(2, 2)
    res = el_residual(f, pair, P, identity_metric(grid))
    assert np.max(np.abs(res.values)) < 1e-9


def test_straight_line_geodesic_residual_vanishes():
    grid = interval_grid(0.0, 1.0, 33)
    t = grid.points()[..., 0]
    vals = np.stack([1.0 + 0.5 * t, -2.0 * t], axis=-1)
    f = MapJet.from_values(grid, vals)
    pair = MetricPair.riemannian(one1, eye2)
    P = ConnectionTensor.velocity(n=2)
    res = el_residual(f, pair, P, identity_metric(grid))
    assert np.max(np.abs(res.values)) < 1e-9


def test_residual_matches_fd_gradient_flat_riemannian():
    grid = torus(17)
    vals = smooth_map(grid, 2, seed=21)
    check_residual_against_fd_gradient(
        grid, vals, MetricPair.riemannian(eye2, eye2), ConnectionTensor.zero(2, 2),
        identity_metric(grid))


def test_residual_matches_fd_gradient_curved_target():
    grid = torus(17)
    vals = smooth_map(grid, 2, seed=22)

    def psi(x):
        u = 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1])
        return np.exp(2 * u)[..., None, None] * np.eye(2)

    check_residual_against_fd_gradient(
        grid, vals, MetricPair.riemannian(eye2, psi), ConnectionTensor.zero(2, 2),
        identity_metric(grid))


def test_residual_matches_fd_gradient_full_conformal_coupling():
    # direction-dependent factors on both sides and a position-dependent
    # connection: exercises the chain rule through b and y
    grid = torus(13)
    vals = smooth_map(grid, 2, seed=23)

    def sigma(a, b):
        return 0.1 * np.sin(a[..., 0]) * np.cos(b[..., 0] + 0.5 * b[..., 1])

    def tau(x, y):
        return 0.1 * np.cos(x[..., 1]) * np.sin(y[..., 0]) + 0.05 * y[..., 1]

    def psi(x):
        u = 0.2 * np.sin(x[..., 0])
        return np.exp(2 * u)[..., None, None] * np.eye(2)

    def source(a, x):
        out = np.zeros(a.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 0.4 + 0.1 * np.sin(x[..., 0])
        out[..., 1, 0, 1] = 0.3
        out[..., 0, 1, 1] = 0.2 * np.cos(a[..., 1])
        return out

    def target(a, x):
        out = np.zeros(a.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 0.5
        out[..., 1, 1, 0] = 0.2 + 0.1 * np.cos(x[..., 1])
        out[..., 1, 0, 1] = 0.25 * np.sin(a[..., 0])
        return out

    pair = MetricPair.conformal(eye2, psi, sigma=sigma, tau=tau)
    P = ConnectionTensor(source=source, target=target, m=2, n=2)
    check_residual_against_fd_gradient(grid, vals, pair, P, identity_metric(grid),
                                       probes=10)


# ---------------------------------------------------------------------------
# closed-form residuals
# ---------------------------------------------------------------------------


def fiber_covector_setup(seed=31):
    grid = torus(13)
    vals = smooth_map(grid, 2, seed=seed)

    def A(a):
        return np.stack([1.0 + 0.2 * np.sin(a[..., 0]), 0.5 * np.cos(a[..., 1])], axis=-1)

    def sigma_a(a):
        return 0.15 * np.sin(a[..., 0] + a[..., 1])

    def tau(x, y):
        return 0.1 * np.cos(x[..., 0]) * np.sin(y[..., 0] + 0.3 * y[..., 1])

    def psi(x):
        u = 0.25 * np.sin(x[..., 1])
        return np.exp(2 * u)[..., None, None] * np.eye(2)

    return grid, vals, A, sigma_a, tau, psi


def test_fiber_covector_residual_matches_general():
    grid, vals, A, sigma_a, tau, psi = fiber_covector_setup()
    f = MapJet.from_values(grid, vals)
    phi = identity_metric(grid)
    special = el_residual_fiber_covector(f, sigma_a, tau, A, phi, psi)

    # same data through the general machinery
    def source(a, x):
        out = np.zeros(a.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 0] = 0.3 * np.sin(x[..., 0])  # free block, must not matter
        return out

    pair = MetricPair.conformal(eye2, psi, sigma=lambda a, b: sigma_a(a), tau=tau)
    P = ConnectionTensor.covector_fiber(A, m=2, n=2, source=source)
    general = el_residual(f, pair, P, phi)
    scale = np.max(np.abs(general.values))
    assert np.max(np.abs(special.values - general.values)) < 1e-8 * max(1.0, scale)


def test_fiber_covector_residual_matches_fd_gradient():
    grid, vals, A, sigma_a, tau, psi = fiber_covector_setup(seed=32)
    phi = identity_metric(grid)
    f = MapJet.from_values(grid, vals)
    pair = MetricPair.conformal(eye2, psi, sigma=lambda a, b: sigma_a(a), tau=tau)
    P = ConnectionTensor.covector_fiber(A, m=2, n=2)
    special = el_residual_fiber_covector(f, sigma_a, tau, A, phi, psi)
    check_residual_against_fd_gradient(grid, vals, pair, P, phi, residual=special,
                                       probes=8)


def test_fiber_covector_constant_tau_drops_first_term():
    grid = torus(13)
    vals = smooth_map(grid, 2, seed=33)
    f = MapJet.from_values(grid, vals)
    phi = identity_metric(grid)

    def A(a):
        return np.stack([np.ones_like(a[..., 0]), np.zeros_like(a[..., 0])], axis=-1)

    sigma_a = lambda a: 0.1 * np.cos(a[..., 1])
    tau_const = lambda x, y: np.full(x.shape[:-1], 0.2)
    psi = eye2
    res = el_residual_fiber_covector(f, sigma_a, tau_const, A, phi, psi)

    # with dtau/dy = 0 the jet partial is e^{2s+2t} phi^{ga} psi_ik f^k_g;
    # rebuild the residual from that reduced form directly
    from glharmonic.energy import assemble_residual
    from glharmonic.tensor_core import sqrt_det

    pts = grid.points()
    pref = np.exp(2 * sigma_a(pts) + 2 * 0.2)
    dLdjet = pref[..., None, None] * np.einsum("...ik,...kg->...ig", np.broadcast_to(np.eye(2), grid.shape + (2, 2)), f.jet)

    def h_of_x(xv):
        return np.exp(2 * 0.2) * np.broadcast_to(np.eye(2), xv.shape[:-1] + (2, 2)).copy()

    dh = central_partials(h_of_x, f.values)
    dLdf = 0.5 * np.einsum("...,...gm,...kli,...kg,...lm->...i",
                           np.exp(2 * sigma_a(pts)), np.broadcast_to(np.eye(2), grid.shape + (2, 2)), dh, f.jet, f.jet)
    expected = assemble_residual(grid, sqrt_det(phi).values, dLdf, dLdjet)
    assert np.max(np.abs(res.values - expected.values)) < 1e-10


def oneform_source_setup(seed=41):
    grid = torus(13)
    vals = smooth_map(grid, 2, seed=seed)

    def xi(x):
        return np.stack([1.0 + 0.2 * np.cos(x[..., 0]), 0.4 * np.sin(x[..., 1])], axis=-1)

    def sigma(a, b):
        return 0.1 * np.sin(a[..., 0]) * np.cos(0.7 * b[..., 0] + 0.3 * b[..., 1])

    def tau_x(x):
        return 0.2 * np.sin(x[..., 0] + x[..., 1])

    def psi(x):
        u = 0.2 * np.cos(x[..., 0])
        return np.exp(2 * u)[..., None, None] * np.eye(2)

    return grid, vals, xi, sigma, tau_x, psi


def test_oneform_source_residual_matches_general():
    grid, vals, xi, sigma, tau_x, psi = oneform_source_setup()
    f = MapJet.from_values(grid, vals)
    phi = identity_metric(grid)
    special = el_residual_oneform_source(f, sigma, tau_x, xi, phi, psi)

    def target(a, x):
        out = np.zeros(a.shape[:-1] + (2, 2, 2))
        out[..., 1, 0, 1] = 0.5 * np.cos(x[..., 1])  # free block, must not matter
        return out

    pair = MetricPair.conformal(eye2, psi, sigma=sigma, tau=lambda x, y: tau_x(x))
    P = ConnectionTensor.oneform_source(xi, m=2, n=2, target=target)
    general = el_residual(f, pair, P, phi)
    scale = np.max(np.abs(general.values))
    assert np.max(np.abs(special.values - general.values)) < 1e-8 * max(1.0, scale)


def test_oneform_source_residual_matches_fd_gradient():
    grid, vals, xi, sigma, tau_x, psi = oneform_source_setup(seed=42)
    phi = identity_metric(grid)
    f = MapJet.from_values(grid, vals)
    pair = MetricPair.conformal(eye2, psi, sigma=sigma, tau=lambda x, y: tau_x(x))
    P = ConnectionTensor.oneform_source(xi, m=2, n=2)
    special = el_residual_oneform_source(f, sigma, tau_x, xi, phi, psi)
    check_residual_against_fd_gradient(grid, vals, pair, P, phi, residual=special,
                                       probes=8)


def test_oneform_source_linear_map_constant_data_is_harmonic():
    grid = torus(13)
    pts = grid.points()
    M = np.array([[0.7, 0.1], [-0.2, 0.5]])
    vals = np.einsum("km,...m->...k", M, pts)
    f = MapJet.from_values(grid, vals, linear_jet=M)
    phi = identity_metric(grid)
    xi = lambda x: np.broadcast_to(np.array([1.0, 0.5]), x.shape[:-1] + (2,)).copy()
    sigma = lambda a, b: np.full(a.shape[:-1], 0.3)
    tau_x = lambda x: np.full(x.shape[:-1], -0.1)
    res = el_residual_oneform_source(f, sigma, tau_x, xi, phi, eye2)
    assert np.max(np.abs(res.values)) < 1e-9


def test_pfaff_jet_partial_matches_display_formula():
    # scalar target with unit one-form: dL/df_a must equal
    # e^{2s} { phi^{gm} phi^{ae} (ds/db^e) f_g f_m + phi^{ga} f_g }
    grid = torus(13)
    pts = grid.points()
    fvals = (0.4 * np.sin(pts[..., 0]) + 0.3 * np.cos(pts[..., 1]) + 2.0)[..., None]
    f = MapJet.from_values(grid, fvals)
    phi = identity_metric(grid)
    phi_inv = invert_metric(phi).values

    norm_A = 1.7

    def sigma(a, b):
        return np.log(norm_A) - np.log(np.abs(b[..., 0] + 0.5 * b[..., 1] + 3.0))

    xi = lambda x: np.ones(x.shape[:-1] + (1,))
    tau_x = lambda x: np.zeros(x.shape[:-1])

    from glharmonic.energy import density_partials

    pair = MetricPair.conformal(eye2, one1, sigma=sigma, tau=None)
    P = ConnectionTensor.oneform_source(xi, m=2, n=1)
    _, dLdjet = density_partials(f, pair, P, phi)

    b = np.einsum("...gb,...b->...g", phi_inv, f.jet[..., 0, :])
    h = 1e-7
    ds_db = np.stack([
        (sigma(pts, b + h * np.eye(2)[k]) - sigma(pts, b - h * np.eye(2)[k])) / (2 * h)
        for k in range(2)
    ], axis=-1)
    grad = f.jet[..., 0, :]
    ff = np.einsum("...gm,...g,...m->...", phi_inv, grad, grad)
    display = np.exp(2 * sigma(pts, b))[..., None] * (
        np.einsum("...ae,...e->...a", phi_inv, ds_db) * ff[..., None]
        + np.einsum("...ga,...g->...a", phi_inv, grad)
    )
    assert np.max(np.abs(dLdjet[..., 0, :] - display)) < 1e-6 * max(1.0, np.max(np.abs(display)))


# ---------------------------------------------------------------------------
# the matmul density path against the einsum path it replaced
# ---------------------------------------------------------------------------

def _einsum_density_values(a_pts, f_vals, jet_vals, pair, P, phi_inv, grid_dim):
    """Reference: the density by one einsum per contraction, with P
    evaluated at the given map values."""
    src = np.asarray(P.source(a_pts, f_vals), float)
    tgt = np.asarray(P.target(a_pts, f_vals), float)
    b = np.einsum("...ab,...ia,...gbi->...g", phi_inv, jet_vals, src)
    y = np.einsum("...ab,...ia,...kbi->...k", phi_inv, jet_vals, tgt)
    gmat = np.asarray(pair.g(a_pts, b), float)
    ginv = _inverse_with_guard(gmat, "source metric g(a, b)", grid_dim)
    hmat = np.asarray(pair.h(f_vals, y), float)
    return 0.5 * np.einsum("...gm,...kl,...kg,...lm->...", ginv, hmat, jet_vals, jet_vals)


def _spd(base, vec_a, vec_b):
    """(..., d, d) positive definite matrices I + M M^T with M linear in
    the trigonometric features of two point arrays."""
    feats = np.concatenate([np.sin(vec_a), np.cos(vec_b)], axis=-1)
    M = np.einsum("dek,...k->...de", base, feats)
    return np.eye(base.shape[0]) + M @ np.swapaxes(M, -1, -2)


def _random_problem(m, n, seed, nodes=5):
    """A map jet on an m-dimensional chart into n dimensions with a
    position-dependent, non-symmetric connection and direction-dependent
    metrics on both sides, all drawn from ``seed``."""
    r = np.random.default_rng(seed)
    grid = box_grid([(0.0, 1.0)] * m, [nodes] * m)
    values = r.normal(size=grid.shape + (n,))
    jet = r.normal(size=grid.shape + (n, m))
    f = MapJet(grid=grid, values=values, jet=jet)

    S0, S1 = r.normal(size=(2, m, m, n))
    T0, T1 = r.normal(size=(2, n, m, n))
    ca, cx = r.normal(size=m), r.normal(size=n)

    def wave(a, x):
        return np.sin(a @ ca + x @ cx)[..., None, None, None]

    P = ConnectionTensor(source=lambda a, x: S0 + S1 * wave(a, x),
                         target=lambda a, x: T0 + T1 * wave(a, x), m=m, n=n)
    gb = 0.3 * r.normal(size=(m, m, 2 * m))
    hb = 0.3 * r.normal(size=(n, n, 2 * n))
    pair = MetricPair.general(g=lambda a, b: _spd(gb, a, b), h=lambda x, y: _spd(hb, x, y))
    pb = 0.3 * r.normal(size=(m, m, 2 * m))
    phi = metric_field(grid, _spd(pb, grid.points(), 2.0 * grid.points()))
    return f, pair, P, phi


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_density_matches_einsum_reference(m, n, seed):
    f, pair, P, phi = _random_problem(m, n, seed)
    phi_inv = invert_metric(phi).values
    ref = _einsum_density_values(f.grid.points(), f.values, f.jet, pair, P, phi_inv, m)
    got = lagrangian_density(f, pair, P, phi).values
    # only the contraction order differs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2)])
def test_density_partials_evaluates_connection_2n_plus_1_times(m, n):
    f, pair, P, phi = _random_problem(m, n, seed=7)
    calls = {"source": 0, "target": 0}

    def counted(name, fn):
        def ev(a, x):
            calls[name] += 1
            return fn(a, x)
        return ev

    counted_P = ConnectionTensor(source=counted("source", P.source),
                                 target=counted("target", P.target), m=m, n=n)
    density_partials(f, pair, counted_P, phi)
    # 2n value perturbations, plus one unperturbed evaluation shared by
    # all 2nm jet perturbations
    assert calls == {"source": 2 * n + 1, "target": 2 * n + 1}


# ---------------------------------------------------------------------------
# the one map-side difference primitive against the loops it replaced
# ---------------------------------------------------------------------------

def _loop_density_partials(f, pair, P, phi, fd_step=DEFAULT_FD_STEP):
    """Reference: one perturbation loop over the map values and one over
    the jet entries, each with its own copy of the step rule."""
    grid = f.grid
    a_pts = grid.points()
    phi_inv = invert_metric(phi).values
    n, m = f.target_dim, grid.dim
    dLdf = np.empty(grid.shape + (n,))
    for i in range(n):
        h = fd_step * (1.0 + np.abs(f.values[..., i]))
        fp = f.values.copy()
        fp[..., i] += h
        fm = f.values.copy()
        fm[..., i] -= h
        Lp = _density_values(a_pts, fp, f.jet, pair, _connection_blocks(P, a_pts, fp),
                             phi_inv, grid.dim)
        Lm = _density_values(a_pts, fm, f.jet, pair, _connection_blocks(P, a_pts, fm),
                             phi_inv, grid.dim)
        dLdf[..., i] = (Lp - Lm) / (2.0 * h)
    blocks = _connection_blocks(P, a_pts, f.values)
    dLdjet = np.empty(grid.shape + (n, m))
    for i in range(n):
        for al in range(m):
            h = fd_step * (1.0 + np.abs(f.jet[..., i, al]))
            jp = f.jet.copy()
            jp[..., i, al] += h
            jm = f.jet.copy()
            jm[..., i, al] -= h
            Lp = _density_values(a_pts, f.values, jp, pair, blocks, phi_inv, grid.dim)
            Lm = _density_values(a_pts, f.values, jm, pair, blocks, phi_inv, grid.dim)
            dLdjet[..., i, al] = (Lp - Lm) / (2.0 * h)
    return dLdf, dLdjet


def _loop_partials_in_vector(fn, x_fixed, vec, rel_step=DEFAULT_FD_STEP):
    """Reference: central partials of fn(x_fixed, vec) in the per-node
    vector argument, with their own copy of the step rule."""
    d = vec.shape[-1]
    out = None
    for k in range(d):
        h = rel_step * (1.0 + np.abs(vec[..., k]))
        vp = vec.copy()
        vp[..., k] += h
        vm = vec.copy()
        vm[..., k] -= h
        num = np.asarray(fn(x_fixed, vp), float) - np.asarray(fn(x_fixed, vm), float)
        col = num / (2.0 * h).reshape(h.shape + (1,) * (num.ndim - h.ndim))
        if out is None:
            out = np.empty(col.shape + (d,))
        out[..., k] = col
    return out


_dims = st.sampled_from([1, 2, 3])


@settings(max_examples=30, deadline=None, database=None)
@given(m=_dims, n=_dims, seed=st.integers(0, 2**32 - 1),
       fd_step=st.sampled_from([DEFAULT_FD_STEP, 1e-4]))
def test_density_partials_match_perturbation_loops(m, n, seed, fd_step):
    f, pair, P, phi = _random_problem(m, n, seed)
    got = density_partials(f, pair, P, phi, fd_step)
    ref = _loop_density_partials(f, pair, P, phi, fd_step)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@settings(max_examples=30, deadline=None, database=None)
@given(m=_dims, n=_dims, seed=st.integers(0, 2**32 - 1))
def test_closed_form_residuals_match_vector_partial_loop(m, n, seed):
    # each closed form takes its direction partial from central_partials
    # unless an analytic one is passed: passing the reference loop's partial
    # must give the same residual bit for bit
    f, pair, P, phi = _random_problem(m, n, seed)

    def sigma(a, b):
        return 0.1 * np.log(pair.g(a, b)[..., 0, 0])

    def tau(x, y):
        return 0.1 * np.log(pair.h(x, y)[..., 0, 0])

    def psi(x):
        return pair.h(x, 0.5 * x)

    A = lambda a: 1.0 + 0.3 * np.sin(a)
    sigma_a = lambda a: 0.1 * np.sin(a.sum(axis=-1))
    got = el_residual_fiber_covector(f, sigma_a, tau, A, phi, psi)
    ref = el_residual_fiber_covector(
        f, sigma_a, tau, A, phi, psi,
        tau_dy=lambda x, y: _loop_partials_in_vector(tau, x, y))
    assert np.array_equal(got.values, ref.values)

    xi = lambda x: 1.0 + 0.3 * np.cos(x)
    tau_x = lambda x: 0.1 * np.sin(x.sum(axis=-1))
    got = el_residual_oneform_source(f, sigma, tau_x, xi, phi, psi)
    ref = el_residual_oneform_source(
        f, sigma, tau_x, xi, phi, psi,
        sigma_db=lambda a, b: _loop_partials_in_vector(sigma, a, b))
    assert np.array_equal(got.values, ref.values)


def test_central_partials_calls_fn_twice_per_coordinate():
    calls = []

    def fn(pts):
        calls.append(1)
        return np.stack([pts[..., 0] * pts[..., 1], np.sin(pts[..., 2])], axis=-1)

    pts = np.random.default_rng(3).normal(size=(4, 5, 3))
    d = central_partials(fn, pts)
    assert len(calls) == 2 * 3
    assert d.shape == (4, 5, 2, 3)
    assert np.allclose(d[..., 0, 0], pts[..., 1], atol=1e-8)
    assert np.allclose(d[..., 1, 2], np.cos(pts[..., 2]), atol=1e-8)
