from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic.energy import (
    DEFAULT_FD_STEP,
    ConnectionTensor,
    DensityEvaluation,
    MapJet,
    MetricPair,
    _connection_blocks,
    _first_stage,
    _scaled,
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
    MetricField,
    TensorField,
    box_grid,
    identity_metric,
    interval_grid,
    invert_metric,
    quadrature,
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


def general_of(pair):
    """The general pair of a conformal pair's ingredients: g = e^{-2 sigma}
    phi and h = e^{2 tau} psi, the values the first stage forms from them."""
    def g(a, b):
        return _scaled(pair.phi(a), None if pair.sigma is None else pair.sigma(a, b), -2.0)[0]

    def h(x, y):
        return _scaled(pair.psi(x), None if pair.tau is None else pair.tau(x, y), 2.0)[0]

    return MetricPair(g=g, h=h)


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

    phi_inv = invert_metric(MetricField(grid, phi_vals)).values
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
    assert E == pytest.approx(quadrature(TensorField(grid, direct)), rel=1e-12)


def _patched_source_metric(node_matrix):
    """A general pair whose g(a, b) is the identity but at node (3, 4) of a
    9^2 chart, where it is ``node_matrix``, and a map jet on that chart."""
    grid = torus(9)
    f = MapJet.from_values(grid, smooth_map(grid, 2, seed=5))

    def g_patched(a, b):
        out = np.broadcast_to(np.eye(2), a.shape[:-1] + (2, 2)).copy()
        out[3, 4] = node_matrix
        return out

    return f, MetricPair(g=g_patched, h=lambda x, y: eye2(x))


def _raises_at_node_3_4(node_matrix, message):
    from glharmonic.errors import SingularMetricError

    f, pair = _patched_source_metric(node_matrix)
    with pytest.raises(SingularMetricError) as err:
        lagrangian_density(f, pair, ConnectionTensor.zero(2, 2), identity_metric(f.grid))
    assert err.value.node == (3, 4)
    assert str(err.value) == f"source metric g(a, b): {message}"


def test_singular_source_metric_names_node():
    # g(a, b) is inverted as phi and gamma are, by invert_metric
    _raises_at_node_3_4([[1.0, 1.0], [1.0, 1.0]],
                        "metric condition number inf exceeds bound at node (3, 4)")


@pytest.mark.parametrize("node_matrix, message", [
    ([[np.nan, 0.0], [0.0, 1.0]], "metric is not finite at node (3, 4)"),
    ([[1.0, 0.0], [0.0, 1e-13]], "metric condition number 1.000e+13 exceeds bound at node (3, 4)"),
], ids=["nan", "cond-1e13"])
def test_unusable_source_metric_names_node(node_matrix, message):
    # a NaN node is not finite, and a condition number over COND_BOUND
    # fails as it does for phi
    _raises_at_node_3_4(node_matrix, message)


def test_asymmetric_source_metric_is_rejected():
    f, pair = _patched_source_metric([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="metric is not symmetric"):
        lagrangian_density(f, pair, ConnectionTensor.zero(2, 2), identity_metric(f.grid))


def test_a_conformal_pair_is_its_ingredients():
    # no g or h is stored beside phi, psi, sigma and tau, so a replaced
    # ingredient leaves no stale metric behind
    pair = MetricPair.conformal(eye2, eye2, sigma=lambda a, b: 0.1 * b[..., 0],
                                tau=lambda x, y: 0.2 * y[..., 1])
    assert pair.g is None and pair.h is None
    grid = torus(9)
    f = MapJet.from_values(grid, smooth_map(grid, 2, seed=6))
    P, phi = ConnectionTensor.constant(np.ones((2, 2, 2)), np.ones((2, 2, 2))), identity_metric(grid)
    changed = replace(pair, sigma=lambda a, b: -0.3 * b[..., 1])
    assert changed.g is None and changed.h is None
    assert np.array_equal(lagrangian_density(f, changed, P, phi).values,
                          lagrangian_density(f, general_of(changed), P, phi).values)


@pytest.mark.parametrize("fields", [
    {}, {"g": eye2}, {"h": eye2}, {"psi": eye2}, {"phi": eye2},
    {"phi": eye2, "psi": eye2, "g": eye2}, {"phi": eye2, "psi": eye2, "h": eye2},
], ids=["nothing", "g-only", "h-only", "psi-only", "phi-only", "conformal-with-g",
        "conformal-with-h"])
def test_an_incomplete_pair_is_rejected_at_construction(fields):
    # a pair is general (g and h) or conformal (phi and psi, no g or h)
    with pytest.raises(TypeError, match="a MetricPair carries g and h, or phi and psi"):
        MetricPair(**fields)


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

def _einsum_density_values(a_pts, f_vals, jet_vals, pair, P, phi_inv):
    """Reference: the density by one einsum per contraction, with P
    evaluated at the given map values."""
    src = np.asarray(P.source(a_pts, f_vals), float)
    tgt = np.asarray(P.target(a_pts, f_vals), float)
    b = np.einsum("...ab,...ia,...gbi->...g", phi_inv, jet_vals, src)
    y = np.einsum("...ab,...ia,...kbi->...k", phi_inv, jet_vals, tgt)
    gmat = np.asarray(pair.g(a_pts, b), float)
    ginv = np.linalg.inv(gmat)
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
    pair = MetricPair(g=lambda a, b: _spd(gb, a, b), h=lambda x, y: _spd(hb, x, y))
    pb = 0.3 * r.normal(size=(m, m, 2 * m))
    phi = MetricField(grid, _spd(pb, grid.points(), 2.0 * grid.points()))
    return f, pair, P, phi


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_density_matches_einsum_reference(m, n, seed):
    f, pair, P, phi = _random_problem(m, n, seed)
    phi_inv = invert_metric(phi).values
    ref = _einsum_density_values(f.grid.points(), f.values, f.jet, pair, P, phi_inv)
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


def _counted_conformal_pair(m, n, calls, sigma=True, tau=True, seed=12):
    """A conformal pair with direction-dependent log factors whose four
    ingredients count their calls in ``calls``; its phi is not the sampled
    phi of ``_random_problem``."""
    r = np.random.default_rng(seed)
    pb, hb = 0.3 * r.normal(size=(m, m, 2 * m)), 0.3 * r.normal(size=(n, n, 2 * n))
    cb, cy = r.normal(size=m), r.normal(size=n)

    def counted(name, fn):
        def ev(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return ev

    return MetricPair.conformal(
        counted("phi", lambda a: _spd(pb, a, 2.0 * a)),
        counted("psi", lambda x: _spd(hb, x, 0.5 * x)),
        sigma=counted("sigma", lambda a, b: 0.1 * np.sin(a.sum(-1) + b @ cb)) if sigma else None,
        tau=counted("tau", lambda x, y: 0.1 * np.cos(x.sum(-1) - y @ cy)) if tau else None)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_density_partials_evaluates_phi_once_and_psi_2n_plus_1_times(m, n):
    f, _, P, phi = _random_problem(m, n, seed=11)
    calls = {}
    pair = _counted_conformal_pair(m, n, calls)
    got = density_partials(f, pair, P, phi)
    # phi depends on a only; psi once per value perturbation, plus one
    # evaluation shared by all jet partials
    assert (calls["phi"], calls["psi"]) == (1, 2 * n + 1)
    ref = _loop_density_partials(f, pair, P, phi)
    # a conformal pair takes both partials by the chain rule; the
    # difference path stays pinned through the same metrics as a general pair
    for k in (0, 1):
        scale = np.max(np.abs(ref[k]))
        assert np.max(np.abs(got[k] - ref[k])) <= 1e-8 * max(1.0, scale)
    general = general_of(pair)
    for got_k, ref_k in zip(density_partials(f, general, P, phi),
                            _loop_density_partials(f, general, P, phi)):
        assert np.array_equal(got_k, ref_k)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_conformal_density_partials_evaluate_sigma_and_tau_once_per_direction_step(m, n):
    f, _, P, phi = _random_problem(m, n, seed=13)
    calls = {}
    density_partials(f, _counted_conformal_pair(m, n, calls), P, phi)
    # sigma: one evaluation at b and the central partials in b (2m calls);
    # tau: one evaluation at y, the central partials in y (2n calls) and
    # tau at fixed y in the 2n value perturbations
    assert (calls["sigma"], calls["tau"]) == (2 * m + 1, 4 * n + 1)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_conformal_density_partials_evaluate_x_free_blocks_once(m, n):
    f, _, _, phi = _random_problem(m, n, seed=17)
    r = np.random.default_rng(5)
    S0, S1 = r.normal(size=(2, m, m, n))
    calls = {"A": 0, "source": 0}

    def A(a):
        calls["A"] += 1
        return 1.0 + 0.3 * np.sin(a)

    def source(a, x):
        calls["source"] += 1
        return S0 + S1 * np.sin(x.sum(-1))[..., None, None, None]

    pair = _counted_conformal_pair(m, n, {})
    density_partials(f, pair, ConnectionTensor.covector_fiber(A, source=source), phi)
    # the covector-fiber target does not depend on x; the given source does
    assert calls == {"A": 1, "source": 2 * n + 1}


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1), sigma=st.booleans(), tau=st.booleans())
def test_conformal_jet_partials_match_general_difference_path(m, n, seed, sigma, tau):
    # P depends on the map values, and the pair's phi is not the sampled
    # phi that raises the jet into b and y: g^{-1} and phi^{-1} differ
    f, _, P, phi = _random_problem(m, n, seed)
    pair = _counted_conformal_pair(m, n, {}, sigma, tau, seed=seed + 1)
    got = density_partials(f, pair, P, phi)
    ref = density_partials(f, general_of(pair), P, phi)
    for k in (0, 1):
        scale = np.max(np.abs(ref[k]))
        assert np.max(np.abs(got[k] - ref[k])) <= 1e-8 * max(1.0, scale)


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
        Lp = _first_stage(a_pts, fp, f.jet, pair, _connection_blocks(P, a_pts, fp),
                          phi_inv, grid).density
        Lm = _first_stage(a_pts, fm, f.jet, pair, _connection_blocks(P, a_pts, fm),
                          phi_inv, grid).density
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
            Lp = _first_stage(a_pts, f.values, jp, pair, blocks, phi_inv, grid).density
            Lm = _first_stage(a_pts, f.values, jm, pair, blocks, phi_inv, grid).density
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


def _conformal_data(pair):
    """Log factors and metrics for the closed forms, built from a random
    problem's direction-dependent pair."""
    def sigma(a, b):
        return 0.1 * np.log(pair.g(a, b)[..., 0, 0])

    def tau(x, y):
        return 0.1 * np.log(pair.h(x, y)[..., 0, 0])

    def psi(x):
        return pair.h(x, 0.5 * x)

    return sigma, tau, psi


@settings(max_examples=30, deadline=None, database=None)
@given(m=_dims, n=_dims, seed=st.integers(0, 2**32 - 1))
def test_central_partials_in_a_direction_match_vector_partial_loop(m, n, seed):
    # the closed forms take dtau/dy and dsigma/db from central_partials of a
    # vector argument at a fixed position: the same bits as a loop with its
    # own copy of the step rule
    f, pair, P, phi = _random_problem(m, n, seed)
    sigma, tau, _ = _conformal_data(pair)
    b, y = induced_arguments(f, P, invert_metric(phi).values)
    a_pts = f.grid.points()
    assert np.array_equal(central_partials(lambda v: tau(f.values, v), y),
                          _loop_partials_in_vector(tau, f.values, y))
    assert np.array_equal(central_partials(lambda v: sigma(a_pts, v), b),
                          _loop_partials_in_vector(sigma, a_pts, b))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_form_residuals_match_general_in_every_dimension(m, n):
    # non-square jets and a random SPD phi catch orientation and raising
    # slips in u and v: a u without phi^{-1} passes the phi = 1 fixtures
    for seed in range(5):
        f, pair, _, phi = _random_problem(m, n, seed)
        sigma, tau, psi = _conformal_data(pair)
        phi_eval = lambda a: phi.values
        A = lambda a: 1.0 + 0.3 * np.sin(a)
        sigma_a = lambda a: 0.1 * np.sin(a.sum(axis=-1))
        xi = lambda x: 1.0 + 0.3 * np.cos(x)
        tau_x = lambda x: 0.1 * np.sin(x.sum(axis=-1))
        cases = [
            (el_residual_fiber_covector(f, sigma_a, tau, A, phi, psi),
             MetricPair.conformal(phi_eval, psi, sigma=lambda a, b: sigma_a(a), tau=tau),
             ConnectionTensor.covector_fiber(A, m=m, n=n)),
            (el_residual_oneform_source(f, sigma, tau_x, xi, phi, psi),
             MetricPair.conformal(phi_eval, psi, sigma=sigma, tau=lambda x, y: tau_x(x)),
             ConnectionTensor.oneform_source(xi, m=m, n=n)),
        ]
        for special, conformal_pair, P in cases:
            # the difference path of the same g and h: an independent implementation
            general_pair = general_of(conformal_pair)
            general = el_residual(f, general_pair, P, phi).values
            scale = np.max(np.abs(general))
            assert np.max(np.abs(special.values - general)) < 1e-8 * max(1.0, scale)


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


# ---------------------------------------------------------------------------
# the energy-gradient identity on random coupled conformal pairs
# ---------------------------------------------------------------------------


def _spd_dx(base, x):
    """The x-partials of ``_spd(base, x, 0.5 * x)``, (..., d, d, n) with
    the derivative axis last."""
    n = x.shape[-1]
    feats = np.concatenate([np.sin(x), np.cos(0.5 * x)], axis=-1)
    M = np.einsum("dek,...k->...de", base, feats)
    eye = np.eye(n)
    dfeats = np.concatenate([np.cos(x)[..., :, None] * eye,
                             -0.5 * np.sin(0.5 * x)[..., :, None] * eye], axis=-2)
    dM = np.einsum("dek,...kj->...dej", base, dfeats)
    return np.einsum("...dfj,...ef->...dej", dM, M) + np.einsum("...df,...efj->...dej", M, dM)


def _coupled_conformal_problem(m, n, seed, connection, hooks, free_block):
    """A smooth map on an m-torus (every node interior) into n dimensions,
    a conformal pair with b-dependent sigma and y-dependent tau, and a
    generic, covector-fiber or one-form-source connection, whose free
    block is either the default zero or a block given by the caller.
    ``hooks`` is "none", "tau_dy" (the exact dtau/dy only) or "all" (every
    exact partial the chain rule takes, on the pair and on P).  Every block
    depends on x except a target block under "all", which depends on a
    only: an x-dependent target has no exact hook."""
    r = np.random.default_rng(seed)
    grid = box_grid([(0.0, 2 * np.pi)] * m, [7] * m, periodic=True)
    pts = grid.points()
    vals = r.normal(size=n) + np.sin(pts @ r.normal(size=(m, n)) + r.uniform(0, 6, size=n))
    phi = MetricField(grid, _spd(0.3 * r.normal(size=(m, m, 2 * m)), pts, 2.0 * pts))
    gb, hb = 0.3 * r.normal(size=(m, m, 2 * m)), 0.3 * r.normal(size=(n, n, 2 * n))
    ca, cb, cx, cy = r.normal(size=m), r.normal(size=m), r.normal(size=n), r.normal(size=n)

    def sigma(a, b):
        return 0.3 * np.sin(a @ ca + b @ cb)

    def tau(x, y):
        return 0.3 * np.cos(x @ cx - y @ cy)

    exact = {
        "tau_dy": lambda x, y: 0.3 * np.sin(x @ cx - y @ cy)[..., None] * cy,
        "sigma_db": lambda a, b: 0.3 * np.cos(a @ ca + b @ cb)[..., None] * cb,
        "tau_dx": lambda x, y: -0.3 * np.sin(x @ cx - y @ cy)[..., None] * cx,
        "psi_dx": lambda x: _spd_dx(hb, x),
    }
    given = {"none": [], "tau_dy": ["tau_dy"], "all": list(exact)}[hooks]
    pair = MetricPair.conformal(lambda a: _spd(gb, a, 2.0 * a), lambda x: _spd(hb, x, 0.5 * x),
                                sigma=sigma, tau=tau, **{k: exact[k] for k in given})

    S0, S1 = 0.5 * r.normal(size=(2, m, m, n))
    T0, T1 = 0.5 * r.normal(size=(2, n, m, n))
    ka, kx = r.normal(size=m), r.normal(size=n)

    def wave(a, x):
        return np.sin(a @ ka + x @ kx)[..., None, None, None]

    def wave_dx(a, x):
        return np.cos(a @ ka + x @ kx)[..., None, None, None, None] * kx

    def source(a, x):
        return S0 + S1 * wave(a, x)

    def target(a, x):
        if hooks == "all":
            return T0 + T1 * wave(a, np.zeros_like(x))
        return T0 + T1 * wave(a, x)

    block_dx = {}
    if hooks == "all":
        block_dx = {"source_dx": lambda a, x: S1[..., None] * wave_dx(a, x),
                    "target_depends_on_x": False}
    given_block = {}
    if connection == "generic":
        P = ConnectionTensor(source=source, target=target, m=m, n=n, **block_dx)
    elif connection == "covector_fiber":
        if free_block:
            given_block = {"source": source}
        P = ConnectionTensor.covector_fiber(lambda a: 1.0 + 0.3 * np.sin(a + ka), m=m, n=n,
                                            **given_block)
        if free_block and hooks == "all":
            P = replace(P, source_dx=block_dx["source_dx"])
    else:
        if free_block:
            given_block = {"target": target}
        xi_dx = None
        if hooks == "all":
            def xi_dx(x):
                return -0.3 * np.sin(x + kx)[..., :, None] * np.eye(n)
        P = ConnectionTensor.oneform_source(lambda x: 1.0 + 0.3 * np.cos(x + kx), m=m, n=n,
                                            xi_dx=xi_dx, **given_block)
        if free_block and hooks == "all":
            P = replace(P, target_depends_on_x=False)
    return grid, vals, pair, P, phi


_connections = st.sampled_from(["generic", "covector_fiber", "oneform_source"])


@settings(max_examples=40, deadline=None, database=None)
@given(m=_dims, n=_dims, seed=st.integers(0, 2**32 - 1), connection=_connections,
       hooks=st.sampled_from(["none", "tau_dy", "all"]), free_block=st.booleans())
def test_residual_is_the_discrete_energy_gradient_for_coupled_conformal_pairs(
        m, n, seed, connection, hooks, free_block):
    grid, vals, pair, P, phi = _coupled_conformal_problem(m, n, seed, connection,
                                                          hooks, free_block)
    residual = el_residual(MapJet.from_values(grid, vals), pair, P, phi).values
    weight = grid.quadrature_weights()
    scale = np.max(np.abs(weight[..., None] * residual))
    r = np.random.default_rng(seed)
    for _ in range(4):
        node = tuple(int(r.integers(0, s)) for s in grid.shape)
        i = int(r.integers(0, n))
        grad = fd_energy_gradient(grid, vals, pair, P, phi, node, i)
        pred = weight[node] * residual[node + (i,)]
        assert abs(grad - pred) <= 1e-6 * max(abs(grad), scale), (node, i, grad, pred)


def _counting(pair, P, calls):
    """The pair and P with sigma, tau, psi and P's blocks counting their
    calls in ``calls``."""
    def counted(name, fn):
        def ev(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return ev

    pair = replace(pair, sigma=counted("sigma", pair.sigma), tau=counted("tau", pair.tau),
                   psi=counted("psi", pair.psi))
    return pair, replace(P, source=counted("source", P.source), target=counted("target", P.target))


@settings(max_examples=40, deadline=None, database=None)
@given(m=_dims, n=_dims, seed=st.integers(0, 2**32 - 1), connection=_connections,
       free_block=st.booleans())
def test_exact_partials_match_the_difference_path(m, n, seed, connection, free_block):
    grid, vals, pair, P, phi = _coupled_conformal_problem(m, n, seed, connection, "all",
                                                          free_block)
    f = MapJet.from_values(grid, vals)
    calls = {}
    got = density_partials(f, *_counting(pair, P, calls), phi)
    # every partial is exact: sigma, tau, psi and each block once, at the map
    assert calls == {"sigma": 1, "tau": 1, "psi": 1, "source": 1, "target": 1}
    bare = replace(pair, sigma_db=None, tau_dy=None, tau_dx=None, psi_dx=None)
    want = density_partials(f, bare, replace(P, source_dx=None), phi)
    for k in (0, 1):
        scale = np.max(np.abs(want[k]))
        assert np.max(np.abs(got[k] - want[k])) <= 1e-8 * max(1.0, scale)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3)])
def test_an_x_dependent_target_block_takes_the_difference_path(m, n):
    # a target block has no exact hook: every pair hook given, an
    # x-dependent target is still differenced in x (2n calls) besides its
    # evaluation at the map
    grid, vals, pair, P, phi = _coupled_conformal_problem(m, n, 5, "generic", "all", False)
    x_free = P.target

    def target(a, x):
        return x_free(a, x) * (1.0 + 0.1 * np.sin(x.sum(-1)))[..., None, None, None]

    P = replace(P, target=target, target_depends_on_x=True)
    calls = {}
    density_partials(MapJet.from_values(grid, vals), *_counting(pair, P, calls), phi)
    assert calls["target"] == 2 * n + 1


_HOOKS = ("sigma_db", "tau_dy", "tau_dx", "psi_dx", "source_dx")


@settings(max_examples=40, deadline=None, database=None)
@given(m=_dims, n=_dims, seed=st.integers(0, 2**32 - 1), connection=_connections,
       free_block=st.booleans(), hooks=st.sets(st.sampled_from(_HOOKS)))
def test_each_given_hook_is_used_and_each_missing_one_differenced(
        m, n, seed, connection, free_block, hooks):
    # any subset of the hooks: each missing partial is the central difference
    # of its own ingredient, and every hook given replaces its difference
    grid, vals, pair, P, phi = _coupled_conformal_problem(m, n, seed, connection, "all",
                                                          free_block)
    f = MapJet.from_values(grid, vals)
    want = density_partials(f, pair, P, phi)
    dropped = {k: None for k in _HOOKS[:4] if k not in hooks}
    some_P = P if "source_dx" in hooks else replace(P, source_dx=None)
    calls = {}
    got = density_partials(f, *_counting(replace(pair, **dropped), some_P, calls), phi)
    for k in (0, 1):
        scale = np.max(np.abs(want[k]))
        assert np.max(np.abs(got[k] - want[k])) <= 1e-8 * max(1.0, scale)
    missing = {k: k not in hooks for k in _HOOKS}
    assert calls == {
        "sigma": 1 + 2 * m * missing["sigma_db"],
        "tau": 1 + 2 * n * (missing["tau_dy"] + missing["tau_dx"]),
        "psi": 1 + 2 * n * missing["psi_dx"],
        "source": 1 + 2 * n * (P.source_depends_on_x and missing["source_dx"]),
        "target": 1,
    }


def test_an_evaluation_of_other_arguments_is_rejected():
    f, pair, P, phi = _random_problem(2, 2, seed=3)
    ev = DensityEvaluation(f, pair, P, phi)
    assert np.array_equal(lagrangian_density(f, pair, P, phi, ev).values,
                          lagrangian_density(f, pair, P, phi).values)
    other = MetricPair(g=pair.g, h=pair.h)
    copy = MapJet(f.grid, f.values.copy(), f.jet.copy())
    for call in (lambda: lagrangian_density(f, other, P, phi, ev),
                 lambda: lagrangian_density(copy, pair, P, phi, ev),
                 lambda: density_partials(f, other, P, phi, evaluation=ev),
                 lambda: el_residual(f, pair, replace(P), phi, evaluation=ev)):
        with pytest.raises(ValueError, match="evaluation is of another"):
            call()


@pytest.mark.parametrize("factor", [None, "sigma", "tau"])
def test_a_conformal_pair_evaluates_only_the_blocks_its_factors_read(factor):
    # sigma reads b, the source block's argument, and tau reads y, the
    # target block's: a block that no factor reads raising gives the
    # density and residual of the zero block there, byte for byte
    grid = torus(9)
    f = MapJet.from_values(grid, smooth_map(grid, 2, seed=7))
    phi = identity_metric(grid)

    def psi(x):
        return (1.0 + 0.1 * x[..., :1, None] ** 2) * np.eye(2) + 0.05 * np.sin(x[..., 1:, None])

    def log_factor(p, arg):
        return 0.1 * np.sin(p[..., 0]) * np.cos(arg[..., 0] + 0.5 * arg[..., 1])

    def read(a, x):
        out = np.zeros(a.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 0.4 + 0.1 * np.sin(x[..., 0])
        out[..., 1, 0, 1] = 0.3 * np.cos(a[..., 1])
        return out

    def unread(a, x):
        raise AssertionError("an unread block is evaluated")

    def connection(other):
        return ConnectionTensor(source=read if factor == "sigma" else other,
                                target=read if factor == "tau" else other, m=2, n=2)

    pair = MetricPair.conformal(lambda a: phi.values, psi,
                                **({} if factor is None else {factor: log_factor}))
    raising = connection(unread)
    zero = connection(lambda a, x: np.zeros(a.shape[:-1] + (2, 2, 2)))
    for fn in (lagrangian_density, el_residual):
        got, ref = fn(f, pair, raising, phi).values, fn(f, pair, zero, phi).values
        assert got.tobytes() == ref.tobytes()
    stage = DensityEvaluation(f, pair, raising, phi).stage
    assert (stage.b is None) == (factor != "sigma") and (stage.y is None) == (factor != "tau")
