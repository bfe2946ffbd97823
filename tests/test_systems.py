import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glharmonic import systems
from glharmonic.energy import (
    MapJet,
    central_partials,
    constant_metric,
    el_residual_fiber_covector,
    energy,
)
from glharmonic.errors import (
    AdmissibilityError,
    SingularDirectionError,
    SingularMetricError,
    StepLimitError,
)
from glharmonic.scenarios import (
    covector_evaluator,
    gradient_evaluator,
    metric_evaluator,
    metric_gradient_evaluator,
)
from glharmonic.systems import (
    FirstOrderSystem,
    SampledCurve,
    certify_minimizer,
    group_system_lagrangian,
    half_volume,
    integrate_orbit,
    level_set_geodesic_defect,
    orbit_geodesic_residual,
    orbit_metric,
    pfaff_metric,
    pseudolinear_scenario,
    quotient_functional,
    rk4_substeps,
    section_scalar_product,
)
from glharmonic.tensor_core import (
    box_grid,
    identity_metric,
    interior_mask,
    interval_grid,
)

rng = np.random.default_rng(2718)

eye2 = constant_metric(np.eye(2))
one1 = constant_metric(np.eye(1))


def rotation_field(x):
    return np.stack([-x[..., 1], x[..., 0]], axis=-1)


# ---------------------------------------------------------------------------
# the factorized form T = sum_r xi_r (x) A^r
# ---------------------------------------------------------------------------


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_single_generator_systems_are_their_one_term():
    # one generator gives the term itself (no 0 + term), so -0.0 stays -0.0
    xi = lambda x: -x
    A = lambda a: a * np.array([1.0, -0.0])
    a2 = np.array([[0.2, 0.0], [-0.5, 1.5]])
    a1, x1 = a2[:, :1], np.array([[0.0], [-3.0]])
    x2 = np.array([[0.0, 1.5], [2.0, -0.25]])
    assert _same_bits(FirstOrderSystem.orbit(xi).T(a1, x2), xi(x2)[..., None])
    assert _same_bits(FirstOrderSystem.pfaff(A).T(a2, x1), A(a2)[..., None, :])
    assert _same_bits(FirstOrderSystem.pseudolinear(xi, A).T(a2, x2),
                      xi(x2)[..., :, None] * A(a2)[..., None, :])
    two = FirstOrderSystem.group([(xi, A), (rotation_field, A)]).T(a2, x2)
    outer = lambda u, v: u[..., :, None] * v[..., None, :]
    assert _same_bits(two, outer(xi(x2), A(a2)) + outer(rotation_field(x2), A(a2)))


def test_single_generator_properties():
    xi, A = rotation_field, (lambda a: a)
    pl = FirstOrderSystem.pseudolinear(xi, A)
    assert pl.generators == ((xi, A),) and pl.xi is xi and pl.A is A
    assert FirstOrderSystem.orbit(xi).xi is xi
    assert FirstOrderSystem.pfaff(A).A is A
    for system in (FirstOrderSystem.group([(xi, A)] * 2), FirstOrderSystem(T=None)):
        with pytest.raises(ValueError, match="values to unpack"):
            system.xi


# ---------------------------------------------------------------------------
# scalar product and Cauchy-Schwarz
# ---------------------------------------------------------------------------


def test_scalar_product_positivity_and_zero():
    shape = (40,)
    phi_inv = np.broadcast_to(np.eye(2), shape + (2, 2))
    psi = np.broadcast_to(np.eye(3), shape + (3, 3))
    T = rng.normal(size=shape + (3, 2))
    assert np.all(section_scalar_product(T, T, phi_inv, psi) >= 0)
    Z = np.zeros_like(T)
    assert np.allclose(section_scalar_product(T, Z, phi_inv, psi), 0.0)


def test_cauchy_schwarz_squared_and_equality_case():
    # squared inequality holds nodewise for random pairs; proportional
    # pairs achieve equality
    shape = (1000,)
    a = rng.normal(size=shape + (2, 2))
    phi_inv = np.einsum("...ij,...kj->...ik", a, a) + 2 * np.eye(2)
    c = rng.normal(size=shape + (3, 3))
    psi = np.einsum("...ij,...kj->...ik", c, c) + 2 * np.eye(3)
    T = rng.normal(size=shape + (3, 2))
    S = rng.normal(size=shape + (3, 2))
    ts = section_scalar_product(T, S, phi_inv, psi)
    tt = section_scalar_product(T, T, phi_inv, psi)
    ss = section_scalar_product(S, S, phi_inv, psi)
    assert np.all(ts**2 <= tt * ss * (1 + 1e-12))
    # equality iff S is a scalar multiple of T
    K = rng.normal(size=shape)
    S_prop = K[..., None, None] * T
    ts_p = section_scalar_product(T, S_prop, phi_inv, psi)
    ss_p = section_scalar_product(S_prop, S_prop, phi_inv, psi)
    assert np.max(np.abs(ts_p**2 - tt * ss_p)) < 1e-10 * np.max(tt * ss_p)


# ---------------------------------------------------------------------------
# quotient functional
# ---------------------------------------------------------------------------


def exact_pfaff_map(grid):
    pts = grid.points()
    fvals = (pts[..., 0] + 2.0 * pts[..., 1]
             + 0.3 * np.sin(pts[..., 0]) * np.cos(pts[..., 1]))[..., None]

    def A(a):
        return np.stack([1.0 + 0.3 * np.cos(a[..., 0]) * np.cos(a[..., 1]),
                         2.0 - 0.3 * np.sin(a[..., 0]) * np.sin(a[..., 1])], axis=-1)

    return fvals, A


def test_exact_solution_attains_half_volume():
    grid = box_grid([(0, 1), (0, 1)], [65, 65])
    fvals, A = exact_pfaff_map(grid)
    f = MapJet.from_values(grid, fvals)
    system = FirstOrderSystem.pfaff(A)
    phi = identity_metric(grid)
    value = quotient_functional(f, system, phi, one1)
    assert abs(value - half_volume(phi)) < 1e-6


def test_lower_bound_on_random_admissible_maps():
    grid = box_grid([(0, 1), (0, 1)], [33, 33])
    phi = identity_metric(grid)
    hv = half_volume(phi)
    system = FirstOrderSystem.pfaff(
        lambda a: np.stack([np.ones_like(a[..., 0]), 0.5 * np.ones_like(a[..., 0])], axis=-1))
    pts = grid.points()
    for trial in range(50):
        r = np.random.default_rng(trial)
        fvals = (pts[..., 0] + 0.5 * pts[..., 1]).copy()
        for _ in range(3):
            k1, k2 = r.integers(1, 3, size=2)
            fvals += 0.05 * r.normal() * np.sin(np.pi * k1 * pts[..., 0]) \
                * np.cos(np.pi * k2 * pts[..., 1])
        f = MapJet.from_values(grid, fvals[..., None])
        value = quotient_functional(f, system, phi, one1)
        assert value >= hv - 1e-9


def test_proportional_solution_attains_half_volume_exactly():
    # df = K T with constant K: the quotient is scale-free
    grid = box_grid([(0, 1), (0, 1)], [33, 33])
    pts = grid.points()
    f = MapJet.from_values(grid, (2.0 * (pts[..., 0] + 2.0 * pts[..., 1]))[..., None])
    system = FirstOrderSystem.pfaff(
        lambda a: np.stack([np.ones_like(a[..., 0]), 2.0 * np.ones_like(a[..., 0])], axis=-1))
    phi = identity_metric(grid)
    value = quotient_functional(f, system, phi, one1)
    assert value == pytest.approx(half_volume(phi), abs=1e-12)


def test_vanishing_pairing_raises_with_nodes():
    grid = box_grid([(0, 1), (0, 1)], [9, 9])
    pts = grid.points()
    # df orthogonal to T everywhere: f depends on a2 only, A points along a1
    f = MapJet.from_values(grid, pts[..., 1:2].copy())
    system = FirstOrderSystem.pfaff(
        lambda a: np.stack([np.ones_like(a[..., 0]), np.zeros_like(a[..., 0])], axis=-1))
    with pytest.raises(AdmissibilityError) as err:
        quotient_functional(f, system, identity_metric(grid), one1)
    assert len(err.value.nodes) > 0


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_straight_orbit_of_constant_field():
    xi = lambda x: np.broadcast_to(np.array([0.8, 0.6]), x.shape[:-1] + (2,)).copy() \
        if x.ndim > 1 else np.array([0.8, 0.6])
    curve = integrate_orbit(xi, [0.0, 0.0], 0.0, 1.0, nodes=101)
    f = curve.as_map()
    cert = certify_minimizer(f, FirstOrderSystem.orbit(xi), identity_metric(curve.grid), eye2)
    assert cert.verdict
    assert abs(cert.gap) < 1e-10


def test_certificate_rk4_rotation_orbit():
    curve = integrate_orbit(rotation_field, [1.0, 0.0], 0.0, np.pi / 2, nodes=201)
    f = curve.as_map()
    cert = certify_minimizer(f, FirstOrderSystem.orbit(rotation_field),
                             identity_metric(curve.grid), eye2)
    assert cert.verdict
    assert abs(cert.gap) < 1e-6
    assert cert.max_defect < 1e-3


def test_certificate_rejects_perturbed_map():
    curve = integrate_orbit(rotation_field, [1.0, 0.0], 0.0, np.pi / 2, nodes=201)
    t = curve.grid.points()[..., 0]
    bump = 0.1 * np.sin(2 * np.pi * t / (np.pi / 2))
    perturbed = curve.values + np.stack([bump, 0.5 * bump], axis=-1)
    f = MapJet.from_values(curve.grid, perturbed)
    cert = certify_minimizer(f, FirstOrderSystem.orbit(rotation_field),
                             identity_metric(curve.grid), eye2)
    assert not cert.verdict
    assert cert.gap > 0


def test_certificate_reports_best_fit_scale():
    # doubled-speed solution: df = 2 T; best-fit kappa ~ 2 and the
    # proportional defect is tiny while the raw defect is large
    grid = box_grid([(0, 1), (0, 1)], [33, 33])
    pts = grid.points()
    f = MapJet.from_values(grid, (2.0 * (pts[..., 0] + pts[..., 1]))[..., None])
    system = FirstOrderSystem.pfaff(
        lambda a: np.stack([np.ones_like(a[..., 0]), np.ones_like(a[..., 0])], axis=-1))
    cert = certify_minimizer(f, system, identity_metric(grid), one1)
    assert abs(cert.gap) < 1e-10
    assert cert.max_defect > 1.0
    assert not cert.verdict
    assert np.allclose(cert.kappa, 2.0, atol=1e-10)
    assert cert.max_defect_best_fit < 1e-10


# ---------------------------------------------------------------------------
# orbit metric and geodesic residual
# ---------------------------------------------------------------------------


def test_orbit_metric_on_field_direction():
    xi = lambda x: rotation_field(x)
    h = orbit_metric(xi, eye2)
    x = np.array([[1.0, 1.0]])
    y = rotation_field(x)
    vals = h(x, y)
    norm2 = 2.0
    assert np.allclose(vals[0], np.eye(2) / norm2)


def test_orbit_metric_homogeneity_and_scale_invariance():
    xi = lambda x: rotation_field(x)
    h = orbit_metric(xi, eye2)
    x = np.array([[0.7, -0.4]])
    y = np.array([[0.5, 1.1]])
    assert np.allclose(h(x, 2 * y), h(x, y) / 4.0)
    # rescaling the field leaves h unchanged
    h_scaled = orbit_metric(lambda x_: 3.0 * rotation_field(x_), eye2)
    assert np.allclose(h_scaled(x, y), h(x, y))


def test_orbit_metric_singular_direction_error():
    xi = lambda x: rotation_field(x)
    h = orbit_metric(xi, eye2)
    x = np.array([[1.0, 0.0]])
    y_orth = np.array([[1.0, 0.0]])  # orthogonal to xi(x) = (0, 1)
    with pytest.raises(SingularDirectionError):
        h(x, y_orth)


def test_straight_orbit_residual_vanishes():
    xi = lambda x: np.broadcast_to(np.array([0.6, -0.8]), np.shape(x)).copy()
    curve = integrate_orbit(xi, [0.2, 0.1], 0.0, 1.0, nodes=101)
    res = orbit_geodesic_residual(curve, xi, eye2)
    assert np.max(np.abs(res.values)) < 1e-10


def test_rk4_circle_orbit_residual_small_and_converging():
    maxres = {}
    for nodes, step in ((201, 1e-3), (401, 5e-4)):
        curve = integrate_orbit(rotation_field, [1.0, 0.0], 0.0, np.pi / 2,
                                nodes=nodes, max_step=step)
        res = orbit_geodesic_residual(curve, rotation_field, eye2)
        maxres[nodes] = np.max(np.abs(res.values))
    assert maxres[201] < 1e-4
    assert maxres[201] / maxres[401] >= 8.0  # order >= 3 under joint refinement


def _array_rk4_orbit(xi, x0, t0, t1, nodes, max_step=1e-3, stencil_order=4):
    """Reference: the RK4 orbit with every stage combined as array expressions."""
    grid = interval_grid(t0, t1, nodes, stencil_order=stencil_order)
    k = max(1, int(np.ceil(grid.spacing[0] / max_step - 1e-12)))
    h = grid.spacing[0] / k
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
    return np.stack(samples, axis=0)


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
       max_step=st.sampled_from([1e-3, 7e-3, 0.05]))
def test_orbit_matches_array_rk4_bit_for_bit(n, seed, max_step):
    r = np.random.default_rng(seed)
    M, c = r.normal(size=(n, n)), r.normal(size=n)

    def xi(x):
        return np.sin(x @ M.T) + c * np.cos(x.sum(axis=-1, keepdims=True))

    x0 = r.normal(size=n).tolist()
    curve = integrate_orbit(xi, x0, 0.0, 0.7, nodes=9, max_step=max_step)
    ref = _array_rk4_orbit(xi, x0, 0.0, 0.7, nodes=9, max_step=max_step)
    assert curve.values.shape == ref.shape
    assert np.array_equal(curve.values, ref)


def test_rk4_substeps_of_the_bundled_orbits():
    # quarter turn at 201 nodes (orbit-rotation) and half turn at 201 nodes
    # (the benchmark orbit): 1,600 and 3,200 substeps at the default step
    assert rk4_substeps(interval_grid(0.0, np.pi / 2, 201), 1e-3) * 200 == 1600
    assert rk4_substeps(interval_grid(0.0, np.pi, 201), 1e-3) * 200 == 3200
    assert rk4_substeps(interval_grid(0.0, 1.0, 9), 1.0) == 1


@pytest.mark.parametrize("max_step", [1e-320, 1e-9])
def test_orbit_beyond_the_substep_limit_raises_a_library_error(max_step):
    # 1e-320 overflows the count to inf; 1e-9 asks for about 3.1e9 substeps
    with pytest.raises(StepLimitError, match="RK4 substeps over 200 grid intervals"):
        integrate_orbit(rotation_field, [1.0, 0.0], 0.0, np.pi, nodes=201, max_step=max_step)


def test_orbit_residual_guard_names_point_and_direction():
    # at t = 0 the velocity (1, 0) at (1, 0) is orthogonal to the rotation
    # field (0, 1); the pairing t^2 + 2t is positive at every later node
    grid = interval_grid(0.0, 1.0, 21)
    t = grid.points()[..., 0]
    curve = SampledCurve.from_values(grid, np.stack([1.0 + t, t * t], axis=-1))
    with pytest.raises(SingularDirectionError) as info:
        orbit_geodesic_residual(curve, rotation_field, eye2)
    assert str(info.value) == "orbit residual queried where the direction pairing vanishes"
    assert np.array_equal(info.value.point, curve.values[0])
    assert np.array_equal(info.value.direction, curve.velocity[0])


def test_reparametrized_circle_is_still_a_minimizer():
    # a speed-modulated circle keeps its velocity proportional to the
    # field, so it stays in the minimizer family and its residual is tiny
    grid = interval_grid(0.0, np.pi / 2, 201, stencil_order=4)
    t = grid.points()[..., 0]
    warp = t + 0.15 * np.sin(4 * t)
    curve = SampledCurve.from_values(grid, np.stack([np.cos(warp), np.sin(warp)], axis=-1))
    res = orbit_geodesic_residual(curve, rotation_field, eye2)
    assert np.max(np.abs(res.values[interior_mask(grid)])) < 1e-5


def test_non_orbit_direction_has_nonzero_residual():
    # a spiral leaves the orbit direction (radial velocity component):
    # residual bounded away from zero
    grid = interval_grid(0.0, np.pi / 2, 201, stencil_order=4)
    t = grid.points()[..., 0]
    r = 1.0 + 0.2 * t
    curve = SampledCurve.from_values(grid, np.stack([r * np.cos(t), r * np.sin(t)], axis=-1))
    res = orbit_geodesic_residual(curve, rotation_field, eye2)
    assert np.max(np.abs(res.values[interior_mask(grid)])) > 1e-2


def test_orbit_residual_agrees_with_energy_residual():
    # the direct display-formula residual equals the conformal-coupling
    # residual from the energy module on the same data
    curve = integrate_orbit(rotation_field, [1.0, 0.0], 0.0, np.pi / 2, nodes=101)
    f = curve.as_map()
    phi = identity_metric(curve.grid)

    def tau(x, y):
        xf = rotation_field(x)
        pairing = np.einsum("...i,...i->...", xf, y)
        norm = np.sqrt(np.einsum("...i,...i->...", xf, xf))
        return np.log(norm / np.abs(pairing))

    A = lambda a: np.ones(a.shape[:-1] + (1,))
    sigma_a = lambda a: np.zeros(a.shape[:-1])
    res_energy = el_residual_fiber_covector(f, sigma_a, tau, A, phi, eye2)
    res_direct = orbit_geodesic_residual(curve, rotation_field, eye2)
    scale = max(np.max(np.abs(res_direct.values)), 1e-14)
    # tau's fiber partials are bumped numerically in one path and analytic
    # in the other; agreement is limited by that step
    assert np.max(np.abs(res_energy.values - res_direct.values)) < 1e-4 * max(1.0, scale) + 1e-6


_XI = ["-x2 + 0.3*x1*x1", "x1 + 0.2*sin(x2)"]
_PSI = {"matrix": [["1 + 0.2*x1*x1", "0.1*x1*x2"], ["0.1*x1*x2", "1.5 + 0.3*sin(x2)"]]}


@settings(max_examples=30, deadline=None, database=None)
@given(x=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=5, max_size=5),
       turn=st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
       scale=st.floats(0.5, 2.0))
def test_orbit_hooks_match_central_differences(x, turn, scale):
    # the exact tau_dx and psi_dx the orbit residual passes on, at drawn
    # points and directions, against central differences of its tau and psi
    xi = covector_evaluator(_XI, 2, "x")
    psi = metric_evaluator(_PSI, 2, "x")
    x = np.array(x)
    xi_x = xi(x)
    assume(np.all(np.linalg.norm(xi_x, axis=-1) > 0.2))
    # a direction turned off xi by at most about 27 degrees: the pairing stays away from 0
    y = scale * (xi_x + np.array(turn)[:, None] * np.stack([-xi_x[:, 1], xi_x[:, 0]], -1))
    curve = SampledCurve(grid=interval_grid(0.0, 1.0, 5), values=x, velocity=y)
    pairs = []
    original = systems.el_residual
    systems.el_residual = lambda f, pair, *rest: pairs.append(pair)
    try:
        orbit_geodesic_residual(
            curve, xi, psi, xi_dx=gradient_evaluator(_XI, (("x", 2),), "x", (2,)),
            psi_dx=metric_gradient_evaluator(_PSI, 2, "x"))
    finally:
        systems.el_residual = original
    (pair,) = pairs
    for exact, differenced in ((pair.tau_dx(x, y), central_partials(lambda u: pair.tau(u, y), x)),
                               (pair.psi_dx(x), central_partials(psi, x))):
        assert np.max(np.abs(exact - differenced)) <= 1e-6 * np.max(np.abs(exact))


def test_orbit_residual_hooks_move_it_by_difference_noise_only():
    # the hooks only replace differenced x-partials: the residual of the
    # rotation orbit moves by far less than the 1e-4 it is checked against
    curve = integrate_orbit(rotation_field, [1.0, 0.0], 0.0, np.pi / 2, nodes=101)
    zero = lambda x: np.zeros(x.shape[:-1] + (2, 2, 2))
    turn = lambda x: np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]]), x.shape[:-1] + (2, 2))
    plain = orbit_geodesic_residual(curve, rotation_field, eye2).values
    exact = orbit_geodesic_residual(curve, rotation_field, eye2, xi_dx=turn, psi_dx=zero).values
    assert np.max(np.abs(plain - exact)) < 1e-8
    assert not np.array_equal(plain, exact)


# ---------------------------------------------------------------------------
# Pfaff metric
# ---------------------------------------------------------------------------


def test_pfaff_metric_unit_factor_on_aligned_direction():
    A = lambda a: np.broadcast_to(np.array([3.0, 4.0]), a.shape[:-1] + (2,)).copy()
    g = pfaff_metric(A, eye2)
    a = np.array([[0.3, 0.4]])
    b = np.array([[3.0, 4.0]]) / 5.0  # unit vector along A-raised
    vals = g(a, b)
    assert np.allclose(vals[0], np.eye(2))  # |A(b)| = |A| exactly here


def test_pfaff_metric_quadratic_homogeneity():
    A = lambda a: np.stack([1.0 + a[..., 0], np.ones_like(a[..., 0])], axis=-1)
    g = pfaff_metric(A, eye2)
    a = np.array([[0.2, 0.9]])
    b = np.array([[0.4, -0.7]])
    assert np.allclose(g(a, 2 * b), 4.0 * g(a, b))
    # positive rescaling of the covector cancels out of the factor
    g_scaled = pfaff_metric(lambda p: 3.0 * A(p), eye2)
    assert np.allclose(g_scaled(a, b), g(a, b))


@pytest.mark.parametrize("which, message", [
    ("pfaff", "Pfaff metric queried where A vanishes on the direction"),
    ("pseudolinear", "pseudolinear source factor queried where A(b) vanishes")])
def test_pfaff_factor_guard_names_point_and_direction(which, message):
    A = lambda a: np.stack([1.0 + a[..., 0], np.ones_like(a[..., 0])], axis=-1)
    if which == "pfaff":
        fn = pfaff_metric(A, eye2)
    else:
        fn = pseudolinear_scenario(lambda x: np.ones_like(x), A, eye2, one1)[0].sigma
    a = np.array([[0.2, 0.9], [0.5, 0.1]])
    b = np.array([[0.4, -0.7], [1.0, -1.5]])   # A(b) = 0 at the second node
    with pytest.raises(SingularDirectionError) as info:
        fn(a, b)
    assert str(info.value) == message
    assert np.array_equal(info.value.point, a[1])
    assert np.array_equal(info.value.direction, b[1])


def _pfaff_factor_error(which, node_matrix):
    """The error of the Pfaff metric or the pseudolinear source factor at
    three points whose phi is the identity but ``node_matrix`` from the
    second on."""
    def phi(a):
        vals = np.broadcast_to(np.eye(2), a.shape[:-1] + (2, 2)).copy()
        vals[1:] = node_matrix
        return vals

    A = lambda a: np.stack([1.0 + a[..., 0], np.ones_like(a[..., 0])], axis=-1)
    if which == "pfaff":
        fn = pfaff_metric(A, phi)
    else:
        fn = pseudolinear_scenario(lambda x: np.ones_like(x), A, phi, one1)[0].sigma
    a = np.array([[0.2, 0.9], [0.5, 0.1], [0.3, 0.3]])
    with pytest.raises(SingularMetricError) as info:
        fn(a, np.array([[0.4, -0.7]] * 3))
    assert info.value.node == (1,)
    return str(info.value)


@pytest.mark.parametrize("which", ["pfaff", "pseudolinear"])
def test_pfaff_factor_names_the_first_singular_phi_node(which):
    # phi is inverted by invert_metric's rule, which names the first node
    assert _pfaff_factor_error(which, 0.0) == (
        "source metric phi: metric condition number inf exceeds bound at node (1,)")


@pytest.mark.parametrize("which", ["pfaff", "pseudolinear"])
def test_pfaff_factor_rejects_an_ill_conditioned_phi_node(which):
    # a condition number over COND_BOUND fails as it does for phi's field
    assert _pfaff_factor_error(which, np.diag([1.0, 1e-13])) == (
        "source metric phi: metric condition number 1.000e+13 exceeds bound at node (1,)")


def test_pfaff_exact_primitive_minimizes():
    grid = box_grid([(0, 1), (0, 1)], [65, 65])
    fvals, A = exact_pfaff_map(grid)
    f = MapJet.from_values(grid, fvals)
    cert = certify_minimizer(f, FirstOrderSystem.pfaff(A), identity_metric(grid), one1,
                             tol_defect=5e-3)
    assert cert.verdict
    assert abs(cert.gap) < 1e-6


# ---------------------------------------------------------------------------
# pseudolinear functions
# ---------------------------------------------------------------------------


def exp_pseudolinear(grid, v=(1.0, 1.0), w=0.0):
    pts = grid.points()
    v = np.asarray(v, dtype=float)
    fvals = np.exp(pts @ v + w)[..., None]
    xi = lambda x: np.ones(x.shape[:-1] + (1,))
    A = lambda a: np.exp(a @ v + w)[..., None] * v
    return fvals, xi, A


def test_pseudolinear_exponential_certifies():
    grid = box_grid([(0, 1), (0, 1)], [65, 65])
    fvals, xi, A = exp_pseudolinear(grid)
    f = MapJet.from_values(grid, fvals)
    system = FirstOrderSystem.pseudolinear(xi, A)
    cert = certify_minimizer(f, system, identity_metric(grid), one1, tol_defect=5e-3)
    assert cert.verdict
    assert abs(cert.gap) < 1e-6


def test_pseudolinear_quotient_equals_energy():
    # the quotient functional coincides with the energy of the attached
    # conformal pair and connection
    grid = box_grid([(0, 1), (0, 1)], [33, 33])
    fvals, xi, A = exp_pseudolinear(grid)
    f = MapJet.from_values(grid, fvals)
    pair, P, system = pseudolinear_scenario(xi, A, eye2, one1)
    phi = identity_metric(grid)
    lt = quotient_functional(f, system, phi, one1)
    en = energy(f, pair, P, phi)
    assert en == pytest.approx(lt, rel=1e-10)


def test_pseudolinear_level_sets_totally_geodesic():
    grid = box_grid([(0, 1), (0, 1)], [65, 65])
    fvals, _, _ = exp_pseudolinear(grid)
    f = MapJet.from_values(grid, fvals)
    assert level_set_geodesic_defect(f) < 1e-8


def test_pseudolinear_single_generator_reduces_to_pfaff_scaling():
    # constant xi = c rescales the target factor but keeps the same
    # certificate verdict as the plain Pfaff system
    grid = box_grid([(0, 1), (0, 1)], [33, 33])
    pts = grid.points()
    fvals = (pts[..., 0] + 2 * pts[..., 1])[..., None]
    A = lambda a: np.stack([np.ones_like(a[..., 0]), 2 * np.ones_like(a[..., 0])], axis=-1)
    xi = lambda x: np.full(x.shape[:-1] + (1,), 1.0)
    phi = identity_metric(grid)
    cert_pl = certify_minimizer(MapJet.from_values(grid, fvals),
                                FirstOrderSystem.pseudolinear(xi, A), phi, one1)
    cert_pf = certify_minimizer(MapJet.from_values(grid, fvals),
                                FirstOrderSystem.pfaff(A), phi, one1)
    assert cert_pl.verdict and cert_pf.verdict
    assert cert_pl.functional_value == pytest.approx(cert_pf.functional_value, rel=1e-12)


# ---------------------------------------------------------------------------
# transformation-group systems
# ---------------------------------------------------------------------------


def test_group_single_generator_equals_pseudolinear_density():
    grid = box_grid([(0, 1), (0, 1)], [33, 33])
    fvals, xi, A = exp_pseudolinear(grid)
    f = MapJet.from_values(grid, fvals)
    phi = identity_metric(grid)
    density_group = group_system_lagrangian([(xi, A)], f, phi, one1)
    pair, P, _ = pseudolinear_scenario(xi, A, eye2, one1)
    from glharmonic.energy import lagrangian_density

    density_pl = lagrangian_density(f, pair, P, phi)
    assert np.max(np.abs(density_group.values - density_pl.values)) < 1e-12


def test_group_constant_map_zero_density():
    grid = box_grid([(0, 1), (0, 1)], [17, 17])
    f = MapJet.from_values(grid, np.full(grid.shape + (2,), 1.3))
    xi1 = lambda x: np.stack([np.ones_like(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1)
    xi2 = lambda x: np.stack([np.zeros_like(x[..., 0]), np.ones_like(x[..., 0])], axis=-1)
    A1 = lambda a: np.stack([np.ones_like(a[..., 0]), np.zeros_like(a[..., 0])], axis=-1)
    A2 = lambda a: np.stack([np.zeros_like(a[..., 0]), np.ones_like(a[..., 0])], axis=-1)
    # constant map: zero jet, but the summed covector must not be
    # orthogonal to the induced argument -- the induced argument is zero
    # too, so this is a domain violation
    with pytest.raises(SingularDirectionError):
        group_system_lagrangian([(xi1, A1), (xi2, A2)], f, identity_metric(grid), eye2)


def test_group_two_generators_matches_loop_oracle():
    grid = box_grid([(0, 1), (0, 1)], [9, 9])
    pts = grid.points()
    fvals = np.stack([pts[..., 0] + 0.3 * pts[..., 1], pts[..., 1] - 0.1 * pts[..., 0]], axis=-1)
    f = MapJet.from_values(grid, fvals)
    xi1 = lambda x: np.stack([np.ones_like(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1)
    xi2 = lambda x: np.stack([np.zeros_like(x[..., 0]), 1.0 + 0.2 * x[..., 0]], axis=-1)
    A1 = lambda a: np.stack([1.0 + a[..., 1], np.ones_like(a[..., 0])], axis=-1)
    A2 = lambda a: np.stack([np.ones_like(a[..., 0]), 2.0 - a[..., 0]], axis=-1)
    phi = identity_metric(grid)
    density = group_system_lagrangian([(xi1, A1), (xi2, A2)], f, phi, eye2)

    # independent nodewise loop evaluation of the same construction
    psi = np.broadcast_to(np.eye(2), grid.shape + (2, 2))
    out = np.zeros(grid.shape)
    xs = fvals
    x1v, x2v = xi1(xs), xi2(xs)
    flat = np.einsum("...ij,...j->...i", psi, x1v) + np.einsum("...ij,...j->...i", psi, x2v)
    Asum = A1(pts) + A2(pts)
    for idx in np.ndindex(*grid.shape):
        jet = f.jet[idx]
        b = np.zeros(2)
        for g in range(2):
            for be in range(2):
                for i in range(2):
                    b[g] += np.eye(2)[g, be] * flat[idx][i] * jet[i, be]
        Ab = Asum[idx] @ b
        norm2 = Asum[idx] @ Asum[idx]
        normxi = x1v[idx] @ x1v[idx] + x2v[idx] @ x2v[idx]
        L = 0.0
        for g in range(2):
            for m_ in range(2):
                for k in range(2):
                    for l in range(2):
                        L += 0.5 * (norm2 / Ab**2) * np.eye(2)[g, m_] * normxi \
                            * np.eye(2)[k, l] * jet[k, g] * jet[l, m_]
        out[idx] = L
    assert np.max(np.abs(density.values - out)) < 1e-12
