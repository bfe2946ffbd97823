import numpy as np

from glharmonic.gl_space import (
    conformal_space,
    delta_derivative,
    fiber_partials,
    hv_covariant,
    hv_covariant_cov2,
    sigma_blocks,
    zero_sigma,
)
from glharmonic.riemann import curvature_package, sphere_metric
from glharmonic.tensor_core import box_grid, identity_metric, interior_mask, sample_metric

rng = np.random.default_rng(11)


def flat_space(sigma=zero_sigma, n=17, **kw):
    grid = box_grid([(0, 2 * np.pi), (0, 2 * np.pi)], [n, n], periodic=True)
    return conformal_space(curvature_package(identity_metric(grid)), sigma, **kw)


def sphere_space(sigma=zero_sigma, n=48, **kw):
    grid = box_grid([(0.7, np.pi - 0.7), (0, 2 * np.pi)], [n, n],
                    periodic=[False, True], stencil_order=4)
    return conformal_space(curvature_package(sphere_metric(grid)), sigma, **kw)


# ---------------------------------------------------------------------------
# delta_derivative
# ---------------------------------------------------------------------------


def test_delta_equals_partial_for_fiber_independent_function():
    space = sphere_space()

    def F(pts, y):
        return np.sin(pts[..., 0]) * np.cos(pts[..., 1])

    y = np.array([0.4, -1.2])
    delta = delta_derivative(F, space, y)
    # oracle: plain grid stencils of the sampled function
    from glharmonic.tensor_core import sample_scalar, fd_partial

    sampled = sample_scalar(space.grid, lambda p: F(p, y))
    for i in range(2):
        assert np.allclose(delta.values[..., i], fd_partial(sampled, i).values, atol=1e-9)


def test_delta_equals_partial_on_flat_chart():
    # N = 0 on a flat chart, so the adapted derivative is the plain one
    space = flat_space()
    from glharmonic.tensor_core import fd_partial, sample_scalar

    def F(pts, y):
        return np.cos(pts[..., 0]) * (1 + y[0] ** 2 + 0.3 * y[1])

    y = np.array([0.9, 0.2])
    delta = delta_derivative(F, space, y)
    sampled = sample_scalar(space.grid, lambda p: F(p, y))
    assert np.max(np.abs(delta.values[..., 0] - fd_partial(sampled, 0).values)) < 1e-10
    assert np.max(np.abs(delta.values[..., 1])) < 1e-9


def test_metric_energy_is_horizontally_constant_on_sphere():
    # F(x, y) = gamma_kl(x) y^k y^l has vanishing adapted horizontal derivative
    space = sphere_space()
    gam = space.base.gamma

    def F(pts, y):
        theta = pts[..., 0]
        return y[0] ** 2 + np.sin(theta) ** 2 * y[1] ** 2

    y = np.array([0.8, 0.5])
    delta = delta_derivative(F, space, y)
    mask = interior_mask(space.grid)
    assert np.max(np.abs(delta.values[mask])) < 1e-6
    del gam


# ---------------------------------------------------------------------------
# hv_covariant
# ---------------------------------------------------------------------------


def test_hv_covariant_of_zero_is_zero():
    space = sphere_space()
    X = lambda y: np.zeros(space.grid.shape + (2,))
    h, v = hv_covariant(X, space, np.array([1.0, 0.0]))
    assert np.allclose(h.values, 0.0)
    assert np.allclose(v.values, 0.0)


def test_hv_covariant_flat_fiber_independent():
    # flat chart, fiber-independent covector: h-part is the plain stencil
    # derivative, v-part vanishes
    space = flat_space()
    pts = space.grid.points()
    from glharmonic.tensor_core import fd_partial, sample_scalar

    def X(y):
        out = np.zeros(space.grid.shape + (2,))
        out[..., 0] = np.sin(pts[..., 0])
        out[..., 1] = np.cos(pts[..., 1])
        return out

    h, v = hv_covariant(X, space, np.array([0.3, 0.3]))
    d0 = fd_partial(sample_scalar(space.grid, lambda p: np.sin(p[..., 0])), 0)
    assert np.max(np.abs(h.values[..., 0, 0] - d0.values)) < 1e-10
    assert np.max(np.abs(h.values[..., 0, 1])) < 1e-10
    assert np.max(np.abs(v.values)) < 1e-10


def test_metric_is_h_parallel():
    # gamma_ij|k = 0: the Christoffel symbols are metric-compatible
    space = sphere_space()
    gam_vals = space.base.gamma.values
    h, v = hv_covariant_cov2(lambda y: gam_vals, space, np.array([0.7, -0.4]))
    mask = interior_mask(space.grid)
    assert np.max(np.abs(h.values[mask])) < 1e-6
    assert np.max(np.abs(v.values)) < 1e-12


# ---------------------------------------------------------------------------
# sigma blocks
# ---------------------------------------------------------------------------


def test_sigma_blocks_all_zero_for_zero_sigma():
    space = sphere_space()
    blocks = sigma_blocks(space, np.array([1.0, 0.3]))
    for name in ("grad_h", "grad_v", "sq_h", "hess_h", "tr_h", "sq_v", "hess_v", "tr_v"):
        assert np.allclose(getattr(blocks, name).values, 0.0, atol=1e-12), name


def test_sigma_blocks_fiber_independent_sigma():
    def sig(pts, y):
        return 0.2 * np.sin(pts[..., 0])

    space = sphere_space(sig)
    y = np.array([0.5, 1.1])
    blocks = sigma_blocks(space, y)
    # fiber blocks vanish identically
    assert np.max(np.abs(blocks.grad_v.values)) < 1e-12
    assert np.max(np.abs(blocks.sq_v.values)) < 1e-12
    assert np.max(np.abs(blocks.hess_v.values)) < 1e-12
    assert np.max(np.abs(blocks.tr_v.values)) < 1e-12
    # grad_h reduces to the base partials
    pts = space.grid.points()
    expected = 0.2 * np.cos(pts[..., 0])
    assert np.max(np.abs(blocks.grad_h.values[..., 0] - expected)) < 1e-5
    assert np.max(np.abs(blocks.grad_h.values[..., 1])) < 1e-9
    # squared length is nonnegative
    assert np.all(blocks.sq_h.values >= -1e-15)
    assert np.all(blocks.sq_v.values >= -1e-15)


def test_sigma_blocks_log_direction_closed_form():
    # sigma = ln(|A(y)| / |A|) on a flat chart with constant covector A:
    # grad_v_i = A_i / A(y), sq_v = |A|^2 / A(y)^2
    A = np.array([0.8, 0.6])

    def sig(pts, y):
        return np.full(pts.shape[:-1], np.log(abs(A @ y) / np.linalg.norm(A)))

    space = flat_space(sig)
    y = np.array([1.3, 0.4])
    blocks = sigma_blocks(space, y)
    Ay = A @ y
    assert np.max(np.abs(blocks.grad_v.values - A / Ay)) < 1e-8
    assert np.max(np.abs(blocks.sq_v.values - (A @ A) / Ay**2)) < 1e-7
    # horizontal blocks vanish: sigma has no x-dependence and N = 0 on flat
    assert np.max(np.abs(blocks.grad_h.values)) < 1e-10
    # vertical Hessian block against the hand form:
    # d grad_v_a / dy^b = -A_a A_b / A(y)^2
    expected = (
        -np.outer(A, A) / Ay**2
        + np.outer(A, A) / Ay**2
        - 0.5 * np.eye(2) * (A @ A) / Ay**2
    )
    assert np.max(np.abs(blocks.hess_v.values - expected)) < 1e-6


def test_hess_h_antisymmetric_part_matches_covariant_part():
    # the quadratic and trace terms of hess_h are symmetric, so its
    # antisymmetric part equals that of the covariant-derivative part alone
    def sig(pts, y):
        return 0.1 * np.sin(pts[..., 0]) * np.cos(pts[..., 1]) * (1 + 0.2 * y[0])

    space = sphere_space(sig)
    y = np.array([0.6, 0.9])
    blocks = sigma_blocks(space, y)
    anti = blocks.hess_h.values - np.swapaxes(blocks.hess_h.values, -1, -2)
    quad = blocks.grad_h.values[..., :, None] * blocks.grad_h.values[..., None, :]
    anti_quad = quad - np.swapaxes(quad, -1, -2)
    assert np.max(np.abs(anti_quad)) < 1e-13  # symmetric by construction
    # fiber-independent sigma on a flat chart: hess_h is symmetric
    space_flat = flat_space(lambda p, y: 0.1 * np.sin(p[..., 0]) * np.cos(p[..., 1]))
    blocks_flat = sigma_blocks(space_flat, y)
    anti_flat = blocks_flat.hess_h.values - np.swapaxes(blocks_flat.hess_h.values, -1, -2)
    assert np.max(np.abs(anti_flat)) < 1e-5
    del anti


def test_conformal_rescaling_triviality():
    # gamma -> c^2 gamma leaves Gamma, N, grad_h, grad_v unchanged and
    # divides sq_h, sq_v by c^2
    def sig(pts, y):
        return 0.15 * np.sin(pts[..., 0]) * (1 + 0.3 * y[1])

    c = 2.5
    grid = box_grid([(0, 2 * np.pi), (0, 2 * np.pi)], [17, 17], periodic=True)

    def gam(pts):
        x = pts[..., 0]
        base = np.zeros(pts.shape[:-1] + (2, 2))
        base[..., 0, 0] = 1.4 + 0.2 * np.sin(x)
        base[..., 1, 1] = 1.1
        return base

    sp1 = conformal_space(curvature_package(sample_metric(grid, gam)), sig)
    sp2 = conformal_space(
        curvature_package(sample_metric(grid, lambda p: c**2 * gam(p))), sig
    )
    y = np.array([0.4, 0.8])
    assert np.allclose(sp1.base.christoffel.values, sp2.base.christoffel.values, atol=1e-11)
    assert np.allclose(sp1.nonlinear_connection(y), sp2.nonlinear_connection(y), atol=1e-11)
    b1, b2 = sigma_blocks(sp1, y), sigma_blocks(sp2, y)
    assert np.allclose(b1.grad_h.values, b2.grad_h.values, atol=1e-11)
    assert np.allclose(b1.grad_v.values, b2.grad_v.values, atol=1e-11)
    assert np.allclose(b1.sq_h.values, c**2 * b2.sq_h.values, atol=1e-11)
    assert np.allclose(b1.sq_v.values, c**2 * b2.sq_v.values, atol=1e-11)


def test_fiber_partials_linear_exact():
    space = flat_space()
    pts = space.grid.points()
    w = np.array([1.5, -0.7])
    vals = fiber_partials(lambda y: pts[..., 0] * (w @ y), np.array([0.2, 0.3]), 2)
    for k in range(2):
        assert np.allclose(vals[..., k], pts[..., 0] * w[k], atol=1e-9)


def test_analytic_partials_are_used_when_given():
    # the sigma_jet hook supplies the fiber partials; the x-partials stay
    # grid stencils on both paths
    A = np.array([1.0, 0.5])

    def sig(pts, y):
        return 0.3 * pts[..., 0] + np.log(abs(A @ y))

    def sig_jet(pts, y):
        lead = pts.shape[:-1]
        Ay = A @ y
        return (sig(pts, y), np.broadcast_to(A / Ay, lead + (2,)),
                np.broadcast_to(-np.outer(A, A) / Ay**2, lead + (2, 2)))

    space_fd = flat_space(sig)
    space_jet = flat_space(sig, sigma_jet=sig_jet)
    y = np.array([0.9, 1.4])
    b_fd, b_jet = sigma_blocks(space_fd, y), sigma_blocks(space_jet, y)
    assert np.max(np.abs(b_fd.grad_v.values - b_jet.grad_v.values)) < 1e-7
    assert np.max(np.abs(b_fd.hess_v.values - b_jet.hess_v.values)) < 1e-6
    # jet path: the fiber blocks are the jet's closed forms
    Ay = A @ y
    hess_v = -np.outer(A, A) / Ay**2 + np.outer(A, A) / Ay**2 - 0.5 * np.eye(2) * (A @ A) / Ay**2
    assert np.allclose(b_jet.grad_v.values, A / Ay, rtol=0, atol=1e-14)
    assert np.allclose(b_jet.hess_v.values, hess_v, rtol=0, atol=1e-14)
    # N = 0 on a flat chart, so grad_h is the same grid stencil on both paths
    assert np.array_equal(b_jet.grad_h.values, b_fd.grad_h.values)
