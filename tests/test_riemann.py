import numpy as np
import pytest

from glharmonic.riemann import christoffel, curvature_package, sphere_metric
from glharmonic.tensor_core import (
    box_grid,
    identity_metric,
    interior_mask,
    sample_metric,
)

rng = np.random.default_rng(7)


def sphere_grid(n, order=4, pad=0.7):
    # polar chart kept away from the poles; order 4 because composing
    # one-sided first-derivative stencils loses an order at interval edges
    return box_grid(
        [(pad, np.pi - pad), (0.0, 2 * np.pi)], [n, n], periodic=[False, True],
        stencil_order=order,
    )


def test_flat_metric_everything_vanishes():
    grid = box_grid([(0, 1), (0, 1)], [9, 9])
    pkg = curvature_package(identity_metric(grid))
    assert np.allclose(pkg.christoffel.values, 0.0, atol=1e-13)
    assert np.allclose(pkg.curvature.values, 0.0, atol=1e-12)
    assert np.allclose(pkg.ricci.values, 0.0, atol=1e-12)
    assert np.allclose(pkg.scalar.values, 0.0, atol=1e-12)


def test_conformally_flat_christoffel_closed_form():
    # gamma = exp(2u) delta with linear u: Gamma^i_jk = d^i_j u_k + d^i_k u_j - d_jk u^i
    p = np.array([0.15, -0.3])
    grid = box_grid([(0, 1), (0, 1)], [33, 33], stencil_order=4)

    def gam(pts):
        u = pts @ p
        return np.exp(2 * u)[..., None, None] * np.eye(2)

    g = sample_metric(grid, gam)
    gamma = christoffel(g)
    expected = np.zeros(grid.shape + (2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[..., i, j, k] = (
                    (i == j) * p[k] + (i == k) * p[j] - (j == k) * p[i]
                )
    assert np.max(np.abs(gamma.values - expected)) < 1e-7


def test_sphere_christoffel_theta_phiphi():
    grid = sphere_grid(64)
    g = sphere_metric(grid)
    gamma = christoffel(g)
    theta = grid.points()[..., 0]
    expected = -np.sin(theta) * np.cos(theta)
    assert np.max(np.abs(gamma.values[..., 0, 1, 1] - expected)) < 2e-4


def test_sphere_scalar_curvature_positive_two_over_r_squared():
    for radius in (1.0, 2.0):
        grid = sphere_grid(64)
        pkg = curvature_package(sphere_metric(grid, radius))
        expected = 2.0 / radius**2
        err = np.max(np.abs(pkg.scalar.values - expected))
        assert err < 1e-3 * expected, f"R={radius}: max error {err}"
        assert np.all(pkg.scalar.values > 0)


def curved_2d(pts):
    x, y = pts[..., 0], pts[..., 1]
    base = np.zeros(pts.shape[:-1] + (2, 2))
    base[..., 0, 0] = 2.0 + 0.3 * np.sin(x) * np.cos(y)
    base[..., 1, 1] = 2.0 + 0.2 * np.cos(x)
    base[..., 0, 1] = base[..., 1, 0] = 0.1 * np.sin(y)
    return base


def curved_3d(pts):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    base = np.zeros(pts.shape[:-1] + (3, 3))
    base[..., 0, 0] = 1.3 + 0.2 * np.sin(x) * np.cos(z)
    base[..., 1, 1] = 1.1 + 0.15 * np.cos(y)
    base[..., 2, 2] = 1.0 + 0.1 * np.sin(x + y)
    base[..., 0, 1] = base[..., 1, 0] = 0.05 * np.sin(x) * np.sin(y)
    base[..., 1, 2] = base[..., 2, 1] = 0.04 * np.cos(z)
    return base


def test_curvature_antisymmetry_last_two_slots():
    grid = box_grid([(0, 2 * np.pi), (0, 2 * np.pi)], [24, 24], periodic=True)
    pkg = curvature_package(sample_metric(grid, curved_2d))
    r = pkg.curvature.values
    assert np.max(np.abs(r + np.einsum("...ijlk->...ijkl", r))) < 1e-12
    # Christoffel symmetry in the lower pair
    c = pkg.christoffel.values
    assert np.max(np.abs(c - np.einsum("...ikj->...ijk", c))) < 1e-12


@pytest.mark.parametrize("metric, dim", [(curved_2d, 2), (curved_3d, 3)],
                         ids=["curved-2d", "curved-3d"])
def test_curvature_is_antisymmetric_in_its_last_two_slots_bit_for_bit(metric, dim):
    # field_equations.maxwell_residuals takes the curvature term at the
    # components of a 3-form, which holds only for this exact symmetry
    grid = box_grid([(0, 2 * np.pi)] * dim, [8] * dim, periodic=True)
    r = curvature_package(sample_metric(grid, metric)).curvature.values
    assert np.any(r)
    assert np.array_equal(r, -np.swapaxes(r, -1, -2))


def test_first_bianchi_identity_discretely():
    grid = box_grid([(0, 2 * np.pi), (0, 2 * np.pi)], [32, 32], periodic=True)

    def gam(pts):
        x, y = pts[..., 0], pts[..., 1]
        base = np.zeros(pts.shape[:-1] + (2, 2))
        base[..., 0, 0] = 1.5 + 0.2 * np.sin(x + y)
        base[..., 1, 1] = 1.5 + 0.2 * np.cos(x)
        base[..., 0, 1] = base[..., 1, 0] = 0.05 * np.sin(x) * np.sin(y)
        return base

    pkg = curvature_package(sample_metric(grid, gam))
    r = pkg.curvature.values
    bianchi = (
        r
        + np.einsum("...iklj->...ijkl", r)
        + np.einsum("...iljk->...ijkl", r)
    )
    h = max(grid.spacing)
    assert np.max(np.abs(bianchi)) < 5.0 * h**2


def test_einstein_tensor_symmetric():
    grid = sphere_grid(32)
    pkg = curvature_package(sphere_metric(grid))
    e = pkg.einstein_tensor().values
    assert np.max(np.abs(e - np.swapaxes(e, -1, -2))) < 1e-10


def test_sphere_scalar_converges_at_stencil_order():
    # node counts chosen so spacing halves exactly and centers coincide
    for order, min_ratio in ((2, 3.5), (4, 12.0)):
        errs = []
        for n in (33, 65):
            grid = sphere_grid(n, order=order)
            pkg = curvature_package(sphere_metric(grid))
            errs.append(abs(pkg.scalar.values[n // 2, 0] - 2.0))
        assert errs[0] / errs[1] > min_ratio, (order, errs)
