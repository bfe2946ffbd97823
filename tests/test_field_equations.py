from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from glharmonic.errors import DivisionGuardError
from glharmonic.field_equations import (
    deflection_tensor,
    einstein_system,
    em_tensors,
    maxwell_residuals,
)
from glharmonic.gl_space import conformal_space, zero_sigma, zero_sigma_jet
from glharmonic.riemann import curvature_package, sphere_metric
from glharmonic.scenarios import sigma_jet_evaluator
from glharmonic.tensor_core import (
    TensorField,
    box_grid,
    identity_metric,
    interior_mask,
    sample_metric,
)
from test_contraction_oracles import cyclic

rng = np.random.default_rng(99)

A_COV = np.array([0.8, 0.6])


def log_direction_sigma(A=A_COV):
    def sig(pts, y):
        return np.full(pts.shape[:-1], np.log(np.abs(A @ y)))

    return sig


def flat_space(sigma=zero_sigma, n=17, dim=2, **kw):
    grid = box_grid([(0, 2 * np.pi)] * dim, [n] * dim, periodic=True)
    return conformal_space(curvature_package(identity_metric(grid)), sigma, **kw)


def curved_space(sigma=zero_sigma, n=33, **kw):
    grid = box_grid([(0.7, np.pi - 0.7), (0, 2 * np.pi)], [n, n],
                    periodic=[False, True], stencil_order=4)
    return conformal_space(curvature_package(sphere_metric(grid)), sigma, **kw)


# ---------------------------------------------------------------------------
# electromagnetic tensors
# ---------------------------------------------------------------------------


def test_zero_sigma_zero_tensors():
    space = curved_space()
    em = em_tensors(space, np.array([0.9, 0.4]))
    assert np.allclose(em.F.values, 0.0, atol=1e-14)
    assert np.allclose(em.f.values, 0.0, atol=1e-14)


def test_em_antisymmetry_random_sigma():
    def sig(pts, y):
        return 0.2 * np.sin(pts[..., 0]) * (1 + 0.3 * y[0] - 0.1 * y[1] ** 2)

    space = curved_space(sig)
    em = em_tensors(space, np.array([0.7, 1.1]))
    for t in (em.F.values, em.f.values):
        assert np.max(np.abs(t + np.swapaxes(t, -1, -2))) < 1e-13


def test_vertical_tensor_closed_form_log_sigma():
    # flat chart, sigma = ln|A(y)|: f_ij = e^{2 sigma}(d_ip A_j - d_jp A_i) y^p / A(y)
    space = flat_space(log_direction_sigma())
    y = np.array([1.2, 0.5])
    em = em_tensors(space, y)
    Ay = A_COV @ y
    e2s = Ay**2
    expected = e2s * (np.outer(y, A_COV) - np.outer(A_COV, y)) / Ay
    assert np.max(np.abs(em.f.values - expected)) < 1e-8
    # fiber-independent part: F vanishes since grad_h = 0 here
    assert np.max(np.abs(em.F.values)) < 1e-11


def test_fiber_independent_sigma_kills_f():
    space = curved_space(lambda p, y: 0.3 * np.cos(p[..., 0]))
    em = em_tensors(space, np.array([0.5, 0.2]))
    assert np.max(np.abs(em.f.values)) < 1e-12


# ---------------------------------------------------------------------------
# Maxwell residuals
#
# in dimension two the cyclic sum of any tensor antisymmetric in its first
# two slots vanishes identically, so the meaningful checks live on a
# three-dimensional base
# ---------------------------------------------------------------------------

A3 = np.array([0.7, 0.4, -0.5])


def curved_space_3d(sigma=zero_sigma, n=15, **kw):
    grid = box_grid([(0, 2 * np.pi)] * 3, [n] * 3, periodic=True)

    def gam(pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        base = np.zeros(pts.shape[:-1] + (3, 3))
        base[..., 0, 0] = 1.3 + 0.2 * np.sin(x1)
        base[..., 1, 1] = 1.1 + 0.15 * np.cos(x2)
        base[..., 2, 2] = 1.0
        base[..., 0, 1] = base[..., 1, 0] = 0.05 * np.sin(x1) * np.sin(x2)
        return base

    return conformal_space(curvature_package(sample_metric(grid, gam)), sigma, **kw)


def test_cyclic_residuals_vanish_identically_in_two_dims():
    # a 3-form in two dimensions has no components: all three residuals are
    # exact zeros, with the jet and on the fiber stencil
    def sig(pts, y):
        return 0.2 * np.sin(pts[..., 0]) * (1 + 0.3 * y[0])

    stencil = curved_space(sig)
    jet = conformal_space(stencil.base, sig, sigma_jet_evaluator("0.2*sin(x1)*(1 + 0.3*y1)", 2))
    for space in (stencil, jet):
        for r in maxwell_residuals(space, np.array([0.8, 0.5])):
            assert np.array_equal(r.values, np.zeros((33, 33, 2, 2, 2)))


def test_zero_sigma_zeroes_all_residuals_3d():
    space = curved_space_3d()
    r1, r2, r3 = maxwell_residuals(space, np.array([1.0, 0.3, 0.2]))
    assert np.max(np.abs(r1.values)) < 1e-12
    assert np.max(np.abs(r2.values)) < 1e-12
    assert np.max(np.abs(r3.values)) < 1e-12


def test_position_sigma_flat_first_residual_converges():
    # flat base, fiber-independent sigma: the curvature term drops and the
    # cyclic sum of F_ij|k converges to zero at the stencil order
    def sig(pts, y):
        return 0.3 * np.sin(pts[..., 0]) * np.cos(pts[..., 1]) + 0.1 * np.sin(pts[..., 2])

    y = np.array([0.8, 0.5, 0.3])
    errs = []
    for n in (12, 24):
        space = flat_space(sig, n=n, dim=3)
        r1, r2, _ = maxwell_residuals(space, y)
        errs.append(np.max(np.abs(r1.values)))
        # second residual: F is linear in y, f vanishes; zero up to
        # fiber-step roundoff
        assert np.max(np.abs(r2.values)) < 1e-8
    assert errs[0] / errs[1] > 3.0


def test_third_residual_small_and_converging_in_fiber_step():
    def sig(pts, y):
        # position- and direction-dependent log factor, smooth in both
        return (np.log(np.abs(A3 @ y)) * (1 + 0.1 * np.sin(pts[..., 0]))
                + 0.05 * np.cos(pts[..., 1]) * y[0])

    y = np.array([1.1, 0.6, 0.4])
    space = curved_space_3d(sig)
    _, _, r3 = maxwell_residuals(space, y)
    assert np.max(np.abs(r3.values)) < 1e-6

    # the identity is exact in the continuum: the measured residual is
    # fiber-difference truncation, second order in the step
    errs = []
    for scale in (2e-2, 1e-2):
        space_h = curved_space_3d(sig, fiber_step_scale=scale)
        _, _, r3h = maxwell_residuals(space_h, y)
        errs.append(np.max(np.abs(r3h.values)))
    assert 2.5 < errs[0] / errs[1] < 6.5  # ~4: second order


def test_residual_fields_are_cyclic_objects():
    # each residual is invariant under cyclic relabeling of its three slots
    def sig(pts, y):
        return 0.1 * np.sin(pts[..., 0]) * (1 + 0.2 * y[1])

    space = curved_space_3d(sig, n=9)
    r1, r2, r3 = maxwell_residuals(space, np.array([0.9, 0.7, 0.2]))
    for r in (r1, r2, r3):
        cycled = np.einsum("...jki->...ijk", r.values)
        assert np.max(np.abs(r.values - cycled)) < 1e-10


def test_each_field_forms_only_the_curvature_data_it_reads():
    # a curvature package computes Ricci, R and r^i_{jkl} when first read:
    # the Einstein equations without a factor never form the n^4 tensor,
    # and the Maxwell residuals never form Ricci or R
    base = curved_space().base
    einstein_system(conformal_space(base, None), 1.0, np.array([0.5, 0.5]), False)
    assert "ricci" in vars(base) and "scalar" in vars(base)
    assert "curvature" not in vars(base)

    def sig(pts, y):
        return 0.1 * np.sin(pts[..., 0]) * (1 + 0.2 * y[1])

    space = curved_space_3d(sig, n=9)
    maxwell_residuals(space, np.array([0.9, 0.7, 0.2]))
    assert "curvature" in vars(space.base)
    assert "ricci" not in vars(space.base) and "scalar" not in vars(space.base)


# ---------------------------------------------------------------------------
# deflection tensor
# ---------------------------------------------------------------------------


def test_deflection_zero_sigma():
    space = curved_space()
    t = deflection_tensor(space, np.array([0.4, 1.0]))
    assert np.max(np.abs(t.values)) < 1e-12


def test_deflection_two_dim_position_sigma():
    # n = 2 kills the trace part; fiber-independence kills the rest
    space = curved_space(lambda p, y: 0.2 * np.sin(p[..., 0]))
    t = deflection_tensor(space, np.array([0.4, 1.0]))
    assert np.max(np.abs(t.values)) < 1e-12


def test_deflection_three_dim_flat_position_sigma():
    # flat base in three dimensions with position-only sigma: only the
    # trace part survives and matches its direct evaluation
    def sig(pts, y):
        return 0.2 * np.sin(pts[..., 0]) * np.cos(pts[..., 1]) + 0.1 * pts[..., 2] * 0
    space = flat_space(sig, n=13, dim=3)
    y = np.array([0.5, 0.2, -0.4])
    t, terms = deflection_tensor(space, y, return_terms=True)
    from glharmonic.gl_space import sigma_blocks

    blocks = sigma_blocks(space, y)
    gamma = space.base.gamma.values
    direct = (3 - 2) * (gamma * blocks.tr_h.values[..., None, None] - blocks.hess_h.values)
    assert np.max(np.abs(t.values - direct)) < 1e-10
    for name in ("ricci_scalar_part", "ricci_vector_part", "curvature_mixed_part"):
        assert np.max(np.abs(terms[name].values)) < 1e-10, name


def test_deflection_reports_asymmetry_instead_of_asserting():
    # the antisymmetric part is measured, not assumed zero
    def sig(pts, y):
        return 0.15 * np.sin(pts[..., 0]) * (1 + 0.3 * y[0] * y[1])

    space = curved_space(sig)
    t = deflection_tensor(space, np.array([0.8, 0.6]))
    anti = t.values - np.swapaxes(t.values, -1, -2)
    assert np.isfinite(np.max(np.abs(anti)))


# ---------------------------------------------------------------------------
# Einstein system
# ---------------------------------------------------------------------------


def test_flat_vacuum_every_output_zero():
    space = flat_space()
    sys = einstein_system(space, K=1.0, y=np.array([1.0, 0.0]))
    assert np.max(np.abs(sys.h_lhs.values)) < 1e-12
    assert np.max(np.abs(sys.v_lhs.values)) < 1e-12
    assert np.max(np.abs(sys.t_field.values)) < 1e-12


def test_sphere_two_dim_einstein_tensor_vanishes():
    space = curved_space(n=64)
    sys = einstein_system(space, K=1.0, y=np.array([0.5, 0.5]))
    mask = interior_mask(space.grid)
    assert np.max(np.abs(sys.h_lhs.values[mask])) < 5e-6  # stencil error scale


def test_two_dim_vertical_lhs_identically_zero():
    def sig(pts, y):
        return 0.2 * np.sin(pts[..., 0]) * (1 + 0.4 * y[0] ** 2)

    space = curved_space(sig)
    sys = einstein_system(space, K=2.0, y=np.array([0.7, 0.3]))
    assert np.max(np.abs(sys.v_lhs.values)) == 0.0  # factor (2 - n) is exact


def test_sigma_zero_reduces_to_riemannian_einstein_tensor():
    space = curved_space(n=48)
    sys = einstein_system(space, K=1.0, y=np.array([0.3, 0.9]))
    direct = space.base.einstein_tensor()
    assert np.max(np.abs(sys.h_lhs.values - direct.values)) < 1e-10


@pytest.mark.parametrize("make, ys", [
    (lambda: curved_space(), [[0.3, 0.9], [-0.7, 0.4]]),
    (lambda: curved_space_3d(n=9), [[1.0, 0.3, 0.2], [-0.5, 0.8, -1.1]]),
], ids=["sphere-band", "curved-3d"])
def test_no_factor_matches_the_zero_jet_path(make, ys):
    # sigma None skips the derivative blocks; the full path on the zero jet
    # gives the same h_lhs, v_lhs and Maxwell residuals bit for bit (v_lhs
    # is (2 - n)(+0.0), so -0.0 on the 3-D chart).  Its t_ij is zeros too,
    # but on the 3-D chart some carry the sign of their arithmetic (-0.0 in
    # t_01 at some nodes); the addition G + t still gives G's bits
    base = make().base
    none, zero = conformal_space(base, None), conformal_space(base, zero_sigma, zero_sigma_jet)
    for y in map(np.array, ys):
        got, want = einstein_system(none, 1.0, y, False), einstein_system(zero, 1.0, y, False)
        assert got.h_lhs.values.tobytes() == want.h_lhs.values.tobytes()
        assert got.v_lhs.values.tobytes() == want.v_lhs.values.tobytes()
        g, w = got.t_field.values, want.t_field.values
        assert not np.any(g) and not np.any(np.signbit(g)) and not np.any(w)
        if base.dim == 2:
            assert g.tobytes() == w.tobytes()
        for r_got, r_want in zip(maxwell_residuals(none, y), maxwell_residuals(zero, y)):
            assert r_got.values.tobytes() == r_want.values.tobytes()


def test_no_factor_keeps_a_nonfinite_einstein_node():
    base = curved_space(n=17).base
    ricci = base.ricci.values.copy()
    ricci[3, 4, 0, 1] = np.nan
    ricci[5, 6, 1, 1] = np.inf
    # a fresh package with the bad Ricci and the original finite scalar in
    # its cache: a lazy scalar of the bad Ricci would be non-finite there
    bad = replace(base)
    vars(bad).update(ricci=TensorField(base.grid, ricci), scalar=base.scalar)
    h = einstein_system(conformal_space(bad, None), 1.0, np.array([0.5, 0.5]), False).h_lhs.values
    assert np.isnan(h[3, 4, 0, 1]) and h[5, 6, 1, 1] == np.inf
    assert np.argwhere(~np.isfinite(h)).tolist() == [[3, 4, 0, 1], [5, 6, 1, 1]]


def test_energy_momentum_division():
    def sig(pts, y):
        return 0.1 * np.sin(pts[..., 0]) * (1 + 0.2 * y[1])

    space = curved_space(sig)
    K = 8.0 * np.pi
    sys = einstein_system(space, K=K, y=np.array([0.5, 0.8]))
    assert np.allclose(sys.TH.values, sys.h_lhs.values / K)
    assert np.allclose(sys.TV.values, sys.v_lhs.values / K)


def test_zero_coupling_guard():
    space = flat_space()
    with pytest.raises(DivisionGuardError):
        einstein_system(space, K=0.0, y=np.array([1.0, 0.0]))
    sys = einstein_system(space, K=0.0, y=np.array([1.0, 0.0]), energy_momentum=False)
    assert sys.TH is None and sys.TV is None


def test_constant_sigma_shift_scaling():
    # sigma -> sigma + c scales F and f by exp(2c) and leaves the
    # derivative blocks and the deflection tensor unchanged
    def sig(pts, y):
        return 0.1 * np.sin(pts[..., 0]) * (1 + 0.3 * y[0])

    c = 0.7
    space0 = curved_space(sig)
    space1 = curved_space(lambda p, y: sig(p, y) + c)
    y = np.array([0.9, 0.5])
    em0, em1 = em_tensors(space0, y), em_tensors(space1, y)
    assert np.allclose(em1.F.values, np.exp(2 * c) * em0.F.values, atol=1e-9)
    assert np.allclose(em1.f.values, np.exp(2 * c) * em0.f.values, atol=1e-9)
    t0 = deflection_tensor(space0, y)
    t1 = deflection_tensor(space1, y)
    assert np.max(np.abs(t0.values - t1.values)) < 1e-9


# ---------------------------------------------------------------------------
# single-pass fiber stencils: sigma call counts and the two-pass oracle
# ---------------------------------------------------------------------------


def test_sigma_calls_per_sample():
    # one fiber stencil of 2n + 1 points, each point a gradient stage of
    # 1 + 2n calls: (1 + 2n)^2 for sigma_blocks and for a whole sample
    from glharmonic.gl_space import sigma_blocks

    calls = [0]

    def sig(pts, y):
        calls[0] += 1
        return 0.1 * np.sin(pts[..., 0]) * (1 + 0.2 * y[0] * y[-1])

    space2 = curved_space(sig, n=9)
    space3 = curved_space_3d(sig, n=5)
    y2, y3 = np.array([0.6, 0.9]), np.array([0.9, 0.7, 0.2])

    def count(fn, *args):
        calls[0] = 0
        fn(*args)
        return calls[0]

    assert count(sigma_blocks, space2, y2) <= 25
    assert count(sigma_blocks, space3, y3) <= 49
    assert count(maxwell_residuals, space3, y3) <= 49
    assert count(einstein_system, space2, 1.0, y2) <= 25


def _oracle_sigma(pts, y):
    return (np.log(np.abs(A3 @ y)) * (1 + 0.1 * np.sin(pts[..., 0]))
            + 0.05 * np.cos(pts[..., 1]) * y[0])


MAXWELL_ORACLE_SPACE = curved_space_3d(_oracle_sigma, n=7)


# no shrink phase: each example runs two fiber stencils on a 7^3 space, and
# shrinking a failure through them took minutes to report it
@settings(max_examples=20, deadline=None, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(st.tuples(*[st.floats(-1.5, 1.5)] * 3).filter(
    lambda y: abs(A3 @ np.array(y)) >= 0.3))
# residual 2 cancels to 8e-6 here, from terms of size 0.27
@example(y=(3.605893051399305e-190, -0.6360969570534556, 1.5))
def test_maxwell_matches_two_pass_composition(y):
    # oracle: the rank-generic hv_covariant applied to F and f separately
    # (each with its own fiber stencil), plus the curvature term
    from glharmonic.gl_space import hv_covariant, sigma_blocks

    y = np.array(y)
    space = MAXWELL_ORACLE_SPACE
    F_h, F_v = hv_covariant(lambda yy: em_tensors(space, yy).F.values, space, y)
    f_h, f_v = hv_covariant(lambda yy: em_tensors(space, yy).f.values, space, y)
    gy = np.einsum("...ip,p->...i", space.metric_values(y), y)
    curv = np.einsum("...hqjk,q,...h->...jk", space.base.curvature.values, y,
                     sigma_blocks(space, y).grad_v.values)
    curv_term = gy[..., :, None, None] * curv[..., None, :, :]
    terms = ((F_h.values, curv_term), (F_v.values, f_h.values), (f_v.values,))
    expected = (
        cyclic(F_h.values) - cyclic(curv_term),
        cyclic(F_v.values) + cyclic(f_h.values),
        cyclic(f_v.values),
    )
    # at the one component (0, 1, 2): the oracle sums the other entries in
    # another order, so its round-off is relative to the size of the terms
    # summed, the cyclic sum of their absolute values, not to the residual
    # they cancel to
    for got, want, summed in zip(maxwell_residuals(space, y), expected, terms):
        got, want = got.values[..., 0, 1, 2], want[..., 0, 1, 2]
        size = sum(cyclic(np.abs(t)) for t in summed)[..., 0, 1, 2]
        scale = max(np.max(size), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
