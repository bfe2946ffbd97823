import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic.errors import ContractionError, SingularMetricError
from glharmonic.tensor_core import (
    LO,
    UP,
    NodeMatrices,
    TensorField,
    box_grid,
    contract,
    covector_field,
    fd_partial,
    identity_metric,
    interval_grid,
    invert_metric,
    metric_field,
    quadrature,
    sample_metric,
    sample_scalar,
    scalar_field,
    vector_field,
)

rng = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# fd_partial
# ---------------------------------------------------------------------------


def test_fd_linear_field_is_exact():
    grid = interval_grid(0.0, 1.0, 33)
    f = sample_scalar(grid, lambda p: 3.0 * p[..., 0])
    df = fd_partial(f, axis=0)
    assert np.allclose(df.values, 3.0, atol=1e-13)


def test_fd_constant_field_is_zero():
    grid = box_grid([(0, 1), (0, 2)], [17, 9])
    f = sample_scalar(grid, lambda p: np.full(p.shape[:-1], 7.5))
    for axis in range(2):
        assert np.allclose(fd_partial(f, axis).values, 0.0, atol=1e-13)


def test_fd_periodic_sine_order4():
    grid = interval_grid(0.0, 1.0, 64, periodic=True, stencil_order=4)
    f = sample_scalar(grid, lambda p: np.sin(2 * np.pi * p[..., 0]))
    df = fd_partial(f, axis=0)
    exact = 2 * np.pi * np.cos(2 * np.pi * grid.axis_coords(0))
    err = np.max(np.abs(df.values - exact))
    # truncation bound of the five-point stencil: h^4 max|f^(5)| / 30
    assert err < (1 / 64) ** 4 * (2 * np.pi) ** 5 / 30 * 1.05
    assert err / (2 * np.pi) < 1e-5  # relative to the derivative scale


@pytest.mark.parametrize("order,degree", [(2, 2), (4, 4)])
def test_fd_polynomial_exactness(order, degree):
    # central and one-sided stencils of order p differentiate degree-p
    # polynomials exactly, including at interval boundaries
    grid = interval_grid(-1.0, 2.0, 21, stencil_order=order)
    coeffs = rng.normal(size=degree + 1)
    x = grid.axis_coords(0)
    f = scalar_field(grid, np.polyval(coeffs, x))
    df = fd_partial(f, 0)
    exact = np.polyval(np.polyder(coeffs), x)
    assert np.max(np.abs(df.values - exact)) < 1e-10


def test_fd_order2_convergence_rate():
    errs = []
    for n in (32, 64):
        grid = interval_grid(0.0, 1.0, n, periodic=True)
        f = sample_scalar(grid, lambda p: np.sin(2 * np.pi * p[..., 0]))
        exact = 2 * np.pi * np.cos(2 * np.pi * grid.axis_coords(0))
        errs.append(np.max(np.abs(fd_partial(f, 0).values - exact)))
    assert errs[0] / errs[1] > 3.5  # second order: ratio ~4


# ---------------------------------------------------------------------------
# invert_metric
# ---------------------------------------------------------------------------


def test_invert_identity():
    grid = box_grid([(0, 1), (0, 1)], [6, 6])
    g = identity_metric(grid)
    ginv = invert_metric(g)
    assert np.allclose(ginv.values, g.values)
    assert ginv.index_kinds == (UP, UP)


def test_invert_diagonal():
    grid = interval_grid(0, 1, 5)
    vals = np.broadcast_to(np.diag([4.0, 9.0]), (5, 2, 2)).copy()
    g = metric_field(grid, vals)
    ginv = invert_metric(g)
    assert np.allclose(ginv.values, np.diag([0.25, 1.0 / 9.0]))


def _spd_roundtrip(n):
    grid = box_grid([(0, 1), (0, 1)], [7, 5])
    a = rng.normal(size=(7, 5, n, n))
    spd = np.einsum("...ij,...kj->...ik", a, a) + 3.0 * np.eye(n)
    g = metric_field(grid, spd)
    ginv = invert_metric(g)
    prod = np.einsum("...ij,...jk->...ik", g.values, ginv.values)
    assert np.max(np.abs(prod - np.eye(n))) < 1e-12
    # double inversion is the identity on well-conditioned inputs
    g2 = invert_metric(ginv)
    assert np.max(np.abs(g2.values - g.values)) < 1e-10


def test_invert_random_spd_roundtrip():
    _spd_roundtrip(3)


def test_invert_random_spd_roundtrip_2x2():
    _spd_roundtrip(2)


def test_invert_singular_names_node():
    grid = interval_grid(0, 1, 5)
    vals = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    vals[3] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    g = metric_field(grid, vals, definite="pseudo")
    with pytest.raises(SingularMetricError) as err:
        invert_metric(g)
    assert err.value.node == (3,)


def test_invert_nan_names_node():
    grid = interval_grid(0, 1, 5)
    g = metric_field(grid, np.broadcast_to(np.eye(2), (5, 2, 2)).copy(), definite="pseudo")
    # construction rejects NaN, so poison the checked field in place to
    # reach the condition-number gate of invert_metric
    g.values[2, 0, 1] = g.values[2, 1, 0] = np.nan
    with pytest.raises(SingularMetricError) as err:
        invert_metric(g)
    assert err.value.node == (2,)


def test_non_spd_metric_rejected():
    grid = interval_grid(0, 1, 5)
    vals = np.broadcast_to(np.diag([1.0, -1.0]), (5, 2, 2)).copy()
    with pytest.raises(SingularMetricError):
        metric_field(grid, vals)
    # but allowed as a pseudo-Riemannian metric
    metric_field(grid, vals, definite="pseudo")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_metric_rejected(n, bad):
    # a NaN passes through np.linalg.cholesky without an error, and an
    # infinite a11 passes the 2x2 Cholesky recurrence
    grid = box_grid([(0, 1), (0, 1)], [6, 5])
    vals = np.broadcast_to(np.eye(n), (6, 5, n, n)).copy()
    vals[4, 2, 0, 0] = bad
    vals[5, 1, n - 1, n - 1] = -1.0
    with pytest.raises(SingularMetricError) as err:
        metric_field(grid, vals)
    assert err.value.node == (4, 2)
    assert str(err.value) == "metric is not finite at node (4, 2)"


@pytest.mark.parametrize("definite", ["riemannian", "pseudo"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_metric_rejected_before_symmetry(definite, n, bad):
    # one off-diagonal entry (the diagonal for n = 1): the matrix is also
    # non-symmetric, and a NaN defect passed a plain `>` gate
    grid = box_grid([(0, 1), (0, 1)], [6, 5])
    vals = np.broadcast_to(np.eye(n), (6, 5, n, n)).copy()
    vals[3, 1, 0, n - 1] = bad
    vals[5, 4, 0, 0] = -1.0
    with pytest.raises(SingularMetricError) as err:
        metric_field(grid, vals, definite=definite)
    assert err.value.node == (3, 1)
    assert str(err.value) == "metric is not finite at node (3, 1)"


# ---------------------------------------------------------------------------
# NodeMatrices: closed forms for n <= 2 against np.linalg
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
# closed forms and LAPACK each carry a relative error of a few eps * cond
# in det, inverse and cond; C is the constant of that bound
C = 16.0
BATCH = 48


def _rotations(r, count):
    t = r.uniform(0.0, 2.0 * np.pi, count)
    c, s = np.cos(t), np.sin(t)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _matrices(n, family, log_cond, log_scale, seed):
    """A batch of BATCH n x n matrices of the given family, condition
    numbers up to 10**log_cond and entries of size about 10**log_scale."""
    r = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    big = scale * r.uniform(0.5, 2.0, BATCH)
    if n == 1:
        sign = 1.0 if family == "spd" else r.choice([-1.0, 1.0], BATCH)
        return (sign * big).reshape(BATCH, 1, 1)
    small = big * 10.0 ** -r.uniform(0.0, log_cond, BATCH)
    U = _rotations(r, BATCH)
    if family == "general":
        V = _rotations(r, BATCH) * r.choice([-1.0, 1.0], (BATCH, 1, 1))
        return np.einsum("...ij,...j,...kj->...ik", U, np.stack([big, small], -1), V)
    if family == "indefinite":
        small = -small
    m = np.einsum("...ij,...j,...kj->...ik", U, np.stack([big, small], -1), U)
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    if family == "near_symmetric":
        skew = 1e-11 * big * r.uniform(-1.0, 1.0, BATCH)
        m[..., 0, 1] += skew
        m[..., 1, 0] -= skew
    return m


def _cholesky_succeeds(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_against_linalg(m):
    nm = NodeMatrices(m)
    ref_cond = np.linalg.cond(m)
    tol = C * EPS * ref_cond
    ref_det = np.linalg.det(m)
    assert np.all(np.abs(nm.det - ref_det) <= tol * np.abs(ref_det))
    assert np.all(np.abs(nm.cond - ref_cond) <= tol * ref_cond)
    ref_inv = np.linalg.inv(m)
    err = np.max(np.abs(nm.inv - ref_inv), axis=(-2, -1))
    assert np.all(err <= tol * np.max(np.abs(ref_inv), axis=(-2, -1)))
    assert nm.positive_definite.tolist() == [_cholesky_succeeds(x) for x in m]


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]),
       family=st.sampled_from(["spd", "indefinite", "general", "near_symmetric"]),
       log_cond=st.floats(0.0, 15.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_linalg(n, family, log_cond, log_scale, seed):
    _check_against_linalg(_matrices(n, family, log_cond, log_scale, seed))


@settings(max_examples=30, deadline=None, database=None)
@given(log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_definiteness_matches_cholesky_at_the_boundary(log_scale, seed):
    # a22 within one ulp of l21^2, as LAPACK computes l21, so that the
    # last pivot of the Cholesky recurrence is the smallest positive
    # number, zero or negative
    r = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    a11 = scale * r.uniform(0.1, 10.0, BATCH)
    a21 = scale * r.uniform(-10.0, 10.0, BATCH)
    l21 = a21 * (1.0 / np.sqrt(a11))
    a22 = np.nextafter(l21 * l21, r.choice([-np.inf, 0.0, np.inf], BATCH) * l21 * l21)
    m = np.stack([np.stack([a11, a21], -1), np.stack([a21, a22], -1)], -2)
    ok = NodeMatrices(m).positive_definite
    assert ok.tolist() == [_cholesky_succeeds(x) for x in m]
    assert 0 < ok.sum() < BATCH


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_singular_and_nan_nodes(n, log_scale, seed):
    r = np.random.default_rng(seed)
    m = _matrices(n, "general", 3.0, log_scale, seed)
    singular, nan = r.choice(BATCH, 2, replace=False)
    if n == 2:
        # proportional rows with a power-of-two factor: a d - b c == 0 exactly
        m[singular, 1] = m[singular, 0] * 2.0 ** int(r.integers(-3, 4))
    else:
        m[singular] = 0.0
    m[nan].flat[int(r.integers(0, n * n))] = np.nan
    nm = NodeMatrices(m)
    assert nm.det[singular] == 0.0 and nm.cond[singular] == np.inf
    assert np.linalg.cond(m[singular]) > 1e15
    with pytest.raises(np.linalg.LinAlgError):
        nm.inv
    assert np.isnan(nm.det[nan]) and np.isnan(nm.cond[nan])
    assert not nm.positive_definite[nan]
    # only the lower triangle counts, so a non-symmetric singular matrix may pass
    assert nm.positive_definite[singular] == _cholesky_succeeds(m[singular])
    rest = np.ones(BATCH, bool)
    rest[[singular, nan]] = False
    _check_against_linalg(m[rest])
    assert np.isnan(NodeMatrices(m[nan]).inv).all()


@pytest.mark.parametrize("n", [3, 4])
def test_order_three_and_up_is_numpy_linalg_bit_for_bit(n):
    grid = box_grid([(0, 1), (0, 1)], [7, 5])
    a = rng.normal(size=(7, 5, n, n))
    vals = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(n)
    nm = NodeMatrices(vals)
    assert np.array_equal(nm.det, np.linalg.det(vals))
    assert np.array_equal(nm.inv, np.linalg.inv(vals))
    assert np.array_equal(nm.cond, np.linalg.cond(vals))
    ginv = invert_metric(metric_field(grid, vals)).values
    ref = np.linalg.inv(vals)
    assert np.array_equal(ginv, 0.5 * (ref + np.swapaxes(ref, -1, -2)))
    indefinite = vals.copy()
    indefinite[2, 3] = np.diag(np.arange(n) - 1.0)
    indefinite[5, 0, 1, 1] = np.nan
    ok = NodeMatrices(indefinite).positive_definite
    expected = [_cholesky_succeeds(x) and np.isfinite(x).all() for x in indefinite.reshape(-1, n, n)]
    assert ok.reshape(-1).tolist() == expected
    assert not ok[2, 3] and not ok[5, 0] and ok.sum() == 33


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_unit_square():
    grid = box_grid([(0, 1), (0, 1)], [11, 17])
    one = scalar_field(grid, np.ones(grid.shape))
    assert quadrature(one) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_periodic_circle():
    grid = interval_grid(0.0, 2 * np.pi, 16, periodic=True)
    one = scalar_field(grid, np.ones(grid.shape))
    assert quadrature(one) == pytest.approx(2 * np.pi, abs=1e-13)


def test_quadrature_sin_squared():
    grid = interval_grid(0.0, 2 * np.pi, 64, periodic=True)
    f = sample_scalar(grid, lambda p: np.sin(p[..., 0]) ** 2)
    assert quadrature(f) == pytest.approx(np.pi, abs=1e-10)


def test_quadrature_constant_times_volume():
    grid = box_grid([(0, 2), (1, 4)], [9, 13], periodic=[True, False])
    c = 2.75
    f = scalar_field(grid, np.full(grid.shape, c))
    assert quadrature(f) == pytest.approx(c * 2 * 3, rel=1e-14)


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------


def test_contract_delta_with_vector():
    grid = interval_grid(0, 1, 5)
    delta = TensorField(grid, np.broadcast_to(np.eye(3), (5, 3, 3)).copy(), (UP, LO))
    v = vector_field(grid, rng.normal(size=(5, 3)))
    out = contract(delta, v, [(1, 0)])
    assert out.index_kinds == (UP,)
    assert np.allclose(out.values, v.values)


def test_contract_metric_with_inverse_gives_delta():
    grid = interval_grid(0, 1, 6)
    a = rng.normal(size=(6, 2, 2))
    g = metric_field(grid, np.einsum("...ij,...kj->...ik", a, a) + 2 * np.eye(2))
    ginv = invert_metric(g)
    out = contract(ginv, g, [(1, 0)])
    assert np.max(np.abs(out.values - np.eye(2))) < 1e-12


def test_contract_full_against_loop_oracle():
    grid = box_grid([(0, 1), (0, 1)], [5, 5])
    m, n = 2, 3
    g_up = TensorField(grid, rng.normal(size=(5, 5, m, m)), (UP, UP))
    h_lo = TensorField(grid, rng.normal(size=(5, 5, n, n)), (LO, LO))
    T = TensorField(grid, rng.normal(size=(5, 5, n, m)), (UP, LO))
    gh = contract(g_up, h_lo, [])
    gT = contract(gh, T, [(0, 1), (2, 0)])  # g^{ab} h_{ij} T^i_a -> slots (b, j)
    full = contract(gT, T, [(0, 1), (1, 0)])
    oracle = np.zeros((5, 5))
    for a in range(m):
        for b_ in range(m):
            for i in range(n):
                for j in range(n):
                    oracle += (
                        g_up.values[..., a, b_]
                        * h_lo.values[..., i, j]
                        * T.values[..., i, a]
                        * T.values[..., j, b_]
                    )
    assert np.max(np.abs(full.values - oracle)) < 1e-12


def test_contract_is_multilinear():
    grid = interval_grid(0, 1, 5)
    t1 = covector_field(grid, rng.normal(size=(5, 3)))
    t1p = covector_field(grid, rng.normal(size=(5, 3)))
    t2 = vector_field(grid, rng.normal(size=(5, 3)))
    alpha, beta = 1.7, -0.4
    lhs = contract(alpha * t1 + beta * t1p, t2, [(0, 0)])
    rhs = alpha * contract(t1, t2, [(0, 0)]) + beta * contract(t1p, t2, [(0, 0)])
    assert np.allclose(lhs.values, rhs.values, atol=1e-13)


def test_contract_variance_mismatch_raises():
    grid = interval_grid(0, 1, 5)
    v = vector_field(grid, rng.normal(size=(5, 3)))
    w = vector_field(grid, rng.normal(size=(5, 3)))
    with pytest.raises(ContractionError):
        contract(v, w, [(0, 0)])


def test_contract_dimension_mismatch_raises():
    grid = interval_grid(0, 1, 5)
    v = vector_field(grid, rng.normal(size=(5, 3)))
    w = covector_field(grid, rng.normal(size=(5, 2)))
    with pytest.raises(ContractionError):
        contract(v, w, [(0, 0)])


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_spacing_conventions():
    g1 = interval_grid(0.0, 1.0, 11)
    assert g1.spacing[0] == pytest.approx(0.1)
    g2 = interval_grid(0.0, 1.0, 10, periodic=True)
    assert g2.spacing[0] == pytest.approx(0.1)
    assert g2.axis_coords(0)[-1] == pytest.approx(0.9)


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        interval_grid(0, 1, 4)


def test_sample_metric_shape_checks():
    grid = box_grid([(0, 1), (0, 1)], [5, 5])
    g = sample_metric(grid, lambda p: np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy())
    assert g.slot_dims == (2, 2)


def test_tangent_sample_invariant():
    from glharmonic.tensor_core import TangentSample

    s = TangentSample([0.1, 0.2], [1.0, -1.0])
    assert s.fiber.shape == s.base_point.shape
    with pytest.raises(ValueError):
        TangentSample([0.1, 0.2], [1.0, -1.0, 0.5])
