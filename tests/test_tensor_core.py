import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic.errors import SingularMetricError
from glharmonic.tensor_core import (
    COND_BOUND,
    MetricField,
    NodeMatrices,
    TensorField,
    _ONESIDED,
    _derivative_1d,
    box_grid,
    fd_partial,
    identity_metric,
    interval_grid,
    invert_metric,
    quadrature,
    sample_metric,
    sample_scalar,
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
    f = TensorField(grid, np.polyval(coeffs, x))
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


def derivative_1d_reference(values, axis, h, order, periodic):
    """The stencil as it was computed from ``np.roll`` copies, with the
    one-sided rows from ``np.take``: the reference of every output byte."""
    n = values.shape[axis]
    if order == 2:
        out = (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * h)
    else:
        out = (
            np.roll(values, 2, axis=axis)
            - 8 * np.roll(values, 1, axis=axis)
            + 8 * np.roll(values, -1, axis=axis)
            - np.roll(values, -2, axis=axis)
        ) / (12 * h)
    if periodic:
        return out

    def take(i):
        return np.take(values, i, axis=axis)

    for r, coeffs in enumerate(_ONESIDED[order]):
        low = sum(c * take(j) for j, c in enumerate(coeffs)) / h
        high = -sum(c * take(n - 1 - j) for j, c in enumerate(coeffs)) / h
        idx_lo = [slice(None)] * values.ndim
        idx_lo[axis] = r
        idx_hi = [slice(None)] * values.ndim
        idx_hi[axis] = n - 1 - r
        out[tuple(idx_lo)] = low
        out[tuple(idx_hi)] = high
    return out


SPECIAL_ENTRIES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308])


@st.composite
def stencil_inputs(draw):
    """A field of 1-3 grid axes of 5-8 nodes and 0-2 slots, as a contiguous
    array or a strided view (every other entry of a trailing or a grid axis),
    with none, some or all entries drawn from SPECIAL_ENTRIES or from its
    two signed zeros."""
    grid_shape = tuple(draw(st.lists(st.integers(5, 8), min_size=1, max_size=3)))
    slots = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    layout = draw(st.sampled_from(["contiguous", "trailing", "grid"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = list(grid_shape + slots)
    if layout == "trailing":
        full.append(2)
    elif layout == "grid":
        full[0] *= 2
    base = gen.standard_normal(full) * 10.0 ** gen.integers(-3, 4, size=full)
    # all signed zeros, too: the sign of a zero row depends on every term
    palette = draw(st.sampled_from([SPECIAL_ENTRIES, SPECIAL_ENTRIES[:2]]))
    special = gen.random(full) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    base[special] = gen.choice(palette, size=int(special.sum()))
    values = base[..., 1] if layout == "trailing" else base[::2] if layout == "grid" else base
    axis = draw(st.integers(0, len(grid_shape) - 1))
    return values, axis


@settings(max_examples=150, deadline=None, database=None)
@given(stencil_inputs(), st.sampled_from([2, 4]), st.booleans(),
       st.floats(1e-3, 10.0))
def test_derivative_1d_bytes_match_the_roll_stencil(case, order, periodic, h):
    values, axis = case
    with np.errstate(all="ignore"):
        got = _derivative_1d(values, axis, h, order, periodic)
        want = derivative_1d_reference(values, axis, h, order, periodic)
        dense = _derivative_1d(np.ascontiguousarray(values), axis, h, order, periodic)
    assert got.shape == values.shape
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == dense.tobytes()


# ---------------------------------------------------------------------------
# invert_metric
# ---------------------------------------------------------------------------


def test_invert_identity():
    grid = box_grid([(0, 1), (0, 1)], [6, 6])
    g = identity_metric(grid)
    ginv = invert_metric(g)
    assert np.allclose(ginv.values, g.values)


def test_invert_diagonal():
    grid = interval_grid(0, 1, 5)
    vals = np.broadcast_to(np.diag([4.0, 9.0]), (5, 2, 2)).copy()
    g = MetricField(grid, vals)
    ginv = invert_metric(g)
    assert np.allclose(ginv.values, np.diag([0.25, 1.0 / 9.0]))


def _spd_roundtrip(n):
    grid = box_grid([(0, 1), (0, 1)], [7, 5])
    a = rng.normal(size=(7, 5, n, n))
    spd = np.einsum("...ij,...kj->...ik", a, a) + 3.0 * np.eye(n)
    g = MetricField(grid, spd)
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
    g = MetricField(grid, vals, definite="pseudo")
    with pytest.raises(SingularMetricError) as err:
        invert_metric(g)
    assert err.value.node == (3,)


def test_invert_nan_names_node():
    grid = interval_grid(0, 1, 5)
    g = MetricField(grid, np.broadcast_to(np.eye(2), (5, 2, 2)).copy(), definite="pseudo")
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
        MetricField(grid, vals)
    # but allowed as a pseudo-Riemannian metric
    MetricField(grid, vals, definite="pseudo")


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
        MetricField(grid, vals)
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
        MetricField(grid, vals, definite=definite)
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


def _orthogonals(r, n):
    if n == 2:
        return _rotations(r, BATCH)
    q, _ = np.linalg.qr(r.standard_normal((BATCH, n, n)))
    return q


def _matrices(n, family, log_cond, log_scale, seed, min_log_cond=0.0):
    """A batch of BATCH n x n matrices of the given family, condition
    numbers between 10**min_log_cond and 10**log_cond and entries of size
    about 10**log_scale."""
    r = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    big = scale * r.uniform(0.5, 2.0, BATCH)
    if n == 1:
        sign = 1.0 if family == "spd" else r.choice([-1.0, 1.0], BATCH)
        return (sign * big).reshape(BATCH, 1, 1)
    small = big * 10.0 ** -r.uniform(min_log_cond, log_cond, BATCH)
    if n == 2:
        sv = np.stack([big, small], -1)
    else:
        # the other singular values log-uniform between small and big
        between = np.sort(r.uniform(0.0, 1.0, (BATCH, n - 2)), axis=-1)
        frac = np.concatenate([np.zeros((BATCH, 1)), between, np.ones((BATCH, 1))], -1)
        sv = big[:, None] * (small / big)[:, None] ** frac
    U = _orthogonals(r, n)
    if family == "general":
        V = _orthogonals(r, n) * r.choice([-1.0, 1.0], (BATCH, 1, 1))
        return np.einsum("...ij,...j,...kj->...ik", U, sv, V)
    if family == "indefinite":
        sv[..., -1] = -sv[..., -1]
    m = np.einsum("...ij,...j,...kj->...ik", U, sv, U)
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
    ginv = invert_metric(MetricField(grid, vals)).values
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
# invert_metric's screen against the condition number at every node
# ---------------------------------------------------------------------------


def _gate_at_every_node(g):
    """invert_metric with the condition number computed at every node."""
    mats = NodeMatrices(g.values)
    cond = mats.cond
    bad = ~(cond <= COND_BOUND)
    if np.any(bad):
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SingularMetricError(
            f"metric condition number {cond[bad].max():.3e} exceeds bound at node {node}",
            node=node,
        )
    inv = mats.inv
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _outcome(invert, g):
    try:
        return "inverse", invert(g).tobytes()
    except SingularMetricError as exc:
        return "singular", (str(exc), exc.node)
    except np.linalg.LinAlgError as exc:
        return "linalg", str(exc)


def _metric_holding(m):
    """A pseudo metric on an 8 x 6 grid whose node matrices are ``m``,
    symmetric or not: construction checks symmetry, so the checked field
    is overwritten in place."""
    n = m.shape[-1]
    g = MetricField(box_grid([(0, 1), (0, 1)], [8, 6]),
                     np.broadcast_to(np.eye(n), (8, 6, n, n)).copy(), definite="pseudo")
    g.values[...] = m.reshape(8, 6, n, n)
    return g


@settings(max_examples=80, deadline=None, database=None)
@given(n=st.sampled_from([1, 2, 3, 4]),
       family=st.sampled_from(["spd", "indefinite", "general", "near_symmetric"]),
       band=st.sampled_from(["up_to_1e15", "across_the_bound", "below_the_bound"]),
       log_cond=st.floats(0.0, 15.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_screened_gate_matches_the_gate_at_every_node(n, family, band, log_cond, log_scale,
                                                      seed):
    # the band [COND_BOUND / (2n), 2 COND_BOUND] holds the nodes the screen
    # does not clear and the bound itself; the inverses are compared with
    # the averaged ones byte for byte, which for n <= 2 and an exactly
    # symmetric family (spd, indefinite) invert_metric does not average
    lo, hi = {"up_to_1e15": (0.0, log_cond),
              "across_the_bound": (np.log10(COND_BOUND / (2 * n)), np.log10(2 * COND_BOUND)),
              "below_the_bound": (np.log10(COND_BOUND / (2 * n)), np.log10(COND_BOUND) - 0.01),
              }[band]
    g = _metric_holding(_matrices(n, family, hi, log_scale, seed, min_log_cond=lo))
    got = _outcome(lambda g: invert_metric(g).values, g)
    assert got == _outcome(_gate_at_every_node, g)


def test_no_condition_number_where_every_node_clears(monkeypatch):
    sizes = []
    cond = NodeMatrices.cond

    def spy(self):
        sizes.append(self.mats.shape[:-2])
        return cond.func(self)

    monkeypatch.setattr(NodeMatrices, "cond", property(spy))
    for n in (1, 2, 3):
        a = rng.normal(size=(7, 5, n, n))
        g = MetricField(box_grid([(0, 1), (0, 1)], [7, 5]),
                         np.einsum("...ij,...kj->...ik", a, a) + np.eye(n))
        invert_metric(g)
        assert sizes == []
        # one node the screen cannot clear: the condition number is taken
        # there alone
        g.values[3, 1] = np.diag(10.0 ** (-13.0 * np.arange(n)))
        if n > 1:
            with pytest.raises(SingularMetricError) as err:
                invert_metric(g)
            assert err.value.node == (3, 1) and sizes == [(1,)]
        sizes.clear()


def test_symmetry_defect_message():
    grid = box_grid([(0, 1), (0, 1)], [6, 5])
    vals = np.broadcast_to(np.diag([1.0, 2.0, 3.0]), (6, 5, 3, 3)).copy()
    vals[4, 1, 0, 2] += 1e-9
    vals[2, 3, 2, 1] -= 5e-10
    defect = np.max(np.abs(vals - np.swapaxes(vals, -1, -2)))
    with pytest.raises(ValueError) as err:
        MetricField(grid, vals)
    assert str(err.value) == f"metric is not symmetric (max defect {defect:.3e})"
    assert str(err.value) == "metric is not symmetric (max defect 1.000e-09)"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_definiteness_with_non_finite_entries_off_the_diagonal(n):
    a = rng.normal(size=(6, 5, n, n))
    m = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(n)
    # above and below the diagonal: the 2x2 recurrence reads only the lower
    # triangle
    for node, (i, j), bad in [((0, 1), (0, 1), np.inf), ((2, 2), (1, 0), -np.inf),
                              ((3, 4), (0, n - 1), np.nan), ((5, 0), (n - 1, 0), np.nan),
                              ((4, 3), (n - 2, n - 1), np.inf)]:
        m[node][i, j] = bad
    ok = NodeMatrices(m).positive_definite
    expected = np.isfinite(m).all(axis=(-2, -1)) & np.array(
        [_cholesky_succeeds(x) for x in m.reshape(-1, n, n)]).reshape(6, 5)
    assert ok.tolist() == expected.tolist()
    assert ok.sum() == 25


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_unit_square():
    grid = box_grid([(0, 1), (0, 1)], [11, 17])
    one = TensorField(grid, np.ones(grid.shape))
    assert quadrature(one) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_periodic_circle():
    grid = interval_grid(0.0, 2 * np.pi, 16, periodic=True)
    one = TensorField(grid, np.ones(grid.shape))
    assert quadrature(one) == pytest.approx(2 * np.pi, abs=1e-13)


def test_quadrature_sin_squared():
    grid = interval_grid(0.0, 2 * np.pi, 64, periodic=True)
    f = sample_scalar(grid, lambda p: np.sin(p[..., 0]) ** 2)
    assert quadrature(f) == pytest.approx(np.pi, abs=1e-10)


def test_quadrature_constant_times_volume():
    grid = box_grid([(0, 2), (1, 4)], [9, 13], periodic=[True, False])
    c = 2.75
    f = TensorField(grid, np.full(grid.shape, c))
    assert quadrature(f) == pytest.approx(c * 2 * 3, rel=1e-14)


def test_quadrature_rejects_a_vector_field():
    grid = box_grid([(0, 1), (0, 1)], [6, 5])
    with pytest.raises(ValueError, match="integrates scalar fields"):
        quadrature(TensorField(grid, np.ones(grid.shape + (2,))))


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


def test_field_values_must_start_with_the_grid_shape():
    grid = box_grid([(0, 1), (0, 1)], [6, 5])
    assert TensorField(grid, np.zeros((6, 5, 5))).slot_dims == (5,)
    with pytest.raises(ValueError, match="does not start with grid shape"):
        TensorField(grid, np.zeros((5, 6, 5)))


def test_metric_field_needs_two_equal_slots():
    grid = box_grid([(0, 1), (0, 1)], [6, 5])
    with pytest.raises(ValueError, match="exactly two"):
        MetricField(grid, np.broadcast_to(np.eye(2), grid.shape + (2, 2, 2)).copy())
    with pytest.raises(ValueError, match="equal dimension"):
        MetricField(grid, np.zeros(grid.shape + (2, 3)))


def test_sample_metric_shape_checks():
    grid = box_grid([(0, 1), (0, 1)], [5, 5])
    g = sample_metric(grid, lambda p: np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy())
    assert g.slot_dims == (2, 2)
