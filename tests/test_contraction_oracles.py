"""The batched-matmul contractions of the field layers against the einsum
forms they replaced, on random non-symmetric Christoffel arrays and the
curvature they give.  The einsum functions below are the references; they
are kept verbatim from the per-node formulas and must not be rewritten."""

from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic import riemann
from glharmonic.field_equations import _deflection, _em_jet, _em_values, maxwell_residuals
from glharmonic.gl_space import (
    ConformalFactorDerivatives,
    conformal_space,
    h_covariant,
    joint_fiber_partials,
    sigma_gradient_partials,
)
from glharmonic.riemann import RiemannPackage, christoffel, curvature_package
from glharmonic.scenarios import sigma_jet_evaluator
from glharmonic.tensor_core import (
    MetricField,
    TensorField,
    box_grid,
    contract_vector,
    fd_partial,
    invert_metric,
)

RTOL = 1e-13
SHAPES = {2: (6, 5), 3: (5, 6, 5), 4: (5, 5, 5, 5)}

oracle_settings = settings(max_examples=12, deadline=None, database=None)
cases = st.tuples(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))


def assert_close(got, want, scale=None):
    if scale is None:
        scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= RTOL * scale


def random_metric(rng, n):
    grid = box_grid([(0.0, 1.0)] * n, SHAPES[n])
    a = 0.4 * rng.standard_normal(grid.shape + (n, n))
    return MetricField(grid, a @ a.swapaxes(-1, -2) + np.eye(n))


def random_package(rng, n) -> RiemannPackage:
    """A package around a random (non-symmetric) Christoffel array over a
    random positive definite metric; they need not be consistent.  Its
    curvature and Ricci come from that Christoffel array, so the curvature
    is antisymmetric in its last two slots, as ``maxwell_residuals`` takes
    it to be."""
    gamma = random_metric(rng, n)
    return RiemannPackage(
        gamma=gamma,
        gamma_inv=invert_metric(gamma),
        christoffel=TensorField(gamma.grid, rng.standard_normal(gamma.grid.shape + (n,) * 3)),
    )


def smooth_sigma(pts, y):
    return 0.1 * np.sin(pts[..., 0]) * (1 + 0.2 * y[0] * y[-1]) + 0.05 * np.log1p(y @ y)


def smooth_sigma_jet(n):
    """The exact fiber jet of :func:`smooth_sigma` in n dimensions."""
    squares = " + ".join(f"y{k}*y{k}" for k in range(1, n + 1))
    return sigma_jet_evaluator(f"0.1*sin(x1)*(1 + 0.2*y1*y{n}) + 0.05*ln(1 + {squares})", n)


# ---------------------------------------------------------------------------
# einsum references
# ---------------------------------------------------------------------------


def _partials(values, grid):
    field = TensorField(grid, values)
    return np.stack([fd_partial(field, k).values for k in range(grid.dim)], axis=-1)


def cyclic(vals):
    """Sum over cyclic permutations of the last three axes:
    X_ijk + X_jki + X_kij."""
    return (
        vals
        + np.einsum("...jki->...ijk", vals)
        + np.einsum("...kij->...ijk", vals)
    )


def christoffel_reference(gamma, gamma_inv):
    dg = _partials(gamma.values, gamma.grid)
    term = (
        np.einsum("...mkj->...mjk", dg)
        + dg
        - np.einsum("...jkm->...mjk", dg)
    )
    return 0.5 * np.einsum("...im,...mjk->...ijk", gamma_inv.values, term)


def curvature_reference(gam, gamma_inv, grid):
    dgam = _partials(gam, grid)
    riem = (
        dgam
        - np.einsum("...ijlk->...ijkl", dgam)
        + np.einsum("...iml,...mjk->...ijkl", gam, gam)
        - np.einsum("...imk,...mjl->...ijkl", gam, gam)
    )
    ricci = np.einsum("...kijk->...ij", riem)
    return riem, ricci, np.einsum("...ij,...ij->...", gamma_inv, ricci)


def h_covariant_reference(vals, dy, space, y):
    gd = space.grid.dim
    n_slots = vals.ndim - gd
    dx = _partials(vals, space.grid)
    n_conn = np.einsum("...ijk,k->...ij", space.base.christoffel.values, y)
    letters = "".join(chr(ord("A") + s) for s in range(n_slots))
    delta = dx - np.einsum(f"...mk,...m{letters}->...{letters}k",
                           n_conn, np.moveaxis(dy, -1, gd))
    gam = space.base.christoffel.values
    rest = letters[1:]
    for slot in range(n_slots):
        x_m_first = np.moveaxis(vals, gd + slot, gd)
        term = np.einsum(f"...mik,...m{rest}->...i{rest}k", gam, x_m_first)
        delta = delta - np.moveaxis(term, gd, gd + slot)
    return delta


def deflection_reference(space, y, blocks):
    base = space.base
    n = base.dim
    gamma, gamma_inv = base.gamma.values, base.gamma_inv.values
    ricci, riem = base.ricci.values, base.curvature.values
    gv = blocks.grad_v.values
    gv_up = np.einsum("...ap,...p->...a", gamma_inv, gv)
    term1 = (n - 2) * (gamma * blocks.tr_h.values[..., None, None] - blocks.hess_h.values)
    term2 = gamma * np.einsum("...st,s,...t->...", ricci, y, gv_up)[..., None, None]
    term3 = gv[..., :, None] * np.einsum("...tj,t->...j", ricci, y)[..., None, :]
    mixed = np.einsum("...stja,t,...a->...sj", riem, y, gv_up)
    term4 = -np.einsum("...is,...sj->...ij", gamma, mixed)
    return {"trace_part": term1, "ricci_scalar_part": term2,
            "ricci_vector_part": term3, "curvature_mixed_part": term4}


def em_jet_reference(space, y):
    """F, f, their fiber partials, g_ip y^p and grad_v from the jet, by the
    product rule with d(g_ip y^p)/dy^k = 2 sigma_{y^k} g_ip y^p + g_ik."""
    s, gh, gv, d_gh, d_gv = sigma_gradient_partials(space, y)
    g = np.exp(2.0 * s)[..., None, None] * space.base.gamma.values
    gy = np.einsum("...ip,p->...i", g, y)
    G = 2.0 * np.einsum("...i,...k->...ik", gy, gv) + g

    def wedge(grad):
        return np.einsum("...i,...j->...ij", gy, grad) - np.einsum("...j,...i->...ij", gy, grad)

    def wedge_partials(grad, d_grad):
        term = np.einsum("...ik,...j->...ijk", G, grad) + np.einsum("...i,...jk->...ijk", gy, d_grad)
        return term - np.einsum("...jik->...ijk", term)

    return wedge(gh), wedge(gv), wedge_partials(gh, d_gh), wedge_partials(gv, d_gv), gy, gv


def maxwell_reference(space, y, em=None):
    """The three residuals from the fiber stencil of (F, f), or from ``em``
    = (F, f, dF, df, g_ip y^p, grad_v) when given."""
    if em is None:
        F, f, gy, gv = _em_values(space, y)
        dF, df = joint_fiber_partials(lambda yy: _em_values(space, yy)[:2], y,
                                      space.dim, space.fiber_step_scale)
    else:
        F, f, dF, df, gy, gv = em
    curv = np.einsum("...hqjk,q,...h->...jk", space.base.curvature.values, y, gv)
    curv_term = gy[..., :, None, None] * curv[..., None, :, :]
    return (
        cyclic(h_covariant_reference(F, dF, space, y)) - cyclic(curv_term),
        cyclic(dF) + cyclic(h_covariant_reference(f, df, space, y)),
        cyclic(df),
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@oracle_settings
@given(cases, st.sampled_from([-1, -2, -3]))
def test_contract_vector_matches_einsum(case, axis):
    n, seed = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((4, 3) + (n,) * 3)
    vec = rng.standard_normal(n)
    letters = "ijk"
    out = letters.replace(letters[axis], "")
    want = np.einsum(f"...{letters},{letters[axis]}->...{out}", values, vec)
    assert_close(contract_vector(values, vec, axis), want)


@oracle_settings
@given(cases)
def test_christoffel_matches_einsum(case):
    n, seed = case
    gamma = random_metric(np.random.default_rng(seed), n)
    gamma_inv = invert_metric(gamma)
    assert_close(christoffel(gamma, gamma_inv).values, christoffel_reference(gamma, gamma_inv))


@oracle_settings
@given(cases)
def test_curvature_package_matches_einsum(case):
    # a random non-symmetric Gamma in place of the metric's, so that a slot
    # swap in the Gamma.Gamma product shows
    n, seed = case
    rng = np.random.default_rng(seed)
    gamma = random_metric(rng, n)
    gam = TensorField(gamma.grid, rng.standard_normal(gamma.grid.shape + (n,) * 3))
    with mock.patch.object(riemann, "christoffel", lambda g, g_inv: gam):
        pkg = curvature_package(gamma)
    riem, ricci, scalar = curvature_reference(gam.values, pkg.gamma_inv.values, gamma.grid)
    assert_close(pkg.curvature.values, riem)
    assert_close(pkg.ricci.values, ricci)
    assert_close(pkg.scalar.values, scalar)


@oracle_settings
@given(cases)
def test_ricci_is_the_first_last_trace_of_the_curvature(case):
    # the contracted form of Ricci against the trace of r^i_{jkl}, on a
    # non-symmetric Gamma: the same sums in another order
    n, seed = case
    pkg = random_package(np.random.default_rng(seed), n)
    assert_close(pkg.ricci.values, np.einsum("...kijk->...ij", pkg.curvature.values))


@oracle_settings
@given(cases, st.sampled_from([1, 2, 3]))
def test_h_covariant_matches_einsum(case, rank):
    n, seed = case
    rng = np.random.default_rng(seed)
    space = conformal_space(random_package(rng, n), smooth_sigma)
    shape = space.grid.shape + (n,) * rank
    vals = rng.standard_normal(shape)
    dy = rng.standard_normal(shape + (n,))
    y = rng.standard_normal(n)
    assert_close(h_covariant(vals, dy, space, y), h_covariant_reference(vals, dy, space, y))


@oracle_settings
@given(cases)
def test_deflection_terms_match_einsum(case):
    n, seed = case
    rng = np.random.default_rng(seed)
    space = conformal_space(random_package(rng, n), smooth_sigma)
    grid = space.grid

    def rand(rank):
        return TensorField(grid, rng.standard_normal(grid.shape + (n,) * rank))

    blocks = ConformalFactorDerivatives(
        grad_h=rand(1), grad_v=rand(1), sq_h=rand(0), hess_h=rand(2), tr_h=rand(0),
        sq_v=rand(0), hess_v=rand(2), tr_v=rand(0))
    y = rng.standard_normal(n)
    total, terms = _deflection(space, y, blocks, return_terms=True)
    want = deflection_reference(space, y, blocks)
    assert terms.keys() == want.keys()
    for key, value in want.items():
        assert_close(terms[key].values, value)
    assert_close(total.values, sum(want.values()))


@oracle_settings
@given(cases)
def test_maxwell_curvature_term_matches_einsum(case):
    n, seed = case
    rng = np.random.default_rng(seed)
    space = conformal_space(random_package(rng, n), smooth_sigma)
    y = rng.uniform(0.3, 1.2, n) * rng.choice([-1.0, 1.0], n)
    assert_maxwell_matches_reference(space, y)


SIGNED_PERMUTATIONS = (((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1))


def assert_three_form(vals):
    """Totally antisymmetric in the last three axes, bit for bit."""
    lead = tuple(range(vals.ndim - 3))
    for perm, sign in SIGNED_PERMUTATIONS:
        axes = lead + tuple(len(lead) + p for p in perm)
        assert np.array_equal(np.transpose(vals, axes), sign * vals)


def assert_maxwell_matches_reference(space, y, em=None):
    """Each residual is a 3-form bit for bit, the zero one for n = 2, and
    matches :func:`maxwell_reference` at its components i < j < k, all
    three held to the scale of the largest.  The reference sums the other
    entries in another order, so there their round-off is relative to
    |df|, not to the residual.  Returns the three residual arrays."""
    got = [r.values for r in maxwell_residuals(space, y)]
    for vals in got:
        assert_three_form(vals)
    if space.dim < 3:
        assert not any(np.any(vals) for vals in got)
        return got
    i, j, k = np.array(list(combinations(range(space.dim), 3))).T
    want = [w[..., i, j, k] for w in maxwell_reference(space, y, em)]
    scale = max(float(np.max(np.abs(w))) for w in want)
    for vals, w in zip(got, want):
        assert_close(vals[..., i, j, k], w, scale)
    return got


@oracle_settings
@given(st.sampled_from([2, 3, 4]), st.booleans(), st.integers(0, 2**32 - 1))
def test_maxwell_residuals_are_three_forms_at_their_components(n, jet, seed):
    # n = 4 has four triples i < j < k; with the jet the fiber partials are
    # exact, and the reference takes them from the product rule
    rng = np.random.default_rng(seed)
    space = conformal_space(random_package(rng, n), smooth_sigma,
                            smooth_sigma_jet(n) if jet else None)
    y = rng.uniform(0.3, 1.2, n) * rng.choice([-1.0, 1.0], n)
    r3 = assert_maxwell_matches_reference(space, y, em_jet_reference(space, y) if jet else None)[2]

    # residual3 is df_ijk + df_jki + df_kij of the rows that residual2 reads
    if jet:
        df = _em_jet(space, y, space.nonlinear_connection(y))[3]
    else:
        full = joint_fiber_partials(lambda yy: _em_values(space, yy)[:2], y,
                                    n, space.fiber_step_scale)[1]

        def df(a, b):
            return full[..., a, b, :]
    for i, j, k in combinations(range(n), 3):
        want = df([i], [j])[..., 0, k] + df([j], [k])[..., 0, i] + df([k], [i])[..., 0, j]
        assert np.array_equal(r3[..., i, j, k], want)
