"""Seeded scenario generators, one per benchmark workload.

Each generator takes the seed and returns a list of scenario specs in the
same form as the bundled catalog.  The seed draws only numbers:
coefficients, amplitudes, fiber samples, chart extents.  Grid sizes, task
lists and the shape of every expression are fixed, so a workload costs
the same on every seed.

Every draw comes from a family in which the theory says the task gates
hold: exact primitives for Pfaff and pseudolinear certificates, the
identity map of a flat torus, closed-form energies of trigonometric maps
with the discrete derivative factor written out, sphere metrics with known
scalar curvature, fiber samples off the singular hyperplane of a
log-direction factor.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
BAND = [0.7, math.pi - 0.7]   # polar band of the sphere chart, poles excluded


def _lit(x: float) -> str:
    """A float as an expression literal, all 17 digits, bracketed if negative."""
    s = repr(float(x))
    return f"({s})" if x < 0 else s


def _torus(size: int, lengths=(TWO_PI, TWO_PI)) -> dict:
    return {"dim": 2, "extents": [[0.0, lengths[0]], [0.0, lengths[1]]],
            "nodes": [size, size], "periodic": True, "metric": "identity"}


def _unit_square(size: int) -> dict:
    return {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]],
            "nodes": [size, size], "periodic": False, "metric": "identity"}


def _sphere_band(size: int, radius: float, sigma: str) -> dict:
    r2 = _lit(radius * radius)
    return {"dim": 2, "extents": [BAND, [0.0, TWO_PI]], "nodes": [size, size],
            "periodic": [False, True], "stencil_order": 4,
            "metric": {"diag": [r2, f"{r2}*sin(x1)*sin(x1)"]}, "sigma": sigma}


# ---------------------------------------------------------------------------
# field-equations: conformal charts only
# ---------------------------------------------------------------------------


def _maxwell_chart(rng: random.Random, name: str) -> dict:
    """Curved periodic 3-D chart with a log-direction factor
    ln|c . y| (1 + e sin x1).  The third cyclic residual vanishes in the
    continuum for every such factor; samples keep |c . y| >= 0.3 so the
    nested fiber differences stay away from the singular hyperplane."""
    p, q = rng.uniform(1.2, 1.4), rng.uniform(0.1, 0.25)
    r = rng.uniform(0.02, 0.08)
    s, t = rng.uniform(1.0, 1.2), rng.uniform(0.1, 0.2)
    c = [rng.uniform(0.5, 0.9), rng.uniform(0.3, 0.5), rng.uniform(0.3, 0.6)]
    e = rng.uniform(0.05, 0.15)
    samples = []
    while len(samples) < 2:
        y = [rng.uniform(0.3, 1.2) for _ in range(3)]
        if abs(c[0] * y[0] + c[1] * y[1] - c[2] * y[2]) >= 0.3:
            samples.append(y)
    off = f"{_lit(r)}*sin(x1)*sin(x2)"
    return {
        "name": name,
        "gl_space": {
            "dim": 3, "extents": [[0.0, TWO_PI]] * 3, "nodes": [15, 15, 15],
            "periodic": True,
            "metric": {"matrix": [
                [f"{_lit(p)} + {_lit(q)}*sin(x1)", off, "0"],
                [off, f"{_lit(s)} + {_lit(t)}*cos(x2)", "0"],
                ["0", "0", "1"]]},
            "sigma": f"ln(abs({_lit(c[0])}*y1 + {_lit(c[1])}*y2 - {_lit(c[2])}*y3))"
                     f" * (1 + {_lit(e)}*sin(x1))",
        },
        "samples": samples,
        "tasks": [{"task": "maxwell", "residual3_max": 1e-6}],
    }


def _einstein_band(rng: random.Random, name: str) -> dict:
    """Sphere band with a direction-dependent factor: in two dimensions the
    vertical equation carries the factor (2 - n) = 0, and switching the
    factor off gives back the base Einstein tensor exactly."""
    a, b, c = rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)
    sigma = f"{_lit(a)}*sin(x1) * (1 + {_lit(b)}*y1 + {_lit(c)}*y2)"
    return {
        "name": name,
        "gl_space": _sphere_band(48, rng.uniform(0.8, 1.5), sigma),
        "samples": [[rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)] for _ in range(2)],
        "K": rng.uniform(1.0, 30.0),
        "tasks": [{"task": "einstein", "v_lhs_max": 0.0,
                   "check_sigma_zero_reduction": True, "reduction_tol": 1e-10}],
    }


def _flat_vacuum(rng: random.Random) -> dict:
    """Flat torus with the factor switched off: every output vanishes."""
    return {
        "name": "flat-vacuum",
        "gl_space": {**_torus(17), "sigma": "0"},
        "samples": [[rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)]],
        "K": rng.uniform(0.5, 2.0),
        "tasks": [
            {"task": "maxwell", "residual1_max": 1e-12, "residual2_max": 1e-12,
             "residual3_max": 1e-12},
            {"task": "einstein", "h_lhs_max": 1e-12, "v_lhs_max": 1e-12,
             "energy_momentum": False},
        ],
    }


def field_equations(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        _maxwell_chart(rng, "maxwell-chart-a"),
        _maxwell_chart(rng, "maxwell-chart-b"),
        _einstein_band(rng, "einstein-band-a"),
        _einstein_band(rng, "einstein-band-b"),
        _flat_vacuum(rng),
    ]


# ---------------------------------------------------------------------------
# harmonic-maps: source-chart scenarios at 65^2 to 129^2
# ---------------------------------------------------------------------------


def _winding_map(rng: random.Random) -> dict:
    """Torus map: the identity plus a small periodic perturbation, with the
    winding part passed as the linear jet."""
    e1, e2 = rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)
    return {"components": [f"a1 + {_lit(e1)}*sin(a2)", f"a2 + {_lit(e2)}*sin(a1 + a2)"],
            "linear_jet": [[1, 0], [0, 1]]}


def _coupled_energy(rng: random.Random, name: str, size: int, connection: str) -> dict:
    """Energy and Euler-Lagrange residual with a b-dependent sigma, a
    y-dependent tau and a covector-fiber or one-form-source connection, on
    a curved target.  No gate: the output checks require finite values."""
    s = rng.uniform(0.05, 0.15)
    t1, t2 = rng.uniform(0.05, 0.15), rng.uniform(0.02, 0.08)
    u = rng.uniform(0.1, 0.3)
    c, d = rng.uniform(0.1, 0.3), rng.uniform(0.2, 0.6)
    if connection == "covector_fiber":
        conn = {"kind": "covector_fiber",
                "A": [f"1 + {_lit(c)}*sin(a1)", f"{_lit(d)}*cos(a2)"]}
    else:
        conn = {"kind": "oneform_source",
                "xi": [f"1 + {_lit(c)}*cos(x1)", f"{_lit(d)}*sin(x2)"]}
    psi = f"exp({_lit(2 * u)}*sin(x1)*cos(x2))"
    return {
        "name": name,
        "m_space": _torus(size),
        "n_space": {"dim": 2, "metric": {"diag": [psi, psi]}},
        "map": _winding_map(rng),
        "sigma": f"{_lit(s)}*sin(a1)*cos(b1 + 0.5*b2)",
        "tau": f"{_lit(t1)}*cos(x2)*sin(y1) + {_lit(t2)}*y2",
        "connection": conn,
        "tasks": [{"task": "energy"}, {"task": "el_residual"}],
    }


def _torus_identity(rng: random.Random, size: int) -> dict:
    """Identity map of a flat torus: unit density, so the energy equals the
    area, and the residual vanishes."""
    lengths = (rng.uniform(4.0, 8.0), rng.uniform(4.0, 8.0))
    return {
        "name": "torus-identity",
        "m_space": _torus(size, lengths),
        "n_space": {"dim": 2, "metric": "identity"},
        "map": {"components": ["a1", "a2"], "linear_jet": [[1, 0], [0, 1]]},
        "connection": {"kind": "zero"},
        "tasks": [
            {"task": "energy", "expected": lengths[0] * lengths[1], "tol": 1e-9},
            {"task": "el_residual", "max_abs": 1e-9},
        ],
    }


def _pfaff_exact(rng: random.Random, name: str, size: int) -> dict:
    """f = c1 a1 + c2 a2 + e sin(a1) cos(a2) with A = df exactly; A stays
    away from zero because |e| < min(c1, c2)."""
    c1, c2 = rng.uniform(0.8, 1.2), rng.uniform(1.6, 2.4)
    e = rng.uniform(0.2, 0.4)
    return {
        "name": name,
        "m_space": _unit_square(size),
        "n_space": {"dim": 1, "metric": "identity"},
        "map": {"components": [f"{_lit(c1)}*a1 + {_lit(c2)}*a2 + {_lit(e)}*sin(a1)*cos(a2)"]},
        "system": {"kind": "pfaff",
                   "A": [f"{_lit(c1)} + {_lit(e)}*cos(a1)*cos(a2)",
                         f"{_lit(c2)} - {_lit(e)}*sin(a1)*sin(a2)"]},
        "tolerances": {"tol_gap": 1e-6, "tol_defect": 5e-3},
        "tasks": [{"task": "pfaff"}, {"task": "certify_theorem"}],
    }


def _pseudolinear_exp(rng: random.Random, size: int) -> dict:
    """f = exp(k . a) solves df = xi (x) A with xi = 1, A = k exp(k . a);
    its level sets are straight lines."""
    k1, k2 = rng.uniform(0.7, 1.3), rng.uniform(0.7, 1.3)
    arg = f"{_lit(k1)}*a1 + {_lit(k2)}*a2"
    return {
        "name": "pseudolinear-exp",
        "m_space": _unit_square(size),
        "n_space": {"dim": 1, "metric": "identity"},
        "map": {"components": [f"exp({arg})"]},
        "system": {"kind": "pseudolinear", "xi": ["1"],
                   "A": [f"{_lit(k1)}*exp({arg})", f"{_lit(k2)}*exp({arg})"]},
        "tolerances": {"tol_gap": 1e-6, "tol_defect": 5e-3},
        "tasks": [{"task": "pseudolinear", "level_set_threshold": 1e-8},
                  {"task": "certify_theorem"}],
    }


def _group_generators(rng: random.Random, size: int) -> dict:
    """Two-generator system on a near-identity linear map of the unit
    square; the summed covector stays positive on the induced argument."""
    p, q = rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)
    g1, g2 = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.3)
    return {
        "name": "group-generators",
        "m_space": _unit_square(size),
        "n_space": {"dim": 2, "metric": "identity"},
        "map": {"components": [f"a1 + {_lit(p)}*a2", f"a2 - {_lit(q)}*a1"]},
        "system": {"kind": "group", "generators": [
            {"xi": ["1", "0"], "A": [f"1 + {_lit(g1)}*a2", "1"]},
            {"xi": ["0", f"1 + {_lit(g2)}*x1"], "A": ["1", "2 - a1"]},
        ]},
        "tasks": [{"task": "group_lagrangian", "oracle_tol": 1e-12}],
    }


def _rotation_orbit(rng: random.Random) -> dict:
    """Half turn of a rotation field from a point off the origin: the orbit
    is a geodesic of the orbit metric and certifies as a minimizer."""
    w = rng.uniform(0.9, 1.1)
    radius, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI)
    return {
        "name": "rotation-orbit",
        "n_space": {"dim": 2, "metric": "identity"},
        "system": {"kind": "orbit", "xi": [f"-{_lit(w)}*x2", f"{_lit(w)}*x1"]},
        "orbit": {"x0": [radius * math.cos(angle), radius * math.sin(angle)],
                  "t0": 0.0, "t1": math.pi, "nodes": 201, "rk4_step": 1e-3,
                  "stencil_order": 4},
        "tolerances": {"tol_gap": 1e-6, "tol_defect": 1e-3},
        "tasks": [{"task": "orbit", "residual_threshold": 1e-4},
                  {"task": "certify_theorem"}],
    }


def harmonic_maps(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        _coupled_energy(rng, "coupled-covector", 129, "covector_fiber"),
        _coupled_energy(rng, "coupled-oneform", 65, "oneform_source"),
        _torus_identity(rng, 65),
        _pfaff_exact(rng, "pfaff-exact", 65),
        _pseudolinear_exp(rng, 65),
        _group_generators(rng, 65),
        _rotation_orbit(rng),
    ]


# ---------------------------------------------------------------------------
# bulk-output: few scenarios, large grids, light per-node work
# ---------------------------------------------------------------------------


def _closed_form_energy(rng: random.Random, size: int) -> dict:
    """f = (a1 + e1 sin a2, a2 + e2 sin a1) on the flat 2 pi torus.  The
    order-2 periodic stencil maps sin to (sin h / h) cos exactly and the
    rectangle rule integrates cos^2 exactly, so the discrete energy is
    4 pi^2 + pi^2 (e1^2 + e2^2) (sin h / h)^2."""
    e1, e2 = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)
    h = TWO_PI / size
    damp = math.sin(h) / h
    expected = 4 * math.pi ** 2 + math.pi ** 2 * (e1 * e1 + e2 * e2) * damp * damp
    return {
        "name": "bulk-energy",
        "m_space": _torus(size),
        "n_space": {"dim": 2, "metric": "identity"},
        "map": {"components": [f"a1 + {_lit(e1)}*sin(a2)", f"a2 + {_lit(e2)}*sin(a1)"],
                "linear_jet": [[1, 0], [0, 1]]},
        "connection": {"kind": "zero"},
        "tasks": [{"task": "energy", "expected": expected, "tol": 1e-9}],
    }


def _sphere_curvature(rng: random.Random, name: str, size: int) -> dict:
    """Round sphere of radius R: scalar curvature 2 / R^2 and a vanishing
    two-dimensional Einstein tensor."""
    radius = rng.uniform(0.8, 1.5)
    return {
        "name": name,
        "gl_space": _sphere_band(size, radius, "0"),
        "samples": [[rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)]],
        "K": rng.uniform(0.5, 2.0),
        "tasks": [{"task": "einstein", "expected_scalar": 2.0 / radius ** 2,
                   "scalar_tol": 1e-3, "h_lhs_max": 1e-3, "energy_momentum": False}],
    }


def bulk_output(seed: int) -> list[dict]:
    # Three sphere charts: the per-scenario median and tail then both fall
    # inside one kind of scenario, not between two kinds, for any number of
    # repetitions from four up.
    rng = random.Random(seed)
    return [
        _pfaff_exact(rng, "bulk-pfaff", 257),
        _closed_form_energy(rng, 257),
        _sphere_curvature(rng, "bulk-sphere-a", 256),
        _sphere_curvature(rng, "bulk-sphere-b", 256),
        _sphere_curvature(rng, "bulk-sphere-c", 256),
    ]


WORKLOADS = {
    "field-equations": field_equations,
    "harmonic-maps": harmonic_maps,
    "bulk-output": bulk_output,
}
