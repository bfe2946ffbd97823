"""Task execution for scenarios: builds library objects from a validated
spec, runs the ordered task list, writes a JSON report and per-field CSV
dumps.

Report contract: every executed task appears exactly once with a
pass/fail/error status; failures carry locations or magnitudes.  Given a
fixed scenario, all numeric content is deterministic (wall times are
environment metadata).
"""

from __future__ import annotations

import json
import pathlib
import time
import traceback
from itertools import product
from typing import Any

import numpy as np

from . import scenarios as sc
from .energy import ConnectionTensor, MapJet, MetricPair, el_residual, energy, lagrangian_density
from .errors import GLHarmonicError, SingularMetricError
from .field_equations import einstein_system, maxwell_residuals
from .gl_space import conformal_space
from .riemann import curvature_package
from .systems import (
    FirstOrderSystem,
    certify_minimizer,
    integrate_orbit,
    level_set_geodesic_defect,
    orbit_geodesic_residual,
    pseudolinear_scenario,
    quotient_functional,
)
from .tensor_core import ChartGrid, identity_metric, metric_field, volume_integral

FORMAT = "%.17g"
# Rows formatted and written per block.  It bounds the transient memory of a
# dump (value deduplication, cell array, block string): at 257^2 nodes with
# four components 2048 rows wrote as fast as 4096 with half the peak memory.
DUMP_BLOCK_ROWS = 2048


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------


def _format_distinct(values: np.ndarray) -> np.ndarray:
    """``FORMAT % v`` for every entry of a float64 array, as an object array
    of the same shape.  Each distinct bit pattern is formatted once, so
    -0.0 and 0.0, and NaNs with different payloads, stay apart exactly as
    they do under ``%``."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    strings = np.array([FORMAT % v for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse.reshape(values.shape)]


def dump_field_csv(path: pathlib.Path, grid: ChartGrid, values: np.ndarray,
                   coord_prefix: str, value_name: str) -> None:
    """Fixed column order: coordinates first, then components in
    lexicographic index order, 17 significant digits."""
    n_rows = int(np.prod(grid.shape))
    comp_shape = values.shape[grid.dim:]
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(n_rows, -1)
    headers = [f"{coord_prefix}{k + 1}" for k in range(grid.dim)]
    if comp_shape:
        for idx in product(*(range(s) for s in comp_shape)):
            headers.append(value_name + "_" + "".join(str(i + 1) for i in idx))
    else:
        headers.append(value_name)
    # grid.points() is the meshgrid of the axis coordinates: format each axis
    # once and pick its strings by node index
    axis_strings = [np.array([FORMAT % v for v in grid.axis_coords(k).tolist()], dtype=object)
                    for k in range(grid.dim)]
    row = ",".join(["%s"] * len(headers)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(headers) + "\n")
        for start in range(0, n_rows, DUMP_BLOCK_ROWS):
            stop = min(start + DUMP_BLOCK_ROWS, n_rows)
            cells = np.empty((stop - start, len(headers)), dtype=object)
            nodes = np.unravel_index(np.arange(start, stop), grid.shape)
            for k, strings in enumerate(axis_strings):
                cells[:, k] = strings[nodes[k]]
            cells[:, grid.dim:] = _format_distinct(flat[start:stop])
            fh.write(row * (stop - start) % tuple(cells.ravel().tolist()))


# ---------------------------------------------------------------------------
# shared context
# ---------------------------------------------------------------------------


class _Context:
    """Lazily built objects shared by the tasks of one scenario."""

    def __init__(self, spec: dict, stencil_override: int | None):
        self.spec = spec
        self.stencil_override = stencil_override
        self._cache: dict[str, Any] = {}
        tol = dict(sc.DEFAULT_TOLERANCES)
        tol.update(spec.get("tolerances", {}))
        self.tol = tol

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def m_grid(self) -> ChartGrid:
        return self._memo("m_grid", lambda: sc.build_grid(self.spec["m_space"],
                                                          self.stencil_override))

    @property
    def phi(self):
        def build():
            m = self.spec["m_space"]
            return sc.sampled_metric(self.m_grid, m.get("metric", "identity"),
                                     m["dim"], "a")
        return self._memo("phi", build)

    @property
    def phi_eval(self):
        m = self.spec["m_space"]
        return self._memo("phi_eval", lambda: sc.metric_evaluator(
            m.get("metric", "identity"), m["dim"], "a"))

    @property
    def psi_eval(self):
        n = self.spec["n_space"]
        return self._memo("psi_eval", lambda: sc.metric_evaluator(
            n.get("metric", "identity"), n["dim"], "x"))

    def checked_psi(self, f):
        """The target metric evaluator, after checking that psi is positive
        definite where it is sampled: at the values of ``f`` (a map jet or a
        sampled curve) on its grid.  A failing node raises
        SingularMetricError naming the node."""
        try:
            metric_field(f.grid, self.psi_eval(f.values))
        except SingularMetricError as exc:
            raise SingularMetricError(f"target metric psi: {exc}", node=exc.node) from None
        return self.psi_eval

    @property
    def map_jet(self) -> MapJet:
        def build():
            values, linear_jet = sc.build_map_values(
                self.spec["map"], self.m_grid, self.spec["n_space"]["dim"])
            return MapJet.from_values(self.m_grid, values, linear_jet)
        return self._memo("map_jet", build)

    @property
    def system(self) -> FirstOrderSystem:
        def build():
            spec = self.spec["system"]
            kind = spec["kind"]
            n_dim = self.spec.get("n_space", {}).get("dim", 1)
            m_dim = self.spec.get("m_space", {}).get("dim", 1)
            if kind == "orbit":
                xi = sc.covector_evaluator(spec["xi"], n_dim, "x")
                return FirstOrderSystem.orbit(xi)
            if kind == "pfaff":
                A = sc.covector_evaluator(spec["A"], m_dim, "a")
                return FirstOrderSystem.pfaff(A)
            if kind == "pseudolinear":
                xi = sc.covector_evaluator(spec["xi"], n_dim, "x")
                A = sc.covector_evaluator(spec["A"], m_dim, "a")
                return FirstOrderSystem.pseudolinear(xi, A)
            if kind == "group":
                gens = [(sc.covector_evaluator(g["xi"], n_dim, "x"),
                         sc.covector_evaluator(g["A"], m_dim, "a"))
                        for g in spec["generators"]]
                return FirstOrderSystem.group(gens)
            return FirstOrderSystem.general(sc.system_matrix_evaluator(spec["T"], m_dim, n_dim))
        return self._memo("system", build)

    @property
    def metric_pair(self) -> MetricPair:
        def build():
            m_dim = self.spec["m_space"]["dim"]
            n_dim = self.spec["n_space"]["dim"]
            sigma = tau = None
            if "sigma" in self.spec:
                sigma = sc.scalar_evaluator_two_args(self.spec["sigma"], m_dim, "a", m_dim, "b")
            if "tau" in self.spec:
                tau = sc.scalar_evaluator_two_args(self.spec["tau"], n_dim, "x", n_dim, "y")
            return MetricPair.conformal(self.phi_eval, self.checked_psi(self.map_jet),
                                        sigma=sigma, tau=tau)
        return self._memo("metric_pair", build)

    @property
    def connection(self) -> ConnectionTensor:
        def build():
            spec = self.spec["connection"]
            m_dim = self.spec["m_space"]["dim"]
            n_dim = self.spec["n_space"]["dim"]
            if spec["kind"] == "zero":
                return ConnectionTensor.zero(m_dim, n_dim)
            if spec["kind"] == "covector_fiber":
                return ConnectionTensor.covector_fiber(
                    sc.covector_evaluator(spec["A"], m_dim, "a"))
            return ConnectionTensor.oneform_source(
                sc.covector_evaluator(spec["xi"], n_dim, "x"))
        return self._memo("connection", build)

    @property
    def gl(self):
        def build():
            g = self.spec["gl_space"]
            grid = sc.build_grid(g, self.stencil_override)
            gamma = sc.sampled_metric(grid, g.get("metric", "identity"), g["dim"], "x")
            base = curvature_package(gamma, g.get("ricci_convention", "last"))
            sigma = sc.scalar_evaluator_two_args(g["sigma"], g["dim"], "x", g["dim"], "y")
            return conformal_space(base, sigma)
        return self._memo("gl", build)


# ---------------------------------------------------------------------------
# task executors
# ---------------------------------------------------------------------------


def _task_energy(ctx: _Context, task: dict, out: pathlib.Path, dumps: list):
    density = lagrangian_density(ctx.map_jet, ctx.metric_pair, ctx.connection, ctx.phi)
    E = volume_integral(density, ctx.phi)
    scalars = {"energy": E}
    _fold_max_abs(scalars, "density_max", "density_nonfinite", density.values)
    ok = _all_finite(scalars) and bool(np.isfinite(E))
    if "expected" in task:
        scalars["expected"] = task["expected"]
        ok = ok and abs(E - task["expected"]) <= task.get("tol", 1e-9)
    dumps.append(("density", ctx.m_grid, density.values, "a"))
    return ok, scalars, {}


def _task_el_residual(ctx: _Context, task: dict, out, dumps):
    res = el_residual(ctx.map_jet, ctx.metric_pair, ctx.connection, ctx.phi,
                      ctx.tol["fd_step"])
    scalars: dict = {}
    _fold_max_abs(scalars, "max_residual", "residual_nonfinite", res.values)
    ok = _all_finite(scalars)
    if "max_abs" in task:
        ok = ok and scalars["max_residual"] <= task["max_abs"]
    dumps.append(("el_residual", ctx.m_grid, res.values, "a"))
    return ok, scalars, {}


def _certificate_record(cert):
    return {
        "functional_value": cert.functional_value,
        "half_volume": cert.half_volume,
        "gap": cert.gap,
        "max_defect": cert.max_defect,
        "max_defect_best_fit": cert.max_defect_best_fit,
        "verdict": cert.verdict,
    }


def _orbit_curve(ctx: _Context):
    def build():
        o = ctx.spec["orbit"]
        return integrate_orbit(ctx.system.xi, o["x0"], o["t0"], o["t1"], o["nodes"],
                               o.get("rk4_step", 1e-3), o.get("stencil_order", 4))
    return ctx._memo("orbit_curve", build)


def _certify(ctx: _Context, f, phi):
    return certify_minimizer(f, ctx.system, phi, ctx.checked_psi(f), ctx.tol["tol_gap"],
                             ctx.tol["tol_defect"], ctx.tol["eps_sing"])


def _map_certificate(ctx: _Context):
    """The minimizer certificate of the scenario map, shared by the
    certify_theorem, pfaff and pseudolinear tasks."""
    return ctx._memo("map_certificate", lambda: _certify(ctx, ctx.map_jet, ctx.phi))


def _task_certify(ctx: _Context, task: dict, out, dumps):
    if "orbit" in ctx.spec and ctx.spec.get("system", {}).get("kind") == "orbit":
        curve = _orbit_curve(ctx)
        grid = curve.grid
        cert = _certify(ctx, curve.as_map(), identity_metric(grid))
    else:
        grid, cert = ctx.m_grid, _map_certificate(ctx)
    dump_name = "pfaff_best_fit_scale" if task["task"] == "pfaff" else "best_fit_scale"
    dumps.append((dump_name, grid, cert.kappa, "a"))
    return cert.verdict, {}, _certificate_record(cert)


def _task_orbit(ctx: _Context, task: dict, out, dumps):
    curve = _orbit_curve(ctx)
    res = orbit_geodesic_residual(curve, ctx.system.xi, ctx.checked_psi(curve),
                                  ctx.tol["eps_sing"])
    threshold = task.get("residual_threshold", 1e-4)
    scalars = {"threshold": threshold}
    _fold_max_abs(scalars, "max_residual", "residual_nonfinite", res.values)
    dumps.append(("orbit_curve", curve.grid, curve.values, "t"))
    dumps.append(("orbit_residual", curve.grid, res.values, "t"))
    return _all_finite(scalars) and scalars["max_residual"] <= threshold, scalars, {}


def _task_pseudolinear(ctx: _Context, task: dict, out, dumps):
    cert = _map_certificate(ctx)
    scalars = {}
    ok = cert.verdict
    defect = level_set_geodesic_defect(ctx.map_jet)
    scalars["level_set_defect"] = defect
    if "level_set_threshold" in task:
        ok = ok and defect <= task["level_set_threshold"]
    # the quotient functional must coincide with the energy of the
    # attached conformal data
    pair, P, system = pseudolinear_scenario(ctx.system.xi, ctx.system.A,
                                            ctx.phi_eval, ctx.psi_eval,
                                            ctx.tol["eps_sing"])
    lt = quotient_functional(ctx.map_jet, system, ctx.phi, ctx.psi_eval,
                             ctx.tol["eps_sing"])
    en = energy(ctx.map_jet, pair, P, ctx.phi)
    scalars["quotient_value"] = lt
    scalars["energy_value"] = en
    equality_gap = abs(lt - en) / max(abs(lt), 1e-300)
    scalars["equality_rel_gap"] = equality_gap
    ok = ok and equality_gap < 1e-8
    return ok, scalars, _certificate_record(cert)


def _task_group(ctx: _Context, task: dict, out, dumps):
    from .systems import group_system_lagrangian

    gens = ctx.system.generators
    psi = ctx.checked_psi(ctx.map_jet)
    density = group_system_lagrangian(gens, ctx.map_jet, ctx.phi, psi, ctx.tol["eps_sing"])
    oracle = _group_loop_oracle(gens, ctx.map_jet, ctx.phi, psi)
    gap = float(np.max(np.abs(density.values - oracle)))
    integral = volume_integral(density, ctx.phi)
    dumps.append(("group_density", ctx.m_grid, density.values, "a"))
    ok = gap <= task.get("oracle_tol", 1e-12)
    return ok, {"lagrangian_integral": integral, "loop_oracle_gap": gap}, {}


def _group_loop_oracle(gens, f, phi, psi_eval):
    """Plain-loop evaluation of the group density: explicit loops over the
    generators and every index, each term taken over the whole grid."""
    from .tensor_core import invert_metric

    grid = f.grid
    pts = grid.points()
    phi_inv = invert_metric(phi).values
    psi_vals = np.asarray(psi_eval(f.values), float)
    jet = f.jet
    m = grid.dim
    n = f.target_dim
    xi_all = [np.asarray(xi(f.values), float) for xi, _ in gens]
    A_all = [np.asarray(A(pts), float) for _, A in gens]
    flat = np.zeros(grid.shape + (n,))
    norm_xi = np.zeros(grid.shape)
    for xiv in xi_all:
        flat_r = np.zeros(grid.shape + (n,))
        for i in range(n):
            for j in range(n):
                flat_r[..., i] += psi_vals[..., i, j] * xiv[..., j]
        flat += flat_r
        pairing = np.zeros(grid.shape)
        for i in range(n):
            pairing += flat_r[..., i] * xiv[..., i]
        norm_xi += pairing
    A_sum = np.zeros(grid.shape + (m,))
    for Av in A_all:
        A_sum += Av
    b = np.zeros(grid.shape + (m,))
    for g in range(m):
        for be in range(m):
            for i in range(n):
                b[..., g] += phi_inv[..., g, be] * flat[..., i] * jet[..., i, be]
    Ab = np.zeros(grid.shape)
    for g in range(m):
        Ab += A_sum[..., g] * b[..., g]
    norm_A2 = np.zeros(grid.shape)
    for be in range(m):
        A_raised = np.zeros(grid.shape)
        for g in range(m):
            A_raised += A_sum[..., g] * phi_inv[..., g, be]
        norm_A2 += A_raised * A_sum[..., be]
    out = np.zeros(grid.shape)
    for g in range(m):
        for mu in range(m):
            for k in range(n):
                for l in range(n):
                    out += 0.5 * (norm_A2 / Ab**2) * phi_inv[..., g, mu] * norm_xi \
                        * psi_vals[..., k, l] * jet[..., k, g] * jet[..., l, mu]
    return out


def _fold_max_abs(scalars: dict, max_key: str, count_key: str, values: np.ndarray) -> None:
    """Fold one sample into ``scalars[max_key]`` (largest finite |value|)
    and ``scalars[count_key]`` (number of nan/inf values)."""
    mag = np.abs(values)
    finite = np.isfinite(mag)
    scalars[max_key] = max(scalars.get(max_key, 0.0),
                           float(np.max(mag, where=finite, initial=0.0)))
    scalars[count_key] = scalars.get(count_key, 0) + int(mag.size - np.count_nonzero(finite))


def _all_finite(scalars: dict) -> bool:
    return not any(v for k, v in scalars.items() if k.endswith("_nonfinite"))


def _task_maxwell(ctx: _Context, task: dict, out, dumps):
    space = ctx.gl
    scalars: dict = {}
    first = True
    for y in ctx.spec["samples"]:
        residuals = maxwell_residuals(space, np.asarray(y, float))
        for k, r in enumerate(residuals, 1):
            _fold_max_abs(scalars, f"residual{k}", f"residual{k}_nonfinite", r.values)
        if first:
            dumps.append(("maxwell_residual3", space.grid, residuals[2].values, "x"))
            first = False
    ok = _all_finite(scalars)
    for key in ("residual1_max", "residual2_max", "residual3_max"):
        if key in task:
            ok = ok and scalars[key.replace("_max", "")] <= task[key]
    return ok, scalars, {}


def _task_einstein(ctx: _Context, task: dict, out, dumps):
    space = ctx.gl
    K = ctx.spec.get("K", 0.0)
    with_em = task.get("energy_momentum", "K" in ctx.spec)
    scalars: dict = {}
    first = True
    for y in ctx.spec["samples"]:
        sys = einstein_system(space, K, np.asarray(y, float), energy_momentum=with_em)
        _fold_max_abs(scalars, "h_lhs_max", "h_lhs_nonfinite", sys.h_lhs.values)
        _fold_max_abs(scalars, "v_lhs_max", "v_lhs_nonfinite", sys.v_lhs.values)
        if first:
            dumps.append(("einstein_h_lhs", space.grid, sys.h_lhs.values, "x"))
            dumps.append(("einstein_v_lhs", space.grid, sys.v_lhs.values, "x"))
            first = False
    ok = _all_finite(scalars)
    for key in ("h_lhs_max", "v_lhs_max"):
        if key in task:
            ok = ok and scalars[key] <= task[key]
    if "expected_scalar" in task:
        err = float(np.max(np.abs(space.base.scalar.values - task["expected_scalar"])))
        scalars["scalar_curvature_error"] = err
        ok = ok and err <= task.get("scalar_tol", 1e-3)
    if task.get("check_sigma_zero_reduction"):
        from .gl_space import zero_sigma

        reduced = conformal_space(space.base, zero_sigma)
        sys0 = einstein_system(reduced, K, np.asarray(ctx.spec["samples"][0], float),
                               energy_momentum=False)
        match = float(np.max(np.abs(sys0.h_lhs.values - space.base.einstein_tensor().values)))
        scalars["sigma_zero_reduction_error"] = match
        ok = ok and match <= task.get("reduction_tol", 1e-10)
    return ok, scalars, {}


_TASK_RUNNERS = {
    "energy": _task_energy,
    "el_residual": _task_el_residual,
    "certify_theorem": _task_certify,
    "orbit": _task_orbit,
    "pfaff": _task_certify,
    "pseudolinear": _task_pseudolinear,
    "group_lagrangian": _task_group,
    "maxwell": _task_maxwell,
    "einstein": _task_einstein,
}


# ---------------------------------------------------------------------------
# the run entry point
# ---------------------------------------------------------------------------


def run_scenario(spec: dict, out_dir, stencil_override: int | None = None) -> dict:
    """Execute all tasks of a validated scenario; write report + CSV dumps.

    Returns the report dict; report["status"] is "pass" only if every task
    passed.
    """
    sc.require_valid(spec)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(spec, stencil_override)

    grids = {}
    if "m_space" in spec:
        grids["m_space"] = list(spec["m_space"]["nodes"])
    if "gl_space" in spec:
        grids["gl_space"] = list(spec["gl_space"]["nodes"])
    if "orbit" in spec:
        grids["orbit"] = [spec["orbit"]["nodes"]]

    report = {
        "scenario": spec["name"],
        "environment": {
            "grids": grids,
            "stencil_order": stencil_override
            or spec.get("m_space", spec.get("gl_space", {})).get("stencil_order", 2),
        },
        "tasks": [],
    }

    all_ok = True
    for task in spec["tasks"]:
        name = task["task"]
        dumps: list = []
        record: dict[str, Any] = {"task": name}
        start = time.perf_counter()
        try:
            ok, scalars, certificate = _TASK_RUNNERS[name](ctx, task, out, dumps)
            record["status"] = "pass" if ok else "fail"
            record["scalars"] = {k: _jsonify(v) for k, v in scalars.items()}
            if certificate:
                record["certificate"] = {k: _jsonify(v) for k, v in certificate.items()}
        except Exception as exc:
            record["status"] = "error"
            record["error_type"] = type(exc).__name__
            record["reason"] = str(exc)
            if not isinstance(exc, GLHarmonicError):
                # innermost frame of an unexpected exception
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{pathlib.Path(frame.filename).name}:{frame.lineno}"
                record["where"] = f"{frame.name} ({where})"
            for attr in ("node", "nodes", "point", "direction"):
                val = getattr(exc, attr, None)
                if val is not None:
                    record[attr] = _jsonify(val)
        record["wall_time_s"] = round(time.perf_counter() - start, 6)
        all_ok = all_ok and record["status"] == "pass"
        report["tasks"].append(record)

        for dump_name, grid, values, prefix in dumps:
            dump_field_csv(out / f"{spec['name']}__{name}__{dump_name}.csv",
                           grid, np.asarray(values), prefix, dump_name)

    report["status"] = "pass" if all_ok else "fail"
    with open(out / f"{spec['name']}__report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        if value.size > 8:
            return {"min": float(value.min()), "max": float(value.max())}
        return [float(v) for v in value.ravel()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)
    return value
