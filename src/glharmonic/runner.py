"""Task execution for scenarios: builds library objects from a validated
spec, runs the ordered task list, writes a JSON report and per-field CSV
dumps.

Report contract: every executed task appears exactly once with a
pass/fail/error status; failures carry locations or magnitudes.  Given a
fixed scenario, all numeric content is deterministic (wall times are
environment metadata).
"""

from __future__ import annotations

import ast
import contextlib
import json
import math
import pathlib
import shutil
import time
import traceback
import weakref
from functools import cache, cached_property
from itertools import product
from typing import Any, NamedTuple

import numpy as np

from . import scenarios as sc
from .energy import (
    ConnectionTensor,
    DensityEvaluation,
    MapJet,
    MetricPair,
    el_residual,
    lagrangian_density,
)
from .errors import GLHarmonicError, SingularMetricError
from .field_equations import einstein_system, maxwell_residuals
from .gl_space import conformal_space
from .riemann import curvature_package
from .systems import (
    DEFAULT_RK4_STEP,
    FirstOrderSystem,
    MinimizerCertificate,
    SampledCurve,
    certify_minimizer,
    group_system_lagrangian,
    integrate_orbit,
    level_set_geodesic_defect,
    orbit_geodesic_residual,
    unit,
)
from .tensor_core import ChartGrid, MetricField, identity_metric, sample_metric, volume_integral

FORMAT = "%.17g"
# Cells formatted and written per block.  It bounds the transient memory of a
# dump below 2 MiB an array: the largest are the numpy FORMAT's source rows,
# 112 bytes a value, and the block string, at most 25 characters a cell.
DUMP_BLOCK_CELLS = 8192
# Bytes per block when a dump copies the rows of an earlier dump
COPY_BLOCK_BYTES = 1 << 19


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------


def dump_block_rows(n_columns: int) -> int:
    """Rows per block of a dump with ``n_columns`` columns."""
    return max(1, DUMP_BLOCK_CELLS // n_columns)


# The numpy FORMAT.  For 1e-280 <= |v| <= 1e280 the 17 significant digits
# are the integer D = round(|v| * 10**p), p = 16 - floor(log10 |v|).  10**p
# is a double-double hi + lo; Dekker's two-product gives |v| * hi exactly, and
# only |v| * lo and one sum are rounded, so D is exact unless the fraction
# lies within 1e-6 of a half.  For p in [0, 22] 10**p is a double, so the
# whole product is exact, ties included, which FORMAT rounds half to even.
# The characters are gathered from a row of digits and constants by one of
# 2 x 23 x 17 layouts: sign, exponent form, number of significant digits.
# FORMAT itself writes the values outside that range (zeros, subnormals, nan,
# inf), those whose rounding the product cannot settle and those whose 17
# digits round up to the next power of ten.
_POWERS = range(-266, 299)     # p for the range, one beyond each end
_SPLIT = 134217729.0           # 2**27 + 1, Veltkamp's splitting factor
# Blocks with fewer distinct values are formatted by FORMAT alone, which is
# faster there than the fixed cost of the numpy path.
FAST_FORMAT_MIN = 256
# A source row holds, in code points: digits 2-17 (0-15), the exponent's
# sign and its two or three digits (16-19), the first digit (20), ",-.0e"
# (21-25) and NULs (26, 27).
_ROW = 28
_WIDTH = 25                    # ",-1.2345678901234567e-100"
_E_SIGN, _E_DIGITS, _FIRST = 16, 17, 20
_COMMA, _MINUS, _POINT, _ZERO, _E, _NUL = 21, 22, 23, 24, 25, 26
_EXPONENTS = range(-281, 282)  # decimal exponents of the range, with margin
_FORMS = 23                    # exponent forms of one sign
# Rows gathered at a time: the gather index, and the table of row offsets
# added to it, take 200 bytes a row
_GATHER_ROWS = 1024


def _layout(negative: bool, form: int, n: int) -> list[int]:
    """Source-row positions of the characters of ``"," + FORMAT % v`` for a
    ``v`` of the given sign, exponent form and ``n`` significant digits: form
    0-20 is fixed point with decimal exponent form - 4, 21 and 22 are
    exponential with two and three exponent digits."""
    digits = [_FIRST] + list(range(n - 1))
    out = [_COMMA] + [_MINUS] * negative
    if form < 21:
        e = form - 4
        if e < 0:
            out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
        else:
            out += digits[:e + 1] + [_ZERO] * (e + 1 - n)
            out += ([_POINT] + digits[e + 1:]) * (n > e + 1)
    else:
        out += digits[:1] + ([_POINT] + digits[1:]) * (n > 1) + [_E, _E_SIGN]
        out += list(range(_E_DIGITS, _E_DIGITS + form - 19))
    return out + [_NUL] * (_WIDTH - len(out))


def _form(e: int) -> int:
    """The exponent form, as ``_layout`` takes it, of decimal exponent e."""
    return e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100)


class _FormatTables(NamedTuple):
    high: np.ndarray            # 10**p rounded to a double, for p in _POWERS
    high_hi: np.ndarray         # its Veltkamp halves
    high_lo: np.ndarray
    low: np.ndarray             # 10**p - high, rounded
    groups: np.ndarray          # "0000" ... "9999" as 16-byte code points
    exponents: np.ndarray       # sign and digits of each e in _EXPONENTS, 16 bytes
    classes: np.ndarray         # layout row of a positive 17-digit value, by e
    trailing_zeros: np.ndarray  # of the four digits of 0 ... 9999
    constants: np.ndarray       # the first digit's place and ",-.0e" of a row
    layouts: np.ndarray         # the _layout of each class, by row
    offsets: np.ndarray         # the start of each of _GATHER_ROWS rows


@cache
def _format_tables() -> _FormatTables:
    """The tables of the numpy FORMAT, built once a process.

    They take 0.56 MB and live as long as the process, so they are built
    before any task's arrays (``_reserve_dump_tables``): built lazily
    inside the first dump, they pinned the heap above the space the task
    arrays later free, and harmonic-maps' ``peak_rss_mb`` rose 2.1 MB instead
    of 1.0 MB over the writer without them (5 s runs, two each)."""
    highs, lows = [], []
    for p in _POWERS:
        if p >= 0:
            exact = 10 ** p
            high = float(exact)
            lows.append(float(exact - int(high)))
        else:
            exact = 10 ** -p
            high = 1 / exact
            num, den = high.as_integer_ratio()
            lows.append((den - num * exact) / (den * exact))
        highs.append(high)
    high = np.array(highs)
    c = _SPLIT * high
    high_hi = c - (c - high)
    # the four digits of 0 ... 9999 from those of 0 ... 99, with no
    # transient larger than the 160 KB table itself
    pairs = np.array([[ord(a), ord(b)] for a in "0123456789" for b in "0123456789"],
                     dtype=np.uint32)
    groups = np.empty((100, 100, 4), dtype=np.uint32)
    groups[:, :, :2] = pairs[:, None]
    groups[:, :, 2:] = pairs[None, :]
    pair_zeros = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)], dtype=np.int8)
    exponents = [(("-" if e < 0 else "+") + "%02d" % abs(e)).ljust(4, "\0") for e in _EXPONENTS]
    return _FormatTables(
        high, high_hi, high - high_hi, np.array(lows),
        groups=groups.view("V16").ravel(),
        exponents=np.array([[ord(ch) for ch in s] for s in exponents],
                           dtype=np.uint32).view("V16").ravel(),
        classes=np.array([_form(e) * 17 + 16 for e in _EXPONENTS]),
        trailing_zeros=np.where(pair_zeros < 2, pair_zeros, 2 + pair_zeros[:, None]).ravel(),
        constants=np.array([ord(c) for c in "0,-.0e\0\0"], dtype=np.uint32).view("V16"),
        layouts=np.array([_layout(negative, form, n) for negative in (False, True)
                          for form in range(_FORMS) for n in range(1, 18)], dtype=np.intp),
        offsets=np.repeat(np.arange(0, _GATHER_ROWS * _ROW, _ROW), _WIDTH).reshape(-1, _WIDTH))


def _reserve_dump_tables() -> None:
    """Build the dump formatter's tables ahead of a scenario's arrays (see
    ``_format_tables``), whether or not the scenario dumps."""
    _format_tables()


def _scaled(a: np.ndarray, p: np.ndarray, t: _FormatTables) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**p as hi + r: hi the double product, r the rest."""
    i = p - _POWERS.start
    high = t.high[i]
    hi = a * high
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    high_hi, high_lo = t.high_hi[i], t.high_lo[i]
    r = a_hi * high_hi - hi
    r += a_hi * high_lo
    r += a_lo * high_hi
    r += a_lo * high_lo
    r += a * t.low[i]
    return hi, r


def _decimal_digits(values: np.ndarray, t: _FormatTables
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each value as an integer in
    [10**16, 10**17), its decimal exponent, and the mask of the values whose
    rounding is certain."""
    a = np.abs(values)
    e = np.floor(np.log10(a)).astype(np.int64)
    p = 16 - e
    hi, r = _scaled(a, p, t)
    # floor(log10) may be one off: hi + r below 1e16 or from 1e17 on
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if off.size:
        h, s = hi[off], r[off]
        step = ((h > 1e17) | ((h == 1e17) & (s >= 0))).astype(np.int64)
        step -= (h < 1e16) | ((h == 1e16) & (s < 0))
        off, step = off[step != 0], step[step != 0]
        e[off] += step
        p[off] -= step
        hi[off], r[off] = _scaled(a[off], p[off], t)
    # hi is even (its spacing is 2 or more), so rounding r half to even
    # rounds hi + r half to even
    rounded = np.rint(r)
    digits = hi.astype(np.int64)
    digits += rounded.astype(np.int64)
    r -= rounded
    certain = ((p >= 0) & (p <= 22)) | (np.abs(r) < 0.5 - 1e-6)
    # a few doubles just below a power of ten round up to 10**17 (1e-14 is
    # one): % writes them
    certain &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    return digits, e, certain


def _source_rows(negative: np.ndarray, digits: np.ndarray, e: np.ndarray,
                 t: _FormatTables) -> tuple[np.ndarray, np.ndarray]:
    """The source row of each value and the row of ``t.layouts`` that lays
    out its characters."""
    head = digits // 10 ** 8
    low8 = digits - head * 10 ** 8
    first = head // 10 ** 8
    high8 = head - first * 10 ** 8
    g1 = high8 // 10 ** 4
    g2 = high8 - g1 * 10 ** 4
    g3 = low8 // 10 ** 4
    g4 = low8 - g3 * 10 ** 4
    source = np.empty((len(digits), _ROW), dtype=np.uint32)
    quads = source.view("V16")
    for k, g in enumerate((g1, g2, g3, g4)):
        quads[:, k] = t.groups[g]
    e = e - _EXPONENTS.start
    quads[:, 4] = t.exponents[e]
    quads[:, 5:] = t.constants
    first += 48
    source[:, _FIRST] = first
    # trailing zeros of the last 16 digits: where the last group is all
    # zeros, count on into the groups before it
    zeros = t.trailing_zeros[g4]
    rare = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        if not rare.size:
            break
        more = t.trailing_zeros[g[rare]]
        zeros[rare] += more
        rare = rare[more == 4]
    layout = t.classes[e]
    layout -= zeros
    layout += negative * (_FORMS * 17)
    return source, layout


def _fast_format(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``"," + FORMAT % v`` for float64 values with 1e-280 <= |v| <= 1e280, and
    the mask of the entries it is certain of."""
    t = _format_tables()
    digits, e, certain = _decimal_digits(values, t)
    source, layout = _source_rows(values < 0, digits, e, t)
    del digits, e
    text: list[str] = []
    flat = source.ravel()
    for start in range(0, len(values), _GATHER_ROWS):
        rows = layout[start:start + _GATHER_ROWS]
        index = np.take(t.layouts, rows, axis=0)
        index += t.offsets[:len(rows)]
        text += np.take(flat[start * _ROW:], index).view(f"U{_WIDTH}").ravel().tolist()
    return text, certain


def _format_distinct(values: np.ndarray) -> np.ndarray:
    """``"," + FORMAT % v`` for every entry of a float64 array, as an object
    array of the same shape.  Each distinct bit pattern is formatted once, so
    -0.0 and 0.0, and NaNs with different payloads, stay apart exactly as
    they do under ``%``.  A block of one bit pattern (the 2-D Einstein
    v_lhs) is filled with its one string, without ``np.unique``."""
    bits = values.view(np.int64)
    if (bits == bits.flat[0]).all():
        # fill, not np.full, which makes one str object per entry
        strings = np.empty(values.shape, dtype=object)
        strings.fill(("," + FORMAT) % float(values.flat[0]))
        return strings
    bits, inverse = np.unique(bits, return_inverse=True)
    distinct = bits.view(np.float64)
    strings = np.empty(len(distinct), dtype=object)
    slow = np.ones(len(distinct), dtype=bool)
    if len(distinct) >= FAST_FORMAT_MIN:
        a = np.abs(distinct)
        fast = np.flatnonzero((a >= 1e-280) & (a <= 1e280))
        text, certain = _fast_format(distinct[fast])
        strings[fast] = text
        slow[fast[certain]] = False
    strings[slow] = [("," + FORMAT) % v for v in distinct[slow].tolist()]
    return strings[inverse.reshape(values.shape)]


def _csv_headers(grid: ChartGrid, values: np.ndarray, coord_prefix: str,
                 value_name: str) -> list[str]:
    headers = [f"{coord_prefix}{k + 1}" for k in range(grid.dim)]
    comp_shape = values.shape[grid.dim:]
    if comp_shape:
        for idx in product(*(range(s) for s in comp_shape)):
            headers.append(value_name + "_" + "".join(str(i + 1) for i in idx))
    else:
        headers.append(value_name)
    return headers


def dump_field_csv(path: pathlib.Path, grid: ChartGrid, values: np.ndarray,
                   coord_prefix: str, value_name: str) -> None:
    """Fixed column order: coordinates first, then components in
    lexicographic index order, 17 significant digits.

    Each cell is written with the separator before it: the first coordinate
    with the newline that ends the previous line (the header's, for the
    first row), every other cell with a comma.  A block of rows, at most
    DUMP_BLOCK_CELLS cells, is then one ``"".join`` of its cells.  Each
    distinct value of a block is formatted once: by numpy when the block has
    FAST_FORMAT_MIN distinct values or more, where it can prove the rounding,
    else by ``FORMAT %``, with the same bytes either way."""
    n_rows = int(np.prod(grid.shape))
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(n_rows, -1)
    headers = _csv_headers(grid, values, coord_prefix, value_name)
    # grid.points() is the meshgrid of the axis coordinates: format each axis
    # once and pick its strings by node index
    axis_strings = [np.array([(("\n" if k == 0 else ",") + FORMAT) % v
                              for v in grid.axis_coords(k).tolist()], dtype=object)
                    for k in range(grid.dim)]
    block_rows = dump_block_rows(len(headers))
    block = np.empty((min(block_rows, n_rows), len(headers)), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(headers))
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            cells = block[:stop - start]
            nodes = np.unravel_index(np.arange(start, stop), grid.shape)
            for k, strings in enumerate(axis_strings):
                cells[:, k] = strings[nodes[k]]
            cells[:, grid.dim:] = _format_distinct(flat[start:stop])
            fh.write("".join(cells.ravel().tolist()))
        fh.write("\n")


def _copy_dump_rows(source: pathlib.Path, path: pathlib.Path, grid: ChartGrid,
                    values: np.ndarray, coord_prefix: str, value_name: str) -> None:
    """Write the dump of ``values`` when ``source``, another file, is a dump
    of the same values on the same grid: its own header line, then the rows
    of ``source`` copied in blocks of COPY_BLOCK_BYTES.  The rows hold no
    coordinate prefix, so the file is byte-identical to the one
    ``dump_field_csv`` writes."""
    with open(source, "rb") as src, open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_csv_headers(grid, values, coord_prefix, value_name)) + "\n")
        fh.flush()
        src.readline()
        shutil.copyfileobj(src, fh.buffer, COPY_BLOCK_BYTES)


# ---------------------------------------------------------------------------
# shared context
# ---------------------------------------------------------------------------


class _Context:
    """Lazily built objects shared by the tasks of one scenario."""

    def __init__(self, spec: dict, stencil_override: int | None):
        self.spec = spec
        # each chart's stencil order: the override, else its own, else its kind's default
        self.stencil_orders = {key: stencil_override or spec[key].get("stencil_order", default)
                               for key, default in (("m_space", 2), ("gl_space", 2), ("orbit", 4))
                               if key in spec}
        self.tol = {**sc.DEFAULT_TOLERANCES, **spec.get("tolerances", {})}
        self._psi_checked: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @cached_property
    def m_grid(self) -> ChartGrid:
        return sc.build_grid(self.spec["m_space"], self.stencil_orders["m_space"])

    @cached_property
    def phi(self):
        return sample_metric(self.m_grid, self.phi_eval)

    @cached_property
    def phi_eval(self):
        m = self.spec["m_space"]
        return sc.metric_evaluator(m.get("metric", "identity"), m["dim"], "a")

    @cached_property
    def psi_eval(self):
        n = self.spec["n_space"]
        return sc.metric_evaluator(n.get("metric", "identity"), n["dim"], "x")

    @cached_property
    def psi_dx(self):
        """The exact gradient of psi, shared by the pair and the orbit
        residual."""
        n = self.spec["n_space"]
        return sc.metric_gradient_evaluator(n.get("metric", "identity"), n["dim"], "x")

    def checked_psi(self, f):
        """The target metric evaluator, after checking that psi is positive
        definite where it is sampled: at the values of ``f`` (a map jet or a
        sampled curve) on its grid.  A failing node raises
        SingularMetricError naming the node.  Each array of values is
        checked once, so a curve and ``curve.as_map()`` share one check,
        and the evaluator returned gives the checked values back when it is
        called on that array itself: psi is evaluated once at a map."""
        if id(f.values) not in self._psi_checked:
            values = self.psi_eval(f.values)
            try:
                MetricField(f.grid, values)
            except SingularMetricError as exc:
                raise SingularMetricError(f"target metric psi: {exc}",
                                          node=exc.node) from None
            # held, so its id is not reused while recorded
            self._psi_checked[id(f.values)] = (f.values, values)
        held, values = self._psi_checked[id(f.values)]
        psi_eval = self.psi_eval
        return lambda x: values if x is held else psi_eval(x)

    @cached_property
    def map_jet(self) -> MapJet:
        with _quiet_if_out_of_range(self.m_grid):
            values, linear_jet = sc.build_map_values(
                self.spec["map"], self.m_grid, self.spec["n_space"]["dim"])
            return MapJet.from_values(self.m_grid, values, linear_jet)

    @cached_property
    def system(self) -> FirstOrderSystem:
        """A general system from T, any other kind as the group of its
        generators; a factor the kind does not read is the unit factor."""
        spec = self.spec["system"]
        n_dim = self.spec.get("n_space", {}).get("dim", 1)
        m_dim = self.spec.get("m_space", {}).get("dim", 1)
        if spec["kind"] == "general":
            return FirstOrderSystem(T=sc.system_matrix_evaluator(spec["T"], m_dim, n_dim))
        read = {key: spec[key] for key in sc.SYSTEM_FIELDS[spec["kind"]]}
        return FirstOrderSystem.group(
            [(sc.covector_evaluator(g["xi"], n_dim, "x") if "xi" in g else unit,
              sc.covector_evaluator(g["A"], m_dim, "a") if "A" in g else unit)
             for g in read.get("generators", [read])])

    @cached_property
    def metric_pair(self) -> MetricPair:
        """The conformal pair, phi read from the sampled source metric, with
        the exact partials of psi and of the spec's sigma and tau as its
        hooks."""
        spec = self.spec
        m_dim = spec["m_space"]["dim"]
        n_dim = spec["n_space"]["dim"]
        source_args, target_args = (("a", m_dim), ("b", m_dim)), (("x", n_dim), ("y", n_dim))
        parts = {"psi_dx": self.psi_dx}
        if "sigma" in spec:
            parts["sigma"] = sc.scalar_evaluator_two_args(spec["sigma"], m_dim, "a", m_dim, "b")
            parts["sigma_db"] = sc.gradient_evaluator([spec["sigma"]], source_args, "b",
                                                      vectors=True)
        if "tau" in spec:
            parts["tau"] = sc.scalar_evaluator_two_args(spec["tau"], n_dim, "x", n_dim, "y")
            for wrt in ("y", "x"):
                parts[f"tau_d{wrt}"] = sc.gradient_evaluator([spec["tau"]], target_args, wrt,
                                                             vectors=True)
        phi = self.phi.values
        return MetricPair.conformal(lambda a: phi, self.checked_psi(self.map_jet), **parts)

    @cached_property
    def connection(self) -> ConnectionTensor:
        spec = self.spec["connection"]
        m_dim = self.spec["m_space"]["dim"]
        n_dim = self.spec["n_space"]["dim"]
        if spec["kind"] == "zero":
            return ConnectionTensor.zero(m_dim, n_dim)
        if spec["kind"] == "covector_fiber":
            return ConnectionTensor.covector_fiber(
                sc.covector_evaluator(spec["A"], m_dim, "a"))
        return ConnectionTensor.oneform_source(
            sc.covector_evaluator(spec["xi"], n_dim, "x"),
            xi_dx=sc.gradient_evaluator(spec["xi"], (("x", n_dim),), "x", (n_dim,)))

    @cached_property
    def evaluation(self) -> DensityEvaluation:
        """The pair's first-stage evaluation at the map, with phi^{-1} and
        sqrt(phi), shared by the energy and el_residual tasks; each part is
        computed by the first task that reads it."""
        return DensityEvaluation(self.map_jet, self.metric_pair, self.connection, self.phi)

    @cached_property
    def gl(self):
        g = self.spec["gl_space"]
        grid = sc.build_grid(g, self.stencil_orders["gl_space"])
        gamma = sc.sampled_metric(grid, g.get("metric", "identity"), g["dim"], "x")
        base = curvature_package(gamma)
        if isinstance(g["sigma"], ast.Constant) and g["sigma"].value == 0:
            return conformal_space(base, None)    # no factor: the base geometry alone
        # sigma is the jet's value, so one compiled list serves both
        jet = sc.sigma_jet_evaluator(g["sigma"], g["dim"])
        return conformal_space(base, lambda pts, y: jet(pts, y)[0], jet)

    @cached_property
    def orbit_curve(self) -> SampledCurve:
        o = self.spec["orbit"]
        return integrate_orbit(self.system.xi, o["x0"], o["t0"], o["t1"], o["nodes"],
                               o.get("rk4_step", DEFAULT_RK4_STEP), self.stencil_orders["orbit"])

    @cached_property
    def map_certificate(self) -> MinimizerCertificate:
        """The minimizer certificate of the scenario map, shared by the
        certify_theorem, pfaff and pseudolinear tasks."""
        f = self.map_jet
        # out-of-range nodes give a non-finite certificate, which fails
        with _quiet_if_out_of_range(f.grid, f.values):
            return self.certify(f, self.phi)

    def certify(self, f, phi) -> MinimizerCertificate:
        return certify_minimizer(f, self.system, phi, self.checked_psi(f), self.tol["tol_gap"],
                                 self.tol["tol_defect"], self.tol["eps_sing"])


# ---------------------------------------------------------------------------
# task executors
# ---------------------------------------------------------------------------


def _task_energy(ctx: _Context, task: dict, dumps: list):
    density = lagrangian_density(ctx.map_jet, ctx.metric_pair, ctx.connection, ctx.phi,
                                 ctx.evaluation)
    E = volume_integral(density, ctx.phi)
    scalars = {"energy": E}
    _fold_max_abs(scalars, "density_max", "density_nonfinite", density.values)
    ok = _all_finite(scalars) and bool(np.isfinite(E))
    if "expected" in task:
        scalars["expected"] = task["expected"]
        ok = ok and abs(E - task["expected"]) <= task.get("tol", 1e-9)
    dumps.append(("density", ctx.m_grid, density.values, "a"))
    return ok, scalars, {}


def _task_el_residual(ctx: _Context, task: dict, dumps):
    res = el_residual(ctx.map_jet, ctx.metric_pair, ctx.connection, ctx.phi,
                      evaluation=ctx.evaluation)
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


def _task_certify(ctx: _Context, task: dict, dumps):
    if "orbit" in ctx.spec and ctx.spec.get("system", {}).get("kind") == "orbit":
        curve = ctx.orbit_curve
        grid = curve.grid
        # out-of-range nodes give a non-finite certificate, which fails
        with _quiet_if_out_of_range(grid, curve.values):
            cert = ctx.certify(curve.as_map(), identity_metric(grid))
    else:
        grid, cert = ctx.m_grid, ctx.map_certificate
    dump_name = "pfaff_best_fit_scale" if task["task"] == "pfaff" else "best_fit_scale"
    dumps.append((dump_name, grid, cert.kappa, "a"))
    return cert.verdict, {}, _certificate_record(cert)


def _task_orbit(ctx: _Context, task: dict, dumps):
    curve = ctx.orbit_curve
    n_dim = ctx.spec["n_space"]["dim"]
    xi_dx = sc.gradient_evaluator(ctx.spec["system"]["xi"], (("x", n_dim),), "x", (n_dim,))
    # an orbit that leaves the domain of xi has non-finite nodes, and one
    # far enough out non-finite residuals: the task counts them, numpy need
    # not warn of them
    with _quiet_if_out_of_range(curve.grid, curve.values):
        res = orbit_geodesic_residual(curve, ctx.system.xi, ctx.checked_psi(curve),
                                      ctx.tol["eps_sing"], xi_dx=xi_dx, psi_dx=ctx.psi_dx)
    threshold = task.get("residual_threshold", 1e-4)
    scalars = {"threshold": threshold}
    _fold_max_abs(scalars, "max_residual", "residual_nonfinite", res.values)
    dumps.append(("orbit_curve", curve.grid, curve.values, "t"))
    dumps.append(("orbit_residual", curve.grid, res.values, "t"))
    return _all_finite(scalars) and scalars["max_residual"] <= threshold, scalars, {}


def _quiet_if_out_of_range(grid: ChartGrid, values: np.ndarray | None = None):
    """A context that silences numpy's warnings when a node coordinate of
    ``grid`` or an entry of ``values`` is not finite or so large that its
    square overflows, so that what is computed from them (expressions, metric
    and energy quadratic forms) is not finite either, and leaves them on
    otherwise."""
    arrays = [grid.axis_coords(k) for k in range(grid.dim)]
    if values is not None:
        arrays.append(values)
    with np.errstate(over="ignore"):
        in_range = all(np.isfinite(np.square(a)).all() for a in arrays)
    return contextlib.nullcontext() if in_range else np.errstate(all="ignore")


def _task_pseudolinear(ctx: _Context, task: dict, dumps):
    cert = ctx.map_certificate
    scalars = {}
    ok = cert.verdict
    defect = level_set_geodesic_defect(ctx.map_jet)
    scalars["level_set_defect"] = defect
    if "level_set_threshold" in task:
        ok = ok and defect <= task["level_set_threshold"]
    # the quotient functional (the certificate's value) must coincide with
    # the energy of the attached conformal data
    lt = cert.functional_value
    en = volume_integral(_attached_density(ctx), ctx.phi)
    scalars["quotient_value"] = lt
    scalars["energy_value"] = en
    equality_gap = abs(lt - en) / max(abs(lt), 1e-300)
    scalars["equality_rel_gap"] = equality_gap
    ok = ok and equality_gap < 1e-8
    return ok, scalars, _certificate_record(cert)


def _attached_density(ctx: _Context):
    """The density of the energy attached to the scenario's system at its
    map, from the sampled phi and the checked psi."""
    f = ctx.map_jet
    with _quiet_if_out_of_range(f.grid, f.values):
        return group_system_lagrangian(ctx.system.generators, f, ctx.phi, ctx.checked_psi(f),
                                       ctx.tol["eps_sing"])


def _task_group(ctx: _Context, task: dict, dumps):
    density = _attached_density(ctx)
    oracle = _group_loop_oracle(ctx.system.generators, ctx.map_jet, ctx.phi,
                                ctx.checked_psi(ctx.map_jet))
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
    """Fold one sample into ``scalars[max_key]`` (largest finite |value|,
    NaN while no value is finite) and ``scalars[count_key]`` (number of
    nan/inf values)."""
    mag = np.abs(values)
    finite = np.isfinite(mag)
    count = int(np.count_nonzero(finite))
    top = float(np.max(mag, where=finite, initial=0.0)) if count else math.nan
    # fmax takes the other operand where one is NaN
    scalars[max_key] = np.fmax(scalars.get(max_key, math.nan), top).item()
    scalars[count_key] = scalars.get(count_key, 0) + int(mag.size - count)


def _all_finite(scalars: dict) -> bool:
    return not any(v for k, v in scalars.items() if k.endswith("_nonfinite"))


def _task_maxwell(ctx: _Context, task: dict, dumps):
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


def _task_einstein(ctx: _Context, task: dict, dumps):
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
        from .gl_space import zero_sigma, zero_sigma_jet

        reduced = conformal_space(space.base, zero_sigma, zero_sigma_jet)
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
    """Validate a scenario, execute all its tasks, write report + CSV dumps.
    The tasks build from the checked copy of ``require_valid``, so each
    expression source is parsed once; ``spec`` itself is not changed.

    Returns the report dict; report["status"] is "pass" only if every task
    passed.
    """
    spec = sc.require_valid(spec)
    _reserve_dump_tables()
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
            # every task reads a chart, so a valid spec has one
            "stencil_order": next(iter(ctx.stencil_orders.values())),
        },
        "tasks": [],
    }

    all_ok = True
    # path -> (values, grid) of the last dump written there; the values by
    # weak reference, so a dump keeps no array alive
    written: dict = {}
    for task in spec["tasks"]:
        name = task["task"]
        dumps: list = []
        record: dict[str, Any] = {"task": name}
        start = time.perf_counter()
        try:
            ok, scalars, certificate = _TASK_RUNNERS[name](ctx, task, dumps)
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
            path = out / f"{spec['name']}__{name}__{dump_name}.csv"
            values = np.asarray(values)
            # the very array of an earlier dump (pfaff and certify_theorem
            # both dump the certificate's kappa) has the same rows; a file
            # is never its own source, since opening it for writing empties it
            source = next((p for p, (ref, g) in written.items()
                           if p != path and ref() is values and g == grid), None)
            if source is None:
                dump_field_csv(path, grid, values, prefix, dump_name)
            else:
                _copy_dump_rows(source, path, grid, values, prefix, dump_name)
            written[path] = (weakref.ref(values), grid)

    report["status"] = "pass" if all_ok else "fail"
    with open(out / f"{spec['name']}__report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)
    return value
