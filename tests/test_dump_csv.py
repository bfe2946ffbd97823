"""The block-formatted CSV writer against the original per-row writer, and
the runner's reuse of an earlier dump of the very same array."""

import copy
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic import runner
from glharmonic.runner import DUMP_BLOCK_CELLS, FORMAT, dump_block_rows, dump_field_csv, run_scenario
from glharmonic.scenarios import BUILTIN_SCENARIOS
from glharmonic.tensor_core import box_grid

import format_check

SPECIALS = np.array([
    -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
    np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64),  # NaN payload
    np.array(-1, dtype=np.int64).view(np.float64),                  # negative NaN
    1.0, 0.1, 1e300,
])


def _shapes(dim, B):
    """Node counts below, at and above one block of B rows and at an exact
    multiple of it."""
    return {
        1: st.one_of(st.integers(5, 40).map(lambda n: (n,)),
                     st.sampled_from([(B - 1,), (B,), (B + 1,), (2 * B,), (2 * B + 3,)])),
        2: st.one_of(st.tuples(st.integers(5, 12), st.integers(5, 12)),
                     st.sampled_from([(64, B // 64), (64, 2 * B // 64), (65, 70), (5, B // 5)])),
        3: st.one_of(st.tuples(*[st.integers(5, 7)] * 3),
                     st.sampled_from([(B // 64, 8, 8), (17, 16, 16), (5, 5, 200)])),
    }[dim]


def reference_dump(path, grid, values, coord_prefix, value_name):
    """The original writer: one ``FORMAT % v`` per cell, one row at a time."""
    pts = grid.points().reshape(-1, grid.dim)
    comp_shape = values.shape[grid.dim:]
    flat = values.reshape(len(pts), -1)
    headers = [f"{coord_prefix}{k + 1}" for k in range(grid.dim)]
    if comp_shape:
        for idx in product(*(range(s) for s in comp_shape)):
            headers.append(value_name + "_" + "".join(str(i + 1) for i in idx))
    else:
        headers.append(value_name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(headers) + "\n")
        for row_pt, row_val in zip(pts, flat):
            cells = [FORMAT % v for v in row_pt] + [FORMAT % v for v in row_val]
            fh.write(",".join(cells) + "\n")


def _values(rng, shape, special_share, repeat_share):
    """Gaussian values of mixed scale with specials and repeated values."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    vals = np.where(rng.random(shape) < repeat_share, rng.choice([0.25, -3.0, 7e-9], shape), vals)
    return np.where(rng.random(shape) < special_share, rng.choice(SPECIALS, shape), vals)


def _layout(vals, layout):
    if layout == "fortran":
        return np.asfortranarray(vals)
    if layout == "strided":
        big = np.zeros(vals.shape + (2,))
        big[..., 1] = vals
        return big[..., 1]
    if layout == "reversed":
        return np.ascontiguousarray(vals[::-1])[::-1]  # negative strides on axis 0
    return vals


def _assert_same_bytes(tmp_path, grid, values, prefix="a", name="v"):
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_dump(ref, grid, values, prefix, name)
    dump_field_csv(new, grid, values, prefix, name)
    assert new.read_bytes() == ref.read_bytes()


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data(), dim=st.integers(1, 3),
       comp_shape=st.sampled_from([(), (2,), (2, 2), (3, 3)]),
       seed=st.integers(0, 2**32 - 1), special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       repeat_share=st.sampled_from([0.0, 0.5, 1.0]),
       layout=st.sampled_from(["c", "fortran", "strided", "reversed"]))
def test_block_writer_matches_row_writer(tmp_path_factory, data, dim, comp_shape, seed,
                                         special_share, repeat_share, layout):
    B = dump_block_rows(dim + int(np.prod(comp_shape)))
    shape = data.draw(_shapes(dim, B), label="nodes")
    periodic = data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim), label="periodic")
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 10.0, dim)
    extents = [(a, a + w) for a, w in zip(lo, rng.uniform(1e-3, 20.0, dim))]
    grid = box_grid(extents, shape, periodic)
    values = _layout(_values(rng, shape + comp_shape, special_share, repeat_share), layout)
    _assert_same_bytes(tmp_path_factory.mktemp("dump"), grid, values)


# rows of one block of a dump with two components: 1-D, 2-D and 3-D
B1, B2, B3 = (dump_block_rows(dim + 2) for dim in (1, 2, 3))


@pytest.mark.parametrize("shape", [(B1 - 1,), (B1,), (B1 + 1,), (2 * B1,), (B2 // 64, 64),
                                   (2 * B2 // 64 + 1, 64), (B3 // 25 + 1, 5, 5), (16, 16, 32)])
def test_block_writer_at_block_boundaries(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    grid = box_grid([(0.0, 1.0)] * len(shape), shape)
    _assert_same_bytes(tmp_path, grid, _values(rng, shape + (2,), 0.05, 0.5))


@pytest.mark.parametrize("value, other", [(0.0, -0.0), (-0.0, 0.0), (np.nan, -np.nan),
                                          (-np.inf, np.inf), (0.1, 0.5), (-3e-310, 3e-310)])
def test_a_constant_block_matches_the_row_writer(tmp_path, value, other):
    # a block of one bit pattern is filled with one string: a dump of such
    # blocks, then one whose last block also holds another bit pattern
    shape = (2 * B2 // 64 + 1, 64)
    grid = box_grid([(0.0, 1.0)] * 2, shape)
    values = np.full(shape + (2,), value)
    _assert_same_bytes(tmp_path, grid, values)
    values[-1, -1, 1] = other
    _assert_same_bytes(tmp_path, grid, values)


# a 4-D rank-3 dump has 4 + 64 columns, so far fewer rows to a block
B4 = dump_block_rows(4 + 4 ** 3)


# 1200 nodes are ten blocks of 120 rows
@pytest.mark.parametrize("shape", [(5, 5, 5, 5), (5, 5, 6, 8), (5, 5, 5, 7)])
def test_rank_three_dump_in_four_dimensions_at_block_boundaries(tmp_path, monkeypatch, shape):
    # each block string stays far below 2 MiB: at most 25 characters a cell
    writes = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(len(text)) or write(text)
        return fh

    monkeypatch.setattr(runner, "open", recording_open, raising=False)
    rng = np.random.default_rng(4)
    grid = box_grid([(0.0, 1.0)] * 4, shape)
    _assert_same_bytes(tmp_path, grid, _values(rng, shape + (4, 4, 4), 0.05, 0.3), "x",
                       "maxwell_residual3")
    n_rows = int(np.prod(shape))
    assert B4 * 68 <= DUMP_BLOCK_CELLS
    assert len(writes) == 2 + -(-n_rows // B4)     # header, blocks, last newline
    assert max(writes) <= 25 * B4 * 68 < 1 << 20


def test_block_writer_matches_row_writer_at_257_squared(tmp_path):
    rng = np.random.default_rng(257)
    grid = box_grid([(0.0, 2 * np.pi), (0.0, 1.0)], [257, 257], [True, False])
    values = _values(rng, (257, 257, 2, 2), 0.01, 0.3)
    _assert_same_bytes(tmp_path, grid, values, "x", "einstein_h_lhs")


# ---------------------------------------------------------------------------
# the numpy FORMAT against %
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_numpy_format_matches_percent_on_drawn_bit_patterns(seed):
    assert format_check.mismatches(format_check.drawn_values(np.random.default_rng(seed), 5000)) == []


def test_numpy_format_matches_percent_at_specials_powers_of_ten_short_decimals_and_ties():
    rng = np.random.default_rng(17)
    for values in (format_check.special_values(), format_check.power_values(),
                   format_check.short_values(rng, 1000), format_check.tie_values(rng, 20000),
                   format_check.INEXACT_TIES):
        assert format_check.mismatches(values) == []


def test_numpy_format_settles_exact_ties_itself():
    # 10**p is a double for p <= 22, so the product is exact and a tie
    # rounds half to even without the fallback to %
    ties = format_check.tie_values(np.random.default_rng(3), 20000)
    text, certain = runner._fast_format(ties)
    assert certain.all()
    assert text[-2:] == [",1000000000000000.2", ",250000000000000.12"]


def test_numpy_format_leaves_ties_of_an_inexact_scale_to_percent():
    ties = format_check.INEXACT_TIES
    assert not runner._fast_format(ties)[1].any()
    assert format_check.mismatches(ties) == []


# ---------------------------------------------------------------------------
# a repeated dump copies the rows of the earlier one
# ---------------------------------------------------------------------------


def _spy_dumps(monkeypatch):
    """Record (value_name, values) of every dump_field_csv call of the runner."""
    calls = []

    def spy(path, grid, values, coord_prefix, value_name):
        calls.append((value_name, values))
        dump_field_csv(path, grid, values, coord_prefix, value_name)

    monkeypatch.setattr(runner, "dump_field_csv", spy)
    return calls


def test_repeated_kappa_dump_copies_the_rows(tmp_path, monkeypatch):
    # pfaff and certify_theorem both dump the certificate's kappa; a small
    # copy block makes the copy take several blocks
    monkeypatch.setattr(runner, "COPY_BLOCK_BYTES", 4096)
    calls = _spy_dumps(monkeypatch)
    spec = BUILTIN_SCENARIOS["pfaff-exact"]
    assert [t["task"] for t in spec["tasks"]] == ["pfaff", "certify_theorem"]
    run_scenario(spec, tmp_path)
    assert [name for name, _ in calls] == ["pfaff_best_fit_scale"]
    kappa = calls[0][1]
    grid = box_grid([(0.0, 1.0), (0.0, 1.0)], [65, 65])
    for task, name in [("pfaff", "pfaff_best_fit_scale"), ("certify_theorem", "best_fit_scale")]:
        ref = tmp_path / f"ref_{name}.csv"
        dump_field_csv(ref, grid, kappa, "a", name)
        got = (tmp_path / f"pfaff-exact__{task}__{name}.csv").read_bytes()
        assert got.split(b"\n", 1)[0] == f"a1,a2,{name}".encode()
        assert len(got) > 4 * 4096
        assert got == ref.read_bytes()


def test_equal_but_distinct_values_are_formatted_afresh(tmp_path, monkeypatch):
    # each group_lagrangian task computes its density anew: equal values in
    # a distinct array
    calls = _spy_dumps(monkeypatch)
    spec = copy.deepcopy(BUILTIN_SCENARIOS["group-two-generators"])
    spec["tasks"] = spec["tasks"] * 2
    report = run_scenario(spec, tmp_path)
    assert [t["status"] for t in report["tasks"]] == ["pass", "pass"]
    (first, a), (second, b) = calls
    assert first == second == "group_density"
    assert a is not b and np.array_equal(a, b)


@pytest.mark.parametrize("scenario, tasks", [
    ("pfaff-exact", ["certify_theorem"]),
    ("pfaff-exact", ["pfaff"]),
    ("pfaff-exact", ["pfaff", "certify_theorem"]),
    ("orbit-rotation", ["orbit"]),
])
def test_a_task_run_twice_rewrites_its_dumps_whole(tmp_path, scenario, tasks):
    # the second run of a task dumps the very array of the first to the same
    # file, which must not serve as its own source
    spec = copy.deepcopy(BUILTIN_SCENARIOS[scenario])
    spec["tasks"] = [t for t in spec["tasks"] if t["task"] in tasks]
    run_scenario(spec, tmp_path / "once")
    spec["tasks"] = spec["tasks"] * 2
    report = run_scenario(spec, tmp_path / "twice")
    assert all(t["status"] == "pass" for t in report["tasks"])
    once = sorted(p.name for p in (tmp_path / "once").glob("*.csv"))
    assert once and once == sorted(p.name for p in (tmp_path / "twice").glob("*.csv"))
    for name in once:
        got = (tmp_path / "twice" / name).read_bytes()
        assert got.count(b"\n") > 1
        assert got == (tmp_path / "once" / name).read_bytes()
