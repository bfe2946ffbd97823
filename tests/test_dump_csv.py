"""The block-formatted CSV writer against the original per-row writer."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic.runner import DUMP_BLOCK_ROWS, FORMAT, dump_field_csv
from glharmonic.tensor_core import box_grid

B = DUMP_BLOCK_ROWS

SPECIALS = np.array([
    -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
    np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64),  # NaN payload
    np.array(-1, dtype=np.int64).view(np.float64),                  # negative NaN
    1.0, 0.1, 1e300,
])

# node counts below, at and above one block and at an exact multiple of it
SHAPES = {
    1: st.one_of(st.integers(5, 40).map(lambda n: (n,)),
                 st.sampled_from([(B - 1,), (B,), (B + 1,), (2 * B,), (2 * B + 3,)])),
    2: st.one_of(st.tuples(st.integers(5, 12), st.integers(5, 12)),
                 st.sampled_from([(64, B // 64), (64, 2 * B // 64), (65, 70), (5, B // 5)])),
    3: st.one_of(st.tuples(*[st.integers(5, 7)] * 3),
                 st.sampled_from([(16, 16, B // 256), (17, 16, 16), (5, 5, 200)])),
}


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
    shape = data.draw(SHAPES[dim], label="nodes")
    periodic = data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim), label="periodic")
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 10.0, dim)
    extents = [(a, a + w) for a, w in zip(lo, rng.uniform(1e-3, 20.0, dim))]
    grid = box_grid(extents, shape, periodic)
    values = _layout(_values(rng, shape + comp_shape, special_share, repeat_share), layout)
    _assert_same_bytes(tmp_path_factory.mktemp("dump"), grid, values)


@pytest.mark.parametrize("shape", [(B - 1,), (B,), (B + 1,), (2 * B,), (64, 64), (16, 16, 32)])
def test_block_writer_at_block_boundaries(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    grid = box_grid([(0.0, 1.0)] * len(shape), shape)
    _assert_same_bytes(tmp_path, grid, _values(rng, shape + (2,), 0.05, 0.5))


def test_block_writer_matches_row_writer_at_257_squared(tmp_path):
    rng = np.random.default_rng(257)
    grid = box_grid([(0.0, 2 * np.pi), (0.0, 1.0)], [257, 257], [True, False])
    values = _values(rng, (257, 257, 2, 2), 0.01, 0.3)
    _assert_same_bytes(tmp_path, grid, values, "x", "einstein_h_lhs")
