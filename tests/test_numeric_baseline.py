"""Every task scalar and dump digest of the bundled scenarios and of the
benchmark workload specs at seeds 1 and 7 against the recorded baseline
``tests/data/numeric_baseline.json`` (regenerated by
``tests/numeric_baseline.py``), under the gate and floors that module
defines.  A dump whose bytes changed while its count, non-finite count,
max |v| and sum of v^2 pass is reported as a warning, not failed, and
``--diff`` lists it: the digests gate the numbers, the hash shows that a
digit moved.  ``--diff`` also lists each scalar whose value changed within
the gate.
"""

import json
import warnings

import pytest

from numeric_baseline import (
    BASELINE,
    close,
    dump_floor,
    moved,
    nudged,
    record,
    rehashed,
    scalar_floor,
    specs,
)

_BASELINE = json.loads(BASELINE.read_text(encoding="utf-8"))
_SPECS = specs()


def test_baseline_covers_every_spec():
    assert sorted(_BASELINE) == sorted(_SPECS)
    assert len(_SPECS) == 43


@pytest.mark.parametrize("key", sorted(_SPECS))
def test_numbers_match_the_baseline(key, tmp_path):
    old = _BASELINE[key]
    new = record(_SPECS[key], tmp_path)

    assert sorted(new["scalars"]) == sorted(old["scalars"])
    moved = [f"{name}: {new['scalars'][name]!r} (baseline {value!r})"
             for name, value in old["scalars"].items()
             if not close(new["scalars"][name], value, scalar_floor(name))]
    assert not moved, moved

    assert sorted(new["dumps"]) == sorted(old["dumps"])
    for name, digest in old["dumps"].items():
        got = new["dumps"][name]
        floor = dump_floor(name)
        assert got["count"] == digest["count"], name
        assert got["nonfinite"] == digest["nonfinite"], name
        assert close(got["max_abs"], digest["max_abs"], floor), (name, got, digest)
        assert close(got["sum_sq"], digest["sum_sq"], digest["count"] * floor * floor), \
            (name, got, digest)
        if got["sha256"] != digest["sha256"]:
            warnings.warn(f"{key} {name}: dump bytes changed, digests within tolerance")


def test_diff_lists_dumps_whose_bytes_moved_within_the_gate():
    # a round-off dump whose max |v| doubles at 1e-16 passes under its floor
    # and is listed by its hash; a dump without a floor that moves fails
    digest = {"sha256": "a", "count": 4, "nonfinite": 0, "max_abs": 1e-16, "sum_sq": 4e-32}
    floored, plain = "s__maxwell__maxwell_residual3.csv", "s__maxwell__maxwell_residual1.csv"
    old = {"s": {"scalars": {}, "dumps": {floored: digest, plain: digest}}}
    new = {"s": {"scalars": {}, "dumps": {floored: {**digest, "sha256": "b", "max_abs": 2e-16},
                                          plain: {**digest, "sha256": "c", "max_abs": 2e-16}}}}
    assert [line.split(":")[0] for line in moved(new, old)] == [f"s {plain} max_abs"]
    assert rehashed(new, old) == [f"s {floored} sha256: a -> b"]
    assert moved(old, old) == rehashed(old, old) == []


def test_diff_lists_scalars_whose_bits_moved_within_the_gate():
    # a value one ulp off and a zero that changed sign pass the gate and are
    # listed; an equal value is not, and a move beyond the gate is moved's
    old = {"s": {"scalars": {"0:energy.scalars.energy": 1.0, "0:energy.scalars.zero": 0.0,
                             "0:energy.scalars.same": 2.5, "0:energy.scalars.far": 1.0,
                             "0:energy.status": "pass"},
                 "dumps": {}}}
    new = {"s": {"scalars": {"0:energy.scalars.energy": 1.0 + 2.0 ** -52,
                             "0:energy.scalars.zero": -0.0, "0:energy.scalars.same": 2.5,
                             "0:energy.scalars.far": 2.0, "0:energy.status": "pass"},
                 "dumps": {}}}
    assert [line.split(": ")[0] for line in nudged(new, old)] == [
        "s 0:energy.scalars.energy", "s 0:energy.scalars.zero"]
    assert [line.split(": ")[0] for line in moved(new, old)] == ["s 0:energy.scalars.far"]
    assert nudged(old, old) == []
