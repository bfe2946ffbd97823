"""Every task scalar and dump digest of the bundled scenarios and of the
benchmark workload specs at seeds 1 and 7 against the recorded baseline
``tests/data/numeric_baseline.json`` (regenerated by
``tests/numeric_baseline.py``).

A number passes within 1e-12 relative of its baseline value.  Keys whose
value is round-off (a difference of O(1) quantities that the theory makes
zero) also pass within the absolute floor listed for them below; every
other key, an exact zero included, has no floor.  Statuses, counts and
verdicts must be equal.  A dump whose bytes changed while its count,
non-finite count, max |v| and sum of v^2 pass is reported as a warning,
not failed: the digests gate the numbers, the hash shows that a digit
moved.
"""

import json
import math
import warnings

import pytest

from numeric_baseline import BASELINE, record, specs

REL = 1e-12

# Absolute floors of round-off-valued task scalars, by field.
SCALAR_FLOORS = {
    # functional value minus half volume, both O(1): 1e-16 to 2e-10
    "certificate.gap": 1e-12,
    # |quotient - energy| / energy, both O(1): 0 to 2e-16
    "scalars.equality_rel_gap": 1e-12,
    # spread of the primitive on a level set of O(1) values: 0 to 4e-13
    "scalars.level_set_defect": 1e-12,
    # closed-loop oracle minus the Lagrangian integral, both O(1): ~7e-16
    "scalars.loop_oracle_gap": 1e-12,
    # the third cyclic Maxwell residual, zero in the continuum: 0 to 3e-16
    "scalars.residual3": 1e-12,
}

# Absolute floors of round-off-valued dumps, by dump name, on max |v|
# (and count * floor^2 on the sum of v^2).
DUMP_FLOORS = {
    "maxwell_residual3": 1e-12,
}

_BASELINE = json.loads(BASELINE.read_text(encoding="utf-8"))
_SPECS = specs()


def _close(new, old, floor: float) -> bool:
    if isinstance(old, bool) or not isinstance(old, (int, float)):
        return new == old
    if isinstance(new, bool) or not isinstance(new, (int, float)):
        return False
    return math.isclose(new, old, rel_tol=REL, abs_tol=floor)


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
             if not _close(new["scalars"][name], value,
                           SCALAR_FLOORS.get(name.split(".", 1)[1], 0.0))]
    assert not moved, moved

    assert sorted(new["dumps"]) == sorted(old["dumps"])
    for name, digest in old["dumps"].items():
        got = new["dumps"][name]
        floor = DUMP_FLOORS.get(name.rsplit("__", 1)[1].removesuffix(".csv"), 0.0)
        assert got["count"] == digest["count"], name
        assert got["nonfinite"] == digest["nonfinite"], name
        assert _close(got["max_abs"], digest["max_abs"], floor), (name, got, digest)
        assert _close(got["sum_sq"], digest["sum_sq"], digest["count"] * floor * floor), \
            (name, got, digest)
        if got["sha256"] != digest["sha256"]:
            warnings.warn(f"{key} {name}: dump bytes changed, digests within tolerance")
