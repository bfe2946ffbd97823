"""The numeric baseline: every task scalar and a digest of every CSV dump
of the bundled scenarios and of the benchmark workload specs at seeds 1
and 7, run through ``run_scenario``.

Regenerate ``tests/data/numeric_baseline.json`` only on purpose, when a
change is meant to move numbers, and say in the change which moved.  List
them first, against the committed file, with ``--diff`` (it writes
nothing; it also lists each dump whose sha256 changed while its digest
passes the gate, and each task scalar whose value changed while it passes
the gate):

    PYTHONPATH=src python tests/numeric_baseline.py --diff
    PYTHONPATH=src python tests/numeric_baseline.py

``tests/test_numeric_baseline.py`` compares a fresh run against the file
with the gate defined here: 1e-12 relative, and an absolute floor for the
keys whose value is round-off (a difference of O(1) quantities that the
theory makes zero); every other key, an exact zero included, has no
floor.  Statuses, counts and verdicts must be equal.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import pathlib
import re
import tempfile

import numpy as np

from glharmonic.runner import run_scenario
from glharmonic.scenarios import BUILTIN_SCENARIOS

ROOT = pathlib.Path(__file__).parents[1]
BASELINE = pathlib.Path(__file__).parent / "data" / "numeric_baseline.json"
SEEDS = (1, 7)
_COORDINATE = re.compile(r"[a-z]\d+")

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


def close(new, old, floor: float) -> bool:
    """Whether ``new`` passes the gate against the baseline value ``old``."""
    if isinstance(old, bool) or not isinstance(old, (int, float)):
        return new == old
    if isinstance(new, bool) or not isinstance(new, (int, float)):
        return False
    return math.isclose(new, old, rel_tol=REL, abs_tol=floor)


def scalar_floor(name: str) -> float:
    """The floor of a scalar key ``<task>.<part>.<field>``."""
    return SCALAR_FLOORS.get(name.split(".", 1)[1], 0.0)


def dump_floor(name: str) -> float:
    """The floor of a dump file ``<scenario>__<task>__<dump>.csv``."""
    return DUMP_FLOORS.get(name.rsplit("__", 1)[1].removesuffix(".csv"), 0.0)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def specs() -> dict[str, dict]:
    """Every spec by key: ``bundled/<name>`` and ``<workload>@<seed>/<name>``."""
    out = {f"bundled/{name}": spec for name, spec in BUILTIN_SCENARIOS.items()}
    for workload, generate in _workloads().items():
        for seed in SEEDS:
            for spec in generate(seed):
                out[f"{workload}@{seed}/{spec['name']}"] = spec
    return out


def _leaves(prefix: str, value, into: dict) -> None:
    """Numeric and other JSON leaves of a report entry by dotted path."""
    if isinstance(value, dict):
        for k in sorted(value):
            _leaves(f"{prefix}.{k}", value[k], into)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _leaves(f"{prefix}[{i}]", v, into)
    else:
        into[prefix] = value


def dump_digest(path: pathlib.Path) -> dict:
    """sha256 of the file, and the count, non-finite count, max |v| and
    sum of v^2 over the finite values of its value columns."""
    raw = path.read_bytes()
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    first = sum(1 for h in header if _COORDINATE.fullmatch(h))
    values = np.array([cell for line in lines[1:] for cell in line.split(",")[first:]],
                      dtype=float)
    finite = values[np.isfinite(values)]
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "count": int(values.size),
        "nonfinite": int(values.size - finite.size),
        "max_abs": float(np.abs(finite).max()) if finite.size else 0.0,
        "sum_sq": float(np.sum(finite * finite)),
    }


def record(spec: dict, out_dir: pathlib.Path) -> dict:
    """Run one spec into ``out_dir``: its task scalars (``scalars`` and
    ``certificate`` leaves, and each task's status) and its dump digests."""
    report = run_scenario(spec, out_dir)
    scalars = {}
    for i, task in enumerate(report["tasks"]):
        where = f"{i}:{task['task']}"
        scalars[f"{where}.status"] = task["status"]
        for part in ("scalars", "certificate"):
            if part in task:
                _leaves(f"{where}.{part}", task[part], scalars)
    dumps = {path.name: dump_digest(path)
             for path in sorted(out_dir.glob("*.csv"))}
    return {"scalars": scalars, "dumps": dumps}


def generate(work_dir: pathlib.Path) -> dict:
    result = {}
    for key, spec in specs().items():
        out = work_dir / key.replace("/", "__")
        result[key] = record(spec, out)
    return result


def moved(new: dict, old: dict) -> list[str]:
    """One line per scalar and dump digest value of ``new`` that fails the
    gate against ``old`` (both in the baseline's form), with its relative
    move; a key on one side only is listed as added or missing."""
    lines = []

    def compare(where: str, got: dict, want: dict, floor_of) -> None:
        for name in sorted(set(got) | set(want)):
            if name not in want or name not in got:
                lines.append(f"{where}{name}: {'added' if name in got else 'missing'}")
            elif isinstance(want[name], dict):      # a dump digest
                lines.extend(_digest_moves(f"{where}{name}", got[name], want[name],
                                           floor_of(name)))
            elif not close(got[name], want[name], floor_of(name)):
                lines.append(_line(f"{where}{name}", got[name], want[name]))

    for key in sorted(set(new) | set(old)):
        if key not in old or key not in new:
            lines.append(f"{key}: {'added' if key in new else 'missing'}")
            continue
        compare(f"{key} ", new[key]["scalars"], old[key]["scalars"], scalar_floor)
        compare(f"{key} ", new[key]["dumps"], old[key]["dumps"], dump_floor)
    return lines


def rehashed(new: dict, old: dict) -> list[str]:
    """One line per dump of both ``new`` and ``old`` whose bytes changed
    while its digest passes the gate: a digit moved within the gate."""
    return [f"{key} {name} sha256: {want['sha256']} -> {got['sha256']}"
            for key in sorted(set(new) & set(old))
            for name, want in sorted(old[key]["dumps"].items())
            if (got := new[key]["dumps"].get(name)) is not None
            and got["sha256"] != want["sha256"]
            and not _digest_moves(name, got, want, dump_floor(name))]


def nudged(new: dict, old: dict) -> list[str]:
    """One line per task scalar of both ``new`` and ``old`` whose value
    changed while it passes the gate: its bits moved within the gate.  A
    value is compared by its JSON text, which tells -0.0 from 0.0."""
    return [_line(f"{key} {name}", got, want)
            for key in sorted(set(new) & set(old))
            for name, want in sorted(old[key]["scalars"].items())
            if name in new[key]["scalars"]
            and json.dumps(got := new[key]["scalars"][name]) != json.dumps(want)
            and close(got, want, scalar_floor(name))]


def _digest_moves(name: str, got: dict, want: dict, floor: float) -> list[str]:
    """The lines of the digest fields of one dump that fail the gate."""
    floors = {"count": 0.0, "nonfinite": 0.0, "max_abs": floor,
              "sum_sq": want["count"] * floor * floor}
    return [_line(f"{name} {field}", got[field], want[field])
            for field, field_floor in floors.items()
            if not close(got[field], want[field], field_floor)]


def _line(name: str, new, old) -> str:
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (new, old)):
        rel = abs(new - old) / abs(old) if old else math.inf if new else 0.0
        return f"{name}: {old!r} -> {new!r} (relative move {rel:.2e})"
    return f"{name}: {old!r} -> {new!r}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print every value that moved beyond the gate against the "
                             "committed baseline, then every dump whose bytes changed "
                             "within it and every scalar whose value changed within it, "
                             "and write nothing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        data = generate(pathlib.Path(tmp))
    if args.diff:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        lines = moved(data, baseline)
        print("\n".join(lines) if lines else "no value moved beyond the gate")
        print("\n".join(rehashed(data, baseline)
                        or ["no dump changed its bytes within the gate"]))
        print("\n".join(nudged(data, baseline)
                        or ["no scalar changed its bits within the gate"]))
        return
    BASELINE.parent.mkdir(exist_ok=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    n_scalars = sum(len(v["scalars"]) for v in data.values())
    n_dumps = sum(len(v["dumps"]) for v in data.values())
    print(f"{len(data)} specs, {n_scalars} scalars, {n_dumps} dumps -> {BASELINE}")


if __name__ == "__main__":
    main()
