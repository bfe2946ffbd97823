"""The numeric baseline: every task scalar and a digest of every CSV dump
of the bundled scenarios and of the benchmark workload specs at seeds 1
and 7, run through ``run_scenario``.

Regenerate ``tests/data/numeric_baseline.json`` only on purpose, when a
change is meant to move numbers, and say in the change which moved:

    PYTHONPATH=src python tests/numeric_baseline.py

``tests/test_numeric_baseline.py`` compares a fresh run against the file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
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


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = generate(pathlib.Path(tmp))
    BASELINE.parent.mkdir(exist_ok=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    n_scalars = sum(len(v["scalars"]) for v in data.values())
    n_dumps = sum(len(v["dumps"]) for v in data.values())
    print(f"{len(data)} specs, {n_scalars} scalars, {n_dumps} dumps -> {BASELINE}")


if __name__ == "__main__":
    main()
