"""Set-up shared by the benchmark and its set-up probe: pin the thread
pools, import glharmonic from the checkout's own ``src``, generate a
workload's specs and validate each one."""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One numerical thread: the load is one process, and a fixed pool keeps
# timings comparable across runs on a shared 2-core machine.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot be benchmarked: no library, or a spec that does
    not validate."""


def pin_threads() -> dict:
    """Fix the BLAS/OpenMP pools before numpy is imported; returns the
    settings for the environment record."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    return {var: os.environ[var] for var in THREAD_VARS}


def load_library():
    """The ``glharmonic.runner`` and ``glharmonic.scenarios`` modules of
    this checkout, never an installed copy."""
    if not (SRC / "glharmonic" / "__init__.py").is_file():
        raise SetupError(f"no glharmonic package under {SRC}")
    sys.path.insert(0, str(SRC))
    from glharmonic import runner, scenarios

    if pathlib.Path(runner.__file__).resolve().parent != SRC / "glharmonic":
        raise SetupError(f"glharmonic imported from {runner.__file__}, not from {SRC}")
    return runner, scenarios


def prepare(workload: str, seed: int, scenarios) -> list[dict]:
    """Generate the workload's specs and validate every one; a spec that
    fails validation aborts the run."""
    from workloads import WORKLOADS

    specs = WORKLOADS[workload](seed)
    for spec in specs:
        errors = scenarios.validate_scenario(spec)
        if errors:
            raise SetupError(f"generated spec {spec['name']!r} does not validate: {errors}")
    return specs
