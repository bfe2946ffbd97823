"""Observed orders of convergence under grid refinement.

A convergence claim names a scenario, a chart of it, a task scalar that
measures an error (a residual, or the distance to a known value), a
stencil order and three or more grid sizes.  :func:`refined_errors`
runs the scenario through ``run_scenario`` with every axis of the chart
at each size in turn and returns the scalar of its one task;
:func:`observed_orders` turns each consecutive pair of sizes into
log(e1/e2) / log(n2/n1), the order p of an error that falls as n^-p.
``tests/test_refinement.py`` pins the orders of the bundled scenarios.
"""

from __future__ import annotations

import copy
import math
import tempfile
from typing import Sequence

from glharmonic.runner import run_scenario


def refined_errors(spec: dict, chart: str, scalar: str, stencil_order: int,
                   sizes: Sequence[int]) -> list[float]:
    """The task scalar ``scalar`` of ``spec``, a scenario of one task, with
    every axis of ``spec[chart]`` at each of ``sizes`` nodes, at
    ``stencil_order``.  ``spec`` is not changed, and the reports and dumps
    go to a temporary folder."""
    values = []
    with tempfile.TemporaryDirectory() as out:
        for n in sizes:
            refined = copy.deepcopy(spec)
            refined[chart]["nodes"] = [n] * refined[chart]["dim"]
            (task,) = run_scenario(refined, out, stencil_override=stencil_order)["tasks"]
            values.append(task["scalars"][scalar])
    return values


def observed_orders(sizes: Sequence[int], errs: Sequence[float]) -> list[float]:
    """log(e1/e2) / log(n2/n1) of each consecutive pair of sizes."""
    return [math.log(errs[k] / errs[k + 1]) / math.log(sizes[k + 1] / sizes[k])
            for k in range(len(sizes) - 1)]
