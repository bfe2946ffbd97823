"""The observed orders of convergence of the bundled scenarios, through
``refinement``.  A task's gate holds at one grid size; these hold across
three, so a change that lowers an order fails here even where every
bundled size still passes its gate.

Each asserted order is the one measured when it was pinned less MARGIN.
The errors are deterministic, so the margin only absorbs round-off of
another numpy or BLAS; it is far below the drop of one order (2 -> 1 or
4 -> 2) that it guards.  Maxwell's residual 1 is not pinned: as coded
it grows under refinement (3.17e-3, 3.92e-3 and 4.23e-3 at 9^3, 13^3 and
17^3, order 2; 4.02e-3, 4.46e-3 and 4.59e-3 at order 4), so it does not
vanish in the continuum.
"""

import pytest

from glharmonic.scenarios import BUILTIN_SCENARIOS
from refinement import observed_orders, refined_errors

MARGIN = 0.2


@pytest.mark.parametrize("name, scalar, stencil_order, sizes, measured", [
    # 5.74e-4, 2.98e-4 and 1.80e-4
    ("maxwell-logconformal", "residual2", 2, (9, 13, 17), (1.78, 1.88)),
    # 2.53e-4, 6.81e-5 and 2.51e-5
    ("maxwell-logconformal", "residual2", 4, (9, 13, 17), (3.57, 3.72)),
    # 5.52e-3, 6.27e-4 and 7.26e-5
    ("sphere-curvature", "scalar_curvature_error", 4, (32, 64, 128), (3.14, 3.11)),
])
def test_observed_orders_hold(name, scalar, stencil_order, sizes, measured):
    errs = refined_errors(BUILTIN_SCENARIOS[name], "gl_space", scalar, stencil_order, sizes)
    orders = observed_orders(sizes, errs)
    assert all(order > m - MARGIN for order, m in zip(orders, measured, strict=True)), orders


def test_observed_orders_of_a_power_law():
    # e = 3 n^-2 exactly, and e = n^-4 on uneven sizes
    assert observed_orders((10, 20, 40), (0.03, 0.0075, 0.001875)) == [2.0, 2.0]
    orders = observed_orders((9, 13, 17), [n ** -4.0 for n in (9, 13, 17)])
    assert orders == pytest.approx([4.0, 4.0], rel=1e-13)
