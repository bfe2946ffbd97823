"""The CSV dump formatter against Python's ``%``: drawn float64 bit patterns,
and the values where a 17-digit rounding is hardest, powers of ten with
both neighbours, short decimals and exact ties at the 17th digit.

    PYTHONPATH=src python tests/format_check.py

checks VALUES drawn bit patterns (10**7, seed 0) in chunks of 10**5, then
the hard values, and exits 1 on the first chunk with a mismatch, printing it.
``tests/test_dump_csv.py`` runs the same comparison on a small draw.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from glharmonic.runner import _fast_format, _format_distinct

VALUES = 10 ** 7
CHUNK = 10 ** 5


def special_values() -> np.ndarray:
    """±0, the smallest and largest subnormals, NaNs with payloads and both
    signs, ±inf and the extremes of the normal range."""
    bits = np.array([0, 1, 2, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
                     0x7FF0000000000000, 0x7FF0000000000001, 0x7FF8000000000000,
                     0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64)


def power_values() -> np.ndarray:
    """±10**p and both float64 neighbours of each, for p in [-308, 308]."""
    powers = np.array([float(f"1e{p}") for p in range(-308, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([values, -values])


# the only float64 values exactly halfway between two 17-digit decimals whose
# scale 10**p (p = 23, 24) is not a double: k * 2**-24 is k * 5**23 / 2 * 1e-23
INEXACT_TIES = np.array([k * 2.0 ** -24 for k in range(3, 16, 2)] + [2.0 ** -25, 3 * 2.0 ** -25])


def tie_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Values m / 2**j between 1e13 and 1e17, many of them exactly halfway
    between two 17-digit decimals: 1000000000000000.25 is one."""
    values = np.ldexp(rng.integers(2 ** 40, 2 ** 53, n).astype(np.float64), -rng.integers(1, 12, n))
    values = values[(values > 1e13) & (values < 1e17)]
    return np.concatenate([values, -values, [1000000000000000.25, 250000000000000.125]])


def short_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Values with 1 to 16 significant digits, k-digit integers times 10**q,
    so that every count of trailing zeros of the 17 digits occurs."""
    values = np.concatenate([rng.integers(1, 10 ** k, n).astype(np.float64)
                             * 10.0 ** rng.integers(-30, 30, n) for k in range(1, 17)])
    return np.concatenate([values, -values])


def drawn_values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, written, expected) for every value whose dump text differs
    from ``b",%.17g" % v``, through the dump's formatter with its fallback
    and through the numpy formatter alone where it is certain."""
    values = np.unique(values.view(np.int64)).view(np.float64)
    expected = [(b",%.17g" % v).decode() for v in values.tolist()]
    written = list(zip(values.tolist(), _format_distinct(values).tolist(), expected))
    a = np.abs(values)
    fast = np.flatnonzero((a >= 1e-280) & (a <= 1e280))
    text, certain = _fast_format(values[fast])
    written += [(values[i], got, expected[i])
                for i, got, sure in zip(fast.tolist(), text, certain.tolist()) if sure]
    return [row for row in written if row[1] != row[2]]


def main() -> int:
    rng = np.random.default_rng(0)
    drawn = (drawn_values(rng, CHUNK) for _ in range(VALUES // CHUNK))
    checked = 0
    for values in itertools.chain(drawn, [special_values(), power_values(), short_values(rng, 5000),
                                          tie_values(rng, CHUNK), INEXACT_TIES]):
        bad = mismatches(values)
        if bad:
            print(f"{len(bad)} mismatches after {checked} values, e.g.:")
            for value, got, want in bad[:10]:
                print(f"  {value!r}: wrote {got!r}, % writes {want!r}")
            return 1
        checked += len(values)
    print(f"{checked} values, every one written as % writes it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
