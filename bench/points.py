"""Seeded query points for the eval-points workload.

The points come from the construction's formulas, not from gillab, so
the generator cannot drift with the code it measures (it imports
nothing from gillab).  Query i has kind ``KINDS[i % 3]``:

* ``c1`` -- a point of C_1: 1/4 + x/2 for an eventually periodic
  {0,2} ternary expansion x of a point of the middle-thirds set;
* ``c0`` -- a point of C_0 outside C_1: a + w*x or b - w*x with x as
  above, x != 0, on an attachment [a, a+w] or [b-w, b], w = (b-a)/3, of
  a gap (a, b) of C_1 inside the window [1/8, 7/8];
* ``gap`` -- a random p/q in [0, 1] with q < 5000, almost always a
  point outside C_0.
"""

from __future__ import annotations

import random
from fractions import Fraction

KINDS = ("c1", "c0", "gap")

C1_LO = Fraction(1, 4)
C1_WIDTH = Fraction(1, 2)
WINDOW = (Fraction(1, 8), Fraction(7, 8))
MAX_PREFIX = 5
MAX_PERIOD = 4
MAX_GAP_GENERATION = 5
MAX_DENOMINATOR = 5000


def cantor_value(prefix: list[int], period: list[int]) -> Fraction:
    """Value of the ternary expansion 0.prefix(period)(period)... ."""
    head = sum((Fraction(d, 3 ** (i + 1)) for i, d in enumerate(prefix)),
               Fraction(0))
    block = sum(d * 3 ** (len(period) - 1 - j) for j, d in enumerate(period))
    return head + Fraction(block, 3 ** len(prefix) * (3 ** len(period) - 1))


def _digits(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((0, 2)) for _ in range(n)]


def _cantor_point(rng: random.Random, nonzero: bool = False) -> Fraction:
    prefix = _digits(rng, rng.randint(0, MAX_PREFIX))
    period = _digits(rng, rng.randint(1, MAX_PERIOD))
    if nonzero and 2 not in period:
        period[rng.randrange(len(period))] = 2
    return cantor_value(prefix, period)


def _c1_gap(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A maximal gap of C_1 inside the window, by generation."""
    g = rng.randint(0, MAX_GAP_GENERATION)
    if g == 0:
        return rng.choice([(WINDOW[0], C1_LO), (C1_LO + C1_WIDTH, WINDOW[1])])
    path = _digits(rng, g - 1)
    lo = C1_LO + C1_WIDTH * sum((Fraction(d, 3 ** (i + 1))
                                 for i, d in enumerate(path)), Fraction(0))
    width = C1_WIDTH / 3 ** (g - 1)
    return lo + width / 3, lo + 2 * width / 3


def point(rng: random.Random, kind: str) -> Fraction:
    if kind == "c1":
        return C1_LO + C1_WIDTH * _cantor_point(rng)
    if kind == "c0":
        a, b = _c1_gap(rng)
        w = (b - a) / 3
        x = _cantor_point(rng, nonzero=True)
        return a + w * x if rng.random() < 0.5 else b - w * x
    q = rng.randrange(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(0, q), q)


def generate(seed: int, count: int) -> list[tuple[str, Fraction]]:
    """`count` (kind, t) queries; the same seed gives the same list."""
    rng = random.Random(seed)
    return [(KINDS[i % 3], point(rng, KINDS[i % 3])) for i in range(count)]
