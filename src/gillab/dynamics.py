"""Orbits and periodic cycles of the set-valued map, with exact certificates.

Every point of the smallest family set carries F = [0, 1], so any tuple
of distinct such points is a periodic cycle; iterates of the base map
collapse to 0 (zero mode) or decay dyadically below 1/32 (tent mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bonding import SetValuedMap, eval_F, eval_f


@dataclass(frozen=True)
class StepCertificate:
    """Exact verdict on whether ``successor`` belongs to F(``point``).

    ``bound`` is the singleton value or the certified lower bracket
    end, ``upper`` the singleton value or the bracket's upper end.
    """

    point: Fraction
    successor: Fraction
    kind: str  # "singleton" | "lower-bracket"
    bound: Fraction
    upper: Fraction
    ok: bool


def certify_step(m: SetValuedMap, x: Fraction, y: Fraction) -> StepCertificate:
    """Decide y in F(x) from one certified bracket of F(x).

    A singleton image must equal y; otherwise [0, lower_max] lies inside
    F(x), so y <= lower_max certifies the step.
    """
    fb = eval_F(m, x)
    if fb.is_singleton:
        return StepCertificate(x, y, "singleton", fb.point_value,
                               fb.point_value, fb.point_value == y)
    return StepCertificate(x, y, "lower-bracket", fb.lower_max,
                           fb.upper_max, fb.lower_max >= y)


@dataclass(frozen=True)
class Cycle:
    """Candidate periodic cycle: its points in traversal order.  Nothing
    is certified here; ``verify_cycle`` certifies each step."""

    points: tuple[Fraction, ...]

    @property
    def period(self) -> int:
        return len(self.points)

    def least_rotation_period(self) -> int:
        """Smallest p dividing the length with points[i] == points[i+p]."""
        n = len(self.points)
        for p in range(1, n + 1):
            if n % p == 0 and all(self.points[i] == self.points[(i + p) % n]
                                  for i in range(n)):
                return p
        return n


def make_cycle(m: SetValuedMap, n: int) -> Cycle:
    """Period-n cycle from the first n discovered endpoints of the
    smallest set, sorted ascending."""
    if n < 1:
        raise ValueError("period must be >= 1")
    return Cycle(tuple(sorted(m.family.c1.endpoints(n))))


def iterate_f(m: SetValuedMap, t: Fraction, k: int) -> list[Fraction]:
    """Exact forward iterates f(t), f^2(t), ..., f^k(t) of m's base map."""
    out = []
    x = t
    for _ in range(k):
        x = eval_f(m, x)
        out.append(x)
    return out


def verify_orbit(m: SetValuedMap, points: list[Fraction]) -> dict:
    """Per-step certification report for a candidate orbit."""
    steps = []
    failures = []
    for i in range(len(points) - 1):
        cert = certify_step(m, points[i], points[i + 1])
        entry = {"index": i, "from": str(cert.point), "to": str(cert.successor),
                 "kind": cert.kind, "bound": str(cert.bound), "ok": cert.ok}
        if not cert.ok:
            entry["upper"] = str(cert.upper)
            failures.append(entry)
        steps.append(entry)
    seen: dict[Fraction, int] = {}
    repeats = []
    for i, p in enumerate(points):
        if p in seen:
            repeats.append({"value": str(p), "first": seen[p], "again": i})
        else:
            seen[p] = i
    return {"steps": steps, "failures": failures, "ok": not failures,
            "repeated_values": repeats,
            "length": len(points)}


def verify_cycle(m: SetValuedMap, cyc: Cycle) -> dict:
    """verify_orbit on the cycle traversed once and closed up."""
    closed = list(cyc.points) + [cyc.points[0]]
    rep = verify_orbit(m, closed)
    rep["period"] = cyc.period
    rep["least_rotation_period"] = cyc.least_rotation_period()
    rep["distinct"] = len(set(cyc.points)) == cyc.period
    rep["ok"] = rep["ok"] and rep["distinct"]
    return rep
