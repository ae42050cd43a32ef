"""The benchmark's workloads: fixed CLI cases, each run with the workload
seed as ``--seed``.  Pure data, so that the set-up probe can import it
without paying for numpy.

Why these cases (see README.md for the figures behind each choice):

* ``predict-highk`` is the multistart search of ``critpoints`` and the
  tensor evaluations of ``reduced``: k = 4 and k = 6 groups on the square
  and the cube, plus one k = 3 case through the grid oracle.  No PDE work.
* ``verify-2d`` is the 2-D Newton continuation of ``pdeverify``, whose
  linear solve is a sparse LU: a 64^2/128^2 pair on the same group shows
  how a solver change scales with the grid.
* ``verify-3d`` is the 3-D Morse eigensolve (ARPACK with a sine-transform
  mass inverse), up to the documented 65^3 grid limit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """One CLI call.  ``argv`` omits ``--seed`` and ``--out``, which the
    benchmark adds.  ``known_fault`` names a fault of the program that makes
    every operation of the case fail on every seed; such failures are
    counted but do not make the run incorrect."""

    name: str
    argv: tuple[str, ...]
    domain: str
    lam: int
    grid: int | None = None
    known_fault: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


_CUBE14_FAULT = (
    "predict reports 154 pairs as exact with an unsaturated search; the "
    "reference set has 172"
)
_SQUARE50_FAULT = (
    "the FD multiplet of square lambda=50 splits by 0.23 at 64^2, more than "
    "eps0 = 0.1, so every pair fails or is inconclusive"
)

WORKLOADS: dict[str, tuple[Case, ...]] = {
    "predict-highk": (
        Case("square-65", ("predict", "--domain", "square", "--lam", "65"), "square", 65),
        Case("cube-27", ("predict", "--domain", "cube", "--lam", "27"), "cube", 27),
        Case("square-325", ("predict", "--domain", "square", "--lam", "325"), "square", 325),
        Case("cube-14", ("predict", "--domain", "cube", "--lam", "14"), "cube", 14,
             known_fault=_CUBE14_FAULT),
        Case("square-50-oracle",
             ("predict", "--domain", "square", "--lam", "50", "--oracle"), "square", 50),
    ),
    "verify-2d": (
        Case("square-5-g64",
             ("verify", "--domain", "square", "--lam", "5", "--grid", "64"), "square", 5, 64),
        Case("square-5-g128",
             ("verify", "--domain", "square", "--lam", "5", "--grid", "128"), "square", 5, 128),
        Case("square-50-g64",
             ("verify", "--domain", "square", "--lam", "50", "--grid", "64"), "square", 50, 64,
             known_fault=_SQUARE50_FAULT),
    ),
    "verify-3d": (
        Case("cube-6-g33",
             ("verify", "--domain", "cube", "--lam", "6", "--grid", "33",
              "--eps0", "0.05", "--eps-steps", "1"), "cube", 6, 33),
        Case("cube-3-g65",
             ("verify", "--domain", "cube", "--lam", "3", "--grid", "65",
              "--eps0", "0.1", "--eps-steps", "1"), "cube", 3, 65),
    ),
}
