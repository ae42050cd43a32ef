"""Dirichlet-Laplacian spectra of rectangles and boxes.

Eigenvalues of the box (0,L) x (0,M) [x (0,P)] are pi^2 (n^2/L^2 + m^2/M^2
[+ l^2/P^2]).  Side squares are kept as exact rationals so that eigenvalue
comparison, and hence multiplicity detection, is exact: two modes share a
group iff their eigenvalue rationals are equal, with no floating-point
tolerance anywhere.  Everything downstream (reduced functional dimension,
branch counts) depends on that exactness.

Every query is answered from one scan of all modes at or below a bound.
Each index is bounded by the bound itself, so the scan is complete by
construction and every group below the bound is whole: the multiplicity k
and the spectral index j need no tail certificate.

All functions here are pure and all types immutable; they are safe to call
concurrently.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, IncompletePrefix, OutOfDomain

# index boxes above this many modes are refused: far beyond any multiplet
# the search or the verifier can handle (the benchmark's largest box is 343)
_MAX_SCAN_MODES = 10**6

_SIDE_RE = re.compile(r"^\s*([0-9./]+)?\s*\*?\s*(pi\^2|pi2|pi\*\*2)?\s*$")


def parse_side_sq(text: str) -> tuple[Fraction, bool]:
    """Parse one squared-side entry of a domain config.

    Accepts plain rationals ("2.25", "9/4") and rational multiples of
    pi^2 ("pi^2", "4pi^2", "9/4 pi^2").  Returns (rational part, flag
    whether the entry is in units of pi^2).
    """
    m = _SIDE_RE.match(text)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ConfigError(f"cannot parse side square {text!r}")
    num = Fraction(m.group(1)) if m.group(1) else Fraction(1)
    if num <= 0:
        raise ConfigError(f"side square must be positive, got {text!r}")
    return num, m.group(2) is not None


@dataclass(frozen=True)
class DomainSpec:
    """A rectangle (dimension 2) or box (dimension 3).

    ``side_sq`` holds the squared side lengths as exact rationals.  When
    ``pi_squared`` is true the entries are in units of pi^2 (so "pi^2"
    means the side has length pi); all sides must use the same unit or
    eigenvalue comparison would leave the rationals.
    """

    dimension: int
    side_sq: tuple[Fraction, ...]
    pi_squared: bool = True

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dimension}")
        if len(self.side_sq) != self.dimension:
            raise ConfigError("side_sq length must equal dimension")
        if any(s <= 0 for s in self.side_sq):
            raise ConfigError("side squares must be strictly positive")

    @classmethod
    def from_strings(cls, sides: Sequence[str]) -> "DomainSpec":
        parsed = [parse_side_sq(s) for s in sides]
        units = {u for _, u in parsed}
        if len(units) != 1:
            raise ConfigError(
                "all side squares must share a unit (all plain rationals or "
                "all multiples of pi^2)"
            )
        return cls(len(parsed), tuple(f for f, _ in parsed), pi_squared=units.pop())

    @classmethod
    def square(cls) -> "DomainSpec":
        """The square (0,pi) x (0,pi)."""
        return cls(2, (Fraction(1), Fraction(1)), pi_squared=True)

    @classmethod
    def cube(cls) -> "DomainSpec":
        """The cube (0,pi)^3."""
        return cls(3, (Fraction(1), Fraction(1), Fraction(1)), pi_squared=True)

    @property
    def sides(self) -> tuple[float, ...]:
        """Side lengths as floats."""
        unit = math.pi**2 if self.pi_squared else 1.0
        return tuple(math.sqrt(float(s) * unit) for s in self.side_sq)

    @property
    def eigenvalue_unit(self) -> float:
        """lambda = eigenvalue_rational * eigenvalue_unit."""
        return 1.0 if self.pi_squared else math.pi**2

    def mode_value(self, indices: Sequence[int]) -> Fraction:
        """Exact eigenvalue rational of a mode: sum of n_d^2 / side_sq[d]."""
        return sum(
            (Fraction(n * n) / s for n, s in zip(indices, self.side_sq)),
            start=Fraction(0),
        )


@dataclass(frozen=True)
class EigenMode:
    """One separated sine mode with its exact eigenvalue rational.

    ``value`` times the domain's ``eigenvalue_unit`` is the eigenvalue of
    the Dirichlet Laplacian; for pi-sided boxes it is the eigenvalue
    itself (e.g. 2 for the ground mode of the pi-square).
    """

    indices: tuple[int, ...]
    value: Fraction

    @property
    def eigenvalue_num(self) -> int:
        return self.value.numerator

    @property
    def eigenvalue_den(self) -> int:
        return self.value.denominator


@dataclass(frozen=True)
class EigenGroup:
    """All modes sharing one exact eigenvalue.

    ``j`` is the 1-based position of the eigenvalue in the spectrum counted
    with multiplicity (j - 1 eigenvalues lie strictly below); ``k`` is the
    multiplicity.  Modes are sorted lexicographically by indices so the
    coefficient ordering of everything downstream is reproducible.
    """

    value: Fraction
    modes: tuple[EigenMode, ...]
    j: int

    @property
    def k(self) -> int:
        return len(self.modes)

    def eigenvalue(self, domain: DomainSpec) -> float:
        return float(self.value) * domain.eigenvalue_unit


def _modes_below(domain: DomainSpec, bound: Fraction) -> list[EigenMode]:
    """Every mode whose exact value is <= ``bound``, sorted by (value, indices).

    The scan is complete by construction, with no tail check: with
    ground = sum_e 1/s_e, a mode at or below the bound has
    n_d^2 <= s_d (bound - ground) + 1 on every axis d, so the index box
    holds all of them.  Raises ``ValueError`` before the scan when the box
    holds more than ``_MAX_SCAN_MODES`` modes.

    The scan runs on integers: with side_sq[d] = p_d / q_d and L the lcm of
    the p_d, L times a mode's value is the integer key
    sum_d n_d^2 q_d (L / p_d), so only the kept modes get a ``Fraction``.
    """
    excess = max(bound - sum(1 / s for s in domain.side_sq), 0)
    axes = [range(1, math.isqrt(math.floor(s * excess + 1)) + 1) for s in domain.side_sq]
    size = math.prod(len(a) for a in axes)
    if size > _MAX_SCAN_MODES:
        raise ValueError(f"eigenvalue scan too large: an index box of {size} modes "
                         f"exceeds {_MAX_SCAN_MODES}")
    lcm = math.lcm(*(s.numerator for s in domain.side_sq))
    weights = [s.denominator * (lcm // s.numerator) for s in domain.side_sq]
    top = math.floor(bound * lcm)
    keyed = ((sum(w * n * n for w, n in zip(weights, idx)), idx)
             for idx in itertools.product(*axes))
    return [EigenMode(idx, Fraction(key, lcm))
            for key, idx in sorted(k for k in keyed if k[0] <= top)]


def enumerate_modes(domain: DomainSpec, count: int) -> list[EigenMode]:
    """First ``count`` modes sorted by exact eigenvalue, ties lexicographic.

    They are read off the first ``count`` groups: one scan of every mode
    below a bound, complete by construction.
    """
    return [m for g in enumerate_groups(domain, count) for m in g.modes][:count]


def group_spectrum(
    modes: Sequence[EigenMode], next_value: Fraction | None = None
) -> list[EigenGroup]:
    """Group a complete spectrum prefix into exact-multiplicity groups.

    ``modes`` must be sorted ascending with no gaps.  The trailing group may
    have been truncated by the enumeration cutoff, so it is dropped unless
    ``next_value`` certifies it complete: the exact eigenvalue of the first
    mode beyond the prefix or, when ``modes`` holds every mode at or below
    a bound, any value above that bound.  Raises :class:`IncompletePrefix`
    when nothing certified remains.
    """
    if not modes:
        raise IncompletePrefix("empty mode list")
    values = [m.value for m in modes]
    if values != sorted(values):
        raise ValueError("modes must be sorted ascending by eigenvalue")

    groups: list[EigenGroup] = []
    j = 1
    for value, grp in itertools.groupby(modes, key=lambda m: m.value):
        members = tuple(sorted(grp, key=lambda m: m.indices))
        groups.append(EigenGroup(value, members, j))
        j += len(members)

    last_complete = next_value is not None and next_value > groups[-1].value
    if not last_complete:
        groups = groups[:-1]
    if not groups:
        raise IncompletePrefix(
            "cannot certify any complete group within the enumeration cutoff"
        )
    return groups


def enumerate_groups(domain: DomainSpec, count: int) -> list[EigenGroup]:
    """First ``count`` eigenvalue groups, each certified complete.

    The scan bound doubles until ``count`` groups, all of them whole, lie
    below it.  It starts at the ground value or, if larger, at the B with
    V(B) = count: the modes at or below B number at most V(B), the volume
    of the ellipsoid's positive orthant, since the unit cells below them
    are disjoint and lie inside it.  So no smaller bound can hold ``count``
    groups, and a count whose box at that B exceeds the cap is refused by
    the first scan.  More than ``_MAX_SCAN_MODES`` groups are refused at
    once: each group holds at least one mode of the scanned box.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _MAX_SCAN_MODES:
        raise ValueError(f"eigenvalue scan too large: {count} groups need more than "
                         f"{_MAX_SCAN_MODES} modes")
    dim = domain.dimension
    # V(B) = (pi/4) sqrt(s1 s2) B in 2-D, (pi/6) sqrt(s1 s2 s3) B^(3/2) in 3-D
    orthant = (math.pi / 4 if dim == 2 else math.pi / 6) * math.sqrt(
        math.prod(float(s) for s in domain.side_sq))
    bound = max(sum(1 / s for s in domain.side_sq),  # the ground value
                Fraction((count / orthant) ** (2 / dim)))
    while len(groups := group_spectrum(_modes_below(domain, bound), bound + 1)) < count:
        bound *= 2
    return groups[:count]


def find_group(
    domain: DomainSpec,
    j: int | None = None,
    eigenvalue: float | Fraction | None = None,
) -> EigenGroup:
    """Locate a group by spectral index j or by eigenvalue.

    An eigenvalue matches a group to 1e-9 relative (1e-12 absolute); the
    lowest such group is returned, from one scan of the spectrum up to just
    above the requested value.
    """
    if (j is None) == (eigenvalue is None):
        raise ValueError("specify exactly one of j, eigenvalue")
    if j is not None:
        if j < 1:
            raise ValueError("j must be >= 1")
        # j addressing any member of a multiplet returns the multiplet
        return next(g for g in enumerate_groups(domain, j) if g.j <= j < g.j + g.k)
    target = float(eigenvalue)
    if math.isfinite(target):
        bound = Fraction((abs(target) * (1 + 1e-8) + 1e-12) / domain.eigenvalue_unit)
        modes = _modes_below(domain, bound)
        for g in group_spectrum(modes, next_value=bound + 1) if modes else []:
            if math.isclose(g.eigenvalue(domain), target, rel_tol=1e-9, abs_tol=1e-12):
                return g
    raise ValueError(f"no eigenvalue {eigenvalue} in the spectrum")


def eigenfunction_eval(mode: EigenMode, domain: DomainSpec, point) -> np.ndarray | float:
    """L2-normalized eigenfunction of ``mode`` at ``point``.

    ``point`` is a sequence of coordinates (scalars or broadcastable
    arrays).  The value is prod_d sqrt(2/L_d) sin(n_d pi x_d / L_d); it
    vanishes on the boundary.  Raises :class:`OutOfDomain` for points
    outside the closed box.
    """
    sides = domain.sides
    if len(point) != domain.dimension:
        raise OutOfDomain("point dimension does not match domain")
    coords = [np.asarray(c, dtype=float) for c in point]
    for c, L in zip(coords, sides):
        if np.any(c < 0.0) or np.any(c > L):
            raise OutOfDomain("point outside the closed box")
    out = 1.0
    for n, c, L in zip(mode.indices, coords, sides):
        out = out * math.sqrt(2.0 / L) * np.sin(n * math.pi * c / L)
    return out
