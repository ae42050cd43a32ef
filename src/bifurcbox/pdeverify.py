"""Finite-difference verification of predicted bifurcation branches.

Works in rescaled variables: near the group eigenvalue, solutions of the
original equation are eps^(1/(p-1)) times solutions v of

    -lap v = eps |v|^(p-1) v + lambda v,     eps = lambda_j - lambda > 0,

which keeps branch amplitudes O(1) as eps -> 0.  The verifier Newton-solves
the 5/7-point discretization of this equation along a decreasing eps
schedule, projects each solution onto the discrete eigenspace, and checks
the predicted limits: coefficients converge to the predicted critical
point, the orthogonal remainder decays linearly in eps, the discrete Morse
index equals m + j - 1, and the near-zero transported eigenvalues scale to
the reduced Hessian spectrum.

eps is measured from the *discrete* group eigenvalue, not the continuum
one, so the eps asymptotics are not polluted by the O(h^2) discretization
shift; grid bias is checked separately by grid refinement.

The discrete Laplacian is never assembled: the type-I sine transform,
applied as dense matrix products along each axis, diagonalizes it
exactly.  Its eigenvalues are kept as the 1-D symbols of the axes, and the
group basis as the group modes' positions among the sine coefficients,
where the start, the projection and the remainder of each solve are read
and written; neither the dense basis nor the full grid of eigenvalues is
ever built.  The grid-sum functional that the orders of a are fitted
against is the reduced functional on the trapezoid rule of the interior
nodes (``grid_functional``), one sine table per axis.
The Newton residual and the H1 norm apply the eigenvalues in sine
coordinates, and the MINRES Newton steps and the CG solves of the Morse
index run on operators of one shape there: pointwise, transform,
pointwise, transform, pointwise.  The Morse index is an exact
inertia count: the modes below a window around lambda form a block that
is negative definite by construction and count as they are, the modes
above the kept ones a positive definite block, and a small Schur
complement on the window gives the rest; the window comes from the 1-D
symbols too, no eigensolver runs, and CG runs for the window only.  The
same enumeration of the lowest entries gives the neighbour gap, and the
Schur complement's columns Q c Q e are the transform pair applied to a
unit sine coefficient.
MINRES, CG and the Cholesky-reduced pencil solves of Rayleigh-Ritz are
written here in numpy, on grid-shaped arrays, so numpy is the only
run-time dependency; MINRES and CG keep SciPy's recurrences and stopping
tests.

Every grid function is held as a stack of reversal-parity classes, one
parity per axis, each on the first half of every axis, where the sine
transform keeps the matching half of its columns; a +-1 Walsh-Hadamard
combination over the classes gives the function's values on the half
grid and its reflections.  A branch is fixed by the products of axis
reversals h with P_h a = chi(h) a, and lives in the classes that agree
with chi: half of them for square lambda=5's diagonal pairs, a quarter
for the cube's (t, t, 0), one when every single reversal fixes the pair,
all of them when none does.  Newton runs on the sine coefficients of
those classes, and the record keeps the solution on their images.  The
Morse count splits the linearization over the characters of the same
reversals, the record's stabiliser, and sums their inertia.  One
transform serves every case.

The grid's symmetries (axis reversals, and swaps of axes with equal N and
side) map discrete solutions onto discrete solutions and act on the group
coefficients as signed permutations: ``DiscreteProblem.symmetries``, the
certified search's ``critpoints._box_isometries`` table, whose reversals
also give each solve's sector.  The pairs are solved orbit by orbit, the
representative first.  A pair whose orbit representative
was solved at an eps starts its own solve there from the representative's
mapped solution; when that start already meets the tolerance, the Morse
index and mu are copied instead of recounted.  A representative's landing
on a wrong branch starts its orbit's other pairs the same way.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .critpoints import (
    BranchPrediction,
    CriticalPoint,
    SearchConfig,
    _box_isometries,
    _newton_refine,
    _orbits,
)
from .errors import (
    ConvergedToWrongBranch,
    GridTooCoarse,
    NewtonDiverged,
    SpectrumTooClose,
    SupercriticalP,
)
from .reduced import ReducedFunctional
from .spectrum import DomainSpec, EigenGroup

# Not used here: bench/tracing.py wraps these two names on this module, so
# they stay importable from it until the benchmark's tracer drops them.
from .spectrum import eigenfunction_eval, enumerate_modes  # noqa: F401

logger = logging.getLogger(__name__)


def _sine_eigenvalues_1d(n: int, L: float) -> np.ndarray:
    """Eigenvalues of the 1-D second-difference operator on n-1 interior
    points: (4/h^2) sin^2(m pi / (2n)), m = 1..n-1."""
    h = L / n
    m = np.arange(1, n)
    return (4.0 / h**2) * np.sin(m * np.pi / (2 * n)) ** 2


def _sine_table(n: int) -> np.ndarray:
    """sin(pi k / n) for k = 0 .. 2n-1, each from its reduced angle in
    [0, pi/2], so the table's symmetries hold exactly: reversing a grid
    axis maps DST-I column m to exactly (-1)^(m+1) times itself."""
    k = np.arange(2 * n)
    r = k % n
    return np.where(k < n, 1.0, -1.0) * np.sin(np.pi * np.minimum(r, n - r) / n)


def _sine_matrix(n: int, rows, cols) -> np.ndarray:
    """Entries S[i, m] = sqrt(2/(n+1)) sin(pi i m/(n+1)) of the orthonormal
    DST-I matrix on n points, at 1-based ``rows`` and ``cols``."""
    return math.sqrt(2.0 / (n + 1)) * _sine_table(n + 1)[np.outer(rows, cols) % (2 * n + 2)]


def _axes(h: int) -> tuple[int, ...]:
    """The axes of a product of reversals, bit d of h standing for axis d."""
    return tuple(d for d in range(h.bit_length()) if h >> d & 1)


class _AxisTables(NamedTuple):
    inverse: np.ndarray  # (4, h, h): coefficients to the half grid
    forward: np.ndarray  # (4, h, h): the half grid to coefficients
    freqs: np.ndarray    # (2, h): D along the axis, per parity
    valid: np.ndarray    # (2, h): False at the zero column


def _axis_tables(n: int, freq: np.ndarray, right: bool = False) -> _AxisTables:
    """The half tables of one axis of n points, shared by every sector.

    With h = ceil(n/2), a function even along the axis has sine
    coefficients at the h odd m only, an odd one at the floor(n/2) even m
    only, and each is fixed by its values on the first h points.  The
    inverse tables map coefficients to those points: S[:h, odd m] and
    S[:h, even m], the latter with a zero column for odd n, so both are
    h x h, and with an exactly zero centre row, where an odd function
    vanishes.  The forward tables are their transposes weighted by each
    point's multiplicity, 2, or 1 on the centre row of an odd n.  Each is
    held as the stack [even, odd, even, odd], so that every class pattern
    of a sector is a strided view of it (see ``_SineTransform``), and held
    transposed when the axis multiplies from the ``right``.  D along the
    axis gives the zero column the largest value."""
    h = (n + 1) // 2
    rows = np.arange(1, h + 1)
    inverse = np.zeros((2, h, h))
    inverse[0] = _sine_matrix(n, rows, np.arange(1, n + 1, 2))
    inverse[1, :, :n // 2] = _sine_matrix(n, rows, np.arange(2, n + 1, 2))
    w = np.full(h, 2.0)
    w[-1] = 2.0 - n % 2
    forward = (w[:, None] * inverse).transpose(0, 2, 1)
    if right:
        inverse, forward = inverse.transpose(0, 2, 1), forward.transpose(0, 2, 1)
    valid = np.ones((2, h), dtype=bool)
    valid[1, n // 2:] = False
    freqs = np.stack([freq[0::2], np.append(freq[1::2], freq[-1])[:h]])
    return _AxisTables(np.tile(inverse, (2, 1, 1)), np.tile(forward, (2, 1, 1)), freqs, valid)


class _SineTransform:
    """The discrete Dirichlet Laplacian A, held as its sine transform, on
    one sector of the grid's axis reversals.

    The orthonormal type-I DST Q diagonalizes the 5/7-point stencil,
    A = Q D Q with D the stencil eigenvalues, so applying any function of
    A costs two transforms.  Each axis applies its dense DST-I matrix
    S[i, m] = sqrt(2/(n+1)) sin(pi i m/(n+1)) by matrix products: O(n)
    work per point per axis, against O(log n) for an FFT.  At the grids of
    3-D verification the products win by far, since the FFT lengths 2(n+1)
    have awkward factors (66, 130); in 2-D an FFT catches up near 200
    points per axis.

    A grid function is a stack of reversal-parity classes.  A class sigma
    is one parity per axis (bit d set: odd along axis d), and its part of
    the function has sine coefficients only at the m of those parities, is
    fixed by its values on the first ceil(n/2) points of every axis, and
    is transformed by the half tables of ``_axis_tables``, one h x h
    product per axis.  The class parts are connected to the function's
    values by a +-1 Walsh-Hadamard combination: on the half grid reflected
    by the reversals g (an "image"), f(g y) = sum_sigma sigma(g) f_sigma(y),
    with sigma(g) = (-1)^|sigma & g|.

    ``character`` selects the sector: pairs (h, chi) of a product of
    reversals h (bit d: axis d reversed) and a sign chi, listing a subgroup
    H of reversals, identity first.  The sector holds the functions with
    f(h x) = chi(h) f(x) for every h in H, whose classes are the sigma with
    sigma(h) = chi(h): 2^(dim - rank H) of the 2^dim.  Such a function is
    fixed by its values on as many images, one per coset of H.  ``shape``
    is (classes, h_1, ..., h_dim), the same for the grid side (images) and
    the coefficient side (classes); ``valid`` marks the real coefficients,
    False at the zero columns of odd classes, which stay zero.
    ``eigenvalues`` is D there.  The images of a single sine mode, which
    the Morse count needs per column, are ``dst(e, inverse=True)`` of a
    unit coefficient e: every other product term is an exact zero, so they
    are exactly the axes' table entries times the image's Hadamard sign (a
    zero's sign aside).

    ``dst`` is one batched product per axis over the class stack: with the
    classes laid out as (2,) * k, the parity of axis d is constant, one
    class axis, or the sum of two, so its tables are a strided view of the
    axis's shared stack and no sector copies them.  Each product is a
    stack of slices of n <= 64 rather than one GEMM over the whole grid.
    On one thread both cost the same; but OpenBLAS splits a GEMM across
    threads once m n k exceeds 2^18, and on a busy machine those small
    split GEMMs wait on their threads: at 32^3 on 2 vCPUs a transform pair
    as three whole-grid GEMMs averaged 2.8 ms against a median of 0.4 ms.
    """

    def __init__(self, shape, tables, character=((0, 1),)):
        self.full_shape = tuple(shape)
        self.tables = tables
        self.character = tuple(character)
        dim = len(self.full_shape)
        sigma0 = next(s for s in range(2**dim)
                      if all((-1) ** (s & h).bit_count() == chi for h, chi in self.character))
        dual = [t for t in range(2**dim)
                if all((t & h).bit_count() % 2 == 0 for h, _ in self.character)]
        basis, span = [], {0}
        for t in sorted(dual, key=lambda t: (t.bit_count(), t)):
            if t not in span:
                basis.append(t)
                span |= {s ^ t for s in span}
        k = len(basis)
        # class c is sigma_0 xor each basis[j] whose bit u_j = c >> (k-1-j) is set
        self.classes = [functools.reduce(
            int.__xor__, [b for j, b in enumerate(basis) if c >> (k - 1 - j) & 1], sigma0)
            for c in range(2**k)]
        H = [h for h, _ in self.character]
        self.images, seen = [], set()  # one reversal g per coset of H
        for g in range(2**dim):
            if g not in seen:
                self.images.append(g)
                seen.update(g ^ h for h in H)
        # f(g y) = sum_sigma hadamard[g, sigma] f_sigma(y); its inverse is
        # its transpose over the number of classes
        self.hadamard = np.array([[(-1.0) ** (g & s).bit_count() for s in self.classes]
                                  for g in self.images])
        self._unmix = self.hadamard.T / 2**k

        half = tuple(t.freqs.shape[1] for t in tables)
        self._half = tuple(slice(0, n) for n in half)
        self._stack = (2,) * k + half
        self.shape = (2**k,) + half
        # along axis d, class u has the parity of sigma_0 + sum_j u_j basis[j]:
        # index s + sum_j u_j (over the basis[j] holding d) into the stack [even, odd, even, odd], at most
        # 1 + 2 since, with dim <= 3 and the basis of least weight first, no
        # axis lies in more than two basis elements
        self._views = {False: [], True: []}
        for d, t in enumerate(tables):
            s = sigma0 >> d & 1
            on = [b >> d & 1 for b in basis]
            for inverse, T in ((True, t.inverse), (False, t.forward)):
                self._views[inverse].append(np.lib.stride_tricks.as_strided(
                    T[s], shape=tuple(1 + o for o in on) + (1,) * (dim - 2) + T.shape[1:],
                    strides=tuple(o * T.strides[0] for o in on) + (0,) * (dim - 2)
                    + T.strides[1:], writeable=False))
        self.eigenvalues = np.zeros(self.shape)
        self.valid = np.ones(self.shape, dtype=bool)
        for d, t in enumerate(tables):
            parity = [s >> d & 1 for s in self.classes]
            bshape = [len(parity)] + [-1 if e == d else 1 for e in range(dim)]
            self.eigenvalues = self.eigenvalues + t.freqs[parity].reshape(bshape)
            self.valid = self.valid & t.valid[parity].reshape(bshape)

    def dst(self, vec: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Orthonormal DST-I along every axis, in sector shape: the images'
        values to the classes' sine coefficients, or back with ``inverse``."""
        C, dim = self.shape[0], len(self.full_shape)
        X = vec.reshape(self._stack)
        if C > 1 and not inverse:
            X = np.matmul(self._unmix, X.reshape(C, -1)).reshape(self._stack)
        *left, right = self._views[inverse]
        for d, T in enumerate(left):
            if d == dim - 2:
                X = np.matmul(T, X)
            else:  # a stack of slice products; the strided views need no copy
                a = len(self._stack) - dim + d
                X = np.matmul(T, X.swapaxes(a, -2)).swapaxes(a, -2)
        X = np.matmul(X, right).reshape(self.shape)  # the last tables are held transposed
        if C > 1 and inverse:
            X = np.matmul(self.hadamard, X.reshape(C, -1)).reshape(self.shape)
        return X

    def operator(self, outer: np.ndarray, inner: np.ndarray, diag: np.ndarray):
        """The map y -> diag y - outer Q(inner Q(outer y)) on sector-shaped
        arrays, every factor pointwise and ``inner`` on the images: an
        operator on sine coordinates, as the callable that ``_minres`` and
        ``_cg`` take."""

        def apply(y):
            out = diag * y
            out -= outer * self.dst(inner * self.dst(outer * y, inverse=True))
            return out

        return apply

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """The images of a full-grid function: its values on the half grid
        reflected by each image's reversals, copied."""
        X = x.reshape(self.full_shape)
        return np.stack([np.flip(X, _axes(g))[self._half] for g in self.images])

    def extend(self, x: np.ndarray) -> np.ndarray:
        """The flat full-grid function with images x: image g, times
        chi(h), on the half grid reflected by g h for each h of H."""
        X = x.reshape(self.shape)
        full = np.empty(self.full_shape)
        for h, chi in reversed(self.character):  # the identity last
            for g, image in zip(self.images, X):
                np.flip(full, _axes(g ^ h))[self._half] = chi * image
        return full.ravel()


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Immutable discretization of a domain around one eigenvalue group;
    the stencil A = -lap_h is kept only as its 1-D symbols, the stencil
    eigenvalues along each axis, and the axis tables that every sector of
    its sine transform shares (see ``_SineTransform``).  Its eigenvalue at
    sine index (i_1, ..., i_dim) is the sum of the axes' symbols there, and
    the group basis is the group modes' positions among the sine
    coefficients (``_sector_slots``): the verifier never holds either on
    the full grid.  Two problems are equal only when they are the same
    object, and hash by identity."""

    domain: DomainSpec
    group: EigenGroup
    grid: tuple[int, ...]          # subintervals per axis
    shape: tuple[int, ...]         # interior points per axis
    h: tuple[float, ...]
    weight: float                  # volume element prod(h)
    lambda_h: float                # discrete group eigenvalue
    splitting: float               # spread of the discrete multiplet
    neighbor_gap: float            # distance to nearest non-group eigenvalue
    freq_1d: tuple = field(repr=False)  # per axis, the ascending 1-D symbol
    tables: list[_AxisTables] = field(repr=False)  # per axis, shared by the sectors
    # the grid's isometries and their gather maps, ``_box_isometries``
    symmetries: tuple = field(repr=False)
    _sectors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    def inner(self, u, v) -> float:
        return self.weight * float(u @ v)

    def norm_l2(self, u) -> float:
        return math.sqrt(self.inner(u, u))

    def sector(self, character: tuple) -> _SineTransform:
        """The sine transform on the sector of ``character`` (see
        ``_SineTransform``), built on first use on the shared axis tables."""
        if character not in self._sectors:
            self._sectors[character] = _SineTransform(self.shape, self.tables, character)
        return self._sectors[character]


def _grid_tables(shape, freq_1d) -> list:
    """``_axis_tables`` of every axis, the last one multiplying from the
    right, as ``_SineTransform.dst`` applies them."""
    return [_axis_tables(n, f, right=d == len(shape) - 1)
            for d, (n, f) in enumerate(zip(shape, freq_1d))]


def _discrete_mode_value(freq_1d, indices) -> float:
    # summing in sorted order makes permuted modes bit-identical
    return math.fsum(sorted(freq_1d[d][i - 1] for d, i in enumerate(indices)))


def _count_at_most(freq_1d, t: float) -> int:
    """#{D <= t} over every sine index.  D at a sine index is the sum of
    the other axes' symbols there, one entry per grid line along the last
    axis, plus the last symbol, summed in axis order; D is ascending along
    each line, so one search of the last symbol per line finds its count.
    The entry at each cut is then compared as D itself sums it, so that
    the rounding of t minus the line's sum cannot move the count."""
    base, f = functools.reduce(np.add.outer, freq_1d[:-1]).ravel(), freq_1d[-1]
    cut = np.searchsorted(f, t - base, side="right")
    cut -= (cut > 0) & (base + f[np.maximum(cut - 1, 0)] > t)
    cut += (cut < f.size) & (base + f[np.minimum(cut, f.size - 1)] <= t)
    return int(cut.sum())


def _lowest_entries(freq_1d, ell: int) -> tuple[tuple, np.ndarray]:
    """The sine indices of the ell lowest stencil eigenvalues, ascending in
    D and, among equal D, in C order, as index arrays, and D there.  Every
    entry below
    index i along each axis has a lower D, so an entry among the ell lowest
    has prod_d (i_d + 1) <= ell: the choice runs over that hyperbolic cross,
    O(ell log^(dim-1) ell) entries, built axis by axis."""
    idx, room = np.zeros((1, 0), dtype=np.intp), np.array([ell])
    for f in freq_1d:  # room: the largest i_d + 1 the axes so far leave
        counts = np.minimum(room, f.size)
        rows = np.repeat(np.arange(room.size), counts)
        i = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        idx, room = np.column_stack([idx[rows], i]), room[rows] // (i + 1)
    D = functools.reduce(np.add, [f[i] for f, i in zip(freq_1d, idx.T)])
    lowest = np.argsort(D, kind="stable")[:ell]
    return tuple(idx[lowest].T), D[lowest]


def _neighbor_gap(freq_1d, lambda_h: float, positions: tuple) -> tuple[float, tuple]:
    """The distance from lambda_h to the nearest stencil eigenvalue off the
    group's ``positions`` (0-based sine indices), and the first sine index
    in C order at that distance.  The c entries with D <= lambda_h and the
    k + 1 lowest above them hold it, k the number of group entries, since
    at most k of those above are the group's: the Morse window's count and
    lowest entries, in the same sums of D."""
    shape = tuple(f.size for f in freq_1d)
    ell = min(_count_at_most(freq_1d, lambda_h) + len(positions[0]) + 1, math.prod(shape))
    P, D_P = _lowest_entries(freq_1d, ell)
    flat = np.ravel_multi_index(P, shape)
    off = ~np.isin(flat, np.ravel_multi_index(positions, shape))
    flat, dist = flat[off], np.abs(D_P[off] - lambda_h)
    gap = float(dist.min())
    return gap, np.unravel_index(flat[dist == gap].min(), shape)


def build_laplacian(domain: DomainSpec, grid, group: EigenGroup) -> DiscreteProblem:
    """Standard second-order stencil with Dirichlet elimination, held as
    its sine transform.  The group basis is the transform's own DST-I
    columns, the exact and orthonormal discrete eigenvectors of the group's
    modes, kept as their positions among the sine coefficients, and the
    neighbour gap is read off the 1-D symbols: a count of the entries up
    to lambda_h (``_count_at_most``) and the lowest entries through k + 1
    beyond it (``_lowest_entries``), as the Morse window enumerates them.

    Raises :class:`GridTooCoarse` when a non-group discrete eigenvalue
    equals lambda_h to rounding (1e-12 lambda_h), or when the discrete
    multiplet splitting exceeds half the gap to the nearest one.
    """
    dim = domain.dimension
    if isinstance(grid, int):
        grid = (grid,) * dim
    grid = tuple(int(g) for g in grid)
    if len(grid) != dim:
        raise ValueError("grid must give subintervals per axis")
    min_interior = 17 if dim == 2 else 11
    if any(g - 1 < min_interior for g in grid):
        raise ValueError(
            f"need at least {min_interior} interior points per axis, got "
            f"{tuple(g - 1 for g in grid)}"
        )
    for m in group.modes:
        if any(i >= g for i, g in zip(m.indices, grid)):
            raise ValueError(
                f"mode {m.indices} is not representable on grid {grid}"
            )

    sides = domain.sides
    hs = tuple(L / g for L, g in zip(sides, grid))
    shape = tuple(g - 1 for g in grid)
    freq_1d = tuple(_sine_eigenvalues_1d(g, L) for g, L in zip(grid, sides))

    group_vals = [_discrete_mode_value(freq_1d, m.indices) for m in group.modes]
    lambda_h = float(np.mean(group_vals))
    splitting = float(max(group_vals) - min(group_vals))

    # the group's own eigenvalues sit at its indices - 1
    positions = tuple(np.array([m.indices for m in group.modes]).T - 1)
    neighbor_gap, nearest = _neighbor_gap(freq_1d, lambda_h, positions)
    if neighbor_gap <= 1e-12 * lambda_h:  # the discrete eigenspace outgrows the group
        mode = tuple(int(i) + 1 for i in nearest)
        raise GridTooCoarse(f"FD mode {mode}, outside the group, coincides with lambda_h = "
                            f"{lambda_h:.6g} to rounding (gap {neighbor_gap:.3e}); "
                            "change the grid")
    if splitting > 0.5 * neighbor_gap:
        raise GridTooCoarse(
            f"discrete multiplet splits by {splitting:.3e} against a "
            f"neighbor gap of {neighbor_gap:.3e}; refine or symmetrize the grid"
        )

    return DiscreteProblem(
        domain=domain, group=group, grid=grid, shape=shape, h=hs,
        weight=float(np.prod(hs)), lambda_h=lambda_h, splitting=splitting,
        neighbor_gap=neighbor_gap, freq_1d=freq_1d,
        tables=_grid_tables(shape, freq_1d),
        symmetries=_box_isometries([m.indices for m in group.modes],
                                   list(zip(grid, domain.side_sq))),
    )


@dataclass
class ContinuationRecord:
    """Diagnostics of one converged PDE solve at one lambda.

    The solution lives on the sector of its solve (see ``_SineTransform``):
    ``images`` holds its values on the sector's images, one half grid per
    coset of the reversals that fix it, so a record holds 2^-rank(H) of the
    full grid.  ``v``, the solution on the full grid, is mirrored from them
    on each access, bit for bit as the solve left it, and is not kept."""

    lam: float
    epsilon: float
    images: np.ndarray
    sector: _SineTransform = field(repr=False)
    a_lambda: np.ndarray
    phi_norm: float
    newton_residual: float
    residual_history: list[float]
    u_l2_norm: float
    discrete_morse_index: int | None = None
    near_zero_mu: np.ndarray | None = None

    @property
    def v(self) -> np.ndarray:
        """The flat full-grid solution, a new array on each access."""
        return self.sector.extend(self.images)


@dataclass
class BranchVerdict:
    """Outcome of continuing one predicted pair toward the eigenvalue."""

    pair_index: int
    predicted: CriticalPoint
    target_morse: int
    records: list[ContinuationRecord]
    order_a: float | None = None
    order_phi: float | None = None
    a_ok: bool | None = None
    phi_ok: bool | None = None
    morse_ok: bool | None = None
    morse_threshold: float | None = None
    eig_scaled: list[float] | None = None
    eig_rel_err: float | None = None
    eig_ok: bool | None = None
    distinct_ok: bool | None = None
    inconclusive: bool = False
    notes: list[str] = field(default_factory=list)
    transported_from: int | None = None  # the pair whose mapped solutions started ours

    @property
    def passed(self) -> bool:
        checks = [self.a_ok, self.phi_ok, self.morse_ok, self.eig_ok, self.distinct_ok]
        return (not self.inconclusive) and all(c is not False for c in checks) and any(
            c is True for c in checks
        )


def _check_exponent(domain: DomainSpec, p: float) -> None:
    if domain.dimension == 3 and p > 5.0:
        raise SupercriticalP(
            f"p={p} exceeds the critical exponent 5 in dimension 3"
        )
    if p <= 1.0:
        raise ValueError("p must exceed 1")


def _minres(A, b: np.ndarray, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for A x = b,
    A a symmetric callable on arrays shaped like b, started from x = 0.

    The recurrences and stopping tests are those of SciPy's ``minres``
    without shift or preconditioner: stop when ||r|| <= rtol ||A|| ||x||
    (test1), ||A r|| <= rtol ||A|| ||r|| (test2), cond(A) >= 0.1/eps or
    ||A|| ||x|| eps >= ||b||, with the norms its Lanczos estimates.
    ``info`` is ``maxiter`` when the iteration limit stops it, else 0."""
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    beta1 = float(np.vdot(b, b))
    if beta1 == 0.0:
        return x, 0
    beta1 = math.sqrt(beta1)
    beta, oldb, dbar, epsln, phibar, tnorm2 = beta1, 0.0, 0.0, 0.0, beta1, 0.0
    gmax, gmin, cs, sn = 0.0, np.finfo(float).max, -1.0, 0.0
    w = w2 = np.zeros_like(b)
    r1 = r2 = y = b
    pair = np.empty(2)
    for itn in range(1, maxiter + 1):
        # Lanczos step: v = y / beta, then y = A v - alfa r2 - (beta/oldb) r1
        v = (1.0 / beta) * y
        y = A(v)  # a new array: the updates below may write into it
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(np.vdot(v, y))
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(np.vdot(y, y))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # beta2 = 0: b spans an invariant subspace, and this step solves it
        invariant = itn == 1 and beta / beta1 <= 10 * eps

        # apply the previous rotation, then make the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        # gamma as SciPy rounds it, sqrt of numpy's dot: a rounding of it
        # moves the iterates of a singular A
        pair[0], pair[1] = gbar, beta
        gamma = max(math.sqrt(pair.dot(pair)), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        w1, w2 = w2, w
        w = v - oldeps * w1
        w -= delta * w2
        w *= 1.0 / gamma
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)

        Anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(np.vdot(x, x))
        test1 = math.inf if ynorm == 0 or Anorm == 0 else phibar / (Anorm * ynorm)
        test2 = math.inf if Anorm == 0 else root / Anorm
        if (invariant or test1 <= rtol or test2 <= rtol or Anorm * ynorm * eps >= beta1
                or gmax / gmin >= 0.1 / eps):
            return x, 0
        if itn == maxiter:
            return x, maxiter
        if 1.0 + test1 <= 1.0 or 1.0 + test2 <= 1.0:  # converged below eps
            return x, 0
    return x, 0


def _cg(A, b: np.ndarray, M: np.ndarray, rtol: float,
        maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned CG for A x = b, A a symmetric positive definite
    callable on arrays shaped like b and M the pointwise preconditioner,
    started from x = 0: SciPy's ``cg`` loop, which stops at
    ||r|| < rtol ||b|| and returns ``info = maxiter`` if it never does."""
    bnorm = math.sqrt(np.vdot(b, b))
    if bnorm == 0.0:
        return b, 0
    atol = rtol * bnorm
    x, r = np.zeros_like(b), b.copy()
    for it in range(maxiter):
        if math.sqrt(np.vdot(r, r)) < atol:
            return x, 0
        z = M * r
        rho = np.vdot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def _pencil_eigh(S: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and G-orthonormal eigenvectors of the
    symmetric-definite pencil S w = theta G w: with G = L L^T Cholesky,
    the eigenpairs of L^(-1) S L^(-T), mapped back by L^(-T); G not positive
    definite to rounding raises :class:`SpectrumTooClose`."""
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError:
        raise SpectrumTooClose("the Rayleigh-Ritz Gram matrix is not positive definite")
    theta, V = np.linalg.eigh(Linv @ S @ Linv.T)
    return theta, Linv.T @ V


def _linear_solve(Q: _SineTransform, lam: float, extra: np.ndarray,
                  rhs: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Newton-step solve of (A - lam - diag(extra)) x = rhs in any dimension,
    on the sector of ``Q``: ``extra`` on its images, ``rhs`` and x as its
    sine coefficients.

    MINRES (the matrix is symmetric indefinite near a bifurcation, which
    rules out plain CG) runs split-preconditioned by |A - lam|^(-1/2) in
    sine coordinates: with w = |D - lam|^(-1/2) it solves T y = w rhs,
    T = w (D - lam) w - w Q extra Q w, and returns x = w y with MINRES's
    ``info``; a nonzero ``info`` is a stall."""
    shift = Q.eigenvalues - lam
    w = np.maximum(np.abs(shift), 1e-10) ** -0.5
    T = Q.operator(w, extra, diag=w * shift * w)
    y, info = _minres(T, w * rhs, rtol=rtol, maxiter=2000)
    return w * y, info


def _stabiliser(dp: DiscreteProblem, a: np.ndarray) -> tuple:
    """The products h of axis reversals with P_h a = chi(h) a to
    ``_pair_tol(a)`` in the max norm, as the pairs (h, chi(h)) ascending in
    h, identity first: P_h is h on the group coefficients, bit d of h
    reversing axis d.  They form a subgroup and chi a character on it, the
    sector of a."""
    isometries, _, sign = dp.symmetries
    images, tol = sign[:2 ** len(dp.shape)] * a, _pair_tol(a)  # the reversals lead
    plus = np.max(np.abs(images - a), axis=1) <= tol
    minus = np.max(np.abs(images + a), axis=1) <= tol
    return tuple(sorted((sum(1 << d for d in flips), 1 if p else -1)
                        for (_, flips), p, m in zip(isometries, plus, minus) if p or m))


def _sector_slots(Q: _SineTransform, index: tuple) -> tuple[np.ndarray, tuple]:
    """Where the 0-based sine indices ``index`` (one array per axis) sit
    among the sine coefficients of ``Q``'s sector: the mask of those whose
    class lies in the sector, and their (class, i_1 // 2, ..., i_dim // 2)
    index arrays.  Index i along an axis is mode i + 1, odd along the axis
    when i is odd (see ``_axis_tables``)."""
    slot = {sigma: c for c, sigma in enumerate(Q.classes)}
    classes = np.array([slot.get(int(sigma), -1)
                        for sigma in sum((i % 2) << d for d, i in enumerate(index))])
    inside = classes >= 0
    return inside, (classes[inside], *(i[inside] // 2 for i in index))


def solve_branch(
    dp: DiscreteProblem,
    a,
    epsilon: float,
    p: float = 3.0,
    v0: np.ndarray | ContinuationRecord | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
    linear_rtol: float = 1e-12,
    all_pairs=None,
    expected_index: int | None = None,
) -> ContinuationRecord:
    """Damped Newton solve of the rescaled equation at lambda_h - epsilon,
    started from the predicted eigenspace profile a . e (or ``v0``).

    The solve runs on the sector of a's stabiliser: the equation commutes
    with each product h of axis reversals, so when P_h a = chi(h) a the
    branch has f(h x) = chi(h) f(x).  Newton iterates on the sine
    coefficients of the sector's classes: the residual evaluates the
    nonlinearity on the sector's images, MINRES steps and line search stay
    in coefficients, and residual norms are taken there (Parseval).  The
    start a . e is placed at the group modes' coefficients, and a full-grid
    ``v0`` is cut to the images; a record ``v0`` on the same sector, such
    as an earlier solve of the same a, starts from its images as they are.
    The record keeps the solution on those images
    (``ContinuationRecord.images``).  The projection a_lambda and the
    remainder phi are read off the solution's coefficients: the group modes'
    own, and all the others.

    Convergence is to discrete-L2 residual ``tol``.  When ``all_pairs`` is
    given, the converged projection must be nearest the launched pair, of
    every pair and the trivial solution, or :class:`ConvergedToWrongBranch`
    is raised, carrying the record of the landing.
    """
    _check_exponent(dp.domain, p)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a = np.asarray(a, dtype=float)
    lam = dp.lambda_h - epsilon
    Q = dp.sector(_stabiliser(dp, a))
    # E_m is the unit coefficient at mode m's slot over sqrt(weight)
    inside, slots = _sector_slots(Q, tuple(np.array([m.indices for m in dp.group.modes]).T - 1))
    if v0 is None:
        coef = np.zeros(Q.shape)
        coef[slots] = a[inside] / math.sqrt(dp.weight)
    elif isinstance(v0, ContinuationRecord) and v0.sector is Q:
        coef = Q.dst(v0.images)
    else:
        coef = Q.dst(Q.restrict(v0.v if isinstance(v0, ContinuationRecord) else v0))
    residual = functools.partial(_residual, Q, lam, epsilon, p)

    def norm(r):
        return math.sqrt(dp.weight * np.vdot(r, r))

    r, v = residual(coef)
    rn = norm(r)
    history = [rn]
    for _ in range(max_iter):
        if rn <= tol:
            break
        f = epsilon * p * np.abs(v) ** (p - 1.0)
        step, info = _linear_solve(Q, lam, f, -r, linear_rtol)
        if info != 0:
            raise NewtonDiverged(
                f"MINRES stalled (info={info}) at eps={epsilon:g} "
                f"(residual {rn:.3e})",
                history,
            )
        s = 1.0
        while s >= 2.0**-30:
            coef_new = coef + s * step
            r_new, v_new = residual(coef_new)
            rn_new = norm(r_new)
            if rn_new <= (1.0 - 1e-4 * s) * rn or rn_new <= tol:
                break
            s *= 0.5
        else:
            raise NewtonDiverged(
                f"line search stalled at eps={epsilon:g} (residual {rn:.3e})",
                history,
            )
        coef, v, r, rn = coef_new, v_new, r_new, rn_new
        history.append(rn)
    if rn > tol:
        raise NewtonDiverged(
            f"no convergence in {max_iter} iterations at eps={epsilon:g} "
            f"(residual {rn:.3e})",
            history,
        )

    a_lam = np.zeros_like(a)
    a_lam[inside] = math.sqrt(dp.weight) * coef[slots]
    phi = coef  # the remainder: every coefficient but the group's
    phi[slots] = 0.0
    record = ContinuationRecord(
        lam=lam,
        epsilon=epsilon,
        images=v,
        sector=Q,
        a_lambda=a_lam,
        phi_norm=math.sqrt(dp.weight * np.vdot(Q.eigenvalues * phi, phi)),
        newton_residual=rn,
        residual_history=history,
        # summed over a transient full grid, so the reports keep their bits
        u_l2_norm=epsilon ** (1.0 / (p - 1.0)) * dp.norm_l2(Q.extend(v)),
    )

    if all_pairs is not None and expected_index is not None and np.any(a != 0.0):
        targets = np.vstack([*all_pairs, np.zeros_like(a)])  # the trivial solution last
        dists = np.minimum(np.max(np.abs(a_lam - targets), axis=1),
                           np.max(np.abs(a_lam + targets), axis=1))
        nearest = int(np.argmin(dists))
        if nearest != expected_index:
            trivial = nearest == len(all_pairs)
            raise ConvergedToWrongBranch(
                f"solve launched at pair {expected_index} landed at "
                + ("the trivial solution" if trivial else f"pair {nearest}"),
                nearest_index=None if trivial else nearest, record=record,
            )
    return record


def _residual(Q: _SineTransform, lam: float, epsilon: float, p: float,
              coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sine coefficients of A v - lam v - eps |v|^(p-1) v, the rescaled
    equation's residual, on the sector of ``Q``, for the v with
    coefficients ``coef``; and v on the sector's images."""
    v = Q.dst(coef, inverse=True)
    return (Q.eigenvalues - lam) * coef - epsilon * Q.dst(np.abs(v) ** (p - 1.0) * v), v


class _SchurBlock:
    """The Schur complement S of L = D - Q c Q on one sector, a character of
    the record's stabiliser, onto the entries M of the kept set that lie in
    it and in the window, eliminating the rest E = N + R, with N the kept
    entries below the window (``P`` indexes the sector's coefficients,
    ``below`` marks N among them, ``c`` is on the record's images, which all
    sectors share, read and never copied); the count of negative eigenvalues
    of L, and the Ritz values ``theta`` and vectors ``W`` of S's first pencil.
    Each column Q c Q e of an entry of N or M is ``Q.dst`` of c times the
    inverse transform of that entry's unit coefficient."""

    def __init__(self, Q: _SineTransform, c: np.ndarray, P: tuple, below: np.ndarray,
                 lam: float):
        self.Q, D = Q, Q.eigenvalues
        self.N = N = tuple(i[below] for i in P)
        M = tuple(i[~below] for i in P)
        self.elim = Q.valid.copy()
        self.elim[M] = False
        rest = self.elim.copy()
        rest[N] = False
        self.rest, self.c = rest, c
        self.precond = np.divide(self.elim, D - lam, out=np.zeros(Q.shape), where=self.elim)
        self.d = D.ravel()  # flat, like the rows of the flat views Xf, Zf and Rf
        ell, nN, n = len(M[0]), len(N[0]), D.size

        def QcQ(at):  # Q c Q e_at, from the images of a unit coefficient
            e = np.zeros(Q.shape)
            e[at] = 1.0
            return Q.dst(c * Q.dst(e, inverse=True))

        # -L_NN = (Q c Q)_NN - D_N is positive definite, since c >= lam > D_N:
        # with -L_NN = F F^T, C = L_RR + B^T B, B = F^(-1) (Q c Q)_NR
        QcQ_NN, K = np.empty((nN, nN)), np.empty((nN, *Q.shape))
        for b, at in enumerate(zip(*N)):
            col = QcQ(at)
            QcQ_NN[b], K[b] = col[N], rest * col
        try:
            self.Finv = np.linalg.inv(np.linalg.cholesky(QcQ_NN - np.diag(D[N])))
        except np.linalg.LinAlgError:
            raise SpectrumTooClose("the modes below the window are not negative definite")
        self.B = B = self.Finv @ K.reshape(nN, n)
        # every vector of the CG solves on C lies on R, where D = rest D
        L_rr = Q.operator(rest, c, diag=D)

        def schur(p):
            out = L_rr(p)
            out += (B.T @ (B @ p.ravel())).reshape(p.shape)
            return out

        # most sectors hold no N: their C is L_RR, at no cost per iteration
        self.C, self.count = schur if nN else L_rr, nN

        X = np.empty((ell, *Q.shape))  # X[a]: L_EE^(-1) L_EM e_a, zero on M
        self.Xf = Xf = X.reshape(ell, n)
        S = np.empty((ell, ell))
        for a, at in enumerate(zip(*M)):
            col = QcQ(at)
            L_eM = -(self.elim * col)
            X[a] = self.solve(L_eM)
            # S is symmetric: row a needs only the columns of X solved so far
            S[a, :a + 1] = -col[M][:a + 1] - Xf[:a + 1] @ L_eM.ravel()
            S[a, a] += D[at]
            S[:a, a] = S[a, :a]
        self.S = S
        self.count += int(np.sum(np.linalg.eigvalsh(S) < 0.0))
        self.G = np.diag(D[M]) + Xf @ (self.d * Xf).T  # D on the span of [I; -X]
        self.theta, self.W = _pencil_eigh(S, self.G)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """L_EE^(-1) rhs for rhs on E: x_R by CG on the Schur complement
        C = L_RR - L_RN L_NN^(-1) L_NR, then x_N = L_NN^(-1) (rhs_N - L_NR x_R)."""
        y = self.Finv @ rhs[self.N]
        if y.size:
            rhs = self.rest * rhs - (self.B.T @ y).reshape(rhs.shape)
        x, info = _cg(self.C, rhs, self.precond, rtol=1e-12, maxiter=1000)
        if info != 0:
            raise SpectrumTooClose(f"the Schur complement solve stalled (info={info})")
        if y.size:
            x[self.N] = -self.Finv.T @ (y + self.B @ x.ravel())
        return x

    def refine(self, near: np.ndarray) -> np.ndarray:
        """The Ritz values at the positions ``near`` after the span gains
        Z x and U x for the Ritz vector x of each."""
        k, d, Xf = len(near), self.d, self.Xf
        Z, R = np.empty((2, 2 * k, *self.Q.shape))  # L_EE Z = R
        Zf, Rf = Z.reshape(2 * k, d.size), R.reshape(2 * k, d.size)
        Rf[:k] = d * (self.W[:, near].T @ Xf)
        D = self.Q.eigenvalues
        L_ee = self.Q.operator(self.elim, self.c, diag=D)  # on the U x, zero off E
        for i in range(k):
            Z[i] = self.solve(R[i])
            Z[k + i] = self.precond * D * Z[i]
            R[k + i] = L_ee(Z[k + i])
        DZ = d * Zf
        cross = -Xf @ DZ.T
        zero = np.zeros((len(self.S), 2 * k))
        mu, _ = _pencil_eigh(np.block([[self.S, zero], [zero.T, Zf @ Rf.T]]),
                             np.block([[self.G, cross], [cross.T, Zf @ DZ.T]]))
        # The span grew by 2k, so by Cauchy interlacing mu[i] <= theta[i] <=
        # mu[i + 2k]: the refined value of position i sits s in [0, 2k] places
        # up, s the eigenvalues the new directions bring in below it (their
        # parts on N can bring in one of N's, far below the window).  A
        # near-zero value moves by about its square, much less than the gaps
        # to the new ones, so s is the shift that moves it least.
        shifts = np.arange(min(2 * k, len(mu) - 1 - near.max()) + 1)
        moved = np.abs(mu[near[None, :] + shifts[:, None]] - self.theta[near]).max(axis=1)
        return mu[near + shifts[np.argmin(moved)]]


def discrete_morse_index(
    dp: DiscreteProblem,
    record: ContinuationRecord,
    p: float = 3.0,
    n_extra: int = 0,
    zero_tol: float = 1e-10,
    rng_seed: int = 0,
) -> tuple[int, np.ndarray]:
    """Morse index of a discrete solution and the k transported eigenvalues
    nearest zero: the mu of the pencil (A - lambda I - eps F) y = mu A y,
    F = diag(p |v|^(p-1)), which has the inertia of the linearization.

    In sine coordinates the linearization is L = D - Q c Q, with Q the sine
    transform, D the stencil eigenvalues and c = lambda + eps F >= lambda
    pointwise.  P holds the ell lowest entries of D, with ell the largest
    of #{D <= max(c)}, j - 1 + k, which covers the multiplet, and |N| + k
    (below), which leaves k entries for the Ritz values; plus ``n_extra``
    entries beyond that window (none by default: each costs a solve and
    none can change the count).  Each count is one search of the last
    axis's symbol per grid line (``_count_at_most``), and P comes from a
    hyperbolic cross of indices (``_lowest_entries``); both sum D in the
    same axis order, so every entry beyond P has D > max(c) bit for bit.
    D is never formed on the full grid, and neither is c: it is formed on
    the record's images.  P splits into N, the entries with
    D < lambda - eta, eta = max(c) - lambda, and the window M, the rest of
    P.  The eliminated set is E = N + R, R the entries beyond P.  Since
    Q c Q >= lambda,
    L_NN <= D_N - lambda < 0, and L_RR >= min(D_R) - max(c) > 0, so the
    Schur complement C = L_RR - L_RN L_NN^(-1) L_NR >= L_RR > 0 too.  By
    inertia additivity (Haynsworth) L_EE has |N| negative eigenvalues, and
    the Morse index is |N| plus the number of negative eigenvalues of the
    |M| x |M| Schur complement S = L_MM - L_ME X, X = L_EE^(-1) L_EM, exact
    up to the solve tolerance.  Each solve with L_EE is a CG solve on C, preconditioned by
    1/(D - lambda) on R: per iteration two transforms and a rank-|N|
    correction through a Cholesky factor of -L_NN, which then gives x_N.
    CG runs for the columns of M, not for the |N| ~ j modes below the
    window.  The window eta keeps the multiplet's near-zero Ritz values in
    M, including split members that fall below lambda.  Nothing is random:
    ``rng_seed`` is unused and kept for the signature.

    The solve fixed the record's stabiliser H (``ContinuationRecord.sector``),
    v(h x) = chi(h) v(x) for h in H, so c is exactly even under H and L is
    block-diagonal over the characters of H, each a sector with the
    record's images (see ``_SineTransform``).  Each entry of P lies in one
    sector; each column of X, and every solve and product below, runs on
    the class stack of its sector, and the Morse index is the sum of the
    sectors' counts.  The blocks between sectors are zero; when H is the
    identity alone there is one sector, every class.

    The mu come from Rayleigh-Ritz.  On the span of [I; -X] it gives the
    pencil (S, D_M + X^T D_E X), whose mu are off by O(mu^2).  The
    eigenvector of mu has part -(X + mu Z + mu^2 U + ...) x on E, with
    Z = L_EE^(-1) D_E X and U = L_EE^(-1) D_E Z, so for the k Ritz vectors
    x nearest zero the span gains Z x (k more solves) and U x with the
    preconditioner standing in for L_EE^(-1) (k products).  What is left
    of the eigenvector is O(mu^2) times the preconditioner's error, and of
    mu about its square.  L [I; -X] vanishes on E, so every projected block
    is an inner product of arrays already held.  Both pencils are taken
    sector by sector, and the k Ritz values nearest zero are chosen over
    all of them.  A mu within ``zero_tol`` of zero defers the verdict.  A
    failed refinement defers only the mu: the sectors' counts are complete,
    and the :class:`SpectrumTooClose` it raises carries their sum as
    ``morse_index``.
    """
    j, k = dp.group.j, dp.group.k
    c = np.abs(record.images)  # c = lam + eps p |v|^(p-1), on the record's images
    c **= p - 1.0
    c *= record.epsilon * p
    c += record.lam
    c_max = c.max()
    floor = 2.0 * record.lam - c_max  # N: D < lam - eta, eta = max(c) - lam
    n_below = _count_at_most(dp.freq_1d, np.nextafter(floor, -np.inf))  # #{D < floor}
    ell = min(max(_count_at_most(dp.freq_1d, c_max), j - 1 + k, n_below + k) + n_extra, dp.n)
    P, D_P = _lowest_entries(dp.freq_1d, ell)
    sigma = sum((i % 2) << d for d, i in enumerate(P))  # each entry's class
    keys = [tuple((h, (-1) ** (int(s) & h).bit_count()) for h, _ in record.sector.character)
            for s in sigma]
    below = D_P < floor
    blocks = []
    for key in dict.fromkeys(keys):
        Q = dp.sector(key)
        inside, P_key = _sector_slots(Q, P)  # the window's entries in Q's sector, in order
        blocks.append(_SchurBlock(Q, c, P_key, below[inside], record.lam))
    morse = sum(b.count for b in blocks)

    near = np.sort(np.argsort(np.abs(np.concatenate([b.theta for b in blocks])))[:k])
    start = np.cumsum([0] + [len(b.theta) for b in blocks])
    refined = []
    try:
        for b, lo, hi in zip(blocks, start, start[1:]):
            mine = near[(near >= lo) & (near < hi)] - lo
            if mine.size:
                refined.append(b.refine(mine))
    except SpectrumTooClose as exc:  # the sectors' inertia is complete: keep the count
        exc.morse_index = morse
        raise
    near_zero = np.sort(np.concatenate(refined))
    if np.any(np.abs(near_zero) < zero_tol):
        raise SpectrumTooClose(
            "a transported eigenvalue sits at zero to rounding; defer the "
            "verdict to a smaller epsilon"
        )
    return morse, near_zero


def grid_functional(dp: DiscreteProblem, p: float) -> ReducedFunctional:
    """The reduced functional summed over the grid: the quadrature functional
    of the trapezoid rule on the interior nodes, weight h_d per node of axis
    d, where each mode's factor on axis d is its DST-I column over sqrt(h_d)
    (the boundary nodes, where every sine vanishes, drop out).  Its
    critical points are the eps -> 0 limits of the discrete branch
    projections."""
    axes = [(_sine_matrix(n, np.arange(1, n + 1), [m.indices[d] for m in dp.group.modes])
             / math.sqrt(h), np.full(n, h)) for d, (n, h) in enumerate(zip(dp.shape, dp.h))]
    return ReducedFunctional._on_rule(dp.group, dp.domain, p, axes)


def discrete_reference_point(f: ReducedFunctional, a) -> np.ndarray:
    """Critical point of the grid-sum functional ``f`` (:func:`grid_functional`)
    nearest ``a``.

    This is the exact eps -> 0 limit of the discrete branch projections;
    fitting convergence orders against it separates the eps asymptotics
    from the O(h^2) discretization bias.  Raises :class:`NewtonDiverged`
    when Newton from ``a`` does not converge to 1e-13 in 40 iterations.
    """
    A, ok = _newton_refine(f, a, SearchConfig(newton_tol=1e-13, max_iter=40))
    if not ok[0]:
        raise NewtonDiverged("Newton found no grid-sum critical point near the pair "
                             "in 40 iterations")
    return A[0]


def fit_order(eps, vals, floor: float = 1e-13) -> float | None:
    """Least-squares slope of log(val) against log(eps)."""
    e = np.asarray(eps, dtype=float)
    v = np.asarray(vals, dtype=float)
    keep = v > floor
    if int(np.sum(keep)) < 2:
        return None
    return float(np.polyfit(np.log(e[keep]), np.log(v[keep]), 1)[0])


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and switches of a continuation run."""

    newton_tol: float = 1e-10
    max_newton: int = 60
    linear_rtol: float = 1e-12
    a_rtol: float = 0.1
    min_phi_order: float = 0.9
    mu_rtol: float = 0.05
    morse: bool = True
    dedup_radius: float = 1e-6
    rng_seed: int = 0  # unused: the Morse solve is deterministic; --seed drives the search


def geometric_schedule(eps0: float, steps: int, ratio: float = 0.5) -> list[float]:
    """eps0, eps0 ratio, ..., eps0 ratio^(steps-1): positive and decreasing."""
    if not eps0 > 0:
        raise ValueError(f"eps0 must be positive, got {eps0:g}")
    if steps < 1:
        raise ValueError(f"eps_steps must be at least 1, got {steps}")
    if not 0 < ratio < 1:
        raise ValueError(f"eps_ratio must lie strictly between 0 and 1, got {ratio:g}")
    return [eps0 * ratio**t for t in range(steps)]


def _grid_map(dp: DiscreteProblem, perm: tuple[int, ...], flips: tuple[int, ...],
              x: np.ndarray) -> np.ndarray:
    """The grid isometry g, "reverse the axes in ``flips``, then permute the
    axes by ``perm``", applied to a grid function, or to each column of an
    (n, m) array.  Reversing axis d (i -> N_d - i) maps DST-I column m to
    (-1)^(m+1) times itself, and a permutation of axes with equal N and
    side permutes the columns, so g E = E P, P its map in ``dp.symmetries``.
    The stencil, the nonlinearity, the projection and both norms commute
    with g, so g v solves the discrete problem of the pair P a whenever v
    solves that of a, with the same norms and linearization spectrum."""
    X = np.flip(x.reshape(*dp.shape, -1), flips)
    return np.transpose(X, (*perm, len(perm))).reshape(x.shape)


def _pair_tol(a: np.ndarray) -> float:
    """The distance, in the max norm, within which a coefficient vector
    counts as a."""
    return 1e-8 * max(1.0, float(np.linalg.norm(a)))


def _pair_orbits(dp: DiscreteProblem, pairs) -> list[tuple | None]:
    """For each pair, None when it is the lowest index of its orbit, else
    (representative, (perm, flips), sign) with sign P a_rep = a to
    ``_pair_tol(a)`` in the max norm, P the first such isometry of
    ``dp.symmetries`` and + before -: ``critpoints._orbits`` on +G, -G."""
    isometries, src, sign = dp.symmetries
    A = np.array(pairs, dtype=float).reshape(len(pairs), dp.group.k)
    first, element, _ = _orbits(A, np.concatenate([src, src]), np.concatenate([sign, -sign]),
                                np.array([_pair_tol(a) for a in A]))
    n_g = len(isometries)
    return [None if r == j else (r, isometries[g % n_g], 1.0 if g < n_g else -1.0)
            for j, (r, g) in enumerate(zip(first.tolist(), element.tolist()))]


def continuation_run(
    dp: DiscreteProblem,
    prediction: BranchPrediction,
    eps_schedule,
    cfg: VerifyConfig | None = None,
) -> list[BranchVerdict]:
    """Continue every predicted pair along the eps schedule and test the
    asymptotic laws.

    Per pair: solve at each eps (warm-started), fit the convergence orders
    of |a_lambda - a| and of the remainder norm, check the discrete Morse
    index against m + j - 1 below a reported threshold, and compare the
    scaled near-zero eigenvalues mu lambda_j / eps with the reduced Hessian
    spectrum.  Solver failures mark the verdict inconclusive instead of
    aborting the run.  Finally, distinct pairs must yield pairwise-distinct
    discrete solutions at the smallest eps.

    The grid's symmetry group (axis reversals, and swaps of axes with equal
    N and side) maps the pairs of an orbit onto each other, v' = +-g v and
    a' = +-P a, so the pairs are solved orbit by orbit, the orbit's lowest
    pair, its representative, first.  Wherever the representative has a
    record at an eps, each other pair of its orbit starts its solve there
    from that record's mapped solution; at any other eps it starts from its
    own previous solution, or from a . e.  A mapped start that meets
    ``newton_tol`` takes no Newton step and copies the representative's
    Morse index and mu, when it has them; any other solve is finished by
    Newton and Morse-counted.  Where the representative landed on a wrong
    branch instead, the solution it converged to is mapped the same way,
    and the pair's own checks classify it.  These starts live while their
    orbit is solved and start no pair outside it.  ``transported_from`` of
    a verdict names the representative whose solutions or landings started
    its solves.  The verdicts are judged, in pair order, after all solves.
    """
    cfg = cfg or VerifyConfig()
    p = prediction.p
    _check_exponent(dp.domain, p)
    schedule = sorted(float(e) for e in eps_schedule)[::-1]
    if not schedule:
        raise ValueError("empty eps schedule")
    all_pairs = [cp.a for cp in prediction.pairs]
    verdicts = [BranchVerdict(pair_index=i, predicted=cp, records=[],
                              target_morse=cp.morse_index + dp.group.j - 1)
                for i, cp in enumerate(prediction.pairs)]
    sources = _pair_orbits(dp, all_pairs)
    orbits = {}  # {representative: its orbit's pairs}, ascending, each first in its orbit
    for i, source in enumerate(sources):
        orbits.setdefault(i if source is None else source[0], []).append(i)

    for rep, orbit in orbits.items():  # pass 1: solve orbit by orbit
        starts = {}  # {eps: the representative's record, or its wrong-branch landing}
        for i in orbit:
            verdict, (_, isometry, sign) = verdicts[i], sources[i] or (None, None, None)
            previous = None
            for eps in schedule:
                start = None if i == rep else starts.get(eps)
                if start is not None:  # mirrored and mapped: a transient full grid
                    verdict.transported_from = rep
                    v0 = _grid_map(dp, *isometry, start.sector.extend(sign * start.images))
                else:
                    v0 = previous  # on the sector of the same a: its images as they are
                try:
                    rec = solve_branch(
                        dp, all_pairs[i], eps, p, v0=v0,
                        tol=cfg.newton_tol, max_iter=cfg.max_newton,
                        linear_rtol=cfg.linear_rtol, all_pairs=all_pairs, expected_index=i,
                    )
                except (NewtonDiverged, ConvergedToWrongBranch) as exc:
                    if i == rep and isinstance(exc, ConvergedToWrongBranch):
                        starts[eps] = exc.record
                    verdict.notes.append(f"eps={eps:g}: {exc}")
                    verdict.inconclusive = True
                    continue
                finally:
                    del v0  # a mapped start is a full grid: not held through the Morse count
                previous = rec
                if i == rep:
                    starts[eps] = rec
                if (start is not None and start.near_zero_mu is not None
                        and len(rec.residual_history) == 1):
                    # no Newton step: rec.v is +-g start.v, and g carries the
                    # linearization there onto the one here, spectrum and all
                    rec.discrete_morse_index, rec.near_zero_mu = (
                        start.discrete_morse_index, start.near_zero_mu)
                elif cfg.morse:
                    try:
                        rec.discrete_morse_index, rec.near_zero_mu = discrete_morse_index(
                            dp, rec, p)
                    except SpectrumTooClose as exc:
                        verdict.notes.append(f"eps={eps:g}: {exc}")
                        rec.discrete_morse_index = exc.morse_index
                verdict.records.append(rec)

    f_grid = None  # the grid-sum functional, built for the first order(a) fit
    for verdict in verdicts:  # pass 2: judge in pair order
        cp, target = verdict.predicted, verdict.target_morse
        if not verdict.records:
            verdict.inconclusive = True
            continue

        eps_done = [r.epsilon for r in verdict.records]
        if len(eps_done) > 1:  # fit_order needs two eps
            f_grid = f_grid or grid_functional(dp, p)
            try:
                a_ref = discrete_reference_point(f_grid, cp.a)
                verdict.order_a = fit_order(
                    eps_done, [float(np.linalg.norm(r.a_lambda - a_ref)) for r in verdict.records])
            except NewtonDiverged as exc:
                verdict.notes.append(f"order(a) not fitted: {exc}")
        verdict.order_phi = fit_order(eps_done, [r.phi_norm for r in verdict.records])

        last = verdict.records[-1]
        verdict.a_ok = bool(
            np.linalg.norm(last.a_lambda - cp.a)
            <= cfg.a_rtol * np.linalg.norm(cp.a) + 1e-30
        )
        if verdict.order_phi is not None:
            verdict.phi_ok = verdict.order_phi >= cfg.min_phi_order

        # Morse fields exist only when cfg.morse is set; the threshold is
        # the largest eps of the trailing run of counts on target
        counts = [(r.epsilon, r.discrete_morse_index) for r in verdict.records
                  if r.discrete_morse_index is not None]  # descending in eps
        if counts:
            run = list(itertools.takewhile(lambda c: c[1] == target, reversed(counts)))
            verdict.morse_threshold = run[-1][0] if run else None
            verdict.morse_ok = bool(run)
        if last.near_zero_mu is not None:
            scaled = np.sort(last.near_zero_mu * dp.lambda_h / last.epsilon)
            target_eigs = np.sort(cp.hess_eigs)
            rel = float(
                np.max(np.abs(scaled - target_eigs) / np.maximum(np.abs(target_eigs), 1e-30))
            )
            verdict.eig_scaled = scaled.tolist()
            verdict.eig_rel_err = rel
            verdict.eig_ok = rel <= cfg.mu_rtol

    logger.info("grid symmetry group of order %d: %d pairs started from a mapped solution",
                len(dp.symmetries[0]), sum(v.transported_from is not None for v in verdicts))
    _check_distinctness(dp, verdicts, cfg.dedup_radius)
    return verdicts


def _check_distinctness(dp: DiscreteProblem, verdicts, radius: float) -> None:
    """Distinct predicted pairs must never land on the same discrete
    solution (modulo sign) at the finest common continuation step.

    a_lambda is sqrt(w) times a solution's sine coefficients at the group
    modes, so by Parseval |v_1 -+ v_2|_L2 >= |a_1 -+ a_2|: a pair whose
    projections lie more than twice the radius apart, either sign, is
    cleared without its solutions; only the others are mirrored to the full
    grid and compared there."""
    final = [(v, v.records[-1]) for v in verdicts if v.records]
    if len(final) < 2:
        for v, _ in final:
            v.distinct_ok = True
        return
    eps_min = min(rec.epsilon for _, rec in final)
    at_min = [(v, rec) for v, rec in final if rec.epsilon == eps_min]
    for v, _ in at_min:
        v.distinct_ok = True
    A = np.array([rec.a_lambda for _, rec in at_min])
    for i, (v1, r1) in enumerate(at_min):
        bound = np.minimum(np.linalg.norm(A[i + 1:] - A[i], axis=1),
                           np.linalg.norm(A[i + 1:] + A[i], axis=1))
        for j in np.flatnonzero(bound <= 2.0 * radius) + i + 1:
            v2, r2 = at_min[j]
            x1, x2 = r1.v, r2.v
            if min(dp.norm_l2(x1 - x2), dp.norm_l2(x1 + x2)) <= radius:
                v1.distinct_ok = False
                v2.distinct_ok = False
                v1.notes.append(f"coincides with pair {v2.pair_index} at eps={eps_min:g}")
                v2.notes.append(f"coincides with pair {v1.pair_index} at eps={eps_min:g}")
