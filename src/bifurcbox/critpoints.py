"""Critical points of the reduced functional and branch prediction.

Nontrivial critical points come in sign pairs {a, -a}.  Each nondegenerate
pair with Morse index m (of the k-dimensional Hessian) predicts one pair of
PDE solution branches bifurcating from the group's eigenvalue, with
solution Morse index m + j - 1.  Three independent routes to the same set:

* :func:`find_critical_points` - multistart damped Newton on the gradient.
* :func:`brute_force_oracle` - dense grid scan of |grad|^2 minima (k <= 3).
* :func:`gamma_family_solutions` - closed forms for pattern tensors.

The first two and the verifier's reference point share one batched Newton
whose rows never interact: each iteration evaluates the gradients and
Hessians of all live rows as one matrix product per row block (see
:mod:`bifurcbox.reduced`) and solves the stacked Hessians at once, halving
a batch whose solve is singular until the singular rows stand alone.
Results are merged and sorted under the sign-pair dedup relation, so
output does not depend on evaluation order.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegeneratePresentWarning,
    PatternMismatch,
    SuspectedDegenerateWarning,
)
from .reduced import ReducedFunctional, extract_rect_coefficients
from .spectrum import EigenGroup

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point with its classification.

    ``morse_index`` counts negative Hessian eigenvalues; ``margin`` is the
    smallest absolute Hessian eigenvalue, the nondegeneracy certificate.
    """

    a: np.ndarray
    value: float
    grad_norm: float
    hess_eigs: np.ndarray
    morse_index: int
    nondegenerate: bool
    margin: float

    @property
    def support_size(self) -> int:
        return int(np.sum(np.abs(self.a) > 1e-6))


@dataclass(frozen=True)
class SearchConfig:
    """Multistart search knobs.

    Structured seeds place every sign/support pattern at each radius (times
    the functional's mode scale), 4 (3^k - 1) seeds at the default radii,
    and always run.  ``seed_budget`` is the minimum total seed count, not a
    cap: random directions top the structured seeds up to it (none for
    k >= 4 at the default 200).  All seeds run as the rows of one batched
    damped Newton.  Defaults reproduce all published examples.
    """

    seed_budget: int = 200
    newton_tol: float = 1e-12
    max_iter: int = 100
    dedup_radius: float = 1e-6
    degeneracy_rtol: float = 1e-8
    radii: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    rng_seed: int = 0
    scale: float | None = None


def canonicalize(a: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Representative of the sign pair {a, -a}: first coordinate larger
    than ``tol`` in magnitude is made positive.  Each row of a 2-D ``a``
    is one vector."""
    a = np.asarray(a, dtype=float)
    big = np.abs(a) > tol
    lead = np.take_along_axis(a, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    return np.where((np.any(big, axis=-1) & (lead < 0))[..., None], -a, a)


def _newton_refine(f: ReducedFunctional, A0, cfg: SearchConfig):
    """Damped Newton on the gradient, run on every row of ``A0`` at once.

    Each row backtracks on its own gradient norm (Armijo constant 1e-4,
    halving down to 2^-30), takes a ridge when its Hessian solve is
    singular, and ends as failed on a non-finite step or a stalled line
    search.  Returns the final rows and the mask of rows whose gradient
    norm reached ``cfg.newton_tol``."""
    A = np.array(A0, dtype=float, ndmin=2)
    block = max(1, 2**22 // f.k**2)  # rows whose stacked Hessians hold 2^22 numbers
    if len(A) > block:  # cube lambda=54 has 2.1M seeds at k = 12
        parts = [_newton_refine(f, A[s:s + block], cfg) for s in range(0, len(A), block)]
        return np.concatenate([a for a, _ in parts]), np.concatenate([ok for _, ok in parts])
    G = f.gradient_many(A)
    gn = np.linalg.norm(G, axis=1)
    live = np.ones(len(A), dtype=bool)  # neither converged nor failed
    for _ in range(cfg.max_iter):
        live &= gn > cfg.newton_tol
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        step = _newton_steps(f.hessian_many(A[rows]), G[rows])
        finite = np.all(np.isfinite(step), axis=1)
        live[rows[~finite]] = False
        rows, step = rows[finite], step[finite]
        s = np.ones(len(rows))
        while rows.size:
            A_new = A[rows] + s[:, None] * step
            G_new = f.gradient_many(A_new)
            gn_new = np.linalg.norm(G_new, axis=1)
            ok = (gn_new <= (1.0 - 1e-4 * s) * gn[rows]) | (gn_new <= cfg.newton_tol)
            A[rows[ok]], G[rows[ok]], gn[rows[ok]] = A_new[ok], G_new[ok], gn_new[ok]
            live[rows[~ok & (s <= 2.0**-30)]] = False  # line search stalled
            retry = ~ok & (s > 2.0**-30)
            rows, step, s = rows[retry], step[retry], 0.5 * s[retry]
    return A, gn <= cfg.newton_tol


def _newton_steps(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Rows of -H^(-1) g; a singular H gets the ridge 1e-8 max(1, max|H|).

    A stacked solve that fails is split in halves, recursively, so only the
    rows on the failing paths end alone; each matrix is its own LAPACK
    solve, so every row's step is the same in any batch."""
    try:
        return np.linalg.solve(H, -G[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(H) > 1:
            half = len(H) // 2
            return np.concatenate([_newton_steps(H[:half], G[:half]),
                                   _newton_steps(H[half:], G[half:])])
    ridge = 1e-8 * max(1.0, float(np.max(np.abs(H))))
    return np.linalg.solve(H + ridge * np.eye(H.shape[-1]), -G[..., None])[..., 0]


def _classify(f: ReducedFunctional, a: np.ndarray, cfg: SearchConfig) -> CriticalPoint:
    eigs = np.linalg.eigvalsh(f.hessian(a))
    margin = float(np.min(np.abs(eigs)))
    nondeg = margin > cfg.degeneracy_rtol * max(1.0, float(np.max(np.abs(eigs))))
    if not nondeg:
        warnings.warn(
            f"critical point {np.array2string(a, precision=6)} has Hessian "
            f"margin {margin:.3e}; treating as suspected degenerate",
            SuspectedDegenerateWarning,
            stacklevel=3,
        )
    return CriticalPoint(
        a=a,
        value=f.value(a),
        grad_norm=float(np.linalg.norm(f.gradient(a))),
        hess_eigs=eigs,
        morse_index=int(np.sum(eigs < 0.0)),
        nondegenerate=nondeg,
        margin=margin,
    )


def _pair_representatives(candidates, radius: float):
    """Canonical representatives of the sign pairs among ``candidates``,
    two points being one pair when their canonical forms are within
    ``radius`` in the max norm; the search, the oracle and
    :func:`predict_branches` all decide pairs here.

    Greedy in input order: a point opens a pair unless it lies within
    ``radius`` of an earlier representative.  Blocks of rows are first
    compared with the representatives found before the block at once; only
    the rows that match none of them are checked one by one.

    Returns (representative, position in ``candidates`` of the pair's
    first point) in deterministic sorted order."""
    if not len(candidates):
        return []
    C = canonicalize(np.array(candidates, dtype=float, ndmin=2), tol=radius) + 0.0  # no -0.0
    reps = np.empty_like(C)
    first: list[int] = []
    start = 0
    while start < len(C):
        known = len(first)  # blocks of at most 64 rows and 2^20 distances
        block = C[start:start + min(64, max(1, 2**20 // max(1, known)))]
        dist = np.zeros((len(block), known))  # max norm by coordinate: a max over a
        # trailing axis of length k is the slow path of numpy's reductions
        for d in range(C.shape[1]):
            np.maximum(dist, np.abs(block[:, d, None] - reps[:known, d]), out=dist)
        for i in start + np.flatnonzero(np.all(dist > radius, axis=1)):
            if np.all(np.max(np.abs(reps[known:len(first)] - C[i]), axis=1) > radius):
                reps[len(first)] = C[i]
                first.append(int(i))
        start += len(block)
    # a fixed rounding (``radius`` may be 0): last-bit noise must not order pairs
    rounded = np.round(reps[:len(first)], 10).tolist()
    order = sorted(range(len(first)), key=lambda r: rounded[r])
    return [(reps[r], first[r]) for r in order]


def dedup_pairs(candidates, radius: float):
    """Merge candidate vectors modulo sign into canonical representatives
    (see :func:`_pair_representatives`), in deterministic sorted order."""
    return [rep for rep, _ in _pair_representatives(list(candidates), radius)]


def pair_set_distance(points_a, points_b) -> float:
    """Hausdorff distance between two sets of sign pairs: max over either
    set of the distance to the nearest point of the other's pairs, either
    sign (max norm).  Empty against empty is 0; empty against nonempty is
    infinite."""
    A = [np.asarray(a, dtype=float) for a in points_a]
    B = [np.asarray(b, dtype=float) for b in points_b]
    if not A and not B:
        return 0.0
    if not A or not B:
        return float("inf")

    def one_sided(xs, ys):
        return max(min(float(min(np.max(np.abs(x - y)), np.max(np.abs(x + y))))
                       for y in ys) for x in xs)

    return max(one_sided(A, B), one_sided(B, A))


@dataclass(frozen=True)
class SearchDiagnostics:
    """Multistart bookkeeping behind a completeness claim.

    For k <= 3 completeness is certifiable against the grid oracle; above
    that it is heuristic: the search is called saturated when the whole
    second half of the seed list produced no new pair.
    """

    n_seeds: int
    n_converged: int
    n_failed: int
    last_new_pair_seed: int
    saturated: bool
    completeness: str


def find_critical_points(f: ReducedFunctional, cfg: SearchConfig | None = None):
    """All nontrivial critical points, one representative per sign pair.

    Seeds are every sign/support pattern in {-1, 0, 1}^k at radii
    ``cfg.radii`` times the mode scale, plus random directions up to the
    seed budget.  Seeds that fail to converge are dropped (logged, not
    fatal); the origin is excluded.  Completeness is certified against the
    grid oracle for k <= 3 and is heuristic (seed saturation) above.
    """
    points, _ = find_critical_points_with_diagnostics(f, cfg)
    return points


def find_critical_points_with_diagnostics(
    f: ReducedFunctional, cfg: SearchConfig | None = None
):
    """:func:`find_critical_points` plus the saturation diagnostics."""
    cfg = cfg or SearchConfig()
    k = f.k
    scale = cfg.scale if cfg.scale is not None else f.mode_scale()

    patterns = np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=k) if any(s)])
    seeds = [r * scale * patterns for r in cfg.radii]
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(max(0, cfg.seed_budget - len(cfg.radii) * len(patterns))):
        d = rng.standard_normal(k)
        d /= np.linalg.norm(d)
        seeds.append(rng.uniform(0.25, 2.0) * scale * d[None])

    A, ok = _newton_refine(f, np.concatenate(seeds), cfg)
    ordinals = np.flatnonzero(ok & (np.max(np.abs(A), axis=1) > cfg.dedup_radius))
    reps = _pair_representatives(A[ordinals], cfg.dedup_radius)
    last_new = max((int(ordinals[i]) for _, i in reps), default=-1)
    failures = int(np.sum(~ok))
    if failures:
        logger.debug("%d of %d seeds failed to converge", failures, len(A))

    saturated = last_new < len(A) // 2
    if k <= 3:
        completeness = "oracle-checkable"
    elif saturated:
        completeness = "conjectured exact"
    else:
        completeness = "unsaturated"
    diagnostics = SearchDiagnostics(
        n_seeds=len(A),
        n_converged=len(ordinals),
        n_failed=failures,
        last_new_pair_seed=last_new,
        saturated=saturated,
        completeness=completeness,
    )
    return [_classify(f, a, cfg) for a, _ in reps], diagnostics


def brute_force_oracle(
    f: ReducedFunctional,
    box_radius: float | None = None,
    grid_step_frac: float = 0.02,
    cfg: SearchConfig | None = None,
):
    """Independent verification route for k <= 3: scan |grad|^2 on a dense
    grid over [-R, R]^k, polish every local minimum with Newton, and dedup
    exactly like :func:`find_critical_points`.

    The scan is :meth:`ReducedFunctional.gradient_sq_grid`: at p = 3 each
    gradient component is a cubic, evaluated on the whole grid as an
    n-mode product of its monomial table with the powers of the axis; the
    quadrature backend evaluates row blocks whose points are built from
    their flat grid indices.  Neither holds an (npts^k, k) array: the scan
    holds two npts^k grids, the neighbourhood minimum four at its peak.
    Newton starts at every grid point no larger than its neighbours, in C
    order of the grid.  The tensor product rounds differently from the
    row-wise gradient of the same points, so ties among the grid minima on
    flat stretches can break differently and the number of starts can
    move; the pairs are Newton limits, so they move only by rounding."""
    cfg = cfg or SearchConfig()
    k = f.k
    if k > 3:
        raise ValueError("grid oracle is limited to k <= 3")
    R = box_radius if box_radius is not None else 2.5 * (
        cfg.scale if cfg.scale is not None else f.mode_scale()
    )
    npts = int(np.ceil(2.0 / grid_step_frac)) + 1
    axis = np.linspace(-R, R, npts)
    G = f.gradient_sq_grid(axis)
    is_min = G <= _neighbourhood_min(G)
    A, ok = _newton_refine(f, np.column_stack([axis[i] for i in np.nonzero(is_min)]), cfg)
    converged = A[ok & (np.max(np.abs(A), axis=1) > cfg.dedup_radius)]
    return [_classify(f, a, cfg) for a in dedup_pairs(converged, cfg.dedup_radius)]


def _neighbourhood_min(G: np.ndarray) -> np.ndarray:
    """Minimum over each point's 3 x ... x 3 neighbourhood, the grid edges
    repeated outward; the box minimum is separable, so one axis at a time."""
    for ax in range(G.ndim):
        padded = np.moveaxis(np.pad(G, [(int(d == ax),) * 2 for d in range(G.ndim)],
                                    mode="edge"), ax, 0)
        G = np.minimum(padded[:-2], padded[1:-1])
        G = np.moveaxis(np.minimum(G, padded[2:], out=G), 0, ax)
    return G


@dataclass(frozen=True)
class GammaFamily:
    """Magnitudes of the closed-form critical points of a pattern tensor:
    gamma_i = (alpha + 3(i-1) beta)^(-1/2), strictly decreasing for
    beta > 0."""

    alpha: float
    beta: float
    k: int

    @property
    def gammas(self) -> np.ndarray:
        denom = self.alpha + 3.0 * np.arange(self.k) * self.beta
        if np.any(denom <= 0):
            raise PatternMismatch("alpha + 3(i-1) beta must stay positive")
        return denom**-0.5


def gamma_family_solutions(alpha: float, beta: float, k: int,
                           degeneracy_rtol: float = 1e-8):
    """All 3^k - 1 closed-form critical points of the (alpha, beta) pattern
    functional: every support/sign pattern with i nonzero entries of
    magnitude gamma_i.

    The Hessian at such a point is block diagonal (after sign conjugation):
    an i x i block with diagonal d and off-diagonal o contributing the
    eigenvalues d + (i-1) o = -2 exactly and d - o = (6 beta - 2 alpha)
    gamma_i^2 with multiplicity i - 1, plus a (k - i) identity block scaled
    by (alpha - 3 beta) gamma_i^2.
    """
    fam = GammaFamily(alpha, beta, k)
    gammas = fam.gammas
    points = []
    for i in range(1, k + 1):
        g2 = gammas[i - 1] ** 2
        eigs = np.sort(np.concatenate([
            [-2.0],
            np.full(i - 1, (6.0 * beta - 2.0 * alpha) * g2),
            np.full(k - i, (alpha - 3.0 * beta) * g2),
        ]))
        morse = int(np.sum(eigs < 0.0))
        margin = float(np.min(np.abs(eigs)))
        nondeg = margin > degeneracy_rtol * max(1.0, float(np.max(np.abs(eigs))))
        value = i * g2 / 4.0
        for support in itertools.combinations(range(k), i):
            for signs in itertools.product((1.0, -1.0), repeat=i):
                a = np.zeros(k)
                a[list(support)] = gammas[i - 1] * np.array(signs)
                points.append(CriticalPoint(
                    a=a, value=value, grad_norm=0.0, hess_eigs=eigs,
                    morse_index=morse, nondegenerate=nondeg, margin=margin,
                ))
    return points


def gamma_family_from_functional(f: ReducedFunctional, rtol: float = 1e-10):
    """Closed-form critical points of ``f``'s tensor; raises
    :class:`PatternMismatch` when the tensor is not of (alpha, beta) form."""
    if f.tensor is None:
        raise PatternMismatch("functional carries no quartic tensor")
    coeffs = extract_rect_coefficients(f.tensor, rtol=rtol)
    return gamma_family_solutions(coeffs.alpha, coeffs.beta, f.k)


@dataclass(frozen=True)
class BranchPrediction:
    """Sign pairs of critical points mapped to predicted solution branches.

    Each pair predicts one pair of solutions u, -u bifurcating from the
    group's eigenvalue from the left, with amplitude profile
    (lambda_j - lambda)^(1/(p-1)) times the eigenbasis combination and
    solution Morse index m + j - 1.  When every point is nondegenerate the
    pair count is exact; otherwise only the multiplicity-k lower bound of
    the general theory survives, recorded in ``guaranteed_minimum``.
    """

    group: EigenGroup
    p: float
    pairs: tuple[CriticalPoint, ...]
    exact: bool
    guaranteed_minimum: int = field(default=0)

    @property
    def pair_count_h(self) -> int:
        return len(self.pairs)

    @property
    def solution_morse_indices(self) -> list[int]:
        return [cp.morse_index + self.group.j - 1 for cp in self.pairs]

    def profile(self, pair_index: int) -> dict:
        """Asymptotic shape descriptor of one branch near the eigenvalue."""
        cp = self.pairs[pair_index]
        return {
            "amplitude_exponent": 1.0 / (self.p - 1.0),
            "coefficients": cp.a.tolist(),
            "modes": [list(m.indices) for m in self.group.modes],
        }


def predict_branches(group: EigenGroup, points, p: float = 3.0,
                     dedup_radius: float = 1e-6) -> BranchPrediction:
    """Fold classified critical points into a branch prediction.

    Input points may come in any sign convention and may contain both
    members of a pair; they are canonicalized and merged first (points
    within ``dedup_radius`` modulo sign are one pair), so the output is
    invariant under flipping the sign of any input point.
    """
    pts = list(points)
    chosen = [
        replace(pts[i], a=rep)
        for rep, i in _pair_representatives([cp.a for cp in pts], dedup_radius)
    ]
    exact = all(cp.nondegenerate for cp in chosen)
    if not exact:
        warnings.warn(
            "degenerate critical points present; branch count downgraded "
            "to the at-least-k guarantee",
            DegeneratePresentWarning,
            stacklevel=2,
        )
    return BranchPrediction(
        group=group,
        p=float(p),
        pairs=tuple(chosen),
        exact=exact,
        guaranteed_minimum=group.k if not exact else len(chosen),
    )
