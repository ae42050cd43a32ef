"""Critical points of the reduced functional and branch prediction.

Nontrivial critical points come in sign pairs {a, -a}.  Each nondegenerate
pair with Morse index m (of the k-dimensional Hessian) predicts one pair of
PDE solution branches bifurcating from the group's eigenvalue, with
solution Morse index m + j - 1.  Three independent routes to the same set:

* :func:`find_critical_points` - multistart damped Newton on the gradient.
* :func:`brute_force_oracle` - dense grid scan of |grad|^2 minima (k <= 3).
* :func:`gamma_family_solutions` - closed forms for pattern tensors.

Seed refinements are independent; results are merged and sorted under the
sign-pair dedup relation, so output does not depend on evaluation order.
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
    k >= 4 at the default 200).  Defaults reproduce all published examples.
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
    than ``tol`` in magnitude is made positive."""
    a = np.asarray(a, dtype=float)
    for x in a:
        if abs(x) > tol:
            return -a if x < 0 else a.copy()
    return a.copy()


def _newton_refine(f: ReducedFunctional, a0, cfg: SearchConfig):
    """Damped Newton on the gradient with backtracking on its norm."""
    a = np.asarray(a0, dtype=float).copy()
    g = f.gradient(a)
    gn = float(np.linalg.norm(g))
    for _ in range(cfg.max_iter):
        if gn <= cfg.newton_tol:
            return a, True, gn
        H = f.hessian(a)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            ridge = 1e-8 * max(1.0, float(np.max(np.abs(H))))
            step = np.linalg.solve(H + ridge * np.eye(f.k), -g)
        if not np.all(np.isfinite(step)):
            return a, False, gn
        s = 1.0
        while s >= 2.0**-30:
            a_new = a + s * step
            g_new = f.gradient(a_new)
            gn_new = float(np.linalg.norm(g_new))
            if gn_new <= (1.0 - 1e-4 * s) * gn or gn_new <= cfg.newton_tol:
                break
            s *= 0.5
        else:
            return a, False, gn
        a, g, gn = a_new, g_new, gn_new
    return a, gn <= cfg.newton_tol, gn


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

    Returns (representative, position in ``candidates`` of the pair's
    first point) in deterministic sorted order."""
    reps = np.empty((len(candidates), len(candidates[0]) if candidates else 0))
    first: list[int] = []
    for i, a in enumerate(candidates):
        c = canonicalize(a, tol=radius)
        if np.all(np.max(np.abs(reps[:len(first)] - c), axis=1) > radius):
            reps[len(first)] = c
            first.append(i)
    order = sorted(range(len(first)), key=lambda r: tuple(reps[r]))
    return [(reps[r], first[r]) for r in order]


def dedup_pairs(candidates, radius: float):
    """Merge candidate vectors modulo sign into canonical representatives
    (see :func:`_pair_representatives`), in deterministic sorted order."""
    return [rep for rep, _ in _pair_representatives(list(candidates), radius)]


def pair_set_distance(points_a, points_b) -> float:
    """Hausdorff distance between two sets of sign pairs: max over either
    set of the distance to the nearest canonical representative of the
    other (max norm).  Empty against empty is 0; empty against nonempty is
    infinite."""
    A = [canonicalize(np.asarray(a, dtype=float)) for a in points_a]
    B = [canonicalize(np.asarray(b, dtype=float)) for b in points_b]
    if not A and not B:
        return 0.0
    if not A or not B:
        return float("inf")

    def one_sided(xs, ys):
        return max(min(float(np.max(np.abs(x - y))) for y in ys) for x in xs)

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

    patterns = [
        np.array(s, dtype=float)
        for s in itertools.product((-1.0, 0.0, 1.0), repeat=k)
        if any(s)
    ]
    seeds = [r * scale * pat for r in cfg.radii for pat in patterns]
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(max(0, cfg.seed_budget - len(seeds))):
        d = rng.standard_normal(k)
        d /= np.linalg.norm(d)
        seeds.append(rng.uniform(0.25, 2.0) * scale * d)

    converged, ordinals = [], []
    failures = 0
    for ordinal, s in enumerate(seeds):
        a, ok, _ = _newton_refine(f, s, cfg)
        if not ok:
            failures += 1
            continue
        if float(np.max(np.abs(a))) <= cfg.dedup_radius:
            continue  # trivial critical point
        converged.append(a)
        ordinals.append(ordinal)
    reps = _pair_representatives(converged, cfg.dedup_radius)
    last_new = max((ordinals[i] for _, i in reps), default=-1)
    if failures:
        logger.debug("%d of %d seeds failed to converge", failures, len(seeds))

    saturated = last_new < len(seeds) // 2
    if k <= 3:
        completeness = "oracle-checkable"
    elif saturated:
        completeness = "conjectured exact"
    else:
        completeness = "unsaturated"
    diagnostics = SearchDiagnostics(
        n_seeds=len(seeds),
        n_converged=len(converged),
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
    exactly like :func:`find_critical_points`."""
    cfg = cfg or SearchConfig()
    k = f.k
    if k > 3:
        raise ValueError("grid oracle is limited to k <= 3")
    R = box_radius if box_radius is not None else 2.5 * (
        cfg.scale if cfg.scale is not None else f.mode_scale()
    )
    npts = int(np.ceil(2.0 / grid_step_frac)) + 1
    axis = np.linspace(-R, R, npts)
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    A = np.column_stack([m.ravel() for m in mesh])
    G = np.sum(f.gradient_many(A) ** 2, axis=1).reshape((npts,) * k)
    is_min = G <= _neighbourhood_min(G)
    candidates = A[is_min.ravel()]

    converged = []
    for a0 in candidates:
        a, ok, _ = _newton_refine(f, a0, cfg)
        if ok and float(np.max(np.abs(a))) > cfg.dedup_radius:
            converged.append(a)
    return [_classify(f, a, cfg) for a in dedup_pairs(converged, cfg.dedup_radius)]


def _neighbourhood_min(G: np.ndarray) -> np.ndarray:
    """Minimum over each point's 3 x ... x 3 neighbourhood, the grid edges
    repeated outward; the box minimum is separable, so one axis at a time."""
    for ax in range(G.ndim):
        padded = np.pad(G, [(int(d == ax),) * 2 for d in range(G.ndim)], mode="edge")
        G = np.lib.stride_tricks.sliding_window_view(padded, 3, axis=ax).min(axis=-1)
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


def prediction_to_dict(pred: BranchPrediction, domain) -> dict:
    """JSON-ready payload of a prediction report."""
    g = pred.group
    return {
        "lambda_j": g.eigenvalue(domain),
        "lambda_num": g.value.numerator,
        "lambda_den": g.value.denominator,
        "j": g.j,
        "k": g.k,
        "p": pred.p,
        "modes": [list(m.indices) for m in g.modes],
        "pairs": [
            {
                "a": cp.a.tolist(),
                "J": cp.value,
                "grad_norm": cp.grad_norm,
                "hess_eigs": cp.hess_eigs.tolist(),
                "m": cp.morse_index,
                "solution_morse_index": cp.morse_index + g.j - 1,
                "nondegenerate": cp.nondegenerate,
                "margin": cp.margin,
                "profile": pred.profile(i),
            }
            for i, cp in enumerate(pred.pairs)
        ],
        "pair_count_h": pred.pair_count_h,
        "exact": pred.exact,
        "guaranteed_minimum": pred.guaranteed_minimum,
    }
