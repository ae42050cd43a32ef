"""Critical points of the reduced functional and branch prediction.

Nontrivial critical points come in sign pairs {a, -a}.  Each nondegenerate
pair with Morse index m (of the k-dimensional Hessian) predicts one pair of
PDE solution branches bifurcating from the group's eigenvalue, with
solution Morse index m + j - 1.  Three independent routes to the same set:

* :func:`find_critical_points` - at p = 3, on either backend, a certified
  search: the gradient is k cubics, so it has at most 3^k isolated complex
  roots (Bezout), and 3^k distinct nonsingular roots in hand are all of
  them.  The closed forms of a pattern tensor give them directly; any other
  tensor gets a total-degree homotopy tracked once per symmetry orbit of
  its start roots.  At any other p a multistart damped Newton.
* :func:`brute_force_oracle` - dense grid scan of |grad|^2 minima (k <= 3).
* :func:`gamma_family_solutions` - closed forms for pattern tensors.

Every route polishes its points with one batched Newton whose rows never
interact, shared with the verifier's reference point: each iteration
evaluates the gradients and Hessians of all live rows as one matrix
product per row block (see :mod:`bifurcbox.reduced`) and solves the
stacked Hessians at once, halving a batch whose solve is singular until
the singular rows stand alone.  Results are merged and sorted under the
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
    """Search knobs.

    The certified search (p = 3, either backend) uses ``newton_tol``,
    ``max_iter``, ``dedup_radius`` and ``degeneracy_rtol``, and
    ``rng_seed`` draws its homotopy constant gamma; it ignores
    ``seed_budget``.

    The multistart (p != 3) places every sign/support pattern at each of
    the ``_RADII`` times the functional's mode scale, 4 (3^k - 1) seeds,
    and always runs them.
    ``seed_budget`` is the minimum total seed count, not a cap: random
    directions drawn from ``rng_seed`` top the structured seeds up to it
    (none for k >= 4 at the default 200).  All seeds run as the rows of one
    batched damped Newton.  Defaults reproduce all published examples.
    """

    seed_budget: int = 200
    newton_tol: float = 1e-12
    max_iter: int = 100
    dedup_radius: float = 1e-6
    degeneracy_rtol: float = 1e-8
    rng_seed: int = 0


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and switches of a continuation run
    (:func:`bifurcbox.pdeverify.continuation_run`).  It is declared here,
    next to SearchConfig, so that the CLI's config defaults need no
    verifier import."""

    newton_tol: float = 1e-10
    max_newton: int = 60
    linear_rtol: float = 1e-12
    a_rtol: float = 0.1
    min_phi_order: float = 0.9
    mu_rtol: float = 0.05
    morse: bool = True
    dedup_radius: float = 1e-6
    rng_seed: int = 0  # unused: the Morse solve is deterministic; --seed drives the search


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
        step = _solve_rows(f.hessian_many(A[rows]), -G[rows])
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


def _ridge_solve(H: np.ndarray, R: np.ndarray) -> np.ndarray:
    ridge = 1e-8 * max(1.0, float(np.max(np.abs(H))))
    return np.linalg.solve(H + ridge * np.eye(H.shape[-1]), R[..., None])[..., 0]


def _solve_rows(H: np.ndarray, R: np.ndarray, singular=_ridge_solve) -> np.ndarray:
    """Rows of H^(-1) r; a singular H alone is ``singular(H, r)``.

    A stacked solve that fails is split in halves, recursively, so only the
    rows on the failing paths end alone; each matrix is its own LAPACK
    solve, so every row's solution is the same in any batch."""
    try:
        return np.linalg.solve(H, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return singular(H, R)
        half = len(H) // 2
        return np.concatenate([_solve_rows(H[:half], R[:half], singular),
                               _solve_rows(H[half:], R[half:], singular)])


def _classify_many(f: ReducedFunctional, A, cfg: SearchConfig) -> list[CriticalPoint]:
    """Classify the rows of ``A`` at once: one batched Hessian, gradient and
    stacked eigensolve.  The value comes from the gradient g, since
    a . (a - g) is the integral of |a . e|^(p+1)."""
    A = np.array(A, dtype=float).reshape(-1, f.k)
    eigs = np.linalg.eigvalsh(f.hessian_many(A))
    G = f.gradient_many(A)
    sq = np.sum(A * A, axis=1)
    values = 0.5 * sq - (sq - np.sum(A * G, axis=1)) / (f.p + 1.0)
    margins = np.min(np.abs(eigs), axis=1)
    nondeg = margins > cfg.degeneracy_rtol * np.maximum(1.0, np.max(np.abs(eigs), axis=1))
    for a, margin in zip(A[~nondeg], margins[~nondeg]):
        warnings.warn(
            f"critical point {np.array2string(a, precision=6)} has Hessian "
            f"margin {margin:.3e}; treating as suspected degenerate",
            SuspectedDegenerateWarning,
            stacklevel=3,
        )
    return [CriticalPoint(a=a, value=v, grad_norm=g, hess_eigs=e, morse_index=m,
                          nondegenerate=nd, margin=margin)
            for a, v, g, e, m, nd, margin in zip(
                A, values.tolist(), np.linalg.norm(G, axis=1).tolist(), eigs,
                np.sum(eigs < 0.0, axis=1).tolist(), nondeg.tolist(), margins.tolist())]


def _pair_representatives(candidates, radius: float):
    """Canonical representatives of the sign pairs among ``candidates``,
    two points being one pair when their canonical forms are within
    ``radius`` in the max norm; the homotopy's root images, the search,
    the oracle and :func:`predict_branches` all decide pairs here.

    Greedy in input order: a point opens a pair unless it lies within
    ``radius`` of an earlier representative, the orbit rule of
    :func:`_orbits` under the identity alone.

    Returns (representative, position in ``candidates`` of the pair's
    first point) in deterministic sorted order."""
    if not len(candidates):
        return []
    C = canonicalize(np.array(candidates, dtype=float, ndmin=2), tol=radius) + 0.0  # no -0.0
    first, _, _ = _orbits(C, np.arange(C.shape[1])[None], np.ones_like(C[:1]),
                          np.full(len(C), radius))
    first = np.flatnonzero(first == np.arange(len(C)))
    # a fixed rounding (``radius`` may be 0): last-bit noise must not order pairs
    rounded = np.round(C[first], 10).tolist()
    order = sorted(range(len(first)), key=rounded.__getitem__)
    return [(C[first[r]], int(first[r])) for r in order]


def pair_set_distance(points_a, points_b) -> float:
    """Hausdorff distance between two sets of sign pairs: max over either
    set of the distance to the nearest point of the other's pairs, either
    sign (max norm).  Empty against empty is 0; empty against nonempty is
    infinite."""
    if not len(points_a) and not len(points_b):
        return 0.0
    if not len(points_a) or not len(points_b):
        return float("inf")
    A = np.asarray(points_a, dtype=float)[:, None]
    B = np.asarray(points_b, dtype=float)[None]
    d = np.minimum(np.abs(A - B).max(axis=2), np.abs(A + B).max(axis=2))  # (|A|, |B|)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class Certificate:
    """The Bezout count behind a critical set at p = 3.

    The gradient a - T(a, a, a, .) is k cubics in k unknowns, so it has at
    most ``bezout_number`` = 3^k isolated complex roots.  ``distinct_roots``
    counts the distinct nonsingular roots found, the origin included; when
    it reaches the Bezout number no other root exists, real or complex, and
    the real nonzero roots are the complete critical set.  ``method`` is
    ``"closed form"`` (the pattern tensor's gamma family) or ``"homotopy"``.
    """

    method: str
    distinct_roots: int
    bezout_number: int

    @property
    def certified(self) -> bool:
        return self.distinct_roots == self.bezout_number


@dataclass(frozen=True)
class SearchDiagnostics:
    """Bookkeeping behind a completeness claim.

    Certified search (p = 3, either backend): ``completeness`` is
    ``"certified"`` when ``certificate`` meets its Bezout number and
    ``"uncertified"`` otherwise; ``n_seeds`` counts the closed-form points
    polished and the homotopy paths tracked, ``n_failed`` the paths that
    did not end at a well-conditioned root and the points Newton could not
    polish, ``n_converged`` the polished nonzero real roots (one per
    distinct canonical image), and ``saturated`` is ``certificate.certified``.

    Multistart (p != 3): completeness is ``"oracle-checkable"`` for
    k <= 3, where the grid oracle applies; above that it is heuristic, and
    the search is called saturated (``"conjectured exact"``, else
    ``"unsaturated"``) when the whole second half of the seed list produced
    no new pair.  ``certificate`` is None.
    """

    n_seeds: int
    n_converged: int
    n_failed: int
    last_new_pair_seed: int
    saturated: bool
    completeness: str
    certificate: Certificate | None = None


def find_critical_points(f: ReducedFunctional, cfg: SearchConfig | None = None):
    """All nontrivial critical points, one representative per sign pair.

    At p = 3, through the functional's quartic tensor on either backend:
    the closed form of a pattern tensor, else the real roots of a
    total-degree homotopy, either counted against the Bezout number 3^k.
    At any other p: multistart damped Newton from every
    sign/support pattern in {-1, 0, 1}^k at radii ``_RADII`` times the
    mode scale, plus random directions up to the seed budget; completeness
    is checkable against the grid oracle for k <= 3 and heuristic (seed
    saturation) above.  Starts that fail to converge are dropped (logged,
    not fatal); the origin is excluded.
    """
    points, _ = find_critical_points_with_diagnostics(f, cfg)
    return points


def find_critical_points_with_diagnostics(
    f: ReducedFunctional, cfg: SearchConfig | None = None
):
    """:func:`find_critical_points` plus the :class:`SearchDiagnostics`."""
    cfg = cfg or SearchConfig()
    certificate = None
    if f.tensor is not None:
        A, ok, n_seeds, n_failed, certificate = _certified_roots(f, cfg)
    else:
        A, ok = _newton_refine(f, _multistart_seeds(f, cfg), cfg)
        n_seeds, n_failed = len(A), int(np.sum(~ok))
    ordinals = np.flatnonzero(ok & (np.max(np.abs(A), axis=1) > cfg.dedup_radius))
    reps = _pair_representatives(A[ordinals], cfg.dedup_radius)
    last_new = max((int(ordinals[i]) for _, i in reps), default=-1)
    if n_failed:
        logger.debug("%d of %d starts failed to converge", n_failed, n_seeds)

    if certificate is not None:
        saturated = certificate.certified
        completeness = "certified" if saturated else "uncertified"
    else:
        saturated = last_new < len(A) // 2
        completeness = ("oracle-checkable" if f.k <= 3 else
                        "conjectured exact" if saturated else "unsaturated")
    diagnostics = SearchDiagnostics(
        n_seeds=n_seeds,
        n_converged=len(ordinals),
        n_failed=n_failed,
        last_new_pair_seed=last_new,
        saturated=saturated,
        completeness=completeness,
        certificate=certificate,
    )
    return _classify_many(f, [a for a, _ in reps], cfg), diagnostics


_RADII = (0.25, 0.5, 1.0, 2.0)  # multistart seed radii, in units of the mode scale


def _multistart_seeds(f: ReducedFunctional, cfg: SearchConfig) -> np.ndarray:
    k = f.k
    scale = f.mode_scale()
    patterns = np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=k) if any(s)])
    seeds = [r * scale * patterns for r in _RADII]
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(max(0, cfg.seed_budget - len(_RADII) * len(patterns))):
        d = rng.standard_normal(k)
        d /= np.linalg.norm(d)
        seeds.append(rng.uniform(0.25, 2.0) * scale * d[None])
    return np.concatenate(seeds)


def _certified_roots(f: ReducedFunctional, cfg: SearchConfig):
    """Stage A, the closed form, when the tensor has the (alpha, beta)
    pattern and every closed-form point is nondegenerate: its 3^k - 1
    nonzero points and the origin (Hessian I) are 3^k distinct nonsingular
    roots.  Stage B otherwise: the homotopy, whose real roots are pooled
    with any closed-form points.

    Returns the polished points, their convergence mask, the number of
    starts, the number that failed, and the :class:`Certificate`."""
    bezout = 3**f.k
    closed, nondegenerate = _closed_form_points(f, cfg)
    if closed is not None:
        A, ok = _newton_refine(f, closed, cfg)
        if nondegenerate and ok.all():
            return A, ok, len(A), 0, Certificate("closed form", bezout, bezout)
    B, ok_b, n_paths, n_failed, distinct = _homotopy_roots(f, cfg)
    if closed is not None:
        B, ok_b = np.concatenate([A, B]), np.concatenate([ok, ok_b])
        n_paths, n_failed = n_paths + len(A), n_failed + int(np.sum(~ok))
    return B, ok_b, n_paths, n_failed, Certificate("homotopy", distinct, bezout)


def _closed_form_points(f: ReducedFunctional, cfg: SearchConfig):
    """One sign of each pair of the closed-form critical points, and whether
    all of them are nondegenerate; (None, False) without the pattern."""
    try:
        coeffs = extract_rect_coefficients(f.tensor)
        table = _gamma_family_table(coeffs.alpha, coeffs.beta, f.k, cfg.degeneracy_rtol)
    except PatternMismatch:
        return None, False
    A = np.concatenate([points for points, *_ in table])
    return A[np.all(canonicalize(A) == A, axis=1)], all(nondeg for *_, nondeg, _ in table)


# The homotopy H(b, t) = (1 - t) gamma (b^3 - b) + t grad(b) runs in the
# scaled coordinates b = a / mode_scale, where the roots are of order 1.
_H_MAX = (0.5, 0.125)         # largest step in t of the first track and the retrack
_PREDICTION_TOL = (1e-3, 1e-4)  # first corrector step, relative, that steers the step size
_JUMP = 0.05                  # a larger first corrector step is rejected as a jump
_CORRECTED = 1e-6             # the second corrector step must be this small
_H_MIN = 1e-8                 # a path whose step falls below it has failed
_MAX_STEPS = 1000
_COND_LIMIT = 1e7             # endpoint condition numbers above it are not counted
_ROOT_TOL = 1e-7              # two roots closer than this, relative, are one; the
                              # root images' pair radius is it times 1 + max |C|


def _homotopy_roots(f: ReducedFunctional, cfg: SearchConfig):
    """Stage B: the real nonzero roots of the gradient from a total-degree
    homotopy, tracked once per orbit of G x {+-1}, and the number of
    distinct nonsingular roots found.

    The start system g_i = b_i^3 - b_i has the 3^k roots {-1, 0, 1}^k, and
    g and the gradient commute with every signed permutation P of G, so
    the path from P s ends at P applied to the end of the path from s
    (Verschelde & Cools 1994): one path per orbit of starts is tracked, and
    the distinct roots are counted orbit by orbit.  The origin is its own
    path.  When the count falls short of 3^k (a failed path, or two paths
    that end in one orbit, which is how a path jump shows) every orbit is
    tracked again with a new gamma and smaller steps, and the two sets of
    endpoints are pooled; unless a path reached t = 1 at a singular or
    ill-conditioned root, which no track counts, so that no retrack can
    reach 3^k (a continuum of roots shows this way).  Gamma is drawn from
    ``cfg.rng_seed``, so a rerun is identical.  Returns (points,
    convergence mask, paths tracked, paths failed, distinct roots)."""
    k, scale = f.k, f.mode_scale()
    src, sign = _box_group(f)
    starts = _start_orbits(src, sign)
    rng = np.random.default_rng(cfg.rng_seed)
    block = max(1, 2**16 // k**2)  # paths tracked at once
    found, n_paths, failed = [], 0, 0
    for h_max, tol in zip(_H_MAX, _PREDICTION_TOL):
        gamma = np.exp(1j * rng.uniform(np.pi / 6, 5 * np.pi / 6))  # away from the real axis
        singular = False
        for lo in range(0, len(starts), block):
            X, ok, at_singular = _track(f, scale, starts[lo:lo + block], gamma, h_max, tol)
            found.append(X[ok])
            singular |= bool(np.any(at_singular))
            n_paths, failed = n_paths + len(X), failed + int(np.sum(~ok))
        distinct = 1 + _orbit_union_size(np.concatenate(found), src, sign)
        if distinct == 3**k or singular:
            break
    X = np.concatenate(found)
    real = np.max(np.abs(X.imag), axis=1) <= _ROOT_TOL * (1.0 + np.max(np.abs(X), axis=1))
    # one row per root: its images differ by rounding where it has zero
    # coordinates (about 1e-16 on either backend, more where the quadrature
    # tensor has 1e-18 in place of exact zeros)
    C = np.unique(canonicalize(_images(scale * X[real].real, src, sign)), axis=0)
    radius = _ROOT_TOL * (1.0 + np.max(np.abs(C), initial=0.0))
    C = C[sorted(i for _, i in _pair_representatives(C, radius))]
    A, ok = _newton_refine(f, C, cfg)
    return A, ok, n_paths, failed + int(np.sum(~ok)), distinct


def _images(X: np.ndarray, src: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Every image P x of every row x of ``X``, (len(X) |G|, k)."""
    return (X[:, src] * sign).reshape(-1, X.shape[1])


def _box_isometries(modes, kinds):
    """The (perm, flips) of each isometry of a box whose axes have the given
    kinds, identity first: every permutation of axes of equal kind, composed
    with every set of reversed axes.  And each one's action on the
    coefficients of ``modes`` (index tuples) as gather maps, (|G|, k) each,
    (P a)_i = sign[g, i] a[src[g, i]]: reversing axis d signs mode m by
    (-1)^(m_d + 1), then mode m goes to (m[perm[0]], m[perm[1]], ...)."""
    dim = len(kinds)
    perms = [q for q in itertools.permutations(range(dim))
             if all(kinds[q[d]] == kinds[d] for d in range(dim))]
    flips = [tuple(d for d in range(dim) if bits[d])
             for bits in itertools.product((False, True), repeat=dim)]
    isometries = [(q, fl) for q in perms for fl in flips]
    column = {m: c for c, m in enumerate(modes)}
    src = np.empty((len(isometries), len(modes)), dtype=int)
    # a scatter, not an argsort: an integer argsort here maps numpy's SIMD
    # sort code, which raised a predict run's peak RSS by about 0.25 MB
    for g, (q, _) in enumerate(isometries):
        src[g, [column[tuple(m[d] for d in q)] for m in modes]] = range(len(modes))
    sign = np.array([[(-1.0) ** sum(modes[c][d] + 1 for d in fl) for c in row]
                     for row, (_, fl) in zip(src, isometries)])
    return isometries, src, sign


def _box_group(f: ReducedFunctional):
    """G x {+-1} as gather maps, (P a)_i = sign[g, i] a[src[g, i]], each
    element once.  G holds the ``_box_isometries`` of the axes' squared
    sides on the group's modes; a functional built from a bare tensor has
    G = {I}.  Only the elements that leave the tensor invariant are kept."""
    src, sign = np.arange(f.k)[None], np.ones((1, f.k))
    if f.group is not None:
        _, src, sign = _box_isometries([m.indices for m in f.group.modes], f.domain.side_sq)
    codes = sign * (src + 1)  # +-(i + 1): an element as one row, kept in floats
    codes = np.unique(np.concatenate([codes, -codes]), axis=0)
    src, sign = (np.abs(codes) - 1).astype(int), np.sign(codes)
    T = f.tensor.entries
    at = [(slice(None),) + tuple(slice(None) if e == d else None for e in range(4))
          for d in range(4)]  # index d of four, broadcast over the other three
    s0, s1, s2, s3 = (sign[a] for a in at)
    moved = T[tuple(src[a] for a in at)] * (s0 * s1 * s2 * s3)
    keep = (np.max(np.abs(moved - T).reshape(len(src), -1), axis=1)
            <= 1e-12 * np.max(np.abs(T)))
    return src[keep], sign[keep]


def _start_orbits(src: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """One start per orbit of the group on {-1, 0, 1}^k minus the origin:
    the start whose base-3 code (digits s_i + 1) is the least of its
    orbit's.  Codes are visited in blocks of about 2^20 image entries, so
    no (3^k, |G|, k) array is built."""
    n_g, k = src.shape
    powers = 3 ** np.arange(k - 1, -1, -1)
    block = max(1, 2**20 // (n_g * k))
    reps = []
    for lo in range(0, 3**k, block):
        codes = np.arange(lo, min(3**k, lo + block))
        S = (codes[:, None] // powers) % 3 - 1.0
        image_codes = (S[:, src] * sign + 1.0) @ powers
        reps.append(S[(image_codes.min(axis=1) == codes) & np.any(S != 0.0, axis=1)])
    return np.concatenate(reps)


def _orbits(X: np.ndarray, src: np.ndarray, sign: np.ndarray, tol: np.ndarray):
    """The orbits of the rows of ``X`` under the group whose elements act
    as the gather maps (P_g x)_i = sign[g, i] x[src[g, i]]: the one rule
    that decides "P x = y", for the pairs, the homotopy's root count and
    the verifier's orbit transport alike.

    Rows are visited in index order: a row opens an orbit unless some
    P_g x of an earlier opening row lies within its ``tol`` entry, in the
    max norm.  Two such rows have invariant keys, the least of Re(w . P x)
    over the group for w_j = e^(ij)/j, within |w|_1 ``tol`` of each other,
    so each block of 64 rows is compared only with the opening rows in its
    rows' key windows, widened by the keys' rounding, and the rows that
    match none with each other in the same windows.  Images are built in
    blocks of about 2^16 entries.

    Returns (first, element, stab), one entry per row: the first row of its
    orbit, the first g with P_g X[first] within ``tol`` of the row, and the
    number of g with P_g x within ``tol`` of x."""
    n, k = X.shape
    w = np.exp(1j * np.arange(1, k + 1)) / np.arange(1, k + 1)
    w = w if np.iscomplexobj(X) else w.real  # Re(w . x) for real rows, in reals
    block = max(1, 2**16 // (len(src) * k))  # at 2^20 its temporaries set a search's peak
    key, stab, element = np.empty(n), np.empty(n, dtype=int), np.empty(n, dtype=int)
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        images = X[rows][:, src] * sign  # (b, |G|, k)
        fixed = np.max(np.abs(images - X[rows, None, :]), axis=2) <= tol[rows, None]
        stab[rows], element[rows] = np.sum(fixed, axis=1), np.argmax(fixed, axis=1)
        key[rows] = np.min((images @ w).real, axis=1)
    # |w|_1 tol, plus each key's and each bound's rounding
    rounding = 4 * (k + 2) * np.finfo(float).eps
    reach = np.sum(np.abs(w)) * (tol + rounding * (np.max(np.abs(X), initial=0.0) + tol))

    def window(rows, others):
        """(i, j) of every others[j], sorted by key, in rows[i]'s window."""
        lo = np.searchsorted(key[others], key[rows] - reach[rows])
        m = np.searchsorted(key[others], key[rows] + reach[rows], side="right") - lo
        i = np.repeat(np.arange(len(rows)), m)
        return i, np.arange(len(i)) - np.repeat(np.cumsum(m) - m - lo, m)

    def settle(later, earlier):
        """Each row of ``later`` joins the orbit of the least row of
        ``earlier`` that opens one and has an image within its tol."""
        g = np.empty(len(later), dtype=int)  # the first such image, or -1
        for lo in range(0, len(later), block):  # images of 2^16 entries, as in the key pass
            r, e = later[lo:lo + block], earlier[lo:lo + block]
            hit = np.max(np.abs(X[e][:, src] * sign - X[r, None, :]), axis=2) <= tol[r, None]
            g[lo:lo + block] = np.where(np.any(hit, axis=1), np.argmax(hit, axis=1), -1)
        for r, e, h in sorted(zip(later.tolist(), earlier.tolist(), g.tolist())):
            if h >= 0 and first[r] == r and first[e] == e:  # e < r is settled
                first[r], element[r] = e, h

    first = np.arange(n)
    kept = np.empty(0, dtype=int)  # the opening rows, by key
    for start in range(0, n, 64):
        rows = np.arange(start, min(start + 64, n))
        i, j = window(rows, kept)
        settle(rows[i], kept[j])
        fresh = rows[first[rows] == rows]
        fresh = fresh[np.argsort(key[fresh], kind="stable")]
        i, j = window(fresh, fresh)
        earlier = fresh[j] < fresh[i]
        settle(fresh[i[earlier]], fresh[j[earlier]])
        fresh = fresh[first[fresh] == fresh]
        kept = np.insert(kept, np.searchsorted(key[kept], key[fresh]), fresh)
    return first, element, stab


def _orbit_union_size(X: np.ndarray, src: np.ndarray, sign: np.ndarray) -> int:
    """The number of distinct points in the union of the G x {+-1} orbits
    of the rows of ``X`` (complex roots, scaled coordinates): |G| / |stab|
    over the rows that open an orbit, two roots closer than ``_ROOT_TOL``
    (relative) being one."""
    first, _, stab = _orbits(X, src, sign, _ROOT_TOL * (1.0 + np.max(np.abs(X), axis=1)))
    return int(np.sum(len(src) // stab[first == np.arange(len(X))]))


def _track(f: ReducedFunctional, scale: float, starts: np.ndarray, gamma: complex,
           h_max: float, tol: float):
    """Track H(b, t) = (1 - t) gamma (b^3 - b) + t grad(b) from each start
    at t = 0 to t = 1, grad(b) = b - scale^2 T(b, b, b, .) the gradient in
    scaled coordinates: an RK4 predictor on db/dt = -H_b^(-1) H_t and two
    Newton corrector steps at the new t, every path with its own step.

    A step is accepted when the first corrector step is below ``_JUMP`` and
    the second below ``_CORRECTED`` (relative to 1 + |b|): Newton then
    converges quadratically, and the second step leaves an error of about
    its square.  The next step aims at a first corrector step of ``tol``,
    never above ``h_max``; a rejected step is halved.  A singular solve
    gives NaN, which rejects the step.  Each endpoint is polished by Newton
    at t = 1.  Returns the endpoints, the mask of paths that reached t = 1
    at a finite root whose Jacobian condition number is at most
    ``_COND_LIMIT`` both where the path arrived and after the polish
    (Newton at a singular root drifts, so the polished point alone can
    pass), and the mask of the other paths that reached t = 1."""
    n, k = starts.shape
    eye = np.eye(k)
    unsolvable = lambda H, R: np.full_like(R, np.nan)  # noqa: E731

    def parts(B, t):
        """-H, H_b and -H_t at the rows ``B`` and times ``t``."""
        tt, c = t[:, None], (1.0 - t[:, None]) * gamma
        Y = f._pair_contraction(scale * B)
        grad = B - (Y @ B[:, :, None])[:, :, 0]
        sq = B * B
        start = B * (sq - 1.0)
        J = Y * (-3.0 * tt[:, :, None])
        J.reshape(len(B), k * k)[:, ::k + 1] += tt + c * (3.0 * sq - 1.0)
        return -(tt * grad + c * start), J, gamma * start - grad

    def velocity(B, t):
        _, J, minus_ht = parts(B, t)
        return _solve_rows(J, minus_ht, unsolvable)

    X = starts.astype(complex)
    t = np.zeros(n)
    h = np.full(n, 0.1 * h_max)
    live = np.ones(n, dtype=bool)
    reached = np.zeros(n, dtype=bool)
    for _ in range(_MAX_STEPS):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        x, t0 = X[rows], t[rows]
        last = h[rows] >= 1.0 - t0
        dt = np.where(last, 1.0 - t0, h[rows])
        t1 = np.where(last, 1.0, t0 + dt)
        step = dt[:, None]
        k1 = velocity(x, t0)
        k2 = velocity(x + 0.5 * step * k1, t0 + 0.5 * dt)
        k3 = velocity(x + 0.5 * step * k2, t0 + 0.5 * dt)
        k4 = velocity(x + step * k3, t1)
        x = x + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        size = 1.0 + np.max(np.abs(x), axis=1)
        moves = []
        for _ in range(2):
            minus_h, J, _ = parts(x, t1)
            d = _solve_rows(J, minus_h, unsolvable)
            x = x + d
            moves.append(np.max(np.abs(d), axis=1) / size)
        first, moved = moves
        ok = (first <= _JUMP) & (moved <= _CORRECTED)
        acc, rej = rows[ok], rows[~ok]
        X[acc], t[acc] = x[ok], t1[ok]
        grow = np.clip(0.8 * (tol / np.maximum(first[ok], 1e-300)) ** 0.2, 0.5, 2.0)
        h[acc] = np.minimum(grow * h[acc], h_max)
        h[rej] *= 0.5
        done = acc[last[ok]]
        reached[done] = True
        live[done] = False
        live[rej[(h[rej] < _H_MIN) | (size[~ok] > 1e6)]] = False
    ok = reached.copy()
    for i in range(3):
        Y = f._pair_contraction(scale * X)
        J = eye - 3.0 * Y
        if i == 0 and ok.any():  # where each path arrived
            ok[ok] = np.linalg.cond(J[ok]) <= _COND_LIMIT
        X = X + _solve_rows(J, (Y @ X[:, :, None])[:, :, 0] - X, unsolvable)
    ok &= np.all(np.isfinite(X), axis=1)
    if ok.any():
        ok[ok] = np.linalg.cond(J[ok]) <= _COND_LIMIT
    return X, ok, reached & ~ok


_SLAB = 2**17  # grid points per slab of the oracle's scan, its two halo planes aside


def brute_force_oracle(
    f: ReducedFunctional,
    box_radius: float | None = None,
    grid_step_frac: float = 0.02,
    cfg: SearchConfig | None = None,
):
    """Independent verification route for k <= 3: scan |grad|^2 on a dense
    grid over [-R, R]^k, polish every local minimum with Newton, and dedup
    exactly like :func:`find_critical_points`.

    The grid is walked in slabs of whole planes along its first axis, about
    ``_SLAB`` points plus one halo plane on either side, each slab's 3^k
    neighbourhood minimum taken on the slab alone; Newton starts at every
    grid point no larger than its neighbours, in C order of the grid.
    |grad|^2 (:meth:`ReducedFunctional.gradient_sq_grid`) is evaluated once
    per plane: a slab's first two planes, its lower halo and its first own
    plane, are the last two of the slab before, carried over.  The tensor
    product rounds differently from the row-wise gradient of the same
    points, so ties among the grid minima on flat stretches can break
    differently and the number of starts can move; the pairs are Newton
    limits, so they move only by rounding."""
    cfg = cfg or SearchConfig()
    k = f.k
    if k > 3:
        raise ValueError("grid oracle is limited to k <= 3")
    R = box_radius if box_radius is not None else 2.5 * f.mode_scale()
    npts = int(np.ceil(2.0 / grid_step_frac)) + 1
    axis = np.linspace(-R, R, npts)
    step = max(1, _SLAB // npts ** (k - 1))  # planes per slab
    starts, carry = [], None
    for lo in range(0, npts, step):
        halo = max(lo - 1, 0)
        G = f.gradient_sq_grid([axis[lo + 1 if lo else 0:lo + step + 1]] + [axis] * (k - 1))
        if lo:  # planes lo - 1 and lo, from the slab before
            G = np.concatenate([carry, G])
        idx = np.nonzero((G <= _neighbourhood_min(G))[lo - halo:lo - halo + step])
        starts.append(np.column_stack([axis[lo + idx[0]]] + [axis[i] for i in idx[1:]]))
        carry = G[-2:].copy()
        del G  # so the next slab's scan does not hold this one
    A, ok = _newton_refine(f, np.concatenate(starts), cfg)
    converged = A[ok & (np.max(np.abs(A), axis=1) > cfg.dedup_radius)]
    return _classify_many(
        f, [a for a, _ in _pair_representatives(converged, cfg.dedup_radius)], cfg)


def _neighbourhood_min(G: np.ndarray) -> np.ndarray:
    """Minimum over each point's 3 x ... x 3 neighbourhood, the grid edges
    repeated outward.  The box minimum is separable, so it is taken one
    axis at a time on a copy of ``G``, each pass against a copy of the
    last: ``G``, the result and that copy are held."""
    out, last = G.copy(), np.empty_like(G)
    for ax in range(G.ndim):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        np.copyto(last, out)
        np.minimum(out[lo], last[hi], out=out[lo])
        np.minimum(out[hi], last[lo], out=out[hi])
    return out


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
    return [
        CriticalPoint(a=a, value=value, grad_norm=0.0, hess_eigs=eigs, morse_index=morse,
                      nondegenerate=nondeg, margin=margin)
        for A, eigs, value, morse, nondeg, margin in _gamma_family_table(
            alpha, beta, k, degeneracy_rtol)
        for a in A
    ]


def _gamma_family_table(alpha: float, beta: float, k: int, degeneracy_rtol: float):
    """Per support size i = 1..k: the points (supports in lexicographic
    order, each with every sign pattern), the Hessian spectrum, the value,
    the Morse index, nondegeneracy and margin they share."""
    gammas = GammaFamily(alpha, beta, k).gammas
    table = []
    for i in range(1, k + 1):
        g2 = gammas[i - 1] ** 2
        eigs = np.sort(np.concatenate([
            [-2.0],
            np.full(i - 1, (6.0 * beta - 2.0 * alpha) * g2),
            np.full(k - i, (alpha - 3.0 * beta) * g2),
        ]))
        margin = float(np.min(np.abs(eigs)))
        nondeg = margin > degeneracy_rtol * max(1.0, float(np.max(np.abs(eigs))))
        supports = np.array(list(itertools.combinations(range(k), i)))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=i)))
        A = np.zeros((len(supports), len(signs), k))
        A[np.arange(len(supports))[:, None, None], np.arange(len(signs))[:, None],
          supports[:, None, :]] = gammas[i - 1] * signs
        table.append((A.reshape(-1, k), eigs, i * g2 / 4.0, int(np.sum(eigs < 0.0)),
                      nondeg, margin))
    return table


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
