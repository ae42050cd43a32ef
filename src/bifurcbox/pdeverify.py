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
exactly.  The Newton residual and the H1 norm apply its eigenvalues in
sine coordinates, and the MINRES Newton steps and the Morse eigensolve
run on operators of one shape there: pointwise, transform, pointwise,
transform, pointwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .critpoints import BranchPrediction, CriticalPoint, SearchConfig, _newton_refine
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


def _sine_eigenvalues_1d(n: int, L: float) -> np.ndarray:
    """Eigenvalues of the 1-D second-difference operator on n-1 interior
    points: (4/h^2) sin^2(m pi / (2n)), m = 1..n-1."""
    h = L / n
    m = np.arange(1, n)
    return (4.0 / h**2) * np.sin(m * np.pi / (2 * n)) ** 2


class _SineTransform:
    """The discrete Dirichlet Laplacian A, held as its sine transform.

    The orthonormal type-I DST Q diagonalizes the 5/7-point stencil,
    A = Q D Q with D the stencil eigenvalues, and is its own inverse, so
    applying any function of A costs two transforms.  Each axis keeps its
    dense DST-I matrix S[i, m] = sqrt(2/(n+1)) sin(pi i m/(n+1)) (32 KB
    at n = 64) and applies it by matrix products: O(n) work per point per
    axis, against O(log n) for an FFT.  At the grids of 3-D verification
    the products win by far, since the FFT lengths 2(n+1) have awkward
    factors (66, 130); in 2-D an FFT catches up near 200 points per axis,
    and at 255^2 a transform pair costs about 1.3-1.4x an FFT pair on one
    x86 core.

    In 3-D each axis is a stack of n x n slice products rather than one
    GEMM over the whole grid.  On one thread both cost the same; but
    OpenBLAS splits a GEMM across threads once m n k exceeds 2^18, and on
    a busy machine those small split GEMMs wait on their threads: at
    32^3 on 2 vCPUs a transform pair as three whole-grid GEMMs averaged
    2.8 ms against a median of 0.4 ms.  Slice products of n <= 64 stay on
    one thread.
    """

    def __init__(self, shape, freq_1d):
        self.shape = tuple(shape)
        W = np.zeros(self.shape)
        for d, w in enumerate(freq_1d):
            bshape = [1] * len(self.shape)
            bshape[d] = -1
            W = W + w.reshape(bshape)
        self.eigenvalues = W
        self.matrices = []
        for n in self.shape:
            i = np.arange(1, n + 1)
            self.matrices.append(
                math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, i) / (n + 1))
            )

    def dst(self, vec: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I along every axis, returned in grid shape."""
        X = vec.reshape(self.shape)
        for d, S in enumerate(self.matrices[:-1]):
            # a stack of slice products; the strided views need no copy
            X = np.moveaxis(np.matmul(S, np.moveaxis(X, d, -2)), -2, d)
        return np.matmul(X, self.matrices[-1])

    def apply_spectral(self, vec: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """f(A) vec, for the f with values ``weights`` on D."""
        return self.dst(self.dst(vec) * weights).ravel()

    def operator(self, outer: np.ndarray, inner: np.ndarray,
                 diag: np.ndarray | None = None) -> spla.LinearOperator:
        """y -> diag y + outer Q(inner Q(outer y)), every factor pointwise
        in grid shape: an operator on sine coordinates."""

        def matvec(y):
            y = y.reshape(self.shape)
            out = outer * self.dst(inner * self.dst(outer * y))
            if diag is not None:
                out += diag * y
            return out.ravel()

        n = math.prod(self.shape)
        return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


@dataclass(frozen=True)
class DiscreteProblem:
    """Immutable discretization of a domain around one eigenvalue group;
    the stencil A = -lap_h is kept only as its sine ``transform``."""

    domain: DomainSpec
    group: EigenGroup
    grid: tuple[int, ...]          # subintervals per axis
    shape: tuple[int, ...]         # interior points per axis
    h: tuple[float, ...]
    weight: float                  # volume element prod(h)
    eigvecs: np.ndarray            # (n, k) group DST-I columns / sqrt(weight)
    lambda_h: float                # discrete group eigenvalue
    splitting: float               # spread of the discrete multiplet
    neighbor_gap: float            # distance to nearest non-group eigenvalue
    transform: _SineTransform = field(repr=False)

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    def inner(self, u, v) -> float:
        return self.weight * float(u @ v)

    def norm_l2(self, u) -> float:
        return math.sqrt(self.inner(u, u))

    def norm_h1(self, u) -> float:
        Q = self.transform
        return math.sqrt(self.weight * float(np.sum(Q.eigenvalues * Q.dst(u) ** 2)))

    def project(self, v) -> np.ndarray:
        """Discrete L2 projections of v onto the group basis."""
        return self.weight * (self.eigvecs.T @ v)


def _discrete_mode_value(freq_1d, indices) -> float:
    # summing in sorted order makes permuted modes bit-identical
    return math.fsum(sorted(freq_1d[d][i - 1] for d, i in enumerate(indices)))


def build_laplacian(domain: DomainSpec, grid, group: EigenGroup) -> DiscreteProblem:
    """Standard second-order stencil with Dirichlet elimination, held as
    its sine transform.  The group basis is the transform's own DST-I
    columns, the exact and orthonormal discrete eigenvectors of the group's
    modes, and the neighbour gap is read off the whole discrete spectrum.

    Raises :class:`GridTooCoarse` when the discrete multiplet splitting
    exceeds half the gap to the nearest non-group discrete eigenvalue.
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
    freq_1d = [_sine_eigenvalues_1d(g, L) for g, L in zip(grid, sides)]
    transform = _SineTransform(shape, freq_1d)

    group_vals = [_discrete_mode_value(freq_1d, m.indices) for m in group.modes]
    lambda_h = float(np.mean(group_vals))
    splitting = float(max(group_vals) - min(group_vals))

    # every discrete eigenvalue is in D; the group's own sit at indices - 1
    positions = tuple(np.array([m.indices for m in group.modes]).T - 1)
    dist = np.abs(transform.eigenvalues - lambda_h)
    dist[positions] = np.inf
    neighbor_gap = float(dist.min())
    if splitting > 0.5 * neighbor_gap:
        raise GridTooCoarse(
            f"discrete multiplet splits by {splitting:.3e} against a "
            f"neighbor gap of {neighbor_gap:.3e}; refine or symmetrize the grid"
        )

    weight = float(np.prod(hs))
    E = np.column_stack([
        functools.reduce(np.multiply.outer,
                         [S[:, i - 1] for S, i in zip(transform.matrices, m.indices)]).ravel()
        for m in group.modes
    ]) / math.sqrt(weight)

    return DiscreteProblem(
        domain=domain, group=group, grid=grid, shape=shape, h=hs, weight=weight,
        eigvecs=E, lambda_h=lambda_h, splitting=splitting,
        neighbor_gap=neighbor_gap, transform=transform,
    )


@dataclass
class ContinuationRecord:
    """Diagnostics of one converged PDE solve at one lambda."""

    lam: float
    epsilon: float
    v: np.ndarray
    a_lambda: np.ndarray
    phi_norm: float
    newton_residual: float
    residual_history: list[float]
    u_l2_norm: float
    discrete_morse_index: int | None = None
    near_zero_mu: np.ndarray | None = None


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


def _linear_solve(dp: DiscreteProblem, lam: float, extra: np.ndarray,
                  rhs: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Newton-step solve of (A - lam - diag(extra)) x = rhs in any dimension.

    MINRES (the matrix is symmetric indefinite near a bifurcation, which
    rules out plain CG) runs split-preconditioned by |A - lam|^(-1/2) in
    sine coordinates: with w = |D - lam|^(-1/2) it solves T y = w Q rhs,
    T = w (D - lam) w - w Q extra Q w, and returns x = Q (w y) with
    MINRES's ``info``; a nonzero ``info`` is a stall."""
    Q = dp.transform
    shift = Q.eigenvalues - lam
    w = np.maximum(np.abs(shift), 1e-10) ** -0.5
    T = Q.operator(w, -extra.reshape(Q.shape), diag=w * shift * w)
    y, info = spla.minres(T, (w * Q.dst(rhs)).ravel(), rtol=rtol, maxiter=2000)
    return Q.dst(w * y.reshape(Q.shape)).ravel(), info


def solve_branch(
    dp: DiscreteProblem,
    a,
    epsilon: float,
    p: float = 3.0,
    v0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
    linear_rtol: float = 1e-12,
    all_pairs=None,
    expected_index: int | None = None,
) -> ContinuationRecord:
    """Damped Newton solve of the rescaled equation at lambda_h - epsilon,
    started from the predicted eigenspace profile a . e (or ``v0``).

    Convergence is to discrete-L2 residual ``tol``.  When ``all_pairs`` is
    given, the converged projection must be nearest the launched pair, of
    every pair and the trivial solution, or :class:`ConvergedToWrongBranch`
    is raised.
    """
    _check_exponent(dp.domain, p)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a = np.asarray(a, dtype=float)
    lam = dp.lambda_h - epsilon
    v = dp.eigvecs @ a if v0 is None else v0.copy()
    Q = dp.transform

    def residual(vec):
        return (Q.apply_spectral(vec, Q.eigenvalues) - lam * vec
                - epsilon * np.abs(vec) ** (p - 1.0) * vec)

    r = residual(v)
    rn = dp.norm_l2(r)
    history = [rn]
    for _ in range(max_iter):
        if rn <= tol:
            break
        f = epsilon * p * np.abs(v) ** (p - 1.0)
        step, info = _linear_solve(dp, lam, f, -r, linear_rtol)
        if info != 0:
            raise NewtonDiverged(
                f"MINRES stalled (info={info}) at eps={epsilon:g} "
                f"(residual {rn:.3e})",
                history,
            )
        s = 1.0
        while s >= 2.0**-30:
            v_new = v + s * step
            r_new = residual(v_new)
            rn_new = dp.norm_l2(r_new)
            if rn_new <= (1.0 - 1e-4 * s) * rn or rn_new <= tol:
                break
            s *= 0.5
        else:
            raise NewtonDiverged(
                f"line search stalled at eps={epsilon:g} (residual {rn:.3e})",
                history,
            )
        v, r, rn = v_new, r_new, rn_new
        history.append(rn)
    if rn > tol:
        raise NewtonDiverged(
            f"no convergence in {max_iter} iterations at eps={epsilon:g} "
            f"(residual {rn:.3e})",
            history,
        )

    a_lam = dp.project(v)
    phi = v - dp.eigvecs @ a_lam
    record = ContinuationRecord(
        lam=lam,
        epsilon=epsilon,
        v=v,
        a_lambda=a_lam,
        phi_norm=dp.norm_h1(phi),
        newton_residual=rn,
        residual_history=history,
        u_l2_norm=epsilon ** (1.0 / (p - 1.0)) * dp.norm_l2(v),
    )

    if all_pairs is not None and expected_index is not None and np.any(a != 0.0):
        dists = [min(float(np.max(np.abs(a_lam - b))), float(np.max(np.abs(a_lam + b))))
                 for b in all_pairs]
        dists.append(float(np.max(np.abs(a_lam))))  # the trivial solution
        nearest = int(np.argmin(dists))
        if nearest != expected_index:
            trivial = nearest == len(all_pairs)
            raise ConvergedToWrongBranch(
                f"solve launched at pair {expected_index} landed at "
                + ("the trivial solution" if trivial else f"pair {nearest}"),
                got=a_lam, expected=a, nearest_index=None if trivial else nearest,
            )
    return record


def discrete_morse_index(
    dp: DiscreteProblem,
    record: ContinuationRecord,
    p: float = 3.0,
    n_extra: int = 2,
    zero_tol: float = 1e-10,
    rng_seed: int = 0,
) -> tuple[int, np.ndarray]:
    """Morse index of a discrete solution and the k transported eigenvalues
    nearest zero.

    The weighted eigenproblem transports the linearization's inertia onto
    the pencil (A - lambda I - eps F) x = mu A x with F = diag(p |v|^(p-1));
    since A is positive definite, the number of negative mu equals the
    inertia of the shifted matrix, so counting the smallest pencil
    eigenvalues gives the Morse index directly.  Whitening with A^(-1/2)
    turns the pencil into the standard problem mu = 1 - kappa, kappa an
    eigenvalue of K = A^(-1/2) (lambda + eps F) A^(-1/2).  In sine
    coordinates K is D^(-1/2) Q c Q D^(-1/2), with Q the sine transform, D
    the stencil eigenvalues and c = lambda + eps F pointwise, so ARPACK
    needs neither a mass matrix nor a Jacobian, only two transforms per
    matvec.  K <= max(c) D^(-1) bounds the negative mu, which sizes the window.

    ARPACK runs to the relative tolerance ``zero_tol``: the near-zero mu
    have kappa close to 1, so they come out accurate to about ``zero_tol``,
    the scale below which the verdict is deferred anyway.  A tighter
    tolerance buys no verdict and makes the restart count chaotic.
    """
    j, k = dp.group.j, dp.group.k
    Q = dp.transform
    c = (record.lam + record.epsilon * p * np.abs(record.v) ** (p - 1.0)).reshape(Q.shape)
    K = Q.operator(Q.eigenvalues ** -0.5, c)
    rng = np.random.default_rng(rng_seed)
    v0 = rng.standard_normal(dp.n)

    ell = max(j - 1 + k + n_extra, int(np.sum(Q.eigenvalues <= c.max())) + 1)
    kappa = spla.eigsh(
        K, k=min(ell, dp.n - 1), which="LA", v0=v0, maxiter=20000, tol=zero_tol,
        return_eigenvectors=False,
    )
    vals = np.sort(1.0 - kappa)
    if vals[-1] <= 0.0:
        raise SpectrumTooClose("the certified Morse window holds no positive mu")

    morse = int(np.sum(vals < 0.0))
    near_zero = vals[np.argsort(np.abs(vals))[:k]]
    near_zero = np.sort(near_zero)
    if np.any(np.abs(near_zero) < zero_tol):
        raise SpectrumTooClose(
            "a transported eigenvalue sits at zero to rounding; defer the "
            "verdict to a smaller epsilon"
        )
    return morse, near_zero


def discrete_reference_point(dp: DiscreteProblem, a, p: float = 3.0,
                             max_iter: int = 40, tol: float = 1e-13) -> np.ndarray:
    """Critical point of the grid-sum reduced functional nearest ``a``.

    This is the exact eps -> 0 limit of the discrete branch projections;
    fitting convergence orders against it separates the eps asymptotics
    from the O(h^2) discretization bias.  The grid sum is a quadrature
    functional with the grid points as nodes.
    """
    f = ReducedFunctional(dp.group.k, p, "quadrature", quad_points=dp.eigvecs,
                          quad_weights=np.full(dp.n, dp.weight))
    return _newton_refine(f, a, SearchConfig(newton_tol=tol, max_iter=max_iter))[0][0]


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
    rng_seed: int = 0


def geometric_schedule(eps0: float, steps: int, ratio: float = 0.5) -> list[float]:
    """eps0, eps0 ratio, ..., eps0 ratio^(steps-1): positive and decreasing."""
    if not eps0 > 0:
        raise ValueError(f"eps0 must be positive, got {eps0:g}")
    if steps < 1:
        raise ValueError(f"eps_steps must be at least 1, got {steps}")
    if not 0 < ratio < 1:
        raise ValueError(f"eps_ratio must lie strictly between 0 and 1, got {ratio:g}")
    return [eps0 * ratio**t for t in range(steps)]


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
    """
    cfg = cfg or VerifyConfig()
    p = prediction.p
    _check_exponent(dp.domain, p)
    schedule = sorted(float(e) for e in eps_schedule)[::-1]
    if not schedule:
        raise ValueError("empty eps schedule")
    all_pairs = [cp.a for cp in prediction.pairs]
    verdicts = []

    for i, cp in enumerate(prediction.pairs):
        target = cp.morse_index + dp.group.j - 1
        verdict = BranchVerdict(
            pair_index=i, predicted=cp, target_morse=target, records=[],
        )
        a_ref = discrete_reference_point(dp, cp.a, p)
        v0 = None
        morse_by_eps = []
        for eps in schedule:
            try:
                rec = solve_branch(
                    dp, cp.a, eps, p, v0=v0, tol=cfg.newton_tol,
                    max_iter=cfg.max_newton, linear_rtol=cfg.linear_rtol,
                    all_pairs=all_pairs, expected_index=i,
                )
            except (NewtonDiverged, ConvergedToWrongBranch) as exc:
                verdict.notes.append(f"eps={eps:g}: {exc}")
                verdict.inconclusive = True
                continue
            v0 = rec.v
            if cfg.morse:
                try:
                    morse, nz = discrete_morse_index(
                        dp, rec, p, rng_seed=cfg.rng_seed
                    )
                    rec.discrete_morse_index = morse
                    rec.near_zero_mu = nz
                    morse_by_eps.append((eps, morse))
                except SpectrumTooClose as exc:
                    verdict.notes.append(f"eps={eps:g}: {exc}")
            verdict.records.append(rec)

        if not verdict.records:
            verdict.inconclusive = True
            verdicts.append(verdict)
            continue

        eps_done = [r.epsilon for r in verdict.records]
        err_a = [float(np.linalg.norm(r.a_lambda - a_ref)) for r in verdict.records]
        verdict.order_a = fit_order(eps_done, err_a)
        verdict.order_phi = fit_order(eps_done, [r.phi_norm for r in verdict.records])

        last = verdict.records[-1]
        verdict.a_ok = bool(
            np.linalg.norm(last.a_lambda - cp.a)
            <= cfg.a_rtol * np.linalg.norm(cp.a) + 1e-30
        )
        if verdict.order_phi is not None:
            verdict.phi_ok = verdict.order_phi >= cfg.min_phi_order

        if cfg.morse and morse_by_eps:
            threshold = None
            for eps, morse in morse_by_eps:  # descending in eps
                if morse == target:
                    if threshold is None:
                        threshold = eps
                else:
                    threshold = None
            verdict.morse_threshold = threshold
            verdict.morse_ok = threshold is not None and morse_by_eps[-1][1] == target
        if cfg.morse and last.near_zero_mu is not None:
            scaled = np.sort(last.near_zero_mu * dp.lambda_h / last.epsilon)
            target_eigs = np.sort(cp.hess_eigs)
            rel = float(
                np.max(np.abs(scaled - target_eigs) / np.maximum(np.abs(target_eigs), 1e-30))
            )
            verdict.eig_scaled = scaled.tolist()
            verdict.eig_rel_err = rel
            verdict.eig_ok = rel <= cfg.mu_rtol
        verdicts.append(verdict)

    _check_distinctness(dp, verdicts, cfg.dedup_radius)
    return verdicts


def _check_distinctness(dp: DiscreteProblem, verdicts, radius: float) -> None:
    """Distinct predicted pairs must never land on the same discrete
    solution (modulo sign) at the finest common continuation step."""
    final = [(v, v.records[-1]) for v in verdicts if v.records]
    if len(final) < 2:
        for v, _ in final:
            v.distinct_ok = True
        return
    eps_min = min(rec.epsilon for _, rec in final)
    at_min = [(v, rec) for v, rec in final if rec.epsilon == eps_min]
    for v, _ in at_min:
        v.distinct_ok = True
    for (v1, r1), (v2, r2) in ((a, b) for ai, a in enumerate(at_min)
                               for b in at_min[ai + 1:]):
        d = min(dp.norm_l2(r1.v - r2.v), dp.norm_l2(r1.v + r2.v))
        if d <= radius:
            v1.distinct_ok = False
            v2.distinct_ok = False
            v1.notes.append(
                f"coincides with pair {v2.pair_index} at eps={eps_min:g}"
            )
            v2.notes.append(
                f"coincides with pair {v1.pair_index} at eps={eps_min:g}"
            )


def verdict_to_dict(v: BranchVerdict) -> dict:
    return {
        "pair_index": v.pair_index,
        "a": v.predicted.a.tolist(),
        "m": v.predicted.morse_index,
        "target_morse": v.target_morse,
        "order_a": v.order_a,
        "order_phi": v.order_phi,
        "a_ok": v.a_ok,
        "phi_ok": v.phi_ok,
        "morse_ok": v.morse_ok,
        "morse_threshold": v.morse_threshold,
        "eig_scaled": v.eig_scaled,
        "eig_rel_err": v.eig_rel_err,
        "eig_ok": v.eig_ok,
        "distinct_ok": v.distinct_ok,
        "inconclusive": v.inconclusive,
        "passed": v.passed,
        "notes": v.notes,
        "records": [
            {
                "lambda": r.lam,
                "epsilon": r.epsilon,
                "a_lambda": r.a_lambda.tolist(),
                "phi_norm": r.phi_norm,
                "newton_residual": r.newton_residual,
                "u_l2_norm": r.u_l2_norm,
                "discrete_morse_index": r.discrete_morse_index,
                "near_zero_mu": None if r.near_zero_mu is None else r.near_zero_mu.tolist(),
            }
            for r in v.records
        ],
    }


def diagram_rows(verdict: BranchVerdict) -> list[list[float]]:
    """Whitespace-delimited plot data: lambda, |u|_L2, a_lambda components,
    remainder norm, Morse index."""
    rows = []
    for r in verdict.records:
        morse = -1 if r.discrete_morse_index is None else r.discrete_morse_index
        rows.append(
            [r.lam, r.u_l2_norm, *r.a_lambda.tolist(), r.phi_norm, float(morse)]
        )
    return rows
