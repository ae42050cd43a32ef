"""Independent references for the benchmark's checks.

Nothing here imports bifurcbox: every quantity the checks compare the
program against is recomputed from first principles, for pi-sided boxes
(the square (0,pi)^2 and the cube (0,pi)^3).

* ``spectral_index``: j, by counting lattice modes strictly below lambda.
* ``quartic_tensor``: the integrals of products of four normalized
  eigenfunctions, from the product-to-sum rule for four sines.
* ``gradient``/``hessian``/``morse_index``: the reduced functional
  F(a) = |a|^2/2 - T(a,a,a,a)/4 at p = 3.
* ``box_symmetries``: the 8 (square) or 48 (cube) isometries of the box,
  as signed permutations of the coefficients of a group's eigenbasis.
* ``reference_pair_count``: (3^k - 1)/2 for two-coefficient tensors, else
  the size of a stored reference set (``refs.json``), which
  ``python3 bench/refs.py`` remakes with this module's own batched Newton
  plus closure under the box symmetries.

Run as a script, the module rewrites ``refs.json`` next to it.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).with_name("refs.json")
REMAKE_COMMAND = "python3 bench/refs.py"
# Stored reference sets: domain name and eigenvalue of every group that is
# not of two-coefficient form and therefore has no closed-form count.
STORED_CASES = (("cube", 14), ("cube", 27))
DIMENSION = {"square": 2, "cube": 3}


def group_modes(dim: int, lam: int) -> list[tuple[int, ...]]:
    """Index tuples n >= 1 with sum n_d^2 == lam, lexicographically sorted."""
    top = math.isqrt(lam)
    return [n for n in itertools.product(range(1, top + 1), repeat=dim)
            if sum(x * x for x in n) == lam]


def spectral_index(dim: int, lam: int) -> int:
    """1-based index j of lam in the spectrum counted with multiplicity."""
    top = math.isqrt(lam)
    below = sum(1 for n in itertools.product(range(1, top + 1), repeat=dim)
                if sum(x * x for x in n) < lam)
    return below + 1


def _cos_cos(p: int, q: int) -> Fraction:
    """integral_0^pi cos(p x) cos(q x) dx / pi for integers p, q >= 0."""
    if p != q:
        return Fraction(0)
    return Fraction(1) if p == 0 else Fraction(1, 2)


def four_sine_integral(a: int, b: int, c: int, d: int) -> Fraction:
    """integral_0^pi sin(ax) sin(bx) sin(cx) sin(dx) dx / pi, exact.

    sin(ax) sin(bx) = (cos((a-b)x) - cos((a+b)x)) / 2, and products of two
    cosines of integer frequency integrate by orthogonality.
    """
    u, v = abs(a - b), a + b
    s, t = abs(c - d), c + d
    return (_cos_cos(u, s) - _cos_cos(u, t) - _cos_cos(v, s)
            + _cos_cos(v, t)) / 4


def quartic_tensor(modes) -> np.ndarray:
    """T[i,h,l,m] = integral of e_i e_h e_l e_m over the pi-box, with
    e_n = prod_d sqrt(2/pi) sin(n_d x_d)."""
    k = len(modes)
    dim = len(modes[0])
    T = np.empty((k,) * 4)
    for combo in itertools.product(range(k), repeat=4):
        val = Fraction(1)
        for d in range(dim):
            # (2/pi)^2 per axis times pi * four_sine_integral
            val *= 4 * four_sine_integral(*(modes[i][d] for i in combo))
        T[combo] = float(val) / math.pi ** dim
    return T


def gradient(T: np.ndarray, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a - np.einsum("ihlm,h,l,m->i", T, a, a, a)


def hessian(T: np.ndarray, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.eye(len(a)) - 3.0 * np.einsum("ihlm,l,m->ih", T, a, a)


def morse_index(T: np.ndarray, a) -> int:
    return int(np.sum(np.linalg.eigvalsh(hessian(T, a)) < 0.0))


def pattern_coefficients(T: np.ndarray, rtol: float = 1e-12):
    """(alpha, beta) when T is alpha on (i,i,i,i), beta on the orderings of
    (i,i,l,l) with i != l and zero elsewhere; None otherwise."""
    k = T.shape[0]
    alpha = float(T[0, 0, 0, 0])
    beta = float(T[0, 0, 1, 1]) if k > 1 else 0.0
    ideal = np.zeros_like(T)
    for combo in itertools.product(range(k), repeat=4):
        counts = sorted(combo.count(i) for i in set(combo))
        if counts == [4]:
            ideal[combo] = alpha
        elif counts == [2, 2]:
            ideal[combo] = beta
    if np.max(np.abs(T - ideal)) > rtol * abs(alpha):
        return None
    return alpha, beta


def box_symmetries(modes) -> list[np.ndarray]:
    """Signed permutation matrices P with F(P a) = F(a), one per isometry
    of the pi-box: an axis permutation composed with reflections
    x_d -> pi - x_d, which multiply sin(n_d x_d) by (-1)^(n_d + 1)."""
    dim = len(modes[0])
    where = {n: i for i, n in enumerate(modes)}
    mats = []
    for perm in itertools.permutations(range(dim)):
        for flips in itertools.product((0, 1), repeat=dim):
            P = np.zeros((len(modes), len(modes)))
            for i, n in enumerate(modes):
                image = [0] * dim
                for d in range(dim):
                    image[perm[d]] = n[d]
                sign = (-1) ** sum((n[d] + 1) * flips[d] for d in range(dim))
                P[where[tuple(image)], i] = sign
            mats.append(P)
    return mats


def canonical(a, tol: float = 1e-6) -> np.ndarray:
    """Representative of {a, -a}: first entry above tol made positive."""
    a = np.asarray(a, dtype=float)
    for x in a:
        if abs(x) > tol:
            return -a if x < 0 else a.copy()
    return a.copy()


def same_pair_set(A, B, tol: float = 1e-6) -> bool:
    """Whether two lists of sign pairs agree up to tol in the max norm."""
    A = np.array([canonical(a) for a in A]).reshape(len(A), -1)
    B = np.array([canonical(b) for b in B]).reshape(len(B), -1)
    if A.shape != B.shape:
        return False
    if not len(A):
        return True
    dist = np.max(np.abs(A[:, None, :] - B[None, :, :]), axis=2)
    return bool(np.all(dist.min(axis=1) <= tol) and np.all(dist.min(axis=0) <= tol))


def orbit_closed(points, symmetries, tol: float = 1e-6) -> bool:
    """Whether every image of every sign pair is again in the set."""
    pts = [np.asarray(a, dtype=float) for a in points]
    if not pts:
        return True
    C = np.array([canonical(a) for a in pts])
    for P in symmetries:
        images = np.array([canonical(P @ a) for a in pts])
        dist = np.max(np.abs(images[:, None, :] - C[None, :, :]), axis=2)
        if np.any(dist.min(axis=1) > tol):
            return False
    return True


def newton_batch(T: np.ndarray, seeds: np.ndarray, tol: float = 1e-12,
                 max_iter: int = 100) -> np.ndarray:
    """Damped Newton on the gradient for many seeds at once; returns the
    converged nonzero rows."""
    A = np.array(seeds, dtype=float)
    k = A.shape[1]
    eye = np.eye(k)

    def grad_many(X):
        return X - np.einsum("ihlm,nh,nl,nm->ni", T, X, X, X, optimize=True)

    G = grad_many(A)
    gn = np.linalg.norm(G, axis=1)
    alive = np.ones(len(A), dtype=bool)
    for _ in range(max_iter):
        act = alive & (gn > tol)
        if not act.any():
            break
        X = A[act]
        H = eye - 3.0 * np.einsum("ihlm,nl,nm->nih", T, X, X, optimize=True)
        ok = np.abs(np.linalg.det(H)) > 1e-14
        step = np.zeros_like(X)
        step[ok] = np.linalg.solve(H[ok], -G[act][ok][:, :, None])[:, :, 0]
        gn_old = gn[act]
        X_new, G_new, gn_new = X.copy(), G[act].copy(), gn_old.copy()
        accepted = ~ok  # singular rows are dropped below, not searched
        for halvings in range(31):
            todo = np.flatnonzero(~accepted)
            if not len(todo):
                break
            s = 2.0 ** -halvings
            trial = X[todo] + s * step[todo]
            g_trial = grad_many(trial)
            n_trial = np.linalg.norm(g_trial, axis=1)
            good = (n_trial <= (1.0 - 1e-4 * s) * gn_old[todo]) | (n_trial <= tol)
            hit = todo[good]
            X_new[hit], G_new[hit], gn_new[hit] = trial[good], g_trial[good], n_trial[good]
            accepted[hit] = True
        stalled = ~accepted | ~ok
        act_idx = np.flatnonzero(act)
        alive[act_idx[stalled]] = False
        A[act_idx], G[act_idx], gn[act_idx] = X_new, G_new, gn_new
    done = alive & (gn <= tol) & (np.max(np.abs(A), axis=1) > 1e-6)
    return A[done]


def dedup(points, tol: float = 1e-6) -> list[np.ndarray]:
    reps: list[np.ndarray] = []
    for a in points:
        c = canonical(a, tol)
        if not reps or np.min(np.max(np.abs(np.array(reps) - c), axis=1)) > tol:
            reps.append(c)
    reps.sort(key=tuple)
    return reps


def solve_reference_set(modes, n_random: int = 20000, rng_seed: int = 12345):
    """All sign pairs of nontrivial critical points found from every
    {-1,0,1}^k pattern at four radii plus ``n_random`` random seeds, closed
    under the box symmetries."""
    T = quartic_tensor(modes)
    k = len(modes)
    scale = max(T[i, i, i, i] ** -0.5 for i in range(k))
    patterns = np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=k)
                         if any(s)])
    seeds = [r * scale * patterns for r in (0.25, 0.5, 1.0, 2.0)]
    rng = np.random.default_rng(rng_seed)
    d = rng.standard_normal((n_random, k))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    seeds.append(rng.uniform(0.25, 2.0, (n_random, 1)) * scale * d)
    found = dedup(newton_batch(T, np.vstack(seeds)))
    closed = dedup([P @ a for P in box_symmetries(modes) for a in found])
    return T, closed


def reference_pair_count(T: np.ndarray, stored=None) -> int | None:
    """(3^k - 1)/2 for two-coefficient tensors, else the stored set's size."""
    if pattern_coefficients(T) is not None:
        return (3 ** T.shape[0] - 1) // 2
    return None if stored is None else len(stored)


def discrete_group_eigenvalue(modes, grid: int) -> float:
    """Mean over the group of (4/h^2) sum_d sin^2(n_d pi / (2 N)), h = pi/N."""
    h = math.pi / grid
    vals = [4.0 / h ** 2 * sum(math.sin(n * math.pi / (2 * grid)) ** 2 for n in m)
            for m in modes]
    return sum(vals) / len(vals)


def load_stored() -> dict:
    """{(domain, lam): list of canonical pair vectors} from refs.json."""
    payload = json.loads(REFS_PATH.read_text())
    return {(c["domain"], c["lambda"]): [np.array(a) for a in c["pairs"]]
            for c in payload["cases"]}


def main() -> None:
    cases = []
    for domain, lam in STORED_CASES:
        modes = group_modes(DIMENSION[domain], lam)
        T, pairs = solve_reference_set(modes)
        if not orbit_closed(pairs, box_symmetries(modes)):
            raise RuntimeError(f"{domain} lambda={lam}: reference set not orbit-closed")
        cases.append({
            "domain": domain, "lambda": lam, "k": len(modes),
            "j": spectral_index(DIMENSION[domain], lam),
            "pair_count": len(pairs),
            "morse": [morse_index(T, a) for a in pairs],
            "pairs": [a.tolist() for a in pairs],
        })
        print(f"{domain} lambda={lam}: k={len(modes)}, {len(pairs)} pairs")
    payload = {
        "command": REMAKE_COMMAND,
        "method": "batched damped Newton on the sine-product tensor from "
                  "4 x (3^k - 1) pattern seeds and 20000 random seeds, "
                  "closed under the box symmetries",
        "cases": cases,
    }
    REFS_PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
