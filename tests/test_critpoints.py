import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import bifurcbox as bb
from bifurcbox import critpoints
from bifurcbox.critpoints import (
    Certificate,
    SearchConfig,
    _box_group,
    _box_isometries,
    _closed_form_points,
    _homotopy_roots,
    _images,
    _neighbourhood_min,
    _newton_refine,
    _orbit_union_size,
    _orbits,
    _pair_representatives,
    _solve_rows,
    _start_orbits,
    canonicalize,
    pair_set_distance,
)
from bifurcbox.errors import (
    DegeneratePresentWarning,
    PatternMismatch,
    SuspectedDegenerateWarning,
)
from bifurcbox.reduced import QuarticTensor, extract_rect_coefficients

from conftest import node_functional

PI = math.pi


@pytest.fixture(scope="module")
def sq5_points(f_sq5):
    return bb.find_critical_points(f_sq5)


@pytest.fixture(scope="module")
def cube6_points(f_cube6):
    return bb.find_critical_points(f_cube6)


def gamma_magnitudes(f):
    co = extract_rect_coefficients(f.tensor)
    return [(co.alpha + 3 * i * co.beta) ** -0.5 for i in range(f.k)]


def sequential_pairs(candidates, radius):
    """The greedy pair rule one candidate at a time, O(n^2), with the
    scalar canonical form: (representative, first position), sorted."""
    reps = np.empty((len(candidates), len(candidates[0]) if len(candidates) else 0))
    first = []
    for i, a in enumerate(candidates):
        c = -a if next((x for x in a if abs(x) > radius), 0.0) < 0 else a.copy()
        if np.all(np.max(np.abs(reps[:len(first)] - c), axis=1) > radius):
            reps[len(first)] = c + 0.0  # no -0.0
            first.append(i)
    order = sorted(range(len(first)), key=lambda r: tuple(np.round(reps[r], 10)))
    return [(reps[r], first[r]) for r in order]


def sequential_orbits(X, src, sign, tol):
    """The orbit rule one row at a time, against every image of every
    earlier opening row: (first, element, stab)."""
    first, element, stab = [], [], []
    openers, images = [], np.empty((0, *src.shape), dtype=X.dtype)
    for i, x in enumerate(X):
        fixed = np.max(np.abs(x[src] * sign - x), axis=1) <= tol[i]
        hits = np.argwhere(np.max(np.abs(images - x), axis=2) <= tol[i])  # opener-major
        if len(hits):
            first.append(openers[hits[0, 0]])
            element.append(hits[0, 1])
        else:
            first.append(i)
            element.append(np.argmax(fixed))
            openers.append(i)
            images = np.concatenate([images, (x[src] * sign)[None]])
        stab.append(np.sum(fixed))
    return np.array(first), np.array(element), np.array(stab)


def assert_same_pairs(got, expected):
    assert [i for _, i in got] == [i for _, i in expected]
    for (rep, _), (ref, _) in zip(got, expected):
        assert np.array_equal(rep, ref) and not np.any(np.signbit(rep) & (rep == 0.0))


class TestFindCriticalPoints:
    def test_simple_eigenvalue_single_pair(self, f_sq1):
        pts = bb.find_critical_points(f_sq1)
        assert len(pts) == 1
        a0 = f_sq1.tensor.entries[0, 0, 0, 0] ** (-1.0 / 2.0)
        assert pts[0].a == pytest.approx([a0], abs=1e-10)
        assert pts[0].a == pytest.approx([2 * PI / 3], abs=1e-10)
        assert pts[0].morse_index == 1
        assert pts[0].nondegenerate
        assert pts[0].grad_norm <= 1e-12

    def test_square_five_four_pairs(self, sq5_points, f_sq5):
        assert len(sq5_points) == 4
        g1, g2 = gamma_magnitudes(f_sq5)
        expected = [
            np.array([0.0, g1]),
            np.array([g1, 0.0]),
            np.array([g2, g2]),
            np.array([g2, -g2]),
        ]
        assert pair_set_distance([p.a for p in sq5_points], expected) <= 1e-9
        assert Counter(p.morse_index for p in sq5_points) == {2: 2, 1: 2}

    def test_cube_thirteen_pairs(self, cube6_points):
        assert len(cube6_points) == 13
        assert Counter(p.morse_index for p in cube6_points) == {3: 3, 2: 6, 1: 4}
        assert Counter(p.support_size for p in cube6_points) == {1: 3, 2: 6, 3: 4}

    def test_lambda50_thirteen_pairs(self, square, sq_g50):
        f = bb.ReducedFunctional.for_group(sq_g50, square)
        pts = bb.find_critical_points(f)
        assert len(pts) == 13
        assert Counter(p.morse_index for p in pts) == {3: 3, 2: 6, 1: 4}

    def test_gradient_norms_within_tolerance(self, sq5_points, cube6_points):
        for p in sq5_points + cube6_points:
            assert p.grad_norm <= 1e-12

    def test_morse_bound(self, sq5_points, cube6_points):
        for pts, k in ((sq5_points, 2), (cube6_points, 3)):
            for p in pts:
                assert 1 <= p.morse_index <= k

    def test_unconverged_seeds_are_not_fatal(self, f_sq5):
        pts = bb.find_critical_points(f_sq5, SearchConfig(max_iter=1, seed_budget=10))
        assert isinstance(pts, list)  # nothing converges in one step, no raise

    def test_deterministic_order(self, f_sq5, sq5_points):
        again = bb.find_critical_points(f_sq5)
        assert len(again) == len(sq5_points)
        for a, b in zip(again, sq5_points):
            assert np.array_equal(a.a, b.a)

    def test_pair_order_ignores_rounding(self, cube):
        # cube lambda=14 has pairs whose leading coordinates agree up to
        # rounding, and zero coordinates that canonicalization negates
        f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=14), cube)
        reps = np.array([p.a for p in bb.find_critical_points(f)])
        assert not np.any((reps == 0.0) & np.signbit(reps))
        noise = 1e-15 * np.random.default_rng(0).choice([-1.0, 1.0], reps.shape)
        for shifted in (reps + noise, reps - noise):
            got = np.array([rep for rep, _ in _pair_representatives(shifted, 1e-6)])
            assert np.max(np.abs(got - reps)) <= 1e-14

    def test_batched_newton_equals_row_by_row(self, square):
        # square lambda=65's structured seeds include singular Hessian
        # solves, so the ridge fallback runs inside a batch and alone
        f = bb.ReducedFunctional.for_group(bb.find_group(square, eigenvalue=65), square)
        cfg = SearchConfig()
        patterns = np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=f.k)
                             if any(s)])
        seeds = np.concatenate([r * f.mode_scale() * patterns for r in critpoints._RADII])
        A, ok = _newton_refine(f, seeds, cfg)
        rows = [_newton_refine(f, s, cfg) for s in seeds]
        assert np.array_equal(ok, [r_ok[0] for _, r_ok in rows])
        assert np.max(np.abs(A - np.array([a[0] for a, _ in rows]))) <= 1e-12

    def test_singular_solves_are_bisected(self, monkeypatch):
        # a failed stacked solve is halved until the singular rows stand
        # alone; every other row keeps its own LAPACK solve, bit for bit
        rng = np.random.default_rng(4)
        n, singular = 200, [3, 101, 102]
        H = rng.standard_normal((n, 3, 3)) + 4.0 * np.eye(3)
        H[singular] = np.diag([1.0, 0.0, 2.0])
        G = rng.standard_normal((n, 3))
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        steps = _solve_rows(H, -G)
        assert len(calls) <= 1 + len(singular) * (2 * math.ceil(math.log2(n)) + 1)
        monkeypatch.undo()
        rows = np.array([_solve_rows(h[None], -g[None])[0] for h, g in zip(H, G)])
        assert np.array_equal(steps, rows)
        assert np.all(np.isfinite(steps))


class TestOracle:
    def test_simple_case(self, f_sq1):
        pts = bb.brute_force_oracle(f_sq1)
        assert len(pts) == 1
        assert pts[0].a == pytest.approx([2 * PI / 3], abs=1e-9)

    def test_oracle_equivalence_k2(self, f_sq5, sq5_points):
        oracle = bb.brute_force_oracle(f_sq5)
        dist = pair_set_distance([p.a for p in sq5_points], [p.a for p in oracle])
        assert dist <= 1e-6

    def test_oracle_equivalence_k3(self, f_cube6, cube6_points):
        oracle = bb.brute_force_oracle(f_cube6)
        assert len(oracle) == 13
        dist = pair_set_distance([p.a for p in cube6_points], [p.a for p in oracle])
        assert dist <= 1e-6

    def test_quadrature_oracle_agrees_with_exact(self, f_sq5, square, sq_g5):
        # the row scan of the node evaluators, and the quadrature tensor
        exact = bb.brute_force_oracle(f_sq5)
        for quadr in (node_functional(sq_g5, square),
                      bb.ReducedFunctional.for_group(sq_g5, square, backend="quadrature")):
            approx = bb.brute_force_oracle(quadr)
            assert len(approx) == len(exact) == 4
            assert pair_set_distance([p.a for p in exact], [p.a for p in approx]) <= 1e-6

    @pytest.mark.parametrize("shape", [(7,), (6, 5), (5, 4, 6)])
    def test_neighbourhood_min_matches_loop(self, shape):
        G = np.random.default_rng(3).integers(0, 4, shape).astype(float)
        expected = np.empty_like(G)
        for idx in np.ndindex(shape):
            box = tuple(slice(max(i - 1, 0), i + 2) for i in idx)
            expected[idx] = G[box].min()
        assert np.array_equal(_neighbourhood_min(G), expected)

    @pytest.mark.parametrize("slab", [None, 16])
    @pytest.mark.parametrize("case, backend, step", [
        ("sq1", "exact-quartic", 0.02), ("sq5", "exact-quartic", 0.02),
        ("cube6", "exact-quartic", 0.02), ("sq50", "exact-quartic", 0.02),
        ("sq1", "quadrature", 0.02), ("sq5", "quadrature", 0.05),
        ("cube6", "quadrature", 0.125),  # the default step takes about a minute
    ])
    def test_slab_scan_starts_are_the_whole_grid_scan(self, case, backend, step, slab,
                                                      square, cube, monkeypatch):
        # the oracle's Newton starts, in order, against one scan of the whole
        # grid and an edge-padded 3^k shifted minimum; a 16-point slab puts
        # every k in several slabs, one plane each at k = 2 and 3; the
        # quadrature rows scan the node evaluators
        domain, lam = {"sq1": (square, 2), "sq5": (square, 5),
                       "cube6": (cube, 6), "sq50": (square, 50)}[case]
        group = bb.find_group(domain, eigenvalue=lam)
        f = (bb.ReducedFunctional.for_group(group, domain) if backend == "exact-quartic" else
             node_functional(group, domain))
        R = 2.5 * f.mode_scale()
        axis = np.linspace(-R, R, int(np.ceil(2.0 / step)) + 1)
        G = f.gradient_sq_grid(axis)
        padded, M = np.pad(G, 1, mode="edge"), np.full_like(G, np.inf)
        for shift in itertools.product(range(3), repeat=f.k):
            np.minimum(M, padded[tuple(slice(s, s + len(axis)) for s in shift)], out=M)
        expected = np.column_stack([axis[i] for i in np.nonzero(G <= M)])

        if slab is not None:
            monkeypatch.setattr(critpoints, "_SLAB", slab)
        refine, starts = critpoints._newton_refine, []
        monkeypatch.setattr(critpoints, "_newton_refine",
                            lambda f, A0, cfg: starts.append(A0) or refine(f, A0, cfg))
        bb.brute_force_oracle(f, grid_step_frac=step)
        assert np.array_equal(starts[0], expected)

    def test_each_plane_is_scanned_once(self, square, sq_g50, monkeypatch):
        # 101 planes at k = 3 in slabs of 12: each slab's lower halo and
        # first plane are carried over from the slab before, not evaluated
        # again (117 evaluations when they were)
        f = bb.ReducedFunctional.for_group(sq_g50, square)
        scan, planes = f.gradient_sq_grid, []
        monkeypatch.setattr(f, "gradient_sq_grid",
                            lambda axes: planes.append(len(axes[0])) or scan(axes))
        bb.brute_force_oracle(f)
        assert sum(planes) == 101 and len(planes) == 9

    def test_oracle_peak_memory(self, square, sq_g50):
        # the scan walks slabs of 12 planes of the 101^3 grid plus two halo
        # planes (1,142,512 bytes); the oracle peaks at about 3.63 MB on this
        # k = 3 group, three slab arrays in _neighbourhood_min, where one
        # scan of the whole grid held two 101^3 grids (8,242,408 bytes each)
        f = bb.ReducedFunctional.for_group(sq_g50, square)
        bb.brute_force_oracle(f)
        tracemalloc.start()
        try:
            bb.brute_force_oracle(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_000_000

    def test_rejects_large_k(self):
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(4, 9.0, 4.0))
        with pytest.raises(ValueError):
            bb.brute_force_oracle(f)


class TestGammaFamily:
    def test_counts_and_magnitudes(self):
        for k in (1, 2, 3):
            pts = bb.gamma_family_solutions(9.0, 4.0, k)
            assert len(pts) == 3**k - 1
            fam = bb.GammaFamily(9.0, 4.0, k)
            for p in pts:
                i = p.support_size
                mags = np.abs(p.a[np.abs(p.a) > 0])
                assert mags == pytest.approx(fam.gammas[i - 1], rel=1e-14)

    def test_morse_partition_k2(self):
        pts = bb.gamma_family_solutions(9.0, 4.0, 2)
        assert Counter(p.morse_index for p in pts) == {2: 4, 1: 4}

    def test_morse_partition_k3(self):
        pts = bb.gamma_family_solutions(9.0, 4.0, 3)
        counts = Counter(p.morse_index for p in pts)
        assert counts == {3: 6, 2: 12, 1: 8}  # as pairs: 3, 6, 4

    def test_gammas_strictly_decreasing(self):
        fam = bb.GammaFamily(9.0, 4.0, 4)
        assert np.all(np.diff(fam.gammas) < 0)

    def test_equivalence_with_search(self, f_sq5, sq5_points, f_cube6, cube6_points):
        for f, pts in ((f_sq5, sq5_points), (f_cube6, cube6_points)):
            fam = bb.gamma_family_from_functional(f)
            dist = pair_set_distance([p.a for p in pts], [p.a for p in fam])
            assert dist <= 1e-6

    def test_block_eigenvalue_closed_forms(self, f_sq5, f_cube6):
        # Hessian spectrum at a support-i point: -2 exactly, (6b - 2a) g_i^2
        # with multiplicity i-1, (a - 3b) g_i^2 with multiplicity k-i
        for f in (f_sq5, f_cube6):
            co = extract_rect_coefficients(f.tensor)
            for p in bb.gamma_family_from_functional(f):
                i = p.support_size
                g2 = (co.alpha + 3 * (i - 1) * co.beta) ** -1.0
                expected = np.sort(np.concatenate([
                    [-2.0],
                    np.full(i - 1, (6 * co.beta - 2 * co.alpha) * g2),
                    np.full(f.k - i, (co.alpha - 3 * co.beta) * g2),
                ]))
                direct = np.linalg.eigvalsh(f.hessian(p.a))
                assert np.max(np.abs(direct - expected)) <= 1e-8
                assert np.max(np.abs(np.sort(p.hess_eigs) - expected)) <= 1e-8

    def test_pattern_mismatch_raises(self):
        T = QuarticTensor.from_pattern(2, 9.0, 4.0).entries.copy()
        T[0, 0, 0, 0] = 11.0  # break the equal-diagonal requirement
        f = bb.ReducedFunctional.from_tensor(QuarticTensor(2, T))
        with pytest.raises(PatternMismatch):
            bb.gamma_family_from_functional(f)


class TestCountLaw:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_synthetic_pattern_tensors(self, k):
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(k, 9.0, 4.0))
        pts = bb.find_critical_points(f)
        assert len(pts) == (3**k - 1) // 2


class TestSearchDiagnostics:
    def test_oracle_checkable_at_low_k(self, f_sq5, sq_g5, square):
        # p = 3 counts roots on either backend; "oracle-checkable" is left
        # to the multistart at p != 3
        quadr = bb.ReducedFunctional.for_group(sq_g5, square, backend="quadrature")
        for f in (f_sq5, quadr):
            pts, diag = bb.find_critical_points_with_diagnostics(f)
            assert len(pts) == 4
            assert diag.completeness == "certified"
            assert diag.certificate == Certificate("closed form", 9, 9)
            assert diag.n_converged + diag.n_failed <= diag.n_seeds
            assert diag.saturated
        multistart = bb.ReducedFunctional.for_group(sq_g5, square, p=2.5)
        pts, diag = bb.find_critical_points_with_diagnostics(multistart)
        assert len(pts) == 4
        assert diag.completeness == "oracle-checkable" and diag.certificate is None
        assert diag.n_converged + diag.n_failed <= diag.n_seeds
        assert diag.saturated

    def test_conjectured_exact_at_k4(self, square):
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(4, 9.0, 4.0))
        pts, diag = bb.find_critical_points_with_diagnostics(f)
        assert len(pts) == 40
        assert diag.saturated
        assert diag.completeness == "certified"
        assert diag.certificate == Certificate("closed form", 81, 81)
        # the quadrature backend certifies the k = 4 group at p = 3, and its
        # multistart at p != 3 calls a saturated search "conjectured exact"
        group = bb.find_group(square, eigenvalue=65)
        quadr = bb.ReducedFunctional.for_group(group, square, backend="quadrature")
        pts, diag = bb.find_critical_points_with_diagnostics(quadr)
        assert len(pts) == 40 and diag.completeness == "certified"
        assert diag.certificate == Certificate("closed form", 81, 81)
        multistart = bb.ReducedFunctional.for_group(group, square, p=2.5)
        pts, diag = bb.find_critical_points_with_diagnostics(multistart)
        assert len(pts) == 40
        assert diag.saturated
        assert diag.completeness == "conjectured exact"
        assert diag.last_new_pair_seed < diag.n_seeds // 2


class TestCertifiedSearch:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_closed_form_meets_bezout(self, k):
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(k, 9.0, 4.0))
        closed, nondegenerate = _closed_form_points(f, SearchConfig())
        assert nondegenerate and len(closed) == (3**k - 1) // 2  # one sign per pair
        assert np.max(np.abs(f.gradient_many(closed))) <= 1e-12
        pts, diag = bb.find_critical_points_with_diagnostics(f)
        roots = [s * p.a for p in pts for s in (1.0, -1.0)]
        assert len(roots) == 3**k - 1
        assert diag.certificate == Certificate("closed form", 3**k, 3**k)
        assert diag.n_seeds == len(pts) and diag.n_failed == 0

    @pytest.mark.parametrize("lam, k, pairs", [(27, 4, 22), (14, 6, 172)])
    def test_homotopy_meets_bezout(self, cube, lam, k, pairs):
        f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=lam), cube)
        pts, diag = bb.find_critical_points_with_diagnostics(f)
        assert diag.certificate == Certificate("homotopy", 3**k, 3**k)
        assert diag.completeness == "certified" and diag.n_failed == 0
        assert len(pts) == pairs and all(p.nondegenerate for p in pts)
        assert max(p.grad_norm for p in pts) <= 1e-12

    @pytest.mark.parametrize("lam, pairs", [(27, 22), (14, 172), (26, 364)])
    def test_each_root_is_polished_once_on_either_backend(self, cube, lam, pairs):
        # the endpoints' canonical images differ by rounding where a root
        # has zero coordinates: about 1e-16 on the exact tensor, more where
        # the quadrature tensor has 1e-18 entries (merged on exact bits: 40
        # and 54 rows at lambda=27, 294 and 456 at lambda=14); under the
        # one pair rule, _pair_representatives at radius _ROOT_TOL (1 +
        # max |C|), every real root mod sign is polished once
        group = bb.find_group(cube, eigenvalue=lam)
        for backend in ("exact-quartic", "quadrature"):
            f = bb.ReducedFunctional.for_group(group, cube, backend=backend)
            pts, diag = bb.find_critical_points_with_diagnostics(f)
            assert diag.n_converged == len(pts) == pairs
            assert diag.certificate == Certificate("homotopy", 3**group.k, 3**group.k)

    def test_homotopy_agrees_with_closed_form(self, square, sq_g50):
        # stage B run on a pattern tensor finds stage A's set and count
        f = bb.ReducedFunctional.for_group(sq_g50, square)
        A, ok, n_paths, n_failed, distinct = _homotopy_roots(f, SearchConfig(rng_seed=3))
        assert distinct == 27 and n_failed == 0 and ok.all()
        closed, _ = _closed_form_points(f, SearchConfig())
        assert pair_set_distance(list(A), list(closed)) <= 1e-12
        # the modes (1, 7), (5, 5), (7, 1) have odd indices only, so the
        # reflections act as I: G x {+-1} is the axis swap and the
        # negatives, four elements, and the 26 nonzero starts form 9 orbits
        assert len(_box_group(f)[0]) == 4 and n_paths == 9

    def test_start_orbits_cover_every_start_once(self, cube):
        f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=14), cube)
        src, sign = _box_group(f)
        assert len(src) == 48
        reps = _start_orbits(src, sign)
        assert len(reps) == 29
        images = np.unique(_images(reps, src, sign), axis=0)
        assert len(images) == 3**6 - 1 and not np.any(np.all(images == 0.0, axis=1))
        # every orbit holds one representative
        codes = (images + 1.0) @ 3 ** np.arange(5, -1, -1)
        assert len(np.unique(codes)) == 728
        assert _orbit_union_size(reps.astype(complex), src, sign) == 728
        # rows that share an orbit (a path jump's endpoints) count once
        pooled = np.concatenate([reps, -reps[::-1], images[::7]]).astype(complex)
        assert _orbit_union_size(pooled, src, sign) == 728

    @pytest.mark.parametrize("phase", [None, 0.3])
    def test_orbits_match_the_sequential_rule(self, cube, phase):
        # 90 orbits, the 29 start orbits (nontrivial stabilisers) and 61
        # generic ones, each as 42 images under random elements with noise
        # far below tol, shuffled: more rows than one block of images, real
        # as the verifier's pairs and complex as the homotopy's roots
        f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=14), cube)
        src, sign = _box_group(f)
        rng = np.random.default_rng(4)
        base = np.concatenate([_start_orbits(src, sign), rng.standard_normal((61, 6))])
        g = rng.integers(len(src), size=(len(base), 42))
        images = _images(base, src, sign).reshape(len(base), len(src), 6)
        X = images[np.arange(len(base))[:, None], g].reshape(-1, 6)
        X = X[rng.permutation(len(X))] + 1e-10 * rng.uniform(-1.0, 1.0, X.shape)
        if phase is not None:
            X = X * np.exp(1j * phase)
        tol = 1e-7 * (1.0 + np.max(np.abs(X), axis=1))
        assert len(X) > 2**20 // (len(src) * 6)
        first, element, stab = _orbits(X, src, sign, tol)
        for got, expected in zip((first, element, stab), sequential_orbits(X, src, sign, tol)):
            assert np.array_equal(got, expected)
        assert len(np.unique(first)) == 90
        empty = _orbits(X[:0], src, sign, tol[:0])
        assert [len(a) for a in empty] == [0, 0, 0]

    def test_box_group_keeps_only_symmetries_of_the_tensor(self, cube):
        f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=14), cube)
        T = f.tensor.entries.copy()
        T[0, 0, 1, 1] = T[0, 1, 0, 1] = T[0, 1, 1, 0] = T[1, 0, 0, 1] = \
            T[1, 0, 1, 0] = T[1, 1, 0, 0] = 2.0 * T[0, 0, 1, 1]
        g = bb.ReducedFunctional(f.k, 3.0, "exact-quartic", tensor=QuarticTensor(f.k, T),
                                 group=f.group, domain=f.domain)
        src, sign = _box_group(g)
        assert 1 < len(src) < 48
        for P_src, P_sign in zip(src, sign):
            moved = T[np.ix_(P_src, P_src, P_src, P_src)] * np.einsum(
                "i,j,l,m->ijlm", P_sign, P_sign, P_sign, P_sign)
            assert np.max(np.abs(moved - T)) <= 1e-12 * np.max(np.abs(T))

    @pytest.mark.parametrize("side_sq, grid", [
        (["pi^2", "pi^2"], None),
        (["pi^2", "pi^2", "pi^2"], None),
        (["pi^2", "4pi^2"], None),
        (["pi^2", "pi^2", "4pi^2"], None),
        (["pi^2", "pi^2"], (64, 48)),  # the grid's kinds: no swap of unequal N
        (["pi^2", "pi^2", "pi^2"], (17, 17, 13)),
    ])
    def test_box_isometries_match_dense_signed_permutations(self, side_sq, grid):
        # the reference builds each P from the definition: reversing axis d
        # multiplies sin(m_d x_d) by (-1)^(m_d + 1), and the permutation
        # sends mode m to (m[perm[0]], m[perm[1]], ...)
        dom = bb.DomainSpec.from_strings(side_sq)
        kinds = list(dom.side_sq if grid is None else zip(grid, dom.side_sq))
        dim = len(kinds)
        expected = [(perm, tuple(d for d in range(dim) if bits[d]))
                    for perm in itertools.permutations(range(dim))
                    if all(kinds[perm[d]] == kinds[d] for d in range(dim))
                    for bits in itertools.product((0, 1), repeat=dim)]
        for group in bb.enumerate_groups(dom, 40):
            modes = [m.indices for m in group.modes]
            where = {m: i for i, m in enumerate(modes)}
            isometries, src, sign = _box_isometries(modes, kinds)
            assert isometries == expected and isometries[0] == (tuple(range(dim)), ())
            for (perm, flips), g_src, g_sign in zip(isometries, src, sign, strict=True):
                P = np.zeros((group.k, group.k))
                for i, m in enumerate(modes):
                    image = tuple(m[perm[d]] for d in range(dim))
                    P[where[image], i] = (-1) ** sum(m[d] + 1 for d in flips)
                gathered = np.zeros_like(P)
                gathered[np.arange(group.k), g_src] = g_sign
                assert np.array_equal(gathered, P)

    def test_failed_paths_are_tracked_again(self, cube, monkeypatch):
        f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=27), cube)
        track, calls = critpoints._track, []

        def first_fails(*args):
            X, ok, at_singular = track(*args)
            calls.append(args[4])  # h_max
            return X, ok & (len(calls) > 1), at_singular

        monkeypatch.setattr(critpoints, "_track", first_fails)
        pts, diag = bb.find_critical_points_with_diagnostics(f)
        assert calls == list(critpoints._H_MAX)  # a smaller step the second time
        assert diag.certificate == Certificate("homotopy", 81, 81) and len(pts) == 22
        assert diag.n_seeds == 30 and diag.n_failed == 15

    @pytest.mark.parametrize("pattern, paths, retracked, distinct, pairs", [
        ((3, 0.9, 0.3), 26, 39, 1, 13), ((2, 3.0, 1.0), 8, 12, 1, 4)])
    def test_continuum_is_tracked_once(self, pattern, paths, retracked, distinct, pairs,
                                       monkeypatch):
        # alpha = 3 beta: a path reaches t = 1 on the sphere of critical
        # points, a root no track counts, so the orbits are not tracked again
        # (n_seeds counts the closed-form points and the paths); forcing the
        # retrack finds the same pairs and the same count, the origin alone:
        # every other root lies on the sphere and is ill conditioned where
        # its path arrives
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(*pattern))
        track, calls = critpoints._track, []
        monkeypatch.setattr(critpoints, "_track",
                            lambda *args: calls.append(args[4]) or track(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            once, diag = bb.find_critical_points_with_diagnostics(f)
            monkeypatch.setattr(critpoints, "_track",
                                lambda *args: track(*args)[:2] + (np.zeros(len(args[2]), bool),))
            twice, diag2 = bb.find_critical_points_with_diagnostics(f)
        assert calls == [critpoints._H_MAX[0]]
        assert (diag.n_seeds, diag2.n_seeds) == (paths, retracked)
        assert diag.completeness == diag2.completeness == "uncertified"
        assert diag.certificate.distinct_roots == diag2.certificate.distinct_roots == distinct
        assert len(once) == pairs
        assert np.array_equal([p.a for p in once], [p.a for p in twice])

    def test_degenerate_pattern_is_not_exact(self, sq_g50):
        # alpha = 3 beta makes F radial: a sphere of critical points, none
        # isolated, so the closed form is degenerate and the homotopy can
        # count only the origin as a nonsingular root
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(3, 0.9, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pts, diag = bb.find_critical_points_with_diagnostics(f)
            pred = bb.predict_branches(sq_g50, pts)
        assert diag.completeness == "uncertified" and not diag.saturated
        assert diag.certificate.method == "homotopy"
        assert diag.certificate.distinct_roots < 27
        assert len(pts) >= 13 and not pred.exact
        assert pred.guaranteed_minimum == 3


class TestPrediction:
    def test_square_five_solution_morse(self, sq_g5, sq5_points):
        pred = bb.predict_branches(sq_g5, sq5_points)
        assert pred.pair_count_h == 4
        assert pred.exact
        assert sorted(pred.solution_morse_indices) == [2, 2, 3, 3]

    def test_simple_eigenvalue_morse_is_j(self, sq_g1, f_sq1):
        pred = bb.predict_branches(sq_g1, bb.find_critical_points(f_sq1))
        assert pred.pair_count_h == 1
        assert pred.solution_morse_indices == [1]

    def test_cube_thirteen(self, cube_g6, cube6_points):
        pred = bb.predict_branches(cube_g6, cube6_points)
        assert pred.pair_count_h == 13
        # reduced indices m and shifted indices m + j - 1 are both reported
        assert Counter(cp.morse_index for cp in pred.pairs) == {3: 3, 2: 6, 1: 4}
        assert Counter(pred.solution_morse_indices) == {4: 3, 3: 6, 2: 4}

    def test_sign_canonicalization_invariance(self, sq_g5, sq5_points):
        pred = bb.predict_branches(sq_g5, sq5_points)
        flipped = [
            bb.CriticalPoint(
                a=-cp.a, value=cp.value, grad_norm=cp.grad_norm,
                hess_eigs=cp.hess_eigs, morse_index=cp.morse_index,
                nondegenerate=cp.nondegenerate, margin=cp.margin,
            )
            for cp in sq5_points
        ]
        pred_flipped = bb.predict_branches(sq_g5, flipped)
        assert pred_flipped.pair_count_h == pred.pair_count_h
        for a, b in zip(pred.pairs, pred_flipped.pairs):
            assert np.allclose(a.a, b.a, atol=1e-12)

    def test_duplicate_inputs_merge(self, sq_g5, sq5_points):
        doubled = list(sq5_points) + [
            bb.CriticalPoint(
                a=-cp.a, value=cp.value, grad_norm=cp.grad_norm,
                hess_eigs=cp.hess_eigs, morse_index=cp.morse_index,
                nondegenerate=cp.nondegenerate, margin=cp.margin,
            )
            for cp in sq5_points
        ]
        assert bb.predict_branches(sq_g5, doubled).pair_count_h == 4

    def test_dedup_radius_is_configurable(self, sq_g5, sq5_points):
        cp = sq5_points[0]
        pts = [cp, replace(cp, a=cp.a * (1.0 + 1e-4))]
        assert bb.predict_branches(sq_g5, pts).pair_count_h == 2
        assert bb.predict_branches(sq_g5, pts, dedup_radius=1e-3).pair_count_h == 1

    def test_degenerate_downgrades_exactness(self, sq_g5):
        # alpha = 3 beta makes the single-mode points exactly degenerate
        f = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(2, 3.0, 1.0))
        with pytest.warns(SuspectedDegenerateWarning):
            pts = bb.find_critical_points(f)
        assert any(not p.nondegenerate for p in pts)
        with pytest.warns(DegeneratePresentWarning):
            pred = bb.predict_branches(sq_g5, pts)
        assert not pred.exact
        assert pred.guaranteed_minimum == sq_g5.k


class TestHelpers:
    def test_canonicalize(self):
        assert np.array_equal(canonicalize(np.array([-1.0, 2.0])), [1.0, -2.0])
        assert np.array_equal(canonicalize(np.array([0.0, -2.0])), [0.0, 2.0])
        tiny = np.array([1e-9, -2.0])
        assert np.array_equal(canonicalize(tiny, tol=1e-6), [-1e-9, 2.0])
        rows = np.array([[-1.0, 2.0], [0.0, -2.0], tiny])
        assert np.array_equal(canonicalize(rows), [[1.0, -2.0], [0.0, 2.0], [-1e-9, 2.0]])

    def test_pair_representatives_orderless(self):
        rng = np.random.default_rng(12)
        pts = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
               np.array([1.0 + 1e-9, 1e-9]), np.array([0.0, 1.0])]
        for _ in range(5):
            perm = rng.permutation(len(pts))
            reps = [rep for rep, _ in _pair_representatives([pts[i] for i in perm], 1e-6)]
            assert len(reps) == 2
            assert np.allclose(reps[0], [0.0, 1.0])
            assert np.allclose(reps[1], [1.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("radius", [0.0, 2e-7, 1e-6, 1e-3, 0.125])
    def test_pair_representatives_match_sequential_loop(self, radius):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            base = rng.choice([-1.0, 0.0, 0.5, 1.0], (int(rng.integers(1, 40)), k))
            pts = base[rng.integers(0, len(base), int(rng.integers(1, 300)))]
            pts = pts * rng.choice([-1.0, 1.0], (len(pts), 1))  # sign flips
            pts = pts + (rng.choice([0.0, 1e-9, 1e-7, 5e-4, 2e-3], pts.shape)
                         * rng.choice([-1.0, 1.0], pts.shape))  # near duplicates
            pts[rng.random(pts.shape) < 0.1] = 0.0
            pts[rng.random(pts.shape) < 0.05] = -0.0
            assert_same_pairs(_pair_representatives(pts, radius), sequential_pairs(pts, radius))
        # chains of 0.8 r and 1.6 r steps, where the greedy rule and the
        # connected components of "within r" differ; offsets of exactly r
        # (dyadic, so the difference is exactly r); +-1e-18 where a
        # coordinate is zero; a cluster straddling the 64-row blocks
        r = radius if radius else 2.0**-20
        for _ in range(40):
            k = int(rng.integers(1, 7))
            centres = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (int(rng.integers(1, 30)), k))
            pts = centres[rng.integers(0, len(centres), int(rng.integers(1, 200)))]
            step = rng.choice([0.0, 0.8 * r, 1.6 * r, r, 2 * r], pts.shape)
            pts = pts + step * rng.integers(-2, 3, pts.shape)
            zero = pts == 0.0
            pts[zero] = rng.choice([0.0, 1e-18, -1e-18], np.count_nonzero(zero))
            pts = pts * rng.choice([-1.0, 1.0], (len(pts), 1))
            if len(pts) > 70:
                pts[60:68] = pts[60] + 0.8 * r * np.arange(8)[:, None] * (rng.random(k) < 0.5)
            assert_same_pairs(_pair_representatives(pts, radius), sequential_pairs(pts, radius))

    def test_pair_representatives_keep_the_first_row_of_each_root(self):
        # the homotopy's canonical images of one root differ by rounding
        C = np.array([[-1e-18, 1.0], [0.0, 1.0], [0.0, 1.0 + 1e-15], [1e-18, 1.0],
                      [0.5, 1.0], [0.5 + 1e-6, 1.0]])
        got = _pair_representatives(C, 2e-7)
        assert sorted(i for _, i in got) == [0, 4, 5]
        assert_same_pairs(got, sequential_pairs(C, 2e-7))
        assert _pair_representatives(np.empty((0, 3)), 2e-7) == []

    def test_pair_set_distance(self):
        A = [np.array([1.0, 0.0])]
        B = [np.array([-1.0, 1e-8])]
        assert pair_set_distance(A, B) == pytest.approx(1e-8, rel=1e-6)
        # a small coordinate on one side of the canonicalization tolerance
        tiny = [np.array([4e-4, -1.0])]
        assert pair_set_distance(tiny, [np.array([0.0, 1.0])]) == pytest.approx(4e-4)
        assert pair_set_distance([], []) == 0.0
        assert pair_set_distance(A, []) == float("inf")
