import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse as sp

import bifurcbox as bb
from bifurcbox.errors import (
    ConvergedToWrongBranch,
    GridTooCoarse,
    NewtonDiverged,
    SpectrumTooClose,
    SupercriticalP,
)
from bifurcbox.pdeverify import (
    VerifyConfig,
    _linear_solve,
    _sine_eigenvalues_1d,
    _SineTransform,
    diagram_rows,
    discrete_reference_point,
    fit_order,
    geometric_schedule,
    verdict_to_dict,
)

PI = math.pi


def reference_stencil(dp) -> sp.csr_matrix:
    """The 5/7-point Dirichlet stencil A = -lap_h of ``dp``'s grid, assembled
    as a Kronecker sum of 1-D second differences: an independent reference
    for the sine-transform form the package keeps."""
    mats, eyes = [], []
    for nsub, L in zip(dp.grid, dp.domain.sides):
        m = nsub - 1
        mats.append(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)) / (L / nsub) ** 2)
        eyes.append(sp.identity(m, format="csr"))
    A = None
    for d in range(len(dp.grid)):
        term = None
        for e in range(len(dp.grid)):
            f = mats[d] if e == d else eyes[e]
            term = f if term is None else sp.kron(term, f, format="csr")
        A = term if A is None else A + term
    return A.tocsr()


@pytest.fixture(scope="module")
def dp_sq1(square, sq_g1):
    return bb.build_laplacian(square, 32, sq_g1)


@pytest.fixture(scope="module")
def dp_sq5(square, sq_g5):
    return bb.build_laplacian(square, 32, sq_g5)


@pytest.fixture(scope="module")
def pred_sq1(sq_g1, f_sq1):
    return bb.predict_branches(sq_g1, bb.find_critical_points(f_sq1))


@pytest.fixture(scope="module")
def pred_sq5(sq_g5, f_sq5):
    return bb.predict_branches(sq_g5, bb.find_critical_points(f_sq5))


@pytest.fixture(scope="module")
def rec_sq1(dp_sq1, pred_sq1):
    return bb.solve_branch(dp_sq1, pred_sq1.pairs[0].a, 0.05)


@pytest.fixture(scope="module")
def rec_sq5(dp_sq5, pred_sq5):
    return bb.solve_branch(dp_sq5, pred_sq5.pairs[0].a, 0.05)


class TestBuildLaplacian:
    def test_discrete_ground_eigenvalue(self, square, sq_g1):
        dp = bb.build_laplacian(square, 64, sq_g1)
        h = PI / 64
        closed = 2 * (4.0 / h**2) * math.sin(h / 2) ** 2
        assert dp.lambda_h == pytest.approx(closed, rel=1e-14)
        assert abs(dp.lambda_h - 2.0) <= 1e-3 * 2.0  # within 0.1%

    def test_newton_operator_symmetric(self, dp_sq5, rec_sq5):
        # the split-preconditioned Jacobian MINRES runs on, as a dense matrix
        Q = dp_sq5.transform
        shift = Q.eigenvalues - rec_sq5.lam
        w = np.abs(shift) ** -0.5
        f = 3.0 * rec_sq5.epsilon * rec_sq5.v.reshape(Q.shape) ** 2
        T = Q.operator(w, -f, diag=w * shift * w) @ np.eye(dp_sq5.n)
        assert np.max(np.abs(T - T.T)) <= 1e-13 * np.max(np.abs(T))

    def test_build_peak_memory(self, cube, cube_g6):
        # the sine-transform form needs no Kronecker intermediates: about
        # 3.4 MB at 33^3, against 6.9 MB with an assembled sparse stencil
        bb.build_laplacian(cube, 33, cube_g6)
        tracemalloc.start()
        try:
            bb.build_laplacian(cube, 33, cube_g6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    def test_multiplet_splitting_zero_on_symmetric_grid(self, dp_sq5, cube, cube_g6):
        assert dp_sq5.splitting <= 1e-12
        dp3 = bb.build_laplacian(cube, 16, cube_g6)
        assert dp3.splitting <= 1e-12

    def test_grid_too_coarse_on_asymmetric_multiplet(self):
        # (0,pi) x (0,2pi): modes (1,6) and (3,2) share lambda = 10 but their
        # discrete values split at order h^2 against an O(0.25) gap
        dom = bb.DomainSpec.from_strings(["pi^2", "4pi^2"])
        g = bb.find_group(dom, eigenvalue=10)
        assert g.k == 2
        with pytest.raises(GridTooCoarse):
            bb.build_laplacian(dom, 18, g)
        dp = bb.build_laplacian(dom, 48, g)
        assert dp.splitting <= 0.5 * dp.neighbor_gap

    def test_minimum_interior_points(self, square, sq_g1, cube, cube_g6):
        with pytest.raises(ValueError):
            bb.build_laplacian(square, 12, sq_g1)
        with pytest.raises(ValueError):
            bb.build_laplacian(cube, 8, cube_g6)

    def test_basis_discretely_orthonormal(self, dp_sq5):
        E = dp_sq5.eigvecs
        gram = dp_sq5.weight * (E.T @ E)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-13

    @pytest.mark.parametrize("side_sq, eigenvalue, grid", [
        (["pi^2", "pi^2"], 5, 24),
        (["pi^2", "pi^2", "pi^2"], 6, 12),
        (["pi^2", "4pi^2"], 10, 48),
    ])
    def test_spectrum_matches_dense_stencil(self, side_sq, eigenvalue, grid):
        dom = bb.DomainSpec.from_strings(side_sq)
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        A = reference_stencil(dp).toarray()
        # closed-form stencil eigenvalue of each mode, one 1-D term per axis
        vals = np.array([
            sum((2.0 / h * math.sin(i * PI / (2 * g))) ** 2
                for i, h, g in zip(m.indices, dp.h, dp.grid))
            for m in group.modes
        ])
        E = dp.eigvecs
        assert np.max(np.abs(A @ E - E * vals)) <= 1e-10 * np.max(np.abs(A @ E))
        # the basis is the sampled continuum eigenfunctions, sign included
        pts = np.meshgrid(*[h * np.arange(1, g) for h, g in zip(dp.h, dp.grid)],
                          indexing="ij")
        sampled = np.column_stack([
            bb.eigenfunction_eval(m, dom, [x.ravel() for x in pts]) for m in group.modes
        ])
        assert np.max(np.abs(E - sampled)) <= 1e-12 * np.max(np.abs(sampled))
        dense = np.linalg.eigvalsh(A)
        by_distance = dense[np.argsort(np.abs(dense - dp.lambda_h))]
        own, neighbour = by_distance[:group.k], by_distance[group.k]
        assert np.max(np.abs(np.sort(own) - np.sort(vals))) <= 1e-10 * dp.lambda_h
        assert dp.neighbor_gap == pytest.approx(abs(neighbour - dp.lambda_h), abs=1e-10)
        assert dp.splitting == pytest.approx(np.ptp(own), abs=1e-10)

    def test_sine_transform_applies_operator(self, dp_sq5):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(dp_sq5.n)
        direct = reference_stencil(dp_sq5) @ v
        spectral = dp_sq5.transform.apply_spectral(v, dp_sq5.transform.eigenvalues)
        assert np.max(np.abs(direct - spectral)) <= 1e-10 * np.max(np.abs(direct))

    @pytest.mark.parametrize("shape", [(17, 23), (11, 13, 16)])
    def test_sine_transform_matches_scipy_dst(self, shape):
        # anisotropic shapes catch an axis-order slip in the per-axis products
        T = _SineTransform(shape, [_sine_eigenvalues_1d(n + 1, 1.0) for n in shape])
        x = np.random.default_rng(1).standard_normal(shape)
        ref = scipy.fft.dstn(x, type=1, norm="ortho")
        assert np.max(np.abs(T.dst(x) - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(T.dst(T.dst(x)) - x)) <= 1e-13 * np.max(np.abs(x))
        w = T.eigenvalues
        ref = scipy.fft.idstn(ref * w, type=1, norm="ortho").ravel()
        got = T.apply_spectral(x.ravel(), w)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_operator_builds_without_a_matvec(self, dp_sq5, monkeypatch):
        T = dp_sq5.transform
        calls = []
        dst = T.dst
        monkeypatch.setattr(T, "dst", lambda *args: calls.append(1) or dst(*args))
        op = T.operator(T.eigenvalues ** -0.5, np.ones(T.shape))
        assert calls == []
        op.matvec(np.ones(dp_sq5.n))
        assert len(calls) == 2

    def test_h1_norm_matches_stencil(self, dp_sq5):
        u = np.random.default_rng(2).standard_normal(dp_sq5.n)
        ref = math.sqrt(dp_sq5.weight * float(u @ (reference_stencil(dp_sq5) @ u)))
        assert dp_sq5.norm_h1(u) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("domain, eigenvalue, grid", [("square", 5, 32), ("cube", 6, 12)])
    def test_linear_solve_matches_dense(self, domain, eigenvalue, grid):
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        eps = 0.05
        lam = dp.lambda_h - eps
        v = dp.eigvecs @ np.linspace(1.0, 2.0, group.k)
        f = 3.0 * eps * v**2
        rhs = np.random.default_rng(3).standard_normal(dp.n)
        x, info = _linear_solve(dp, lam, f, rhs, 1e-12)
        assert info == 0
        J = reference_stencil(dp).toarray() - np.diag(lam + f)
        ref = np.linalg.solve(J, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


class TestSolveBranch:
    def test_trivial_branch(self, dp_sq1):
        rec = bb.solve_branch(dp_sq1, [0.0], 0.05)
        assert np.all(rec.v == 0.0)
        assert rec.phi_norm == 0.0
        assert rec.newton_residual == 0.0

    def test_simple_branch_amplitude(self, square, sq_g1, pred_sq1):
        dp = bb.build_laplacian(square, 64, sq_g1)
        rec = bb.solve_branch(dp, pred_sq1.pairs[0].a, 0.05)
        a0 = 2 * PI / 3
        assert abs(rec.a_lambda[0] - a0) <= 0.1 * a0
        assert rec.newton_residual <= 1e-10

    def test_newton_quadratic_tail(self, rec_sq1):
        hist = rec_sq1.residual_history
        assert len(hist) >= 3
        assert hist[-1] <= 10.0 * hist[-2] ** 2

    def test_projection_identity(self, dp_sq1, rec_sq1):
        recon = dp_sq1.eigvecs @ rec_sq1.a_lambda + (
            rec_sq1.v - dp_sq1.eigvecs @ rec_sq1.a_lambda
        )
        assert np.max(np.abs(recon - rec_sq1.v)) == 0.0
        phi = rec_sq1.v - dp_sq1.eigvecs @ rec_sq1.a_lambda
        assert abs(dp_sq1.inner(phi, dp_sq1.eigvecs[:, 0])) <= 1e-12

    def test_sign_flip_gives_exact_negation(self, dp_sq1, pred_sq1):
        a = pred_sq1.pairs[0].a
        plus = bb.solve_branch(dp_sq1, a, 0.05)
        minus = bb.solve_branch(dp_sq1, -a, 0.05)
        assert np.array_equal(minus.v, -plus.v)
        assert np.array_equal(minus.a_lambda, -plus.a_lambda)

    def test_newton_diverged_carries_history(self, dp_sq1, pred_sq1):
        with pytest.raises(NewtonDiverged) as err:
            bb.solve_branch(dp_sq1, pred_sq1.pairs[0].a, 0.05, max_iter=1)
        assert len(err.value.history) >= 1

    def test_wrong_branch_detection(self, dp_sq5, pred_sq5):
        pairs = [cp.a for cp in pred_sq5.pairs]
        start = np.argmax([abs(a[0]) for a in pairs])  # the (gamma_1, 0) pair
        other = (start + 1) % len(pairs)
        with pytest.raises(ConvergedToWrongBranch):
            bb.solve_branch(dp_sq5, pairs[start], 0.05,
                            all_pairs=pairs, expected_index=other)

    def test_wrong_branch_check_is_sign_safe(self, dp_sq5, pred_sq5):
        # the pair's first coordinate is 4e-4, the solve's is zero: the
        # canonical signs of the two are decided by different coordinates
        pairs = [cp.a for cp in pred_sq5.pairs]
        i = next(n for n, a in enumerate(pairs) if abs(a[0]) < 1e-9)  # (0, gamma_1)
        pairs[i] = np.array([4e-4, -pairs[i][1]])
        rec = bb.solve_branch(dp_sq5, pairs[i], 0.05, all_pairs=pairs, expected_index=i)
        assert abs(rec.a_lambda[0]) < 1e-6 < -rec.a_lambda[1]

    def test_collapse_to_trivial_solution_refused(self, dp_sq5, pred_sq5):
        # from v0 = 0 Newton stays at the trivial solution, whose projection
        # is nearest the pair of smallest max-norm among the pairs alone
        pairs = [cp.a for cp in pred_sq5.pairs]
        i = int(np.argmin([np.max(np.abs(a)) for a in pairs]))
        with pytest.raises(ConvergedToWrongBranch, match="the trivial solution") as err:
            bb.solve_branch(dp_sq5, pairs[i], 0.05, v0=np.zeros(dp_sq5.n),
                            all_pairs=pairs, expected_index=i)
        assert err.value.nearest_index is None

    def test_supercritical_exponent_refused(self, cube, cube_g6):
        dp = bb.build_laplacian(cube, 12, cube_g6)
        with pytest.raises(SupercriticalP):
            bb.solve_branch(dp, [1.0, 0.0, 0.0], 0.05, p=7.0)

    def test_epsilon_validation(self, dp_sq1):
        with pytest.raises(ValueError):
            bb.solve_branch(dp_sq1, [1.0], -0.01)


class TestMorseIndex:
    def test_trivial_solution_below_first_eigenvalue(self, dp_sq1):
        rec = bb.solve_branch(dp_sq1, [0.0], 0.05)
        morse, near = bb.discrete_morse_index(dp_sq1, rec)
        assert morse == 0
        assert near.shape == (1,)
        assert near[0] > 0

    def test_ground_branch_morse_one(self, dp_sq1, rec_sq1):
        morse, near = bb.discrete_morse_index(dp_sq1, rec_sq1)
        assert morse == 1
        assert near[0] < 0

    def test_diagonal_pair_morse_two(self, dp_sq5, pred_sq5):
        diag = next(cp for cp in pred_sq5.pairs
                    if cp.a[0] > 0.1 and abs(cp.a[0] - cp.a[1]) < 1e-6)
        rec = bb.solve_branch(dp_sq5, diag.a, 0.05)
        morse, _ = bb.discrete_morse_index(dp_sq5, rec)
        assert morse == 2  # m + j - 1 with m = 1, j = 2

    def test_near_zero_scaling_matches_hessian(self, dp_sq5, pred_sq5):
        cp = next(c for c in pred_sq5.pairs if abs(c.a[1]) < 1e-9)  # (gamma_1, 0)
        rec = bb.solve_branch(dp_sq5, cp.a, 0.0125)
        _, near = bb.discrete_morse_index(dp_sq5, rec)
        scaled = np.sort(near * dp_sq5.lambda_h / rec.epsilon)
        target = np.sort(cp.hess_eigs)
        assert np.max(np.abs(scaled - target) / np.abs(target)) <= 0.05

    def test_spectrum_too_close_guard(self, dp_sq1, rec_sq1):
        with pytest.raises(SpectrumTooClose):
            bb.discrete_morse_index(dp_sq1, rec_sq1, zero_tol=1.0)

    def test_window_holds_every_negative_mu(self, square, sq_g1, pred_sq1):
        # eight times the solution makes c = lambda + 3 eps v^2 exceed six
        # stencil eigenvalues, far more negatives than the j - 1 + k expected
        dp = bb.build_laplacian(square, 24, sq_g1)
        rec = bb.solve_branch(dp, pred_sq1.pairs[0].a, 0.1)
        rec = dataclasses.replace(rec, v=8.0 * rec.v)
        A = reference_stencil(dp).toarray()
        mu = np.linalg.eigvalsh(A - np.diag(rec.lam + 3.0 * rec.epsilon * rec.v**2))
        morse, _ = bb.discrete_morse_index(dp, rec)
        assert morse == int(np.sum(mu < 0.0)) == 6

    @pytest.mark.parametrize("domain, eigenvalue, grid", [("square", 5, 32), ("cube", 6, 12)])
    def test_whitened_solve_matches_dense_pencil(self, domain, eigenvalue, grid):
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom))
        )
        cp = max(pred.pairs, key=lambda c: c.morse_index)
        rec = bb.solve_branch(dp, cp.a, 0.05)
        A = reference_stencil(dp).toarray()
        S = A - np.diag(rec.lam + 3.0 * rec.epsilon * rec.v**2)
        mu = scipy.linalg.eigh(S, A, eigvals_only=True)
        near_ref = np.sort(mu[np.argsort(np.abs(mu))[:group.k]])
        for seed in (0, 1):
            morse, near = bb.discrete_morse_index(dp, rec, rng_seed=seed)
            assert morse == int(np.sum(mu < 0.0))
            np.testing.assert_allclose(near, near_ref, rtol=1e-9, atol=0.0)


class TestContinuation:
    def test_ground_branch_run(self, square, sq_g1, pred_sq1):
        dp = bb.build_laplacian(square, 48, sq_g1)
        verdicts = bb.continuation_run(dp, pred_sq1, geometric_schedule(0.1, 4))
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.passed
        assert v.order_phi is not None and v.order_phi >= 0.9
        assert v.order_a is not None and v.order_a >= 0.9
        assert v.morse_ok and v.morse_threshold == pytest.approx(0.1)
        assert v.a_ok and v.eig_ok and v.distinct_ok

    def test_all_branches_distinct(self, dp_sq5, pred_sq5):
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05, 0.025])
        assert len(verdicts) == 4
        assert all(v.distinct_ok for v in verdicts)
        assert all(v.morse_ok for v in verdicts)
        assert [v.target_morse for v in verdicts] == [
            cp.morse_index + 1 for cp in pred_sq5.pairs
        ]

    def test_morse_stable_on_schedule_tail(self, dp_sq5, pred_sq5):
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, geometric_schedule(0.1, 3))
        for v in verdicts:
            tail = [r.discrete_morse_index for r in v.records]
            assert tail == [v.target_morse] * len(tail)

    def test_grid_refinement_order(self, square, sq_g1, pred_sq1):
        # halving h changes the projected coefficient at second order,
        # separating discretization error from the eps asymptotics
        a = pred_sq1.pairs[0].a
        eps = 0.05
        grids = [20, 28, 40]
        ref = bb.solve_branch(bb.build_laplacian(square, 80, sq_g1), a, eps)
        errs = []
        for n in grids:
            rec = bb.solve_branch(bb.build_laplacian(square, n, sq_g1), a, eps)
            errs.append(abs(rec.a_lambda[0] - ref.a_lambda[0]))
        order = fit_order([PI / n for n in grids], errs)
        assert order is not None and order >= 1.8

    def test_failures_mark_inconclusive(self, dp_sq1, pred_sq1):
        cfg = VerifyConfig(max_newton=1, morse=False)
        verdicts = bb.continuation_run(dp_sq1, pred_sq1, [0.05], cfg)
        assert verdicts[0].inconclusive
        assert not verdicts[0].passed
        assert verdicts[0].notes

    @pytest.mark.parametrize("domain", ["square", "cube"])
    def test_minres_stall_marks_inconclusive(self, domain, monkeypatch):
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, j=1)
        dp = bb.build_laplacian(dom, 32 if domain == "square" else 12, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom))
        )

        def no_direct_solve(*args, **kwargs):
            raise AssertionError("Newton steps must not factorize")

        monkeypatch.setattr(
            "bifurcbox.pdeverify.spla.minres", lambda A, b, **kw: (np.zeros_like(b), 1)
        )
        monkeypatch.setattr("bifurcbox.pdeverify.spla.splu", no_direct_solve)
        with pytest.raises(NewtonDiverged, match="MINRES stalled") as err:
            bb.solve_branch(dp, pred.pairs[0].a, 0.05)
        assert err.value.history
        (verdict,) = bb.continuation_run(dp, pred, [0.05], VerifyConfig(morse=False))
        assert verdict.inconclusive and not verdict.passed
        assert any("MINRES stalled" in note for note in verdict.notes)

    def test_supercritical_refused(self, cube, cube_g6, f_cube6):
        dp = bb.build_laplacian(cube, 12, cube_g6)
        pred = bb.predict_branches(cube_g6, bb.find_critical_points(f_cube6), p=7.0)
        with pytest.raises(SupercriticalP):
            bb.continuation_run(dp, pred, [0.05])

    def test_reference_point_matches_prediction(self, dp_sq1, pred_sq1):
        # aliasing-free grid sums reproduce the continuum critical point
        ref = discrete_reference_point(dp_sq1, pred_sq1.pairs[0].a)
        assert ref == pytest.approx(pred_sq1.pairs[0].a, abs=1e-10)


class TestReporting:
    def test_verdict_payload(self, dp_sq1, pred_sq1):
        verdicts = bb.continuation_run(dp_sq1, pred_sq1, [0.1, 0.05])
        d = verdict_to_dict(verdicts[0])
        assert d["passed"] is True
        assert len(d["records"]) == 2
        rec = d["records"][0]
        assert set(rec) >= {"lambda", "epsilon", "a_lambda", "phi_norm",
                            "newton_residual", "discrete_morse_index"}

    def test_diagram_rows(self, dp_sq1, pred_sq1):
        verdicts = bb.continuation_run(dp_sq1, pred_sq1, [0.1, 0.05])
        rows = diagram_rows(verdicts[0])
        assert len(rows) == 2
        # columns: lambda, |u|_L2, a_1..a_k, phi_norm, morse
        assert len(rows[0]) == 4 + dp_sq1.group.k
        assert rows[0][0] == pytest.approx(dp_sq1.lambda_h - 0.1)
        assert rows[1][0] > rows[0][0]

    def test_geometric_schedule(self):
        assert geometric_schedule(0.1, 4) == pytest.approx([0.1, 0.05, 0.025, 0.0125])
        for args in [(0.0, 4), (0.1, 0), (0.1, 4, 1.0), (0.1, 4, 0.0)]:
            with pytest.raises(ValueError):
                geometric_schedule(*args)

    def test_fit_order_handles_floors(self):
        assert fit_order([0.1, 0.05], [1e-20, 1e-20]) is None
        assert fit_order([0.1, 0.05, 0.025], [0.1, 0.05, 0.025]) == pytest.approx(1.0)
