import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import bifurcbox as bb
from bifurcbox.errors import PatternMismatch, SupercriticalExponentWarning
from bifurcbox.critpoints import _box_group
from bifurcbox.reduced import (
    QuarticTensor,
    _axis_panels,
    build_quartic_tensor,
    extract_rect_coefficients,
    sine_product_integral,
    sine_product_zero_coefficient,
)

from conftest import fd_gradient, fd_jacobian, node_functional

PI = math.pi


def quad_oracle(freqs, length):
    import warnings
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        # roundoff chatter at tolerances this tight; the error estimate is
        # still checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(
            lambda x: np.prod([np.sin(f * PI * x / length) for f in freqs]),
            0.0, length, epsabs=1e-14, epsrel=1e-14, limit=400,
        )
    assert err < 1e-12
    return val


class TestSineProductIntegral:
    def test_quartic_identity(self):
        # int sin^4 = 3L/8, textbook identity confirmed by the oracle
        assert sine_product_integral((1, 1, 1, 1), PI) == pytest.approx(3 * PI / 8, abs=1e-15)
        assert quad_oracle((1, 1, 1, 1), PI) == pytest.approx(3 * PI / 8, abs=1e-12)

    def test_mixed_squares(self):
        assert sine_product_integral((1, 1, 2, 2), PI) == pytest.approx(PI / 4, abs=1e-15)

    def test_odd_frequency_sum_vanishes(self):
        # (1,1,1,2) has odd total frequency, so the integral is exactly zero
        assert sine_product_integral((1, 1, 1, 2), PI) == 0.0
        assert quad_oracle((1, 1, 1, 2), PI) == pytest.approx(0.0, abs=1e-13)

    def test_third_harmonic_coupling(self):
        # the nonvanishing odd pattern: sin^3(x) couples to sin(3x)
        assert sine_product_integral((1, 1, 1, 3), PI) == pytest.approx(-PI / 8, abs=1e-15)
        assert quad_oracle((1, 1, 1, 3), PI) == pytest.approx(-PI / 8, abs=1e-12)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            freqs = tuple(rng.integers(1, 9, size=4))
            length = rng.uniform(1.0, 4.0)
            assert sine_product_integral(freqs, length) == pytest.approx(
                quad_oracle(freqs, length), abs=1e-12
            )

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            sine_product_integral((0, 1, 1, 1), PI)
        with pytest.raises(ValueError):
            sine_product_integral((1, 1, 1), PI)


class TestQuarticTensor:
    def test_cube_entries_match_closed_forms(self, cube, cube_g6):
        T = build_quartic_tensor(cube_g6, cube)
        alpha = 27.0 / (8.0 * PI**3)
        beta = 3.0 / (2.0 * PI**3)
        assert T.entries[0, 0, 0, 0] == pytest.approx(alpha, rel=1e-13)
        assert T.entries[1, 1, 1, 1] == pytest.approx(alpha, rel=1e-13)
        assert T.entries[0, 0, 1, 1] == pytest.approx(beta, rel=1e-13)
        assert T.entries[0, 0, 0, 1] == 0.0

    def test_square_five_ratio(self, square, sq_g5):
        T = build_quartic_tensor(sq_g5, square)
        co = extract_rect_coefficients(T)
        assert co.alpha / co.beta == pytest.approx(9.0 / 4.0, rel=1e-12)
        assert T.entries[1, 1, 1, 0] == 0.0

    def test_permutation_symmetry(self, square, sq_g5, cube, cube_g6):
        for dom, g in ((square, sq_g5), (cube, cube_g6)):
            T = build_quartic_tensor(g, dom)
            assert T.symmetry_defect() == 0.0

    def test_odd_entries_vanish(self, square, sq_g50):
        T = build_quartic_tensor(sq_g50, square)
        alpha = T.entries[0, 0, 0, 0]
        for combo in itertools.product(range(3), repeat=4):
            counts = [combo.count(i) % 2 for i in range(3)]
            if any(counts):
                assert abs(T.entries[combo]) <= 1e-10 * alpha

    @pytest.mark.parametrize("sides", [("pi^2", "pi^2"), ("pi^2", "pi^2", "pi^2"),
                                       ("pi^2", "4pi^2"), ("pi^2", "pi^2", "4pi^2")])
    def test_build_is_the_per_entry_loop(self, sides):
        # bit for bit, the sign of zero included, against one exact zero
        # coefficient per entry and axis, a zero factor ending the product;
        # groups up to k = 12 of the first 120
        domain = bb.DomainSpec.from_strings(sides)
        for group in (g for g in bb.enumerate_groups(domain, 120) if g.k <= 12):
            idx, cache = [m.indices for m in group.modes], {}
            ref = np.empty((group.k,) * 4)
            for combo in itertools.product(range(group.k), repeat=4):
                key = tuple(sorted(combo))
                if key not in cache:
                    val = 1.0
                    for d, L in enumerate(domain.sides):
                        c0 = sine_product_zero_coefficient([idx[i][d] for i in key])
                        if c0 == 0:
                            val = 0.0
                            break
                        val *= 4.0 * float(c0) / L
                    cache[key] = val
                ref[combo] = cache[key]
            T = build_quartic_tensor(group, domain).entries
            assert np.array_equal(T, ref) and np.array_equal(np.signbit(T), np.signbit(ref))

    @pytest.mark.parametrize("domain, lam", [
        ("square", 5), ("square", 50), ("square", 65), ("square", 325),
        ("cube", 3), ("cube", 6), ("cube", 14), ("cube", 27)])
    def test_quadrature_tensor_is_the_closed_form(self, domain, lam):
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=lam)
        exact = bb.ReducedFunctional.for_group(group, dom)
        quadr = bb.ReducedFunctional.for_group(group, dom, backend="quadrature")
        # 12 nodes a panel give each axis factor to 4.8e-13 relative, so
        # the product of d factors is within about d times that
        T = exact.tensor.entries
        bound = 5e-13 * dom.dimension * np.max(np.abs(T))
        assert np.max(np.abs(quadr.tensor.entries - T)) <= bound
        assert quadr._E is None  # no node grid at p = 3
        assert len(_box_group(quadr)[0]) == len(_box_group(exact)[0])

    def test_json_roundtrip(self, square, sq_g5):
        T = build_quartic_tensor(sq_g5, square)
        T2, p = QuarticTensor.from_json(T.to_json(p=3.0))
        assert p == 3.0
        assert np.array_equal(T.entries, T2.entries)
        payload = json.loads(T.to_json())
        assert set(payload) == {"k", "p", "entries"}
        assert payload["entries"] == T.entries.ravel(order="C").tolist()

    def test_pattern_constructor(self):
        T = QuarticTensor.from_pattern(3, 9.0, 4.0)
        assert T.symmetry_defect() == 0.0
        co = extract_rect_coefficients(T)
        assert (co.alpha, co.beta) == (9.0, 4.0)

    def test_pattern_mismatch_detected(self):
        T = QuarticTensor.from_pattern(2, 9.0, 4.0).entries.copy()
        for perm in set(itertools.permutations((0, 0, 0, 1))):
            T[perm] = 0.05
        with pytest.raises(PatternMismatch):
            extract_rect_coefficients(QuarticTensor(2, T))


class TestEvaluators:
    def test_value_at_origin(self, f_sq5):
        assert f_sq5.value(np.zeros(2)) == 0.0

    def test_simple_eigenvalue_closed_form(self, f_sq1):
        # k=1: F(a) = a^2/2 - a^4/4 * int e^4
        alpha = f_sq1.tensor.entries[0, 0, 0, 0]
        for a in (0.3, 1.1, 2.4):
            assert f_sq1.value([a]) == pytest.approx(a**2 / 2 - alpha * a**4 / 4, rel=1e-14)

    def test_unit_vector_value(self, f_sq5):
        alpha = f_sq5.tensor.entries[0, 0, 0, 0]
        assert f_sq5.value([1.0, 0.0]) == pytest.approx(0.5 - alpha / 4, rel=1e-14)

    def test_gradient_zero_at_origin(self, f_sq5):
        assert np.all(f_sq5.gradient(np.zeros(2)) == 0.0)

    def test_gradient_zero_at_single_mode_amplitude(self, f_sq1):
        alpha = f_sq1.tensor.entries[0, 0, 0, 0]
        a0 = alpha ** (-1.0 / 2.0)  # (int e^4)^(-1/(p-1)) with p = 3
        assert np.linalg.norm(f_sq1.gradient([a0])) <= 1e-14

    def test_gradient_matches_finite_differences(self, f_sq5, f_cube6):
        rng = np.random.default_rng(3)
        for f in (f_sq5, f_cube6):
            for _ in range(100):
                a = rng.uniform(-1.0, 1.0, f.k) * 3.0 / np.sqrt(f.k)
                g = f.gradient(a)
                fd = fd_gradient(f.value, a)
                assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_hessian_identity_at_origin(self, f_sq5):
        assert np.array_equal(f_sq5.hessian(np.zeros(2)), np.eye(2))

    def test_hessian_symmetric_and_matches_fd(self, f_sq5, f_cube6):
        rng = np.random.default_rng(4)
        for f in (f_sq5, f_cube6):
            for _ in range(20):
                a = rng.uniform(-2.0, 2.0, f.k)
                H = f.hessian(a)
                assert np.array_equal(H, H.T)
                fd = fd_jacobian(f.gradient, a, h=1e-5)
                scale = max(1.0, float(np.max(np.abs(H))))
                assert np.max(np.abs(H - 0.5 * (fd + fd.T))) <= 1e-5 * scale

    def test_hessian_eigenvalues_at_gamma_points(self, f_sq5):
        # at (gamma_1, 0): diag(1 - 3 alpha g^2, 1 - 3 beta g^2) = (-2, -1/3)
        co = extract_rect_coefficients(f_sq5.tensor)
        g1 = co.alpha ** -0.5
        g2 = (co.alpha + 3 * co.beta) ** -0.5
        eigs1 = np.linalg.eigvalsh(f_sq5.hessian([g1, 0.0]))
        assert eigs1 == pytest.approx([-2.0, -1.0 / 3.0], abs=1e-8)
        eigs2 = np.linalg.eigvalsh(f_sq5.hessian([g2, g2]))
        assert eigs2 == pytest.approx([-2.0, 2.0 / 7.0], abs=1e-8)

    def test_evenness(self, f_sq5, f_cube6):
        rng = np.random.default_rng(5)
        for f in (f_sq5, f_cube6):
            for _ in range(100):
                a = rng.uniform(-2.5, 2.5, f.k)
                assert f.value(-a) == pytest.approx(f.value(a), rel=1e-14, abs=1e-14)
                assert np.allclose(f.gradient(-a), -f.gradient(a), atol=1e-14)
                assert np.allclose(f.hessian(-a), f.hessian(a), atol=1e-14)

    def test_mountain_pass_geometry(self, f_sq5):
        # small sphere strictly above zero, large sphere strictly below
        rng = np.random.default_rng(6)
        scale = f_sq5.mode_scale()
        dirs = rng.standard_normal((200, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        small = [f_sq5.value(0.3 * scale * d) for d in dirs]
        large = [f_sq5.value(4.0 * scale * d) for d in dirs]
        assert min(small) > 0.0 > max(large)

    def test_mode_scale_equals_single_mode_amplitude(self, f_sq1):
        alpha = f_sq1.tensor.entries[0, 0, 0, 0]
        assert f_sq1.mode_scale() == pytest.approx(alpha**-0.5, rel=1e-12)


class TestQuadratureBackend:
    def test_backend_agreement_p3(self, square, sq_g5):
        # the node evaluators and the quadrature tensor against the closed form
        exact = bb.ReducedFunctional.for_group(sq_g5, square, backend="exact-quartic")
        for quadr in (node_functional(sq_g5, square),
                      bb.ReducedFunctional.for_group(sq_g5, square, backend="quadrature")):
            rng = np.random.default_rng(8)
            for _ in range(25):
                a = rng.uniform(-1.5, 1.5, 2)
                assert quadr.value(a) == pytest.approx(exact.value(a), abs=1e-9, rel=1e-9)
                assert np.max(np.abs(quadr.gradient(a) - exact.gradient(a))) <= 1e-9
                assert np.max(np.abs(quadr.hessian(a) - exact.hessian(a))) <= 1e-9

    @pytest.mark.parametrize("domain, lam", [("square", 50), ("cube", 14)])
    def test_quadrature_tensor_is_the_panel_einsum(self, domain, lam):
        # bit for bit, since quadrature-backend reports are kept byte for byte:
        # per axis sum_x w s_i s_h s_l s_m on the Gauss panels, multiplied
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=lam)
        f = bb.ReducedFunctional.for_group(group, dom, backend="quadrature")
        factors = []
        for n, L, (x, w) in zip(np.array([m.indices for m in group.modes]).T, dom.sides,
                                _axis_panels(group, dom, 12, 1)):
            S = np.sqrt(2.0 / L) * np.sin(np.pi / L * np.outer(x, n))
            factors.append(np.einsum("x,xi,xh,xl,xm->ihlm", w, S, S, S, S, optimize=True))
        assert np.array_equal(f.tensor.entries, functools.reduce(np.multiply, factors) + 0.0)

    def test_backend_agreement_high_frequency_group(self, square, sq_g50):
        exact = bb.ReducedFunctional.for_group(sq_g50, square, backend="exact-quartic")
        quadr = node_functional(sq_g50, square)
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, 3)
            assert quadr.value(a) == pytest.approx(exact.value(a), abs=1e-9, rel=1e-9)
            assert np.max(np.abs(quadr.gradient(a) - exact.gradient(a))) <= 1e-9

    def test_general_exponent_gradient(self, square, sq_g5):
        f = bb.ReducedFunctional.for_group(sq_g5, square, p=2.5)
        assert f.backend == "quadrature"
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.uniform(-1.5, 1.5, 2)
            g = f.gradient(a)
            fd = fd_gradient(f.value, a)
            assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))
        H = f.hessian([0.7, -0.4])
        fdH = fd_jacobian(f.gradient, [0.7, -0.4], h=1e-5)
        assert np.max(np.abs(H - 0.5 * (fdH + fdH.T))) <= 1e-5

    def test_gradient_many_matches_single(self, f_sq5, square, sq_g5):
        """Batched derivatives against one-point formulas that share no code
        with them: the tensor contractions, and central differences of
        ``value`` for the node evaluators."""
        quadr = node_functional(sq_g5, square)
        T = f_sq5.tensor.entries
        rng = np.random.default_rng(11)
        A = rng.uniform(-2, 2, (40, 2))
        for a, g, H in zip(A, f_sq5.gradient_many(A), f_sq5.hessian_many(A)):
            assert np.allclose(g, a - np.einsum("ihlm,h,l,m->i", T, a, a, a), atol=1e-12)
            assert np.allclose(H, np.eye(2) - 3.0 * np.einsum("ihlm,l,m->ih", T, a, a),
                               atol=1e-12)
        for a, g, H in zip(A, quadr.gradient_many(A), quadr.hessian_many(A)):
            assert np.linalg.norm(g - fd_gradient(quadr.value, a)) <= 1e-6 * (1 + np.linalg.norm(g))
            fd = fd_jacobian(lambda x: fd_gradient(quadr.value, x, h=1e-4), a, h=1e-4)
            assert np.max(np.abs(H - fd)) <= 1e-5 * max(1.0, float(np.max(np.abs(H))))

    @pytest.mark.parametrize("source", ["cube14", "nonsymmetric"])
    def test_derivatives_match_tensor_contractions(self, cube, source):
        """The batched exact-quartic derivatives against the einsum formulas;
        a non-symmetric tensor pins which index is contracted where."""
        rng = np.random.default_rng(21)
        if source == "cube14":
            f = bb.ReducedFunctional.for_group(bb.find_group(cube, eigenvalue=14), cube)
        else:
            f = bb.ReducedFunctional.from_tensor(QuarticTensor(5, rng.standard_normal((5,) * 4)))
        T = f.tensor.entries
        A = rng.uniform(-1.5, 1.5, (300, f.k))
        grad = A - np.einsum("ihlm,nh,nl,nm->ni", T, A, A, A)
        hess = np.eye(f.k) - 3.0 * np.einsum("ihlm,nl,nm->nih", T, A, A)
        for got, ref in ((f.gradient_many(A), grad), (f.hessian_many(A), hess)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("source", ["symmetric", "nonsymmetric", "pattern"])
    def test_gradient_sq_grid_matches_rows(self, k, source):
        """The tensor-product scan of |grad|^2 against the batched gradient
        of the same grid points, row by row; a non-symmetric tensor pins
        which index the monomial tables contract where."""
        rng = np.random.default_rng(30 + k)
        if source == "pattern":
            tensor = QuarticTensor.from_pattern(k, 9.0, 4.0)
        else:
            T = rng.standard_normal((k,) * 4)
            if source == "symmetric":
                T = sum(np.transpose(T, perm) for perm in itertools.permutations(range(4))) / 24
            tensor = QuarticTensor(k, T)
        f = bb.ReducedFunctional.from_tensor(tensor)
        axis = np.linspace(-1.3, 1.3, (41, 17, 9)[k - 1])
        points = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
        ref = np.sum(f.gradient_many(points) ** 2, axis=1).reshape((len(axis),) * k)
        got = f.gradient_sq_grid(axis)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(ref)))

    @pytest.mark.parametrize("backend", ["exact-quartic", "quadrature"])
    def test_gradient_sq_grid_takes_one_array_per_axis(self, backend, cube, cube_g6):
        # grid axis d indexes coordinate d, each on its own axis; the
        # quadrature row scans the node evaluators
        f = (bb.ReducedFunctional.for_group(cube_g6, cube) if backend == "exact-quartic" else
             node_functional(cube_g6, cube))
        axes = [np.linspace(-1.0, 0.5, 4), np.linspace(-0.3, 1.2, 3), np.linspace(0.1, 0.9, 5)]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        ref = np.sum(f.gradient_many(points) ** 2, axis=1).reshape(4, 3, 5)
        got = f.gradient_sq_grid(axes)
        assert got.shape == (4, 3, 5)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(ref)))

    def test_quadrature_gradient_sq_grid_is_the_row_scan(self, square, sq_g5):
        # one row block: the same gradient_many call, bit for bit, on the
        # nodes (p != 3)
        f = bb.ReducedFunctional.for_group(sq_g5, square, p=2.5, backend="quadrature")
        axis = np.linspace(-2.0, 2.0, 31)
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        g = f.gradient_many(points)
        assert np.array_equal(f.gradient_sq_grid(axis).ravel(),
                              np.sum(np.square(g, out=g), axis=1))

    def test_exact_quartic_derivatives_plan_no_einsum(self, f_cube6, monkeypatch):
        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum called")

        A = np.random.default_rng(22).uniform(-1, 1, (50, 3))
        monkeypatch.setattr(np, "einsum", no_einsum)
        assert f_cube6.gradient_many(A).shape == (50, 3)
        assert f_cube6.hessian_many(A).shape == (50, 3, 3)

    def test_batched_evaluation_memory_is_bounded(self, cube, cube_g6):
        # 2000 rows x 13824 nodes would be a 221 MB array in one piece
        f = node_functional(cube_g6, cube)
        A = np.random.default_rng(12).uniform(-1, 1, (2000, 3))
        for method in (f.gradient_many, f.hessian_many):
            tracemalloc.start()
            try:
                method(A)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 128 * 2**20

    def test_supercritical_warning_in_3d(self, cube, cube_g6):
        with pytest.warns(SupercriticalExponentWarning):
            bb.ReducedFunctional.for_group(cube_g6, cube, p=6.0)

    def test_exponent_validation(self, square, sq_g5):
        with pytest.raises(ValueError):
            bb.ReducedFunctional.for_group(sq_g5, square, p=0.5)
        with pytest.raises(ValueError):
            bb.ReducedFunctional.for_group(sq_g5, square, p=4.0, backend="exact-quartic")
        with pytest.raises(ValueError):
            bb.ReducedFunctional.from_tensor(
                QuarticTensor.from_pattern(2, 9.0, 4.0), p=2.0
            )
