import dataclasses
import functools
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import bifurcbox as bb
from bifurcbox import cli, critpoints, pdeverify
from bifurcbox.errors import (
    ConvergedToWrongBranch,
    GridTooCoarse,
    NewtonDiverged,
    SpectrumTooClose,
    SupercriticalP,
)
from bifurcbox.pdeverify import (
    VerifyConfig,
    _count_at_most,
    _grid_map,
    _grid_tables,
    _linear_solve,
    _lowest_entries,
    _neighbor_gap,
    _pair_orbits,
    _pair_tol,
    _axes,
    _residual,
    _sector_slots,
    _sine_eigenvalues_1d,
    _sine_matrix,
    _SineTransform,
    _stabiliser,
    discrete_reference_point,
    fit_order,
    geometric_schedule,
    grid_functional,
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


def stencil_eigenvalues(dp) -> np.ndarray:
    """D, the stencil eigenvalue at every sine index of ``dp``'s grid: the
    sum of the axes' symbols, in axis order."""
    return functools.reduce(np.add.outer, dp.freq_1d)


def project(dp, v) -> np.ndarray:
    """Discrete L2 projections of v onto the dense group basis."""
    return dp.weight * (group_basis(dp).T @ v)


def group_basis(dp) -> np.ndarray:
    """The (n, k) dense group basis, which the package never builds: each
    mode's DST-I columns, one per axis, multiplied out over the grid and
    divided by sqrt(weight)."""
    return np.column_stack([
        functools.reduce(np.multiply.outer, [_sine_matrix(n, np.arange(1, n + 1), [i])[:, 0]
                                             for n, i in zip(dp.shape, m.indices)]).ravel()
        for m in dp.group.modes
    ]) / math.sqrt(dp.weight)


def full_transform(dp) -> _SineTransform:
    """The sine transform on every class: the sector of no symmetry."""
    return dp.sector(((0, 1),))


def norm_h1(dp, u) -> float:
    """The discrete H1 seminorm sqrt(w u . A u), A applied in sine coordinates."""
    Q = full_transform(dp)
    return math.sqrt(dp.weight * float(np.sum(Q.eigenvalues * Q.dst(Q.restrict(u)) ** 2)))


def reference_pair_orbits(dp, pairs):
    """The verifier's orbit search before it shared the keyed rule of
    ``critpoints._orbits``, kept as the reference: a loop over pairs x
    representatives x isometries in the 2-norm, + before -."""
    isometries, src, sign = dp.symmetries
    images, sources = {}, []
    for j, a in enumerate(pairs):
        tol = _pair_tol(a)
        source = next(((i, isometries[n], s) for i, img in images.items() for s in (1.0, -1.0)
                       for n in np.flatnonzero(np.linalg.norm(s * img - a, axis=1) <= tol)),
                      None)
        if source is None:
            images[j] = np.asarray(a)[src] * sign
        sources.append(source)
    return sources


def orbit_representatives(domain, eigenvalue, grid):
    """The problem on ``grid`` and the lowest pair of each grid-symmetry
    orbit of the group at ``eigenvalue``."""
    dom = getattr(bb.DomainSpec, domain)()
    group = bb.find_group(dom, eigenvalue=eigenvalue)
    dp = bb.build_laplacian(dom, grid, group)
    pred = bb.predict_branches(
        group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom))
    )
    sources = _pair_orbits(dp, [cp.a for cp in pred.pairs])
    return dp, [cp for cp, src in zip(pred.pairs, sources) if src is None]


def axis_character(parities):
    """The character of the reversals of the axes whose parity s is not
    None, with chi = s on each: ((h, chi), ...) ascending in h."""
    fixed = [d for d, s in enumerate(parities) if s is not None]
    return tuple(sorted(
        (sum(1 << d for d in sub), math.prod(parities[d] for d in sub))
        for r in range(len(fixed) + 1) for sub in itertools.combinations(fixed, r)))


def subgroup_characters(dim):
    """Every subgroup H of the 2^dim axis-reversal products (bit d: axis d)
    with every character on it, each as ((h, chi), ...) ascending in h."""
    groups = set()
    for gens in itertools.product(range(2**dim), repeat=dim):
        H = {0}
        for g in gens:
            H |= {h ^ g for h in H}
        groups.add(tuple(sorted(H)))
    out = []
    for H in sorted(groups):
        for signs in itertools.product((1, -1), repeat=len(H) - 1):
            chi = dict(zip(H, (1, *signs)))
            if all(chi[a ^ b] == chi[a] * chi[b] for a in H for b in H):
                out.append(tuple(chi.items()))
    return out


def sector_function(shape, character, seed):
    """A random grid function with f(h x) = chi f(x) for each (h, chi),
    exactly: mirrored along one generator of the subgroup at a time."""
    x = np.random.default_rng(seed).standard_normal(shape)
    span = {0}
    for h, chi in character:
        if h not in span:
            x = x + chi * np.flip(x, _axes(h))
            span |= {g ^ h for g in span}
    return x


def unit_tables(shape):
    return _grid_tables(shape, [_sine_eigenvalues_1d(n + 1, 1.0) for n in shape])


def full_eigenvalues(shape):
    freq = [_sine_eigenvalues_1d(n + 1, 1.0) for n in shape]
    return functools.reduce(np.add.outer, freq)


def class_slices(T, c):
    """Where class c of ``T`` sits in a full array of sine coefficients,
    and the block of the class stack it fills."""
    sigma = T.classes[c]
    full = tuple(slice(sigma >> d & 1, None, 2) for d in range(len(T.full_shape)))
    block = (c,) + tuple(slice(0, (n - (sigma >> d & 1) + 1) // 2)
                         for d, n in enumerate(T.full_shape))
    return full, block


def to_classes(T, coeffs):
    """A full array of sine coefficients as ``T``'s class stack, zero-padded."""
    out = np.zeros(T.shape)
    for c in range(T.shape[0]):
        full, block = class_slices(T, c)
        out[block] = coeffs[full]
    return out


def from_classes(T, stack):
    out = np.zeros(T.full_shape)
    for c in range(T.shape[0]):
        full, block = class_slices(T, c)
        out[full] = stack[block]
    return out


def rank(character):
    return len(character).bit_length() - 1


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
        Q = full_transform(dp_sq5)
        shift = Q.eigenvalues - rec_sq5.lam
        w = np.abs(shift) ** -0.5
        f = 3.0 * rec_sq5.epsilon * Q.restrict(rec_sq5.v) ** 2
        op = Q.operator(w, f, diag=w * shift * w)
        T = np.column_stack([op(e.reshape(Q.shape)).ravel() for e in np.eye(w.size)])
        assert np.max(np.abs(T - T.T)) <= 1e-13 * np.max(np.abs(T))

    def test_build_peak_memory(self, cube, cube_g6):
        # the sine-transform form needs no Kronecker intermediates (6.9 MB
        # at 33^3 with an assembled sparse stencil), and with neither the
        # dense basis nor the full-grid spectrum it peaks at about 0.2 MB
        bb.build_laplacian(cube, 33, cube_g6)
        tracemalloc.start()
        try:
            bb.build_laplacian(cube, 33, cube_g6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    def test_build_peak_memory_at_the_grid_limit(self, cube):
        # cube lambda=54 (k = 12) at 65^3: with the dense group basis and the
        # full-grid spectrum the build peaked at 52 MB; from the 1-D symbols,
        # a count per grid line and then the lowest entries, at about 0.3 MB
        group = bb.find_group(cube, eigenvalue=54)
        assert group.k == 12
        bb.build_laplacian(cube, 65, group)
        tracemalloc.start()
        try:
            dp = bb.build_laplacian(cube, 65, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        assert "eigvecs" not in vars(dp)

    @pytest.mark.parametrize("side_sq, eigenvalue, grid", [
        (["pi^2", "pi^2"], 5, 64), (["pi^2", "pi^2"], 50, 33), (["pi^2", "pi^2"], 82, 20),
        (["pi^2", "pi^2", "pi^2"], 6, 13), (["pi^2", "pi^2", "pi^2"], 54, 65),
        (["pi^2", "4pi^2"], 10, 48),
        # FD-split group members above lambda_h
        (["pi^2", "pi^2"], 50, 64), (["pi^2", "pi^2"], 65, 64),
        # a mode below lambda_h and one above it at the same distance
        (["pi^2", "pi^2"], 5, 32), (["pi^2", "pi^2", "pi^2"], 6, 17),
    ])
    def test_neighbor_gap_matches_the_full_spectrum(self, side_sq, eigenvalue, grid):
        # the entries up to lambda_h and the k + 1 lowest above them hold
        # the full grid's nearest non-group eigenvalue, bit for bit, and of
        # the modes at that distance the first in C order, the one a
        # coincident-mode refusal names; all cases but two tie several
        dom = bb.DomainSpec.from_strings(side_sq)
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        D = stencil_eigenvalues(dp)
        positions = tuple(np.array([m.indices for m in group.modes]).T - 1)
        dist = np.abs(D - dp.lambda_h)
        dist[positions] = np.inf
        nearest = np.argwhere(dist == dist.min())
        assert len(nearest) > 1 or (eigenvalue, grid) in {(5, 64), (10, 48)}
        assert dp.neighbor_gap == dist.min()
        assert _neighbor_gap(dp.freq_1d, dp.lambda_h, positions) == (
            dp.neighbor_gap, tuple(nearest[0]))
        if grid == 64 and eigenvalue in (50, 65):
            assert np.any(D[positions] > dp.lambda_h)

    @pytest.mark.parametrize("domain, eigenvalue, grid, mode, gap", [
        ("square", 82, 18, (5, 7), "1.421e-14"), ("cube", 26, 15, (1, 1, 5), "0.000e+00"),
    ])
    def test_coincident_mode_refusal_names_the_first_nearest_mode(
            self, domain, eigenvalue, grid, mode, gap):
        # the first mode in C order at the rounding-level gap, as on the full grid
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        with pytest.raises(GridTooCoarse) as err:
            bb.build_laplacian(dom, grid, group)
        assert str(err.value).startswith(f"FD mode {mode}, outside the group, coincides")
        assert f"(gap {gap})" in str(err.value)
        freq = [_sine_eigenvalues_1d(grid, L) for L in dom.sides]
        D = functools.reduce(np.add.outer, freq)
        dist = np.abs(D - np.mean([D[tuple(i - 1 for i in m.indices)] for m in group.modes]))
        dist[tuple(np.array([m.indices for m in group.modes]).T - 1)] = np.inf
        assert tuple(np.argwhere(dist <= 1e-12 * D.max())[0] + 1) == mode

    def test_problems_compare_by_identity(self, square, sq_g5, dp_sq5):
        # comparing the ndarray fields would raise; a problem equals itself only
        other = bb.build_laplacian(square, 32, sq_g5)
        assert dp_sq5 == dp_sq5 and dp_sq5 != other
        assert hash(dp_sq5) == hash(dp_sq5)
        assert len({dp_sq5, other}) == 2

    def test_reversal_signs_match_grid_symmetries(self, dp_sq5, cube, cube_g6):
        # the pure reversals lead the grid's table, each a diagonal map
        for dp in (dp_sq5, bb.build_laplacian(cube, 12, cube_g6)):
            axes = tuple(range(len(dp.shape)))
            isometries, src, sign = dp.symmetries
            modes = np.array([m.indices for m in dp.group.modes])
            reversals = [flips for perm, flips in isometries if perm == axes]
            assert sorted(reversals) == sorted(_axes(h) for h in range(2 ** len(axes)))
            for g, flips in enumerate(reversals):
                assert isometries[g] == (axes, flips)
                assert np.array_equal(src[g], np.arange(dp.group.k))
                assert np.array_equal(
                    sign[g], (-1.0) ** np.sum(modes[:, list(flips)] + 1, axis=1))

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
        with pytest.raises(GridTooCoarse, match=r"splits by 5\.817e-01 against a neighbor "
                                                r"gap of 3\.275e-01"):
            bb.build_laplacian(dom, 18, g)
        dp = bb.build_laplacian(dom, 48, g)
        assert dp.splitting <= 0.5 * dp.neighbor_gap

    def test_grid_too_coarse_on_a_coincident_eigenvalue(self, square):
        # at 18 intervals sin^2 x + sin^2 y = 1 - cos(x + y) cos(x - y) and
        # cos 50 cos 40 = cos 60 cos 10 (degrees) make the FD modes (5, 7)
        # and (7, 5) equal to (1, 9) and (9, 1) to 1.1e-16: the discrete
        # eigenspace has four dimensions, not two
        g = bb.find_group(square, eigenvalue=82)
        assert [m.indices for m in g.modes] == [(1, 9), (9, 1)]
        with pytest.raises(GridTooCoarse, match=r"mode \(5, 7\).*to rounding"):
            bb.build_laplacian(square, 18, g)
        assert bb.build_laplacian(square, 20, g).neighbor_gap > 0.1

    def test_minimum_interior_points(self, square, sq_g1, cube, cube_g6):
        with pytest.raises(ValueError):
            bb.build_laplacian(square, 12, sq_g1)
        with pytest.raises(ValueError):
            bb.build_laplacian(cube, 8, cube_g6)

    def test_basis_discretely_orthonormal(self, dp_sq5):
        E = group_basis(dp_sq5)
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
        E = group_basis(dp)
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
        Q = full_transform(dp_sq5)
        spectral = Q.extend(Q.dst(Q.dst(Q.restrict(v)) * Q.eigenvalues, inverse=True))
        assert np.max(np.abs(direct - spectral)) <= 1e-10 * np.max(np.abs(direct))

    @pytest.mark.parametrize("shape", [(17, 23), (11, 13, 16)])
    def test_sine_transform_matches_scipy_dst(self, shape):
        # anisotropic shapes catch an axis-order slip in the per-axis products
        T = _SineTransform(shape, unit_tables(shape))
        x = np.random.default_rng(1).standard_normal(shape)
        ref = scipy.fft.dstn(x, type=1, norm="ortho")
        got = T.dst(T.restrict(x))
        assert np.max(np.abs(got - to_classes(T, ref))) <= 1e-13 * np.max(np.abs(ref))
        back = T.extend(T.dst(got, inverse=True))
        assert np.max(np.abs(back - x.ravel())) <= 1e-13 * np.max(np.abs(x))
        w = full_eigenvalues(shape)
        assert np.array_equal(T.eigenvalues[T.valid], to_classes(T, w)[T.valid])
        ref = scipy.fft.idstn(ref * w, type=1, norm="ortho").ravel()
        got = T.extend(T.dst(got * T.eigenvalues, inverse=True))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape, parities", [
        ((17,), (1,)), ((17,), (-1,)),  # odd n: the centre row
        ((16,), (1,)), ((16,), (-1,)),  # even n
        ((17, 23), (1, -1)),
        ((11, 13, 16), (-1, None, 1)),  # anisotropic, with a free axis
        ((12, 11, 9), (1, 1, -1)),
    ])
    def test_sector_transform_matches_scipy_dst(self, shape, parities):
        character = axis_character(parities)
        T = _SineTransform(shape, unit_tables(shape), character)
        assert T.shape[0] == 2 ** sum(s is None for s in parities)
        x = sector_function(shape, character, 5)
        ref = scipy.fft.dstn(x, type=1, norm="ortho")
        scale = np.max(np.abs(ref))
        # even functions have odd m only, odd ones even m only
        cols = tuple(slice(None) if s is None else slice(0 if s > 0 else 1, None, 2)
                     for s in parities)
        outside = ref.copy()
        outside[cols] = 0.0
        assert np.max(np.abs(outside)) <= 1e-13 * scale
        half = T.restrict(x)
        assert half.shape == T.shape
        got = T.dst(half)
        assert np.max(np.abs(got - to_classes(T, ref))) <= 1e-13 * scale
        D = to_classes(T, full_eigenvalues(shape))
        assert np.array_equal(T.eigenvalues[T.valid], D[T.valid])
        # the inverse, against SciPy's on the zero-padded coefficients
        y = np.random.default_rng(6).standard_normal(T.shape) * T.valid
        full = scipy.fft.idstn(from_classes(T, y), type=1, norm="ortho")
        back = T.dst(y, inverse=True)
        assert np.max(np.abs(back - T.restrict(full))) <= 1e-13 * np.max(np.abs(full))
        assert np.max(np.abs(T.extend(back) - full.ravel())) <= 1e-13 * np.max(np.abs(full))
        # round trips, and the mirror back to the full grid
        assert np.max(np.abs(T.dst(got, inverse=True) - half)) <= 1e-13 * np.max(np.abs(x))
        assert np.max(np.abs(T.dst(back) - y)) <= 1e-13 * np.max(np.abs(y))
        assert np.array_equal(T.extend(half), x.ravel())
        # the sector's coefficients hold the full inner product (Parseval)
        u = sector_function(shape, character, 7)
        assert np.vdot(T.dst(T.restrict(u)), got) == pytest.approx(
            float(np.vdot(u, x)), rel=1e-12)

    @pytest.mark.parametrize("shape", [(17, 16), (9, 10, 11)])
    def test_unit_coefficient_images_are_the_table_product(self, shape):
        # the Schur block takes a unit mode's images from the inverse
        # transform of a unit coefficient: on every sector, odd and even
        # axes alike, exactly the axes' inverse-table entries multiplied in
        # axis order, times the image's Hadamard sign (a zero's sign aside:
        # the product gives -0.0 where the transform's sums give +0.0)
        tables, last = unit_tables(shape), len(shape) - 1
        for character in subgroup_characters(len(shape)):
            T = _SineTransform(shape, tables, character)
            for at in zip(*np.nonzero(T.valid)):
                cls, *idx = at
                sigma = T.classes[cls]
                ref = functools.reduce(np.multiply.outer, [  # the last table is transposed
                    t.inverse[sigma >> d & 1][i] if d == last else t.inverse[sigma >> d & 1][:, i]
                    for d, (t, i) in enumerate(zip(tables, idx))])
                e = np.zeros(T.shape)
                e[at] = 1.0
                assert np.array_equal(T.dst(e, inverse=True),
                                      np.multiply.outer(T.hadamard[:, cls], ref))

    @pytest.mark.parametrize("shape", [(16, 16), (17, 17), (11, 13, 16)])
    def test_class_stack_transform_matches_scipy_dst(self, shape):
        # every subgroup H of reversal products with every character: the
        # sector has 2^(dim - rank H) classes, each on the half grid
        tables = unit_tables(shape)
        D = full_eigenvalues(shape)
        sectors = subgroup_characters(len(shape))
        assert len(sectors) == {2: 1 + 3 * 2 + 4, 3: 1 + 7 * 2 + 7 * 4 + 8}[len(shape)]
        for n, character in enumerate(sectors):
            T = _SineTransform(shape, tables, character)
            assert T.shape[0] * len(character) == 2 ** len(shape)
            x = sector_function(shape, character, n)
            ref = scipy.fft.dstn(x, type=1, norm="ortho")
            scale = np.max(np.abs(ref))
            images = T.restrict(x)
            assert images.shape == T.shape
            got = T.dst(images)
            assert np.max(np.abs(got - to_classes(T, ref))) <= 1e-13 * scale
            # nothing outside the classes: every other coefficient vanishes
            assert np.max(np.abs(from_classes(T, got) - ref)) <= 1e-13 * scale
            assert np.all(got[~T.valid] == 0.0)
            assert np.array_equal(T.eigenvalues[T.valid], to_classes(T, D)[T.valid])
            # round trip, and the images mirrored to the full grid exactly
            again = T.dst(got, inverse=True)
            assert np.max(np.abs(again - images)) <= 1e-13 * np.max(np.abs(x))
            assert np.array_equal(T.extend(images), x.ravel())
            # the inverse against SciPy's on the zero-padded coefficients;
            # values at the padding are ignored
            y = np.random.default_rng(n + 100).standard_normal(T.shape)
            full = scipy.fft.idstn(from_classes(T, y * T.valid), type=1, norm="ortho")
            back = T.extend(T.dst(y, inverse=True))
            assert np.max(np.abs(back - full.ravel())) <= 1e-13 * np.max(np.abs(full))
            # Parseval: the class coefficients hold the full grid's sum
            assert np.vdot(got, got) == pytest.approx(float(np.vdot(x, x)), rel=1e-12)

    def test_operator_builds_without_a_matvec(self, dp_sq5, monkeypatch):
        T = full_transform(dp_sq5)
        calls = []
        dst = T.dst
        monkeypatch.setattr(T, "dst", lambda *args, **kw: calls.append(1) or dst(*args, **kw))
        op = T.operator(T.eigenvalues ** -0.5, np.ones(T.shape), T.eigenvalues)
        assert calls == []
        op(np.ones(T.shape))
        assert len(calls) == 2

    def test_h1_norm_matches_stencil(self, dp_sq5):
        u = np.random.default_rng(2).standard_normal(dp_sq5.n)
        ref = math.sqrt(dp_sq5.weight * float(u @ (reference_stencil(dp_sq5) @ u)))
        assert norm_h1(dp_sq5, u) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("domain, eigenvalue, grid", [("square", 5, 32), ("cube", 6, 12)])
    def test_linear_solve_matches_dense(self, domain, eigenvalue, grid):
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        eps = 0.05
        lam = dp.lambda_h - eps
        v = group_basis(dp) @ np.linspace(1.0, 2.0, group.k)
        f = 3.0 * eps * v**2
        rhs = np.random.default_rng(3).standard_normal(dp.n)
        Q = full_transform(dp)
        x, info = _linear_solve(Q, lam, Q.restrict(f), Q.dst(Q.restrict(rhs)), 1e-12)
        x = Q.extend(Q.dst(x, inverse=True))
        assert info == 0
        J = reference_stencil(dp).toarray() - np.diag(lam + f)
        ref = np.linalg.solve(J, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


class TestKrylovKernels:
    """The numpy MINRES, CG and pencil solver against SciPy's, on small
    dense matrices."""

    @staticmethod
    def symmetric(n, shift, seed):
        B = np.random.default_rng(seed).standard_normal((n, n))
        return B + B.T + shift * np.eye(n)

    def test_minres_matches_scipy(self):
        A = self.symmetric(40, 0.5, 4)
        assert np.min(np.linalg.eigvalsh(A)) < 0 < np.max(np.linalg.eigvalsh(A))
        b = np.random.default_rng(5).standard_normal(40)
        x, info = pdeverify._minres(lambda y: A @ y, b, rtol=1e-12, maxiter=2000)
        ref, ref_info = scipy.sparse.linalg.minres(A, b, rtol=1e-12, maxiter=2000)
        assert info == ref_info == 0
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
        x, info = pdeverify._minres(lambda y: A @ y, b, rtol=1e-12, maxiter=3)
        ref, ref_info = scipy.sparse.linalg.minres(A, b, rtol=1e-12, maxiter=3)
        assert info == ref_info == 3
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_minres_least_squares_stop_matches_scipy(self):
        # singular A and b off its range: ||r|| stalls, so only the
        # ||A r|| test (test2) can stop the iteration at rtol 1e-6
        rng = np.random.default_rng(10)
        U, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        d = np.linspace(-3.0, 5.0, 30)
        d[7] = 0.0
        A = (U * d) @ U.T
        b = rng.standard_normal(30)
        x, info = pdeverify._minres(lambda y: A @ y, b, rtol=1e-6, maxiter=500)
        ref, ref_info = scipy.sparse.linalg.minres(A, b, rtol=1e-6, maxiter=500)
        assert info == ref_info == 0
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.linalg.norm(A @ (A @ x - b)) <= 1e-5 * np.linalg.norm(A @ b)

    def test_minres_zero_rhs(self):
        x, info = pdeverify._minres(lambda y: y, np.zeros((3, 4)), rtol=1e-12, maxiter=5)
        assert info == 0 and x.shape == (3, 4) and not x.any()

    def test_cg_matches_scipy(self):
        A = self.symmetric(40, 30.0, 6)
        assert np.min(np.linalg.eigvalsh(A)) > 0
        M = 1.0 / np.diag(A)
        b = np.random.default_rng(7).standard_normal(40)
        for maxiter, expected in ((1000, 0), (2, 2)):
            x, info = pdeverify._cg(lambda y: A @ y, b, M, rtol=1e-12, maxiter=maxiter)
            ref, ref_info = scipy.sparse.linalg.cg(A, b, rtol=1e-12, maxiter=maxiter,
                                                   M=np.diag(M))
            assert info == ref_info == expected
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_pencil_matches_scipy(self):
        S = self.symmetric(12, 0.0, 8)
        B = np.random.default_rng(9).standard_normal((12, 12))
        G = B @ B.T + np.eye(12)
        theta, W = pdeverify._pencil_eigh(S, G)
        ref = scipy.linalg.eigh(S, G, eigvals_only=True)
        np.testing.assert_allclose(theta, ref, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(W.T @ G @ W - np.eye(12))) <= 1e-12
        assert np.max(np.abs(S @ W - G @ W * theta)) <= 1e-12 * np.max(np.abs(S))

    def test_pencil_of_an_indefinite_gram_matrix_is_refused(self):
        # a Gram matrix of dependent directions, rounded below definiteness
        S, G = self.symmetric(4, 0.0, 8), np.diag([1.0, 1.0, 1.0, -1e-17])
        with pytest.raises(SpectrumTooClose, match="not positive definite"):
            pdeverify._pencil_eigh(S, G)


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
        recon = group_basis(dp_sq1) @ rec_sq1.a_lambda + (
            rec_sq1.v - group_basis(dp_sq1) @ rec_sq1.a_lambda
        )
        assert np.max(np.abs(recon - rec_sq1.v)) == 0.0
        phi = rec_sq1.v - group_basis(dp_sq1) @ rec_sq1.a_lambda
        assert abs(dp_sq1.inner(phi, group_basis(dp_sq1)[:, 0])) <= 1e-12

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

    @pytest.mark.parametrize("domain, eigenvalue, grid", [
        ("square", 5, 33), ("cube", 6, 12), ("square", 5, 32), ("cube", 6, 14),
    ])
    def test_parity_sector_solution_matches_dense_newton(self, domain, eigenvalue, grid):
        # a pair with P_h a = chi(h) a for the reversal products h of its
        # stabiliser solves on the classes of that character; the mirrored
        # solution has v(h x) = chi(h) v(x) bit for bit and agrees with an
        # undamped full-grid Newton on the assembled stencil.  The square's
        # diagonal pair and the cube's (t, t, t) and (t, t, 0) pairs have
        # composite stabilisers: no single reversal fixes the first two
        dp, reps = orbit_representatives(domain, eigenvalue, grid)
        characters = [_stabiliser(dp, cp.a) for cp in reps]
        assert sorted(map(rank, characters)) == {"square": [1, 2], "cube": [1, 2, 3]}[domain]
        A = reference_stencil(dp).toarray()
        eps, lam = 0.05, dp.lambda_h - 0.05
        checked = 0
        for cp, character in zip(reps, characters):
            rec = bb.solve_branch(dp, cp.a, eps, tol=1e-12)  # both to rounding
            v = rec.v.reshape(dp.shape)
            for h, chi in character:
                assert np.array_equal(v, chi * np.flip(v, _axes(h)))
            ref = group_basis(dp) @ cp.a
            for _ in range(20):
                r = A @ ref - lam * ref - eps * ref**3
                if dp.norm_l2(r) <= 1e-13:
                    break
                ref -= np.linalg.solve(A - np.diag(lam + 3.0 * eps * ref**2), r)
            a_ref = project(dp, ref)
            assert np.max(np.abs(rec.a_lambda - a_ref)) <= 1e-10
            assert rec.phi_norm == pytest.approx(norm_h1(dp, ref - group_basis(dp) @ a_ref),
                                                 abs=1e-10)
            checked += 1
        assert checked == {"square": 2, "cube": 3}[domain]

    @pytest.mark.parametrize("side_sq, eigenvalue, grid", [
        (["pi^2", "pi^2"], 5, 64), (["pi^2", "pi^2", "pi^2"], 6, 33),
        (["pi^2", "4pi^2"], 10, 48),
    ])
    def test_coefficient_projection_matches_the_group_basis(self, side_sq, eigenvalue,
                                                            grid):
        # the start, a_lambda and phi read at the group modes' sine
        # coefficients agree with the dense basis E on the full grid
        dom = bb.DomainSpec.from_strings(side_sq)
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom)))
        for cp in pred.pairs:
            Q = dp.sector(_stabiliser(dp, cp.a))
            inside, slots = _sector_slots(
                Q, tuple(np.array([m.indices for m in group.modes]).T - 1))
            start = np.zeros(Q.shape)
            start[slots] = cp.a[inside] / math.sqrt(dp.weight)
            ref = Q.dst(Q.restrict(group_basis(dp) @ cp.a))
            assert np.max(np.abs(start - ref)) <= 1e-13 * np.max(np.abs(ref))
            rec = bb.solve_branch(dp, cp.a, 0.05)
            a_ref = project(dp, rec.v)
            assert np.max(np.abs(rec.a_lambda - a_ref)) <= 1e-13 * np.max(np.abs(a_ref))
            assert np.all(rec.a_lambda[~inside] == 0.0)
            phi_ref = norm_h1(dp, rec.v - group_basis(dp) @ a_ref)
            assert abs(rec.phi_norm - phi_ref) <= 1e-13 * norm_h1(dp, rec.v)

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
        # a mu at zero makes the count itself doubtful: none is carried
        with pytest.raises(SpectrumTooClose) as err:
            bb.discrete_morse_index(dp_sq1, rec_sq1, zero_tol=1.0)
        assert err.value.morse_index is None

    def test_failed_refinement_keeps_the_inertia_count(self, dp_sq5, rec_sq5, monkeypatch):
        morse, _ = bb.discrete_morse_index(dp_sq5, rec_sq5)

        def failing(self, near):
            raise SpectrumTooClose("the Rayleigh-Ritz Gram matrix is not positive definite")

        monkeypatch.setattr(pdeverify._SchurBlock, "refine", failing)
        with pytest.raises(SpectrumTooClose) as err:
            bb.discrete_morse_index(dp_sq5, rec_sq5)
        assert err.value.morse_index == morse

    def test_window_holds_every_negative_mu(self, square, sq_g1, pred_sq1):
        # eight times the solution makes c = lambda + 3 eps v^2 exceed six
        # stencil eigenvalues, far more negatives than the j - 1 + k expected
        dp = bb.build_laplacian(square, 24, sq_g1)
        rec = bb.solve_branch(dp, pred_sq1.pairs[0].a, 0.1)
        rec = dataclasses.replace(rec, images=8.0 * rec.images)
        A = reference_stencil(dp).toarray()
        mu = np.linalg.eigvalsh(A - np.diag(rec.lam + 3.0 * rec.epsilon * rec.v**2))
        morse, _ = bb.discrete_morse_index(dp, rec)
        assert morse == int(np.sum(mu < 0.0)) == 6

    def test_window_holds_every_negative_mu_3d(self, cube, cube_g6, f_cube6):
        # eight times the solution makes c = lambda + 3 eps v^2 exceed 60
        # stencil eigenvalues, far more than j - 1 + k + 2
        dp = bb.build_laplacian(cube, 12, cube_g6)
        pred = bb.predict_branches(cube_g6, bb.find_critical_points(f_cube6))
        rec = bb.solve_branch(dp, pred.pairs[0].a, 0.05)
        rec = dataclasses.replace(rec, images=8.0 * rec.images)
        c = rec.lam + 3.0 * rec.epsilon * rec.v**2
        window = cube_g6.j - 1 + cube_g6.k + 2
        assert int(np.sum(stencil_eigenvalues(dp) <= c.max())) > window
        mu = np.linalg.eigvalsh(reference_stencil(dp).toarray() - np.diag(c))
        morse, _ = bb.discrete_morse_index(dp, rec)
        assert morse == int(np.sum(mu < 0.0)) == 10

    @pytest.mark.parametrize("side_sq, grid", [
        (["pi^2", "pi^2"], 32), (["pi^2", "pi^2"], 33), (["pi^2", "4pi^2"], (48, 31)),
        (["pi^2", "pi^2", "pi^2"], 16), (["pi^2", "pi^2", "pi^2"], 17),
    ])
    def test_window_count_and_entries_match_the_full_spectrum(self, side_sq, grid):
        # ell from a search of each grid line's symbol, P from the hyperbolic
        # cross: the count of the full grid and the argpartition set, the
        # latter up to ties at its last value
        dom = bb.DomainSpec.from_strings(side_sq)
        dp = bb.build_laplacian(dom, grid, bb.find_group(dom, eigenvalue=len(side_sq)))
        D = stencil_eigenvalues(dp)
        flat = np.sort(D, axis=None)
        for t in [flat[0] - 1.0, *flat[[0, 7, 100, 531]], 0.5 * (flat[40] + flat[41]),
                  flat[-1], 2.0 * flat[-1]]:
            assert _count_at_most(dp.freq_1d, t) == int(np.sum(D <= t))
        for ell in (1, 5, 6, 24, 97, 300):
            P, D_P = _lowest_entries(dp.freq_1d, ell)
            assert np.array_equal(D[P], flat[:ell]) and np.array_equal(D_P, D[P])
            ref = np.unravel_index(np.argpartition(D, ell - 1, axis=None)[:ell], dp.shape)
            if flat[ell - 1] < flat[ell]:
                assert set(zip(*P)) == set(zip(*ref))

    def test_morse_runs_without_an_eigensolver(self, dp_sq5, pred_sq5, monkeypatch):
        def no_eigsh(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_eigsh)
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05, 0.025])
        assert all(v.morse_ok for v in verdicts)

    def test_stalled_schur_solve_defers_the_verdict(self, dp_sq5, rec_sq5, monkeypatch):
        def stalled_cg(A, b, M, rtol, maxiter):
            return np.zeros_like(b), maxiter

        monkeypatch.setattr(pdeverify, "_cg", stalled_cg)
        with pytest.raises(SpectrumTooClose, match="stalled"):
            bb.discrete_morse_index(dp_sq5, rec_sq5)

    def test_morse_does_not_depend_on_the_seed(self, dp_sq5, rec_sq5):
        morse0, near0 = bb.discrete_morse_index(dp_sq5, rec_sq5, rng_seed=0)
        morse1, near1 = bb.discrete_morse_index(dp_sq5, rec_sq5, rng_seed=1)
        assert morse0 == morse1
        assert near0.tobytes() == near1.tobytes()

    @pytest.mark.parametrize("domain, eigenvalue, grid, schedule", [
        ("square", 5, 64, None), ("square", 50, 64, None),
        ("cube", 6, 33, geometric_schedule(0.05, 1)), ("cube", 21, 13, None),
    ])
    def test_stabiliser_is_the_evenness_group_of_c(self, domain, eigenvalue, grid, schedule):
        # the Morse count splits over the characters of the record's
        # stabiliser: on every record of a run, the reversals under which
        # c = lam + eps p |v|^(p-1) on the full grid is exactly even are
        # that stabiliser, no fewer and no more.  Square lambda=50 keeps the
        # four records of its one conclusive pair at 64^2, none at 32^2
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom)))
        schedule = schedule or geometric_schedule(min(0.1, 0.1 * dp.neighbor_gap), 4)
        verdicts = bb.continuation_run(dp, pred, schedule, VerifyConfig(morse=False))
        records = [rec for v in verdicts for rec in v.records]
        assert records
        for rec in records:
            c = np.abs(rec.v.reshape(dp.shape))
            c **= 2.0
            c *= rec.epsilon * 3.0
            c += rec.lam
            even = [h for h in range(2**c.ndim) if np.array_equal(c, np.flip(c, _axes(h)))]
            assert even == [h for h, _ in rec.sector.character]

    @pytest.mark.parametrize("p", [3.0, 2.5])
    def test_morse_count_holds_no_full_grid(self, square, sq_g5, dp_sq5, p, monkeypatch):
        # c is formed on the record's images and the sectors are the
        # characters of its stabiliser: nothing is mirrored to the full
        # grid, cut from it, or flipped on it
        f = bb.ReducedFunctional.for_group(sq_g5, square, p=p)
        pred = bb.predict_branches(sq_g5, bb.find_critical_points(f), p=p)
        records = [bb.solve_branch(dp_sq5, cp.a, 0.05, p) for cp in pred.pairs]
        assert sorted({len(rec.sector.character) for rec in records}) == [2, 4]
        expected = [bb.discrete_morse_index(dp_sq5, rec, p) for rec in records]

        def refused(*args):
            raise AssertionError("a full grid was built")

        monkeypatch.setattr(pdeverify._SineTransform, "extend", refused)
        monkeypatch.setattr(pdeverify._SineTransform, "restrict", refused)
        monkeypatch.setattr(np, "flip", refused)
        for rec, (morse, near) in zip(records, expected):
            got, got_near = bb.discrete_morse_index(dp_sq5, rec, p)
            assert got == morse and got_near.tobytes() == near.tobytes()

    def test_morse_peak_memory(self, cube, cube_g6, f_cube6):
        # one call at 33^3 with ARPACK (eigsh) peaked at 12.34 MB, the
        # full-grid Schur solve at 9.8 MB; this pair is even or odd along
        # every axis, and on those sectors the solve peaks at 1.5 MB
        dp = bb.build_laplacian(cube, 33, cube_g6)
        pred = bb.predict_branches(cube_g6, bb.find_critical_points(f_cube6))
        rec = bb.solve_branch(dp, pred.pairs[0].a, 0.05)
        bb.discrete_morse_index(dp, rec)
        tracemalloc.start()
        try:
            bb.discrete_morse_index(dp, rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_verify_peak_memory(self, tmp_path, capsys):
        # square lambda=5 at 128^2, in process: the sectors share each axis's
        # half tables and the diagonal pairs run on two classes of four.
        # The whole run peaked at 5.51 MB with full-grid Morse solves, 6.04
        # MB with a copy of the half tables per sector, 4.27 MB now
        argv = ["verify", "--domain", "square", "--lam", "5", "--grid", "128"]
        assert cli.main(argv + ["--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 5_500_000

    def test_verify_holds_no_dense_basis(self, tmp_path, monkeypatch, capsys):
        # cube lambda=3 at the 65^3 grid limit: the run solves and counts in
        # sine coefficients and leaves no (n, k) array on its problem
        problems, build = [], cli.build_laplacian
        monkeypatch.setattr(cli, "build_laplacian",
                            lambda *args: problems.append(build(*args)) or problems[-1])
        argv = ["verify", "--domain", "cube", "--lam", "3", "--grid", "65", "--eps-steps", "1"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        capsys.readouterr()
        (dp,) = problems
        assert not {"eigvecs", "eigenvalues"} & vars(dp).keys()
        held, todo = [], list(vars(dp).values())
        while todo:
            x = todo.pop()
            if isinstance(x, np.ndarray):
                held.append(x)
            elif isinstance(x, (tuple, list)):
                todo.extend(x)
            elif isinstance(x, dict):
                todo.extend(x.values())
            elif isinstance(x, _SineTransform):
                todo.extend(vars(x).values())
        assert held and max(x.size for x in held) < dp.n * dp.group.k

    @pytest.mark.parametrize("domain, eigenvalue, grid", [
        ("square", 5, 32), ("square", 5, 33), ("cube", 6, 12), ("cube", 6, 13),
        ("cube", 6, 14), ("square", 25, 32), ("cube", 14, 13),
    ])
    def test_schur_solve_matches_dense_pencil(self, domain, eigenvalue, grid):
        # every orbit representative, on an odd and an even number of
        # interior points: their stabilisers have rank 1 (the square's
        # diagonal pair, the cube's (t, t, t)), 2 or 3.  Square lambda=25
        # (j = 14) eliminates the 13 modes below the window exactly.  Cube
        # lambda=14 (k = 6) has sectors whose refined pencil picks up an
        # eigenvalue of the modes below the window; of its 19 orbits, at
        # about 0.7 s of dense eigh each, the first of each rank is checked
        dp, reps = orbit_representatives(domain, eigenvalue, grid)
        ranks = [rank(_stabiliser(dp, cp.a)) for cp in reps]
        assert sorted(ranks) == {5: [1, 2], 25: [1, 2], 6: [1, 2, 3],
                                 14: [1] * 8 + [2] * 8 + [3] * 3}[eigenvalue]
        reps = [reps[ranks.index(r)] for r in sorted(set(ranks))]
        A = reference_stencil(dp).toarray()
        for cp in reps:
            rec = bb.solve_branch(dp, cp.a, 0.05)
            S = A - np.diag(rec.lam + 3.0 * rec.epsilon * rec.v**2)
            mu = scipy.linalg.eigh(S, A, eigvals_only=True)
            near_ref = np.sort(mu[np.argsort(np.abs(mu))[:dp.group.k]])
            for seed in (0, 1):
                morse, near = bb.discrete_morse_index(dp, rec, rng_seed=seed)
                assert morse == int(np.sum(mu < 0.0))
                np.testing.assert_allclose(near, near_ref, rtol=1e-9, atol=0.0)

    def test_cg_solves_do_not_grow_with_j(self, square, monkeypatch):
        # square lambda=5 and lambda=25 share k = 2 but have j = 2 and 14:
        # the modes below lambda cost no CG solve, so one count runs as many
        cg, calls = pdeverify._cg, []
        monkeypatch.setattr(pdeverify, "_cg",
                            lambda *args, **kw: calls.append(args) or cg(*args, **kw))
        counts = {}
        for eigenvalue in (5, 25):
            dp, reps = orbit_representatives("square", eigenvalue, 32)
            rec = bb.solve_branch(dp, reps[0].a, 0.05)
            calls.clear()
            morse, _ = bb.discrete_morse_index(dp, rec)
            assert morse == reps[0].morse_index + dp.group.j - 1
            counts[dp.group.j] = len(calls)
        assert counts[2] == counts[14]

    @pytest.mark.parametrize("domain, eigenvalue, grid, pairs", [
        ("cube", 21, 13, None), ("square", 13, 32, None), ("square", 50, 64, [3]),
    ])
    def test_entries_beyond_the_window_do_not_move_the_count(self, domain, eigenvalue, grid,
                                                             pairs):
        # entries above max c join R, where L_RR > 0 already: three more of
        # them in P leave the count as it is and mu to the solve tolerance.
        # Warm-started records of each orbit representative (square lambda=50
        # at 64^2: its one conclusive pair) along the verifier's schedule
        dp, reps = orbit_representatives(domain, eigenvalue, grid)
        if pairs is not None:
            pred = bb.predict_branches(dp.group, bb.find_critical_points(
                bb.ReducedFunctional.for_group(dp.group, dp.domain)))
            reps = [pred.pairs[i] for i in pairs]
        for cp in reps:
            rec = None
            for eps in geometric_schedule(min(0.1, 0.1 * dp.neighbor_gap), 4):
                rec = bb.solve_branch(dp, cp.a, eps, v0=rec)
                morse, near = bb.discrete_morse_index(dp, rec)
                morse3, near3 = bb.discrete_morse_index(dp, rec, n_extra=3)
                assert morse3 == morse and near.shape == near3.shape == (dp.group.k,)
                np.testing.assert_allclose(near3, near, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("domain, eigenvalue, grid, eps, solves", [
        ("cube", 3, 65, 0.1, 2), ("square", 5, 32, 0.05, 4), ("square", 50, 64, 0.05, 6),
    ])
    def test_morse_count_runs_one_cg_solve_per_window_column(
            self, domain, eigenvalue, grid, eps, solves, monkeypatch):
        # one CG solve per column of each sector's M, one per refined mu
        dp, reps = orbit_representatives(domain, eigenvalue, grid)
        rec = bb.solve_branch(dp, reps[-1].a, eps)
        cg, calls, blocks = pdeverify._cg, [], []
        monkeypatch.setattr(pdeverify, "_cg",
                            lambda *args, **kw: calls.append(1) or cg(*args, **kw))
        init = pdeverify._SchurBlock.__init__
        monkeypatch.setattr(pdeverify._SchurBlock, "__init__",
                            lambda self, *args: blocks.append(self) or init(self, *args))
        bb.discrete_morse_index(dp, rec)
        assert len(calls) == sum(len(b.S) for b in blocks) + dp.group.k == solves

    @pytest.mark.parametrize("scale, eps, binding", [
        (1.0, 0.05, "multiplet"), (8.0, 0.05, "max c"), (1.0, 0.025, "k above N"),
    ])
    def test_window_is_what_the_inertia_proof_needs(self, square, sq_g50, scale, eps,
                                                    binding, monkeypatch):
        # every entry beyond P has D > max c, so L_RR > 0; and P is no
        # larger than the largest of j - 1 + k entries (the multiplet),
        # #{D <= max c} and |N| + k (k Ritz values in M).  Square lambda=50
        # at 64^2, pair 3: eight times the solution raises max c above the
        # multiplet; solved from a . e at eps = 0.025 its FD-split members
        # fall into N
        dp = bb.build_laplacian(square, 64, sq_g50)
        pred = bb.predict_branches(sq_g50, bb.find_critical_points(
            bb.ReducedFunctional.for_group(sq_g50, square)))
        rec = bb.solve_branch(dp, pred.pairs[3].a, eps)
        rec = dataclasses.replace(rec, images=scale * rec.images)
        chosen, lowest = [], pdeverify._lowest_entries
        monkeypatch.setattr(pdeverify, "_lowest_entries",
                            lambda *args: chosen.append(lowest(*args)) or chosen[-1])
        _, near = bb.discrete_morse_index(dp, rec)
        (P, D_P), = chosen
        c_max = (rec.lam + 3.0 * rec.epsilon * rec.v**2).max()
        D = stencil_eigenvalues(dp)
        beyond = np.ones(dp.shape, dtype=bool)
        beyond[P] = False
        assert np.all(D[beyond] > c_max)
        j, k = dp.group.j, dp.group.k
        needs = {"multiplet": j - 1 + k, "max c": int(np.sum(D <= c_max)),
                 "k above N": int(np.sum(D < 2.0 * rec.lam - c_max)) + k}
        assert len(D_P) == max(needs.values()) == needs[binding]
        assert near.shape == (k,)

    @pytest.mark.parametrize("domain, eigenvalue, grid, n_parities, negatives", [
        ("square", 5, 33, 2, 5), ("cube", 6, 13, 1, 8),
    ])
    def test_window_holds_every_negative_mu_in_sectors(self, domain, eigenvalue, grid,
                                                       n_parities, negatives):
        # eight times a solution that is even or odd along some axes: the
        # negatives, far more than the window, spread over the sectors
        dp, reps = orbit_representatives(domain, eigenvalue, grid)
        cp = next(cp for cp in reps  # n_parities single reversals fix the pair
                  if sum(h.bit_count() == 1 for h, _ in _stabiliser(dp, cp.a)) == n_parities)
        rec = bb.solve_branch(dp, cp.a, 0.05)
        rec = dataclasses.replace(rec, images=8.0 * rec.images)
        c = rec.lam + 3.0 * rec.epsilon * rec.v**2
        assert int(np.sum(stencil_eigenvalues(dp) <= c.max())) > dp.group.j + dp.group.k + 1
        mu = np.linalg.eigvalsh(reference_stencil(dp).toarray() - np.diag(c))
        morse, _ = bb.discrete_morse_index(dp, rec)
        assert morse == int(np.sum(mu < 0.0)) == negatives


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

    def test_warm_start_mirrors_nothing(self, square, sq_g5, pred_sq5, monkeypatch):
        # square lambda=5 at 128^2: a warm start takes the previous record's
        # images as they are, so the full grid is built once per solve, for
        # |u|_L2, and once per start mapped from a representative's record,
        # which is then cut to the pair's sector: 24 mirrors, where warm
        # starts mirrored and cut back six more
        dp = bb.build_laplacian(square, 128, sq_g5)
        calls = {"extend": 0, "restrict": 0}
        for name in calls:
            method = getattr(pdeverify._SineTransform, name)
            monkeypatch.setattr(pdeverify._SineTransform, name,
                                lambda self, x, name=name, method=method:
                                calls.__setitem__(name, calls[name] + 1) or method(self, x))
        verdicts = bb.continuation_run(dp, pred_sq5, geometric_schedule(0.1, 4))
        records = sum(len(v.records) for v in verdicts)
        mapped = sum(len(v.records) for v in verdicts if v.transported_from is not None)
        assert all(v.passed for v in verdicts) and (records, mapped) == (16, 8)
        assert calls == {"extend": records + mapped, "restrict": mapped}

    def test_coinciding_solutions_fail_distinctness(self, dp_sq5, pred_sq5):
        # two verdicts whose final solutions agree, the second up to sign
        rec = bb.solve_branch(dp_sq5, pred_sq5.pairs[0].a, 0.05)
        flipped = dataclasses.replace(rec, images=-rec.images, a_lambda=-rec.a_lambda)
        verdicts = [bb.BranchVerdict(pair_index=i, predicted=pred_sq5.pairs[i],
                                     target_morse=0, records=[r])
                    for i, r in ((0, rec), (2, flipped))]
        pdeverify._check_distinctness(dp_sq5, verdicts, VerifyConfig().dedup_radius)
        assert [v.distinct_ok for v in verdicts] == [False, False]
        assert verdicts[0].notes == ["coincides with pair 2 at eps=0.05"]
        assert verdicts[1].notes == ["coincides with pair 0 at eps=0.05"]
        assert not any(v.passed for v in verdicts)

    def test_separated_solutions_are_cleared_by_their_projections(self, dp_sq5, pred_sq5,
                                                                  monkeypatch):
        # |v_1 -+ v_2|_L2 >= |a_1 -+ a_2| clears every pair of square lambda=5
        # without mirroring a solution to the full grid
        verdicts = [bb.BranchVerdict(pair_index=i, predicted=cp, target_morse=0,
                                     records=[bb.solve_branch(dp_sq5, cp.a, 0.05)])
                    for i, cp in enumerate(pred_sq5.pairs)]

        def refused(*args):
            raise AssertionError("a full-grid solution was built")

        monkeypatch.setattr(pdeverify._SineTransform, "extend", refused)
        pdeverify._check_distinctness(dp_sq5, verdicts, VerifyConfig().dedup_radius)
        assert all(v.distinct_ok for v in verdicts) and not any(v.notes for v in verdicts)

    def test_records_hold_their_sector_only(self, cube, cube_g6, f_cube6):
        # each solution is kept as the images of its solve's sector: a
        # quarter of the 32^3 grid for (t, t, 0), half for (t, t, t), an
        # eighth for the pairs every reversal fixes; v mirrors it back
        dp = bb.build_laplacian(cube, 33, cube_g6)
        pred = bb.predict_branches(cube_g6, bb.find_critical_points(f_cube6))
        verdicts = bb.continuation_run(dp, pred, [0.05])
        sizes = []
        for v in verdicts:
            (rec,) = v.records
            Q = dp.sector(_stabiliser(dp, v.predicted.a))
            assert rec.sector is Q and rec.images.shape == Q.shape
            arrays = [x for x in vars(rec).values() if isinstance(x, np.ndarray)]
            assert max(x.size for x in arrays) == Q.shape[0] * 16**3
            assert np.array_equal(Q.restrict(rec.v), rec.images)
            sizes.append(rec.images.size)
        assert sorted(set(sizes)) == [16**3, 2 * 16**3, 4 * 16**3]
        assert sum(sizes) * 8 <= 1_100_000  # 3.4 MB as full grids

    @pytest.mark.parametrize("shift, threshold", [
        ((1, 0, 0, 0), 0.05), ((0, 1, 0, 0), 0.025), ((0, 0, 0, 1), None)])
    def test_morse_threshold_is_the_trailing_run_on_target(self, dp_sq1, pred_sq1,
                                                           monkeypatch, shift, threshold):
        # scripted counts t + shift over four eps, descending: the threshold
        # is the largest eps of the last run of counts on target t
        morse, calls = pdeverify.discrete_morse_index, []
        t = pred_sq1.pairs[0].morse_index + dp_sq1.group.j - 1

        def scripted(dp, rec, p):
            calls.append(rec.epsilon)
            return t + shift[len(calls) - 1], morse(dp, rec, p)[1]

        monkeypatch.setattr(pdeverify, "discrete_morse_index", scripted)
        (v,) = bb.continuation_run(dp_sq1, pred_sq1, geometric_schedule(0.1, 4))
        assert calls == geometric_schedule(0.1, 4) and v.target_morse == t
        assert [r.discrete_morse_index for r in v.records] == [t + s for s in shift]
        assert v.morse_threshold == threshold
        assert v.morse_ok is (threshold is not None)

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
        monkeypatch.setattr(pdeverify, "_minres",
                            lambda A, b, rtol, maxiter: (np.zeros_like(b), 1))
        with pytest.raises(NewtonDiverged, match="MINRES stalled") as err:
            bb.solve_branch(dp, pred.pairs[0].a, 0.05)
        assert err.value.history
        (verdict,) = bb.continuation_run(dp, pred, [0.05], VerifyConfig(morse=False))
        assert verdict.inconclusive and not verdict.passed
        assert any("MINRES stalled" in note for note in verdict.notes)

    def test_misscaled_mu_fails_the_eigenvalue_check(self, dp_sq5, pred_sq5, monkeypatch):
        # mu returned already scaled by lambda_h / eps is scaled twice
        morse = pdeverify.discrete_morse_index

        def misscaled(dp, rec, p):
            index, mu = morse(dp, rec, p)
            return index, mu * dp.lambda_h / rec.epsilon

        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05])
        assert all(v.eig_ok for v in verdicts)
        monkeypatch.setattr(pdeverify, "discrete_morse_index", misscaled)
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05])
        assert all(v.morse_ok and v.eig_ok is False and not v.passed for v in verdicts)

    def test_supercritical_refused(self, cube, cube_g6, f_cube6):
        dp = bb.build_laplacian(cube, 12, cube_g6)
        pred = bb.predict_branches(cube_g6, bb.find_critical_points(f_cube6), p=7.0)
        with pytest.raises(SupercriticalP):
            bb.continuation_run(dp, pred, [0.05])

    @pytest.mark.parametrize("domain, lam, grid, aliased", [
        ("square", 5, 32, False), ("cube", 6, 12, False),
        ("square", 90, 18, True), ("cube", 44, 12, True)])
    def test_grid_functional_is_the_grid_sum(self, domain, lam, grid, aliased):
        # the trapezoid rule of the interior nodes, one sum per axis, equals
        # sum_x w E x E x E x E; with modes (3, 9) on 18 intervals, or
        # (2, 2, 6) on 12, four indices reach 2N and the grid sum aliases
        # away from the continuum tensor
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=lam)
        dp = bb.build_laplacian(dom, grid, group)
        E = group_basis(dp)
        grid_sum = dp.weight * np.einsum("xi,xh,xl,xm->ihlm", E, E, E, E)
        f = grid_functional(dp, 3.0)
        T = f.tensor.entries
        assert np.max(np.abs(T - grid_sum)) <= 1e-13 * np.max(np.abs(grid_sum))
        continuum = bb.build_quartic_tensor(group, dom).entries
        assert (np.max(np.abs(T - continuum)) > 1e-3) == aliased
        # at p != 3 the functional on the grid nodes has the derivatives of
        # the quadrature functional on the dense basis
        dense = bb.ReducedFunctional(group.k, 2.5, "quadrature", quad_points=E,
                                     quad_weights=np.full(dp.n, dp.weight))
        nodes = grid_functional(dp, 2.5)
        A = np.random.default_rng(5).standard_normal((8, group.k))
        for derivative in ("gradient_many", "hessian_many"):
            want = getattr(dense, derivative)(A)
            got = getattr(nodes, derivative)(A)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if aliased:  # the continuum root need not start a converging Newton here
            return
        # the reference point is the grid-sum quadrature functional's root
        a = bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom))[0].a
        quadrature = bb.ReducedFunctional(group.k, 3.0, "quadrature", quad_points=E,
                                          quad_weights=np.full(dp.n, dp.weight))
        expected = critpoints._newton_refine(
            quadrature, a, critpoints.SearchConfig(newton_tol=1e-13, max_iter=40))[0][0]
        assert discrete_reference_point(f, a) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_reference_point_only_where_an_order_is_fitted(self, dp_sq5, pred_sq5,
                                                           monkeypatch):
        # order(a) is a fit over two eps at least: a one-eps run builds no
        # grid functional and runs no reference Newton, a two-eps run builds
        # the functional once and runs Newton once per pair
        built, refined = [], []
        build, refine = pdeverify.grid_functional, pdeverify.discrete_reference_point
        monkeypatch.setattr(pdeverify, "grid_functional",
                            lambda *args: built.append(args) or build(*args))
        monkeypatch.setattr(pdeverify, "discrete_reference_point",
                            lambda *args: refined.append(args) or refine(*args))
        cfg = VerifyConfig(morse=False)
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05], cfg)
        assert (len(built), len(refined)) == (0, 0)
        assert all(v.order_a is None and not v.notes for v in verdicts)
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05, 0.025], cfg)
        assert (len(built), len(refined)) == (1, len(pred_sq5.pairs))
        assert all(v.order_a is not None for v in verdicts)

    def test_reference_point_matches_prediction(self, dp_sq1, pred_sq1):
        # aliasing-free grid sums reproduce the continuum critical point
        ref = discrete_reference_point(grid_functional(dp_sq1, 3.0), pred_sq1.pairs[0].a)
        assert ref == pytest.approx(pred_sq1.pairs[0].a, abs=1e-10)

    def test_unconverged_reference_point_raises(self, square):
        # square lambda=90 at 18 intervals: the grid quartic aliases, and
        # Newton from the continuum pairs (0, t) and (t, 0) finds no root
        group = bb.find_group(square, eigenvalue=90)
        dp = bb.build_laplacian(square, 18, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, square)))
        f, failed = grid_functional(dp, 3.0), []
        for i, cp in enumerate(pred.pairs):
            try:
                discrete_reference_point(f, cp.a)
            except NewtonDiverged as exc:
                assert "no grid-sum critical point" in str(exc)
                failed.append(i)
        assert failed == [0, 3]
        # the run leaves order(a) unfitted for those two and says why
        verdicts = bb.continuation_run(dp, pred, [0.1, 0.05], VerifyConfig(morse=False))
        assert [v.order_a is None for v in verdicts] == [True, False, False, True]
        for v in (verdicts[0], verdicts[3]):
            assert v.records and v.notes[-1].startswith("order(a) not fitted: ")


class TestReporting:
    def test_geometric_schedule(self):
        assert geometric_schedule(0.1, 4) == pytest.approx([0.1, 0.05, 0.025, 0.0125])
        for args in [(0.0, 4), (0.1, 0), (0.1, 4, 1.0), (0.1, 4, 0.0)]:
            with pytest.raises(ValueError):
                geometric_schedule(*args)

    def test_fit_order_handles_floors(self):
        assert fit_order([0.1, 0.05], [1e-20, 1e-20]) is None
        assert fit_order([0.1, 0.05, 0.025], [0.1, 0.05, 0.025]) == pytest.approx(1.0)


def _direct_records(dp, cp, index, all_pairs, schedule):
    """One pair solved and Morse-counted at every eps, warm-started, as a
    run without symmetry would."""
    records, v0 = [], None
    for eps in schedule:
        rec = bb.solve_branch(dp, cp.a, eps, v0=v0, all_pairs=all_pairs, expected_index=index)
        rec.discrete_morse_index, rec.near_zero_mu = bb.discrete_morse_index(dp, rec)
        records.append(rec)
        v0 = rec.v
    return records


class TestGridSymmetry:
    @pytest.mark.parametrize("side_sq, eigenvalue, grid, order", [
        (["pi^2", "pi^2"], 5, 64, 8),
        (["pi^2", "pi^2"], 5, (64, 48), 4),  # no swap of unequal axes
        (["pi^2", "4pi^2"], 10, (64, 128), 4),  # equal h, unequal sides
        (["pi^2", "pi^2", "pi^2"], 6, 17, 48),
        (["pi^2", "pi^2", "pi^2"], 6, (17, 17, 13), 16),
    ])
    def test_group_order(self, side_sq, eigenvalue, grid, order):
        dom = bb.DomainSpec.from_strings(side_sq)
        dp = bb.build_laplacian(dom, grid, bb.find_group(dom, eigenvalue=eigenvalue))
        assert len(dp.symmetries[0]) == order

    @pytest.mark.parametrize("domain, eigenvalue, grid, orbits", [
        ("cube", 14, 13, 19), ("cube", 21, 13, 15), ("cube", 26, 13, 29),
        ("square", 5, 64, 2), ("square", 50, 64, 9),
    ])
    def test_pair_orbits_match_the_reference_loop(self, domain, eigenvalue, grid, orbits):
        # the keyed orbit rule picks the loop's representative, isometry and
        # sign for every pair, in the given order and in a shuffled one
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom)))
        pairs = [cp.a for cp in pred.pairs]
        shuffled = [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]
        for order in (pairs, shuffled):
            sources = _pair_orbits(dp, order)
            assert sources == reference_pair_orbits(dp, order)
            assert sum(source is None for source in sources) == orbits

    @pytest.mark.parametrize("n", [16, 63, 127])
    def test_sine_matrix_reflects_exactly(self, n):
        # reversing the grid axis maps column m to (-1)^(m+1) times itself,
        # bit for bit, so mapped solutions keep their residual
        S = _sine_matrix(n, np.arange(1, n + 1), np.arange(1, n + 1))
        signs = (-1.0) ** (np.arange(1, n + 1) + 1)
        assert np.array_equal(S[::-1], S * signs)
        assert np.array_equal(S, S.T)

    @pytest.mark.parametrize("side_sq, eigenvalue, grid", [
        (["pi^2", "pi^2"], 5, 32),
        (["pi^2", "4pi^2"], 10, (64, 128)),
        (["pi^2", "pi^2", "pi^2"], 6, (17, 17, 13)),
        # every permutation of three axes, so a reversed direction would show
        (["pi^2", "pi^2", "pi^2"], 14, 17),
    ])
    def test_each_element_is_a_symmetry(self, side_sq, eigenvalue, grid):
        dom = bb.DomainSpec.from_strings(side_sq)
        dp = bb.build_laplacian(dom, grid, bb.find_group(dom, eigenvalue=eigenvalue))
        rng = np.random.default_rng(4)
        a = rng.standard_normal(dp.group.k)
        v = rng.standard_normal(dp.n)
        Q = full_transform(dp)

        def residual(v):
            r, _ = _residual(Q, dp.lambda_h - 0.05, 0.05, 3.0, Q.dst(Q.restrict(v)))
            return Q.extend(Q.dst(r, inverse=True))

        r = residual(v)
        for (perm, flips), src, sign in zip(*dp.symmetries):
            P = np.zeros((dp.group.k, dp.group.k))
            P[np.arange(dp.group.k), src] = sign
            g = functools.partial(_grid_map, dp, perm, flips)
            assert np.array_equal(np.abs(P).sum(axis=0), np.ones(dp.group.k))
            assert np.array_equal(np.abs(P).sum(axis=1), np.ones(dp.group.k))
            assert set(np.unique(P)) <= {-1.0, 0.0, 1.0}
            assert np.max(np.abs(project(dp, g(group_basis(dp) @ a)) - P @ a)) <= 1e-13
            assert np.max(np.abs(residual(g(v)) - g(r))) <= 1e-13 * np.max(np.abs(r))

    @pytest.mark.parametrize("domain, eigenvalue, grid, schedule, n_transported", [
        ("square", 5, 32, [0.05, 0.025], 2),
        ("cube", 6, 17, [0.05], 10),
    ])
    def test_transported_verdicts_match_direct_solves(self, domain, eigenvalue, grid,
                                                      schedule, n_transported):
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom))
        )
        all_pairs = [cp.a for cp in pred.pairs]
        verdicts = bb.continuation_run(dp, pred, schedule)
        moved = [v for v in verdicts if v.transported_from is not None]
        assert len(moved) == n_transported
        for v in moved:
            assert verdicts[v.transported_from].transported_from is None
            assert v.passed and not v.notes
            direct = _direct_records(dp, v.predicted, v.pair_index, all_pairs, schedule)
            for got, ref in zip(v.records, direct, strict=True):
                assert got.discrete_morse_index == ref.discrete_morse_index
                assert np.max(np.abs(got.a_lambda - ref.a_lambda)) <= 1e-10
                np.testing.assert_allclose(got.near_zero_mu, ref.near_zero_mu,
                                           rtol=1e-8, atol=0.0)
                assert got.newton_residual <= VerifyConfig().newton_tol

    @pytest.mark.parametrize("domain, eigenvalue, grid, order", [
        ("square", 5, 64, [0, 3, 1, 2]),
        ("cube", 6, 13, [0, 3, 12, 1, 2, 8, 9, 10, 11, 4, 5, 6, 7]),
    ])
    def test_each_orbit_is_solved_as_one_run(self, domain, eigenvalue, grid, order,
                                             monkeypatch):
        # orbits interleave in pair order; the run solves every pair of an
        # orbit, representative first, before the next orbit's first solve
        dom = getattr(bb.DomainSpec, domain)()
        group = bb.find_group(dom, eigenvalue=eigenvalue)
        dp = bb.build_laplacian(dom, grid, group)
        pred = bb.predict_branches(
            group, bb.find_critical_points(bb.ReducedFunctional.for_group(group, dom)))
        solve, log = pdeverify.solve_branch, []
        monkeypatch.setattr(pdeverify, "solve_branch", lambda *args, **kw: log.append(
            kw["expected_index"]) or solve(*args, **kw))
        bb.continuation_run(dp, pred, [0.05, 0.025], VerifyConfig(morse=False))
        assert log == [i for i in order for _ in range(2)]
        reps = [i if src is None else src[0] for i, src in enumerate(_pair_orbits(
            dp, [cp.a for cp in pred.pairs]))]
        assert [reps[i] for i in order] == sorted(reps)  # orbits contiguous, ascending
        firsts = [i for n, i in enumerate(order) if n == 0 or reps[order[n - 1]] != reps[i]]
        assert firsts == sorted(set(reps))  # each orbit opens with its representative

    def test_failed_representative_falls_back_to_direct_solves(self, dp_sq5, pred_sq5,
                                                               caplog):
        caplog.set_level(logging.INFO, logger="bifurcbox.pdeverify")
        cfg = VerifyConfig(max_newton=1)
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05], cfg)
        for v in verdicts:
            assert v.transported_from is None and v.inconclusive
            with pytest.raises(NewtonDiverged) as err:
                bb.solve_branch(dp_sq5, v.predicted.a, 0.05, max_iter=1)
            assert v.notes == [f"eps=0.05: {err.value}"]
        assert [r.getMessage() for r in caplog.records] == [
            "grid symmetry group of order 8: 0 pairs started from a mapped solution"]

    def test_wrong_branch_landings_are_transported(self, square, sq_g50, monkeypatch):
        # square lambda=50 at 64^2 at eps = 0.1: the FD multiplet splits by
        # more than eps, and most solves land on the trivial solution
        dp = bb.build_laplacian(square, 64, sq_g50)
        pred = bb.predict_branches(
            sq_g50, bb.find_critical_points(bb.ReducedFunctional.for_group(sq_g50, square)))
        all_pairs = [cp.a for cp in pred.pairs]
        linear, solve, log = pdeverify._linear_solve, pdeverify.solve_branch, []
        monkeypatch.setattr(pdeverify, "solve_branch", lambda *args, **kw: log.append(
            [kw["expected_index"]]) or solve(*args, **kw))
        monkeypatch.setattr(pdeverify, "_linear_solve",
                            lambda *args: log[-1].append(args) or linear(*args))
        verdicts = bb.continuation_run(dp, pred, [0.1])
        steps = {index: len(calls) for index, *calls in log}  # Newton steps per solve
        landed = {v.pair_index for v in verdicts
                  if not v.records and "landed at" in " ".join(v.notes)}
        sources = _pair_orbits(dp, all_pairs)
        members = [v for v, src in zip(verdicts, sources) if src is not None and src[0] in landed]
        assert [v.pair_index for v in members] == [6, 8, 11, 12]
        for v in members:
            assert v.transported_from == sources[v.pair_index][0]
            assert steps[v.pair_index] == 0
            with pytest.raises(ConvergedToWrongBranch) as err:
                solve(dp, v.predicted.a, 0.1, all_pairs=all_pairs, expected_index=v.pair_index)
            assert v.notes == [f"eps=0.1: {err.value}"]
        assert [v.pair_index for v in verdicts if v.transported_from is not None] == [
            6, 8, 11, 12]

    def test_mapped_start_off_tolerance_is_finished_by_newton(self, dp_sq5, pred_sq5,
                                                              monkeypatch):
        # mapped solutions off by 1e-6 miss newton_tol: Newton finishes them,
        # and their Morse index is counted rather than copied
        monkeypatch.setattr(pdeverify, "_grid_map", lambda dp, perm, flips, x: _grid_map(
            dp, perm, flips, x) + (1e-6 if x.ndim == 1 else 0.0))
        morse = pdeverify.discrete_morse_index
        calls = []
        monkeypatch.setattr(pdeverify, "discrete_morse_index",
                            lambda *args: calls.append(args[1]) or morse(*args))
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05])
        moved = [v for v in verdicts if v.transported_from is not None]
        assert len(moved) == 2 and all(v.passed for v in verdicts)
        for v in moved:
            (rec,) = v.records
            assert len(rec.residual_history) >= 2
            assert rec.newton_residual <= VerifyConfig().newton_tol
        assert len(calls) == 4

    def test_deferred_representative_morse_is_recounted_at_that_eps(
            self, dp_sq5, pred_sq5, monkeypatch):
        # every Morse solve at the first eps defers; at the second the
        # mapped pairs copy their representative's index
        morse = pdeverify.discrete_morse_index
        calls = []

        def deferring(dp, rec, p):
            calls.append(rec.epsilon)
            if rec.epsilon == 0.05:
                raise SpectrumTooClose("deferred")
            return morse(dp, rec, p)

        monkeypatch.setattr(pdeverify, "discrete_morse_index", deferring)
        verdicts = bb.continuation_run(dp_sq5, pred_sq5, [0.05, 0.025])
        moved = [v for v in verdicts if v.transported_from is not None]
        assert len(moved) == 2
        for v in moved:
            rep = verdicts[v.transported_from]
            assert v.notes == rep.notes == ["eps=0.05: deferred"]
            assert [r.discrete_morse_index for r in v.records] == [
                None, rep.records[1].discrete_morse_index]
            assert v.records[1].near_zero_mu is rep.records[1].near_zero_mu
        assert sorted(calls) == [0.025, 0.025] + [0.05] * 4
