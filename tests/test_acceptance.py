"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines interleaved; without -s they appear in captured output on failure.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

import bifurcbox as bb
from bifurcbox.cli import main as cli_main
from bifurcbox.critpoints import pair_set_distance
from bifurcbox.reduced import QuarticTensor, extract_rect_coefficients

from conftest import fd_gradient, fd_jacobian, integrate_box, node_functional

PI = math.pi


def _report(n, checks):
    bad = [msg for ok, msg in checks if not ok]
    if bad:
        print(f"[acceptance] criterion {n}: FAIL - " + "; ".join(bad))
    else:
        print(f"[acceptance] criterion {n}: PASS ({len(checks)} checks)")
    assert not bad, f"criterion {n}: " + "; ".join(bad)


@pytest.fixture(scope="module")
def ground_state_run(square, sq_g1):
    """Timed end-to-end pipeline for the simple eigenvalue on a 64^2 grid."""
    t0 = time.perf_counter()
    f = bb.ReducedFunctional.for_group(sq_g1, square)
    pred = bb.predict_branches(sq_g1, bb.find_critical_points(f))
    dp = bb.build_laplacian(square, 64, sq_g1)
    verdicts = bb.continuation_run(dp, pred, bb.geometric_schedule(0.1, 4))
    elapsed = time.perf_counter() - t0
    return pred, verdicts, elapsed


@pytest.fixture(scope="module")
def five_run(square, sq_g5, f_sq5):
    pred = bb.predict_branches(sq_g5, bb.find_critical_points(f_sq5))
    dp = bb.build_laplacian(square, 64, sq_g5)
    verdicts = bb.continuation_run(dp, pred, bb.geometric_schedule(0.1, 4))
    return pred, verdicts


def test_criterion_1_simple_eigenvalue_exactness(square, ground_state_run):
    pred, verdicts, elapsed = ground_state_run
    checks = []
    checks.append((pred.pair_count_h == 1, f"expected 1 pair, got {pred.pair_count_h}"))
    checks.append((pred.solution_morse_indices == [1],
                   f"solution Morse {pred.solution_morse_indices} != [1]"))

    # independent amplitude oracle: a0 = (integral e1^4)^(-1/2) by quadrature
    e1 = bb.enumerate_modes(square, 1)[0]
    quartic = integrate_box(
        lambda x, y: bb.eigenfunction_eval(e1, square, (x, y)) ** 4, square.sides
    )
    a0 = quartic ** -0.5
    checks.append((abs(a0 - 2 * PI / 3) <= 1e-10, "oracle amplitude is not 2 pi / 3"))

    v = verdicts[0]
    last = v.records[-1]
    checks.append((last.epsilon == pytest.approx(0.0125), "schedule must end at 0.0125"))
    err = abs(last.a_lambda[0] - a0)
    checks.append((err <= 0.1 * a0, f"|a_lambda - a0| = {err:.3e} > 0.1 a0"))
    checks.append((v.order_a is not None and v.order_a >= 0.9,
                   f"order(a) = {v.order_a}"))
    checks.append((v.order_phi is not None and v.order_phi >= 0.9,
                   f"order(phi) = {v.order_phi}"))
    checks.append((elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s"))
    _report(1, checks)


def test_criterion_2_rectangle_k2(square, sq_g5, f_sq5):
    checks = []
    pts = bb.find_critical_points(f_sq5)
    pred = bb.predict_branches(sq_g5, pts)
    checks.append((pred.pair_count_h == 4, f"{pred.pair_count_h} pairs != 4"))
    checks.append((sorted(p.morse_index for p in pts) == [1, 1, 2, 2],
                   "critical-point Morse multiset != {2,2,1,1}"))
    checks.append((sorted(pred.solution_morse_indices) == [2, 2, 3, 3],
                   "solution Morse multiset != {3,3,2,2}"))

    oracle = bb.brute_force_oracle(f_sq5)
    gamma = bb.gamma_family_from_functional(f_sq5)
    d1 = pair_set_distance([p.a for p in pts], [p.a for p in oracle])
    d2 = pair_set_distance([p.a for p in pts], [p.a for p in gamma])
    checks.append((d1 <= 1e-6, f"search vs oracle distance {d1:.2e}"))
    checks.append((d2 <= 1e-6, f"search vs gamma-family distance {d2:.2e}"))

    co = extract_rect_coefficients(f_sq5.tensor)
    checks.append((abs(co.alpha / co.beta - 2.25) <= 1e-10 * 2.25,
                   "alpha/beta != 9/4"))
    g1 = co.alpha ** -0.5
    g2 = (co.alpha + 3 * co.beta) ** -0.5
    eig1 = np.linalg.eigvalsh(f_sq5.hessian([g1, 0.0]))
    eig2 = np.linalg.eigvalsh(f_sq5.hessian([g2, g2]))
    checks.append((np.max(np.abs(eig1 - [-2.0, -1.0 / 3.0])) <= 1e-8,
                   f"Hessian eigenvalues at (g1, 0): {eig1}"))
    checks.append((np.max(np.abs(eig2 - [-2.0, 2.0 / 7.0])) <= 1e-8,
                   f"Hessian eigenvalues at (g2, g2): {eig2}"))
    _report(2, checks)


def test_criterion_3_rectangle_k3(square, sq_g50):
    checks = []
    checks.append((sq_g50.k == 3, "lambda = 50 group must have multiplicity 3"))
    f = bb.ReducedFunctional.for_group(sq_g50, square)
    pts = bb.find_critical_points(f)
    checks.append((len(pts) == 13, f"{len(pts)} pairs != 13"))
    checks.append((Counter(p.morse_index for p in pts) == {3: 3, 2: 6, 1: 4},
                   "Morse partition != 3/6/4"))

    # the 13-pair table: support sizes 1/2/3 with magnitudes gamma_i
    co = extract_rect_coefficients(f.tensor)
    fam = bb.GammaFamily(co.alpha, co.beta, k=3)
    support = Counter(p.support_size for p in pts)
    checks.append((support == {1: 3, 2: 6, 3: 4}, f"support histogram {support}"))
    for p in pts:
        mags = np.abs(p.a[np.abs(p.a) > 1e-6])
        ok = np.allclose(mags, fam.gammas[p.support_size - 1], atol=1e-9)
        if not ok:
            checks.append((False, f"magnitudes {mags} off gamma table"))
            break
    oracle = bb.brute_force_oracle(f)
    d = pair_set_distance([p.a for p in pts], [p.a for p in oracle])
    checks.append((d <= 1e-6, f"k=3 oracle distance {d:.2e}"))
    _report(3, checks)


def test_criterion_4_cube(cube, cube_g6):
    t0 = time.perf_counter()
    checks = []
    # at p = 3 the quadrature backend integrates the tensor's axis factors
    quadr = bb.ReducedFunctional.for_group(cube_g6, cube, backend="quadrature")
    alpha = float(quadr.tensor.entries[0, 0, 0, 0])
    T = bb.build_quartic_tensor(cube_g6, cube)
    beta_quad = float(quadr.tensor.entries[0, 0, 1, 1])
    checks.append((abs(alpha - 27 / (8 * PI**3)) <= 1e-10,
                   f"quadrature alpha {alpha!r} != 27/(8 pi^3)"))
    checks.append((abs(beta_quad - 3 / (2 * PI**3)) <= 1e-10,
                   f"quadrature beta {beta_quad!r} != 3/(2 pi^3)"))
    checks.append((abs(T.entries[0, 0, 0, 0] - 27 / (8 * PI**3)) <= 1e-10,
                   "tensor alpha mismatch"))
    checks.append((abs(T.entries[0, 0, 1, 1] - 3 / (2 * PI**3)) <= 1e-10,
                   "tensor beta mismatch"))

    f = bb.ReducedFunctional.for_group(cube_g6, cube)
    pts = bb.find_critical_points(f)
    pred = bb.predict_branches(cube_g6, pts)
    checks.append((pred.pair_count_h == 13, f"{pred.pair_count_h} pairs != 13"))
    checks.append((Counter(p.morse_index for p in pts) == {3: 3, 2: 6, 1: 4},
                   "Morse partition != 3/6/4"))

    dp = bb.build_laplacian(cube, 33, cube_g6)
    verdicts = bb.continuation_run(dp, pred, [0.05])
    solved = [v for v in verdicts if v.records]
    checks.append((len(solved) == 13, f"{len(solved)} of 13 branches solved"))
    checks.append((all(v.distinct_ok for v in solved),
                   "discrete solutions not pairwise distinct"))
    dists = []
    final = [v.records[-1].v for v in solved]
    for i in range(len(final)):
        for l in range(i + 1, len(final)):
            dists.append(min(dp.norm_l2(final[i] - final[l]),
                             dp.norm_l2(final[i] + final[l])))
    checks.append((min(dists) > 1e-6, f"closest solution pair at {min(dists):.2e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 600.0, f"runtime {elapsed:.0f}s >= 600s"))
    _report(4, checks)


def test_criterion_5_remainder_law(ground_state_run, five_run):
    checks = []
    _, v1, _ = ground_state_run
    _, v5 = five_run
    for v in [*v1, *v5]:
        checks.append((len(v.records) >= 4, f"pair {v.pair_index}: schedule too short"))
        checks.append((v.order_phi is not None and v.order_phi >= 0.9,
                       f"pair {v.pair_index}: order(phi) = {v.order_phi}"))
    _report(5, checks)


def test_criterion_6_eigenvalue_transfer(five_run):
    pred, verdicts = five_run
    checks = []
    for v in verdicts:
        checks.append((v.eig_rel_err is not None and v.eig_rel_err <= 0.05,
                       f"pair {v.pair_index}: transfer error {v.eig_rel_err}"))
        if v.eig_scaled is not None:
            target = np.sort(v.predicted.hess_eigs)
            scaled = np.asarray(v.eig_scaled)
            checks.append((np.max(np.abs(scaled - target) / np.abs(target)) <= 0.05,
                           f"pair {v.pair_index}: scaled spectrum {scaled} vs {target}"))
    _report(6, checks)


def test_criterion_7_property_suites(f_sq5, square, sq_g5):
    checks = []
    rng = np.random.default_rng(2024)
    f = f_sq5

    even_ok = grad_ok = hess_ok = True
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0, 2) / math.sqrt(2)
        even_ok &= abs(f.value(-a) - f.value(a)) <= 1e-13
        g = f.gradient(a)
        grad_ok &= np.linalg.norm(g - fd_gradient(f.value, a)) <= 1e-6 * (
            1 + np.linalg.norm(g)
        )
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, 2)
        H = f.hessian(a)
        hess_ok &= np.array_equal(H, H.T)
        fdH = fd_jacobian(f.gradient, a, h=1e-5)
        hess_ok &= np.max(np.abs(H - 0.5 * (fdH + fdH.T))) <= 1e-5 * max(
            1.0, float(np.max(np.abs(H)))
        )
    checks.append((even_ok, "evenness violated"))
    checks.append((grad_ok, "gradient vs finite differences beyond 1e-6"))
    checks.append((hess_ok, "Hessian symmetry/FD beyond 1e-5"))

    quadr = node_functional(sq_g5, square)  # the node evaluators against the tensor
    agree = True
    for _ in range(20):
        a = rng.uniform(-1.5, 1.5, 2)
        agree &= abs(quadr.value(a) - f.value(a)) <= 1e-9 * max(1, abs(f.value(a)))
        agree &= float(np.max(np.abs(quadr.gradient(a) - f.gradient(a)))) <= 1e-9
        agree &= float(np.max(np.abs(quadr.hessian(a) - f.hessian(a)))) <= 1e-9
    checks.append((agree, "backend agreement beyond 1e-9"))

    for k in (1, 2, 3, 4):
        fk = bb.ReducedFunctional.from_tensor(QuarticTensor.from_pattern(k, 9.0, 4.0))
        n = len(bb.find_critical_points(fk))
        checks.append((n == (3**k - 1) // 2, f"count law k={k}: {n} pairs"))

    pts = bb.find_critical_points(f)
    flipped = [
        bb.CriticalPoint(a=-p.a, value=p.value, grad_norm=p.grad_norm,
                         hess_eigs=p.hess_eigs, morse_index=p.morse_index,
                         nondegenerate=p.nondegenerate, margin=p.margin)
        for p in pts
    ]
    p1 = bb.predict_branches(sq_g5, pts)
    p2 = bb.predict_branches(sq_g5, flipped)
    canon_ok = p1.pair_count_h == p2.pair_count_h and all(
        np.allclose(x.a, y.a, atol=1e-12) for x, y in zip(p1.pairs, p2.pairs)
    )
    checks.append((canon_ok, "sign-canonicalization invariance violated"))

    checks.append((f.tensor.symmetry_defect() == 0.0, "tensor not permutation symmetric"))
    _report(7, checks)


def test_criterion_8_discrepancy_guard(tmp_path):
    checks = []
    out = tmp_path / "crit8"
    code = cli_main(["predict", "--domain", "square", "--lam", "5",
                     "--out", str(out)])
    checks.append((code == 0, f"predict exited {code}"))
    note = json.loads((out / "prediction.json").read_text())["normalization_note"]
    area = PI * PI
    checks.append((note.get("discrepancy_flag") is True,
                   "report does not flag the convention discrepancy"))
    checks.append((abs(note["alpha"] - 9 / (4 * area)) <= 1e-12,
                   "computed alpha is not 9/(4 L M)"))
    checks.append((abs(note["alpha_unnormalized_convention"] - 9 * area / 64) <= 1e-12,
                   "report omits the 9 L M / 64 reference value"))
    checks.append((note.get("matches_normalized_convention") is True,
                   "report does not state which convention matches"))
    ratio = note["alpha_beta_ratio"]
    checks.append((abs(ratio - 2.25) <= 1e-10 * 2.25,
                   f"alpha/beta = {ratio} not 9/4 to 1e-10"))
    _report(8, checks)
