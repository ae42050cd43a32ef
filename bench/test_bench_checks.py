"""Fast tests of the benchmark's references and checkers: each checker
passes a right answer on a tiny case and flags a wrong one."""

import math

import numpy as np
import pytest

import checks
import refs

SQUARE5 = [(1, 2), (2, 1)]  # lambda = 5 on the square, k = 2, j = 2


@pytest.fixture(scope="module")
def square5():
    T, pairs = refs.solve_reference_set(SQUARE5, n_random=50)
    ref = checks.CaseRef(5, SQUARE5, 2, T, refs.box_symmetries(SQUARE5),
                         refs.reference_pair_count(T))
    return ref, pairs


def _report_pairs(ref, pairs):
    out = []
    for a in pairs:
        m = refs.morse_index(ref.tensor, a)
        out.append({"a": a.tolist(), "m": m, "solution_morse_index": m + ref.j - 1})
    return out


def test_four_sine_integral_matches_quadrature():
    x, w = np.polynomial.legendre.leggauss(64)
    x = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    for f in [(1, 1, 1, 1), (1, 2, 3, 2), (1, 1, 2, 2), (1, 2, 3, 4), (5, 5, 1, 7)]:
        numeric = float(np.sum(w * np.prod([np.sin(n * x) for n in f], axis=0)))
        assert math.isclose(float(refs.four_sine_integral(*f)) * math.pi, numeric,
                            abs_tol=1e-12)


def test_spectral_index_counts_modes_below():
    assert [refs.spectral_index(2, lam) for lam in (2, 5, 8, 10)] == [1, 2, 4, 5]
    assert [refs.spectral_index(3, lam) for lam in (3, 6, 9)] == [1, 2, 5]


def test_tensor_is_invariant_under_box_symmetries():
    modes = refs.group_modes(3, 14)
    T = refs.quartic_tensor(modes)
    syms = refs.box_symmetries(modes)
    assert len(syms) == 48
    for P in syms:
        image = np.einsum("ihlm,ai,bh,cl,dm->abcd", T, P, P, P, P)
        assert np.max(np.abs(image - T)) < 1e-15
    assert refs.pattern_coefficients(T) is None


def test_pattern_count(square5):
    ref, pairs = square5
    assert ref.count == 4 and len(pairs) == 4


def test_check_pairs_accepts_reference(square5):
    ref, pairs = square5
    assert checks.check_pairs(_report_pairs(ref, pairs), ref) == []


def test_check_pairs_flags_a_missing_pair(square5):
    ref, pairs = square5
    problems = checks.check_pairs(_report_pairs(ref, pairs[1:]), ref)
    assert "3 pairs, reference 4" in problems
    assert "pair set is not closed under the box symmetries" in problems


def test_check_pairs_flags_morse_off_by_one(square5):
    ref, pairs = square5
    reported = _report_pairs(ref, pairs)
    reported[0]["m"] += 1
    reported[0]["solution_morse_index"] += 1
    problems = checks.check_pairs(reported, ref)
    assert len(problems) == 2 and all(p.startswith("pair 0:") for p in problems)


def test_check_pairs_flags_a_non_critical_point(square5):
    ref, pairs = square5
    reported = _report_pairs(ref, pairs)
    reported[0]["a"] = (1.01 * pairs[0]).tolist()
    assert any("not a critical point" in p for p in checks.check_pairs(reported, ref))


def test_orbit_closure_flags_an_open_set(square5):
    ref, pairs = square5
    assert refs.orbit_closed(pairs, ref.symmetries)
    axis = [a for a in pairs if np.sum(np.abs(a) > 1e-6) == 1]
    assert len(axis) == 2
    assert not refs.orbit_closed(axis[:1], ref.symmetries)


def test_stored_sets_are_closed_critical_sets():
    stored = refs.load_stored()
    assert {key: len(v) for key, v in stored.items()} == {("cube", 14): 172, ("cube", 27): 22}
    for (domain, lam), pairs in stored.items():
        modes = refs.group_modes(refs.DIMENSION[domain], lam)
        T = refs.quartic_tensor(modes)
        assert max(np.linalg.norm(refs.gradient(T, a)) for a in pairs) < 1e-9
        assert refs.orbit_closed(pairs, refs.box_symmetries(modes))


def _verify_payload(ref, pairs, grid=64, eps=0.0125):
    lambda_h = refs.discrete_group_eigenvalue(ref.modes, grid)
    verdicts = []
    for a in pairs:
        hess = np.linalg.eigvalsh(refs.hessian(ref.tensor, a))
        target = int(np.sum(hess < 0)) + ref.j - 1
        verdicts.append({
            "a": a.tolist(), "target_morse": target, "passed": True, "inconclusive": False,
            "records": [{"epsilon": eps, "newton_residual": 1e-12,
                         "discrete_morse_index": target,
                         "near_zero_mu": (hess * eps / lambda_h).tolist()}],
        })
    return {"prediction": {"j": ref.j, "pairs": _report_pairs(ref, pairs)},
            "lambda_h": lambda_h, "eps_schedule": [eps], "verdicts": verdicts}


def test_check_verify_accepts_consistent_report(square5):
    ref, pairs = square5
    outcomes = checks.check_verify(_verify_payload(ref, pairs), ref, 64)
    assert len(outcomes) == 4 and not any(o.failed for o in outcomes)


def test_check_verify_flags_morse_index_off_by_one(square5):
    ref, pairs = square5
    payload = _verify_payload(ref, pairs)
    payload["verdicts"][2]["records"][-1]["discrete_morse_index"] += 1
    outcomes = checks.check_verify(payload, ref, 64)
    assert [o.failed for o in outcomes] == [False, False, True, False]
    assert outcomes[2].program_failure is None


def test_check_verify_flags_eigenvalues_and_residuals(square5):
    ref, pairs = square5
    payload = _verify_payload(ref, pairs)
    record = payload["verdicts"][0]["records"][-1]
    record["near_zero_mu"] = [1.1 * mu for mu in record["near_zero_mu"]]
    payload["verdicts"][1]["records"][-1]["newton_residual"] = 1e-8
    outcomes = checks.check_verify(payload, ref, 64)
    assert [o.failed for o in outcomes] == [True, True, False, False]


def test_check_verify_flags_lambda_h_and_program_failures(square5):
    ref, pairs = square5
    payload = _verify_payload(ref, pairs)
    payload["lambda_h"] *= 1.0 + 1e-9
    payload["verdicts"][3]["passed"] = False
    outcomes = checks.check_verify(payload, ref, 64)
    assert all(o.failed for o in outcomes)
    assert outcomes[3].program_failure == "FAIL"
