"""Checks of bifurcbox's reports against the references of ``refs.py``.

The checks do not trust the program's own verdicts.  On a prediction:
every pair is a critical point of the benchmark's tensor, the set is
closed under the box symmetries, the pair count, Morse indices m and
m + j - 1 match the references, and stored reference sets match.  On a
verification, per pair: the Newton residual of every record is within
tolerance, the Morse index at the smallest eps equals the target, and the
scaled near-zero eigenvalues match the reduced Hessian within ``MU_RTOL``;
per report, lambda_h equals the benchmark's own discrete eigenvalue and
lies below lambda_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import refs

NEWTON_TOL = 1e-10     # the documented verify.newton_tol
MU_RTOL = 0.05         # the documented verify.mu_rtol
CRITICAL_TOL = 1e-9    # |grad F(a)| relative to max(1, |a|)
LAMBDA_H_RTOL = 1e-12


@dataclass(frozen=True)
class CaseRef:
    """References of one eigenvalue group of a pi-box."""

    lam: int
    modes: list
    j: int
    tensor: np.ndarray
    symmetries: list
    count: int
    stored: list | None = None


def case_reference(domain: str, lam: int, stored_sets: dict) -> CaseRef:
    dim = refs.DIMENSION[domain]
    modes = refs.group_modes(dim, lam)
    T = refs.quartic_tensor(modes)
    stored = stored_sets.get((domain, lam))
    count = refs.reference_pair_count(T, stored)
    if count is None:
        raise ValueError(f"{domain} lambda={lam}: no closed-form count and no stored set")
    return CaseRef(lam, modes, refs.spectral_index(dim, lam), T,
                   refs.box_symmetries(modes), count, stored)


@dataclass
class Outcome:
    """One operation: ``program_failure`` is the failure the program itself
    reports (or the exception it raised), ``problems`` the checks that
    disagree with its output."""

    program_failure: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.program_failure is not None or bool(self.problems)


def check_pairs(pairs: list[dict], ref: CaseRef) -> list[str]:
    """Problems with a list of reported pairs (dicts with a, m and
    solution_morse_index)."""
    problems = []
    if len(pairs) != ref.count:
        problems.append(f"{len(pairs)} pairs, reference {ref.count}")
    points = [np.asarray(p["a"], dtype=float) for p in pairs]
    for i, (p, a) in enumerate(zip(pairs, points)):
        g = float(np.linalg.norm(refs.gradient(ref.tensor, a)))
        if g > CRITICAL_TOL * max(1.0, float(np.linalg.norm(a))):
            problems.append(f"pair {i}: |grad F| = {g:.2e}, not a critical point")
        m = refs.morse_index(ref.tensor, a)
        if p["m"] != m:
            problems.append(f"pair {i}: m = {p['m']}, reference {m}")
        if p["solution_morse_index"] != m + ref.j - 1:
            problems.append(f"pair {i}: m + j - 1 = {p['solution_morse_index']}, "
                            f"reference {m + ref.j - 1}")
    if not refs.orbit_closed(points, ref.symmetries):
        problems.append("pair set is not closed under the box symmetries")
    if ref.stored is not None and not refs.same_pair_set(points, ref.stored):
        problems.append("pair set differs from the stored reference set")
    return problems


def check_prediction(payload: dict, ref: CaseRef, oracle: bool) -> list[str]:
    problems = []
    if payload["j"] != ref.j:
        problems.append(f"j = {payload['j']}, reference {ref.j}")
    problems += check_pairs(payload["pairs"], ref)
    if oracle:
        report = payload.get("oracle")
        if report is None:
            problems.append("no oracle report")
        elif not report["agrees"] or report["pair_count"] != ref.count:
            problems.append(f"oracle: {report['pair_count']} pairs, agrees={report['agrees']}")
    return problems


def check_verdict(v: dict, ref: CaseRef, lambda_h: float, eps_min: float) -> list[str]:
    """Problems with one branch verdict of a verify report."""
    problems = []
    a = np.asarray(v["a"], dtype=float)
    target = refs.morse_index(ref.tensor, a) + ref.j - 1
    if v["target_morse"] != target:
        problems.append(f"target Morse index {v['target_morse']}, reference {target}")
    records = v["records"]
    if not records:
        return problems + ["no converged record"]
    worst = max(r["newton_residual"] for r in records)
    if worst > NEWTON_TOL:
        problems.append(f"Newton residual {worst:.2e} above {NEWTON_TOL:g}")
    last = records[-1]
    if last["epsilon"] != eps_min:
        return problems + [f"no record at the smallest eps {eps_min:g}"]
    if last["discrete_morse_index"] != target:
        problems.append(f"Morse index {last['discrete_morse_index']} at eps={eps_min:g}, "
                        f"target {target}")
    if last["near_zero_mu"] is None:
        return problems + ["no near-zero eigenvalues"]
    scaled = np.sort(last["near_zero_mu"]) * lambda_h / last["epsilon"]
    hess = np.linalg.eigvalsh(refs.hessian(ref.tensor, a))
    rel = float(np.max(np.abs(scaled - hess) / np.maximum(np.abs(hess), 1e-30)))
    if rel > MU_RTOL:
        problems.append(f"scaled near-zero eigenvalues off the reduced Hessian by {rel:.3f}")
    return problems


def check_verify(payload: dict, ref: CaseRef, grid: int) -> list[Outcome]:
    """One outcome per reference pair; report-level problems apply to all."""
    common = []
    pred = payload["prediction"]
    if pred["j"] != ref.j:
        common.append(f"j = {pred['j']}, reference {ref.j}")
    common += check_pairs(pred["pairs"], ref)
    own = refs.discrete_group_eigenvalue(ref.modes, grid)
    lambda_h = payload["lambda_h"]
    if abs(lambda_h - own) > LAMBDA_H_RTOL * own:
        common.append(f"lambda_h = {lambda_h!r}, reference {own!r}")
    if not lambda_h < ref.lam:
        common.append(f"lambda_h = {lambda_h!r} not below lambda_j = {ref.lam}")
    verdicts = payload["verdicts"]
    if len(verdicts) != ref.count:
        return [Outcome(problems=common + [f"{len(verdicts)} verdicts"])
                for _ in range(ref.count)]
    eps_min = min(payload["eps_schedule"])
    outcomes = []
    for v in verdicts:
        failure = None
        if not v["passed"]:
            failure = "INCONCL" if v["inconclusive"] else "FAIL"
        outcomes.append(Outcome(failure, common + check_verdict(v, ref, lambda_h, eps_min)))
    return outcomes
