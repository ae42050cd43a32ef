"""Command-line front end: spectrum | predict | verify | report.

Configuration comes from a JSON file (--config) with flag overrides; every
report echoes the effective configuration and its hash, so identical
configs and seeds give byte-identical output.  Exit codes: 0 success,
1 usage or configuration error, 2 verification mismatch (or a prediction
containing degenerate points, or from an unsaturated search).

The output directory resolves as: --out flag, then the BIFURCBOX_OUT
environment variable, then the config file, then ./bifurcbox-out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .critpoints import (
    SearchConfig,
    brute_force_oracle,
    find_critical_points_with_diagnostics,
    pair_set_distance,
    predict_branches,
    prediction_to_dict,
)
from .errors import BifurcBoxError, ConfigError, PatternMismatch
from .pdeverify import (
    VerifyConfig,
    build_laplacian,
    continuation_run,
    diagram_rows,
    geometric_schedule,
    verdict_to_dict,
)
from .reduced import ReducedFunctional, extract_rect_coefficients
from .spectrum import DomainSpec, enumerate_groups, find_group, spectrum_rows

_DEFAULTS = {
    "domain": "square",
    "target": {"j": 1},
    "p": 3.0,
    "count": 10,
    "backend": None,
    "oracle": False,
    "quadrature": {"nodes_per_panel": 12, "panels_per_halfwave": 1},
    "search": {
        "seed_budget": 200,
        "newton_tol": 1e-12,
        "max_iter": 100,
        "dedup_radius": 1e-6,
        "degeneracy_rtol": 1e-8,
        "rng_seed": 0,
    },
    "verify": {
        "grid": None,
        "eps0": None,
        "eps_steps": 4,
        "eps_ratio": 0.5,
        "newton_tol": 1e-10,
        "max_newton": 60,
        "linear_rtol": 1e-12,
        "a_rtol": 0.1,
        "min_phi_order": 0.9,
        "mu_rtol": 0.05,
        "morse": True,
        "dedup_radius": 1e-6,
        "rng_seed": 0,
    },
    "output_dir": "bifurcbox-out",
}


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_ATOMIC_KEYS = {"target", "domain"}  # replaced wholesale, never deep-merged


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if key not in _ATOMIC_KEYS and isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        elif val is not None:
            out[key] = val
    return out


def _load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: line {exc.lineno}: {exc.msg}")
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        cfg = _merge(cfg, user)
    return cfg


def _domain_from_config(spec) -> DomainSpec:
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "square":
            return DomainSpec.square()
        if name == "cube":
            return DomainSpec.cube()
        raise ConfigError(f"unknown domain preset {spec!r} (use square or cube)")
    if isinstance(spec, list):
        return DomainSpec.from_strings(spec)
    if isinstance(spec, dict):
        sides = spec.get("side_sq")
        if not isinstance(sides, list):
            raise ConfigError("domain.side_sq must be a list of strings")
        dom = DomainSpec.from_strings([str(s) for s in sides])
        if "dimension" in spec and int(spec["dimension"]) != dom.dimension:
            raise ConfigError("domain.dimension contradicts side_sq length")
        return dom
    raise ConfigError(f"cannot interpret domain spec {spec!r}")


def _domain_echo(domain: DomainSpec) -> dict:
    def fmt(f: Fraction) -> str:
        if domain.pi_squared:
            return "pi^2" if f == 1 else f"{f}pi^2"
        return str(f)

    return {
        "dimension": domain.dimension,
        "side_sq": [fmt(f) for f in domain.side_sq],
    }


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _out_dir(args, cfg) -> Path:
    out = args.out or os.environ.get("BIFURCBOX_OUT") or cfg["output_dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _report_header(cfg: dict, kind: str) -> dict:
    return {
        "kind": kind,
        "version": __version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
    }


def _search_config(cfg: dict) -> SearchConfig:
    s = cfg["search"]
    return SearchConfig(
        seed_budget=int(s["seed_budget"]),
        newton_tol=float(s["newton_tol"]),
        max_iter=int(s["max_iter"]),
        dedup_radius=float(s["dedup_radius"]),
        degeneracy_rtol=float(s["degeneracy_rtol"]),
        rng_seed=int(s["rng_seed"]),
    )


def _verify_config(cfg: dict) -> VerifyConfig:
    v = cfg["verify"]
    return VerifyConfig(
        newton_tol=float(v["newton_tol"]),
        max_newton=int(v["max_newton"]),
        linear_rtol=float(v["linear_rtol"]),
        a_rtol=float(v["a_rtol"]),
        min_phi_order=float(v["min_phi_order"]),
        mu_rtol=float(v["mu_rtol"]),
        morse=bool(v["morse"]),
        dedup_radius=float(v["dedup_radius"]),
        rng_seed=int(v["rng_seed"]),
    )


def _target_group(domain: DomainSpec, cfg: dict):
    target = cfg["target"]
    j = target.get("j")
    lam = target.get("lambda")
    if j is not None and lam is not None:
        raise ConfigError("target: give either j or lambda, not both")
    if j is None and lam is None:
        raise ConfigError("target: give j or lambda")
    try:
        if j is not None:
            return find_group(domain, j=int(j))
        return find_group(domain, eigenvalue=float(lam))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _build_functional(group, domain, cfg: dict) -> ReducedFunctional:
    q = cfg["quadrature"]
    return ReducedFunctional.for_group(
        group,
        domain,
        p=float(cfg["p"]),
        backend=cfg["backend"],
        nodes_per_panel=int(q["nodes_per_panel"]),
        panels_per_halfwave=int(q["panels_per_halfwave"]),
    )


def _normalization_note(group, domain, functional) -> dict | None:
    """Cross-check of the tensor coefficients against the two published
    normalization conventions.

    For a group whose tensor has the two-coefficient pattern, the
    unit-L2-normalized basis gives alpha * volume = (3/2)^dim and the ratio
    alpha/beta = 9/4 whenever paired modes differ on exactly two axes;
    tables based on raw (unnormalized) sine products instead list
    alpha = 9 L M / 64 in 2-D.  Reports flag which convention the computed
    numbers match, since the gamma magnitudes differ between conventions
    while every count and Morse index depends only on the ratio.
    """
    if functional.tensor is None:
        return None
    try:
        coeffs = extract_rect_coefficients(functional.tensor)
    except PatternMismatch as exc:
        return {"pattern": False, "reason": str(exc)}
    volume = float(np.prod(domain.sides))
    note = {
        "pattern": True,
        "alpha": coeffs.alpha,
        "beta": coeffs.beta,
    }
    if group.k > 1:
        ratio = coeffs.alpha / coeffs.beta
        note["alpha_beta_ratio"] = ratio
        note["ratio_reference"] = 2.25
        note["ratio_matches_reference"] = bool(abs(ratio - 2.25) <= 1e-10 * 2.25)
    if domain.dimension == 2:
        normalized = 9.0 / (4.0 * volume)
        unnormalized = 9.0 * volume / 64.0
        note["alpha_normalized_convention"] = normalized
        note["alpha_unnormalized_convention"] = unnormalized
        note["beta_normalized_convention"] = 1.0 / volume
        note["beta_unnormalized_convention"] = volume / 16.0
        note["matches_normalized_convention"] = bool(
            math.isclose(coeffs.alpha, normalized, rel_tol=1e-10)
        )
        note["discrepancy_flag"] = bool(
            not math.isclose(coeffs.alpha, unnormalized, rel_tol=1e-10)
        )
        note["note"] = (
            "computed coefficients integrate the unit-L2-normalized basis "
            "(alpha = 9/(4 L M)); tables built from raw sine products list "
            "alpha = 9 L M / 64 instead (a missing (4/(L M))^2 factor). "
            "The ratio alpha/beta = 9/4 is the same in both conventions, so "
            "branch counts and Morse indices are unaffected; only the "
            "gamma magnitudes depend on the convention."
        )
    return note


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, cfg: dict) -> int:
    domain = _domain_from_config(cfg["domain"])
    cfg["domain"] = _domain_echo(domain)
    count = int(cfg["count"])
    groups = enumerate_groups(domain, count)
    payload = _report_header(cfg, "spectrum")
    payload["groups"] = spectrum_rows(groups)
    out = _out_dir(args, cfg)
    _write_json(out / "spectrum.json", payload)

    print(f"{'lambda':>12}  {'exact':>10}  {'j':>3}  {'k':>3}  modes")
    for g in groups:
        lam = g.eigenvalue(domain)
        exact = f"{g.value.numerator}/{g.value.denominator}"
        modes = " ".join(str(tuple(m.indices)) for m in g.modes)
        print(f"{lam:12.6f}  {exact:>10}  {g.j:3d}  {g.k:3d}  {modes}")
    print(f"wrote {out / 'spectrum.json'}")
    return 0


def _target(cfg: dict):
    """The domain, group and reduced functional of the configured target;
    a bad exponent or backend is a configuration error."""
    domain = _domain_from_config(cfg["domain"])
    cfg["domain"] = _domain_echo(domain)
    group = _target_group(domain, cfg)
    try:
        functional = _build_functional(group, domain, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return domain, group, functional


def _run_prediction(cfg: dict, group, functional):
    """Search the target group; ``search`` is the block every report carries."""
    scfg = _search_config(cfg)
    points, diagnostics = find_critical_points_with_diagnostics(functional, scfg)
    prediction = predict_branches(
        group, points, p=float(cfg["p"]), dedup_radius=scfg.dedup_radius
    )
    search = {
        "n_seeds": diagnostics.n_seeds,
        "n_converged": diagnostics.n_converged,
        "n_failed": diagnostics.n_failed,
        "saturated": diagnostics.saturated,
        "completeness": diagnostics.completeness,
    }
    return prediction, search


def cmd_predict(args, cfg: dict) -> int:
    domain, group, functional = _target(cfg)
    prediction, search = _run_prediction(cfg, group, functional)
    payload = _report_header(cfg, "prediction")
    payload.update(prediction_to_dict(prediction, domain))
    payload["search"] = search
    note = _normalization_note(group, domain, functional)
    if note is not None:
        payload["normalization_note"] = note
    payload["morse_index_note"] = (
        "m is the Morse index of the reduced critical point; the predicted "
        "solution Morse index is m + j - 1 and both are reported"
    )
    if cfg["oracle"] and group.k <= 3:
        oracle = brute_force_oracle(functional, cfg=_search_config(cfg))
        dist = pair_set_distance(
            [cp.a for cp in prediction.pairs], [cp.a for cp in oracle]
        )
        payload["oracle"] = {
            "pair_count": len(oracle),
            "set_distance": dist,
            "agrees": bool(dist <= 1e-6),
        }

    out = _out_dir(args, cfg)
    _write_json(out / "prediction.json", payload)
    _write_prediction_csv(out / "prediction.csv", payload)

    unsaturated = search["completeness"] == "unsaturated"
    qualifier = ("at least, degenerate present" if not prediction.exact else
                 "not certified: the search is unsaturated" if unsaturated else "exact")
    lam = payload["lambda_j"]
    print(
        f"lambda_j={lam:g} (j={group.j}, k={group.k}, p={cfg['p']:g}): "
        f"{prediction.pair_count_h} pairs of branches ({qualifier})"
    )
    print(f"{'pair':>4}  {'m':>2}  {'m+j-1':>5}  {'J':>12}  a")
    for i, cp in enumerate(prediction.pairs):
        a = np.array2string(cp.a, precision=6, suppress_small=True)
        print(
            f"{i:4d}  {cp.morse_index:2d}  {cp.morse_index + group.j - 1:5d}  "
            f"{cp.value:12.6g}  {a}"
        )
    print(f"wrote {out / 'prediction.json'}")
    return 0 if prediction.exact and not unsaturated else 2


def _write_prediction_csv(path: Path, payload: dict) -> None:
    pairs = payload["pairs"]
    k = payload["k"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["pair", *[f"a_{i + 1}" for i in range(k)], "J", "m",
             "solution_morse_index", "nondegenerate", "margin"]
        )
        for i, row in enumerate(pairs):
            writer.writerow(
                [i, *row["a"], row["J"], row["m"], row["solution_morse_index"],
                 row["nondegenerate"], row["margin"]]
            )


def cmd_verify(args, cfg: dict) -> int:
    domain, group, functional = _target(cfg)
    vcfg = _verify_config(cfg)
    # the grid and the schedule are checked before the search runs
    grid = cfg["verify"]["grid"]
    if grid is None:
        grid = 64 if domain.dimension == 2 else 33
    try:
        if isinstance(grid, str):
            grid = [int(x) for x in grid.split(",")]
        if isinstance(grid, list) and len(grid) == 1:
            grid = grid[0]
        dp = build_laplacian(domain, grid, group)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"verify.grid: {exc}")
    eps0 = cfg["verify"]["eps0"]
    if eps0 is None:
        eps0 = min(0.1, 0.1 * dp.neighbor_gap)
    try:
        schedule = geometric_schedule(
            float(eps0), int(cfg["verify"]["eps_steps"]), float(cfg["verify"]["eps_ratio"])
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"verify: {exc}")
    cfg["verify"]["eps0"] = float(eps0)
    cfg["verify"]["grid"] = list(dp.grid)

    prediction, search = _run_prediction(cfg, group, functional)
    verdicts = continuation_run(dp, prediction, schedule, vcfg)
    all_passed = bool(verdicts) and all(v.passed for v in verdicts)

    payload = _report_header(cfg, "verify")
    payload["prediction"] = prediction_to_dict(prediction, domain)
    payload["search"] = search
    note = _normalization_note(group, domain, functional)
    if note is not None:
        payload["normalization_note"] = note
    payload["grid"] = list(dp.grid)
    payload["lambda_h"] = dp.lambda_h
    payload["multiplet_splitting"] = dp.splitting
    payload["neighbor_gap"] = dp.neighbor_gap
    payload["eps_schedule"] = schedule
    payload["verdicts"] = [verdict_to_dict(v) for v in verdicts]
    payload["all_passed"] = all_passed

    out = _out_dir(args, cfg)
    _write_json(out / "verdicts.json", payload)
    _write_diagram_files(out, verdicts)

    print(
        f"lambda_j={group.eigenvalue(domain):g} on grid {dp.grid}: "
        f"{len(verdicts)} branches, eps {schedule[0]:g} .. {schedule[-1]:g}"
    )
    print(f"{'pair':>4}  {'m+j-1':>5}  {'morse':>5}  {'ord(a)':>7}  {'ord(phi)':>8}  "
          f"{'eig%':>6}  {'status':>8}")
    for v in verdicts:
        last = v.records[-1] if v.records else None
        morse = "-" if last is None or last.discrete_morse_index is None else last.discrete_morse_index
        fmt = lambda x: "-" if x is None else f"{x:.2f}"
        eig = "-" if v.eig_rel_err is None else f"{100 * v.eig_rel_err:.1f}"
        status = "PASS" if v.passed else ("INCONCL" if v.inconclusive else "FAIL")
        print(f"{v.pair_index:4d}  {v.target_morse:5d}  {morse:>5}  "
              f"{fmt(v.order_a):>7}  {fmt(v.order_phi):>8}  {eig:>6}  {status:>8}")
        for note_line in v.notes:
            print(f"      note: {note_line}")
    print(f"wrote {out / 'verdicts.json'}")
    return 0 if all_passed else 2


def _write_diagram_files(out: Path, verdicts) -> None:
    for v in verdicts:
        rows = diagram_rows(v)
        if not rows:
            continue
        k = len(v.predicted.a)
        header = "# lambda u_l2 " + " ".join(f"a_{i + 1}" for i in range(k)) + \
                 " phi_norm morse_index\n"
        lines = [header]
        for row in rows:
            lines.append(" ".join(f"{x:.16g}" for x in row) + "\n")
        (out / f"branch_{v.pair_index:02d}.dat").write_text("".join(lines))


def cmd_report(args, cfg: dict) -> int:
    path = Path(args.input)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"report: no such file: {path}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"report: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    kind = payload.get("kind")
    out = _out_dir(args, cfg)
    if kind == "prediction":
        _write_prediction_csv(out / "prediction.csv", payload)
        print(f"pairs: {payload['pair_count_h']} (exact={payload['exact']})")
        for i, row in enumerate(payload["pairs"]):
            print(f"  pair {i}: m={row['m']} m+j-1={row['solution_morse_index']} "
                  f"a={row['a']}")
        print(f"wrote {out / 'prediction.csv'}")
        return 0
    if kind == "verify":
        npairs = len(payload["verdicts"])
        print(f"verify report: {npairs} branches, all_passed={payload['all_passed']}")
        with open(out / "verify_summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair", "target_morse", "order_a", "order_phi",
                             "eig_rel_err", "passed"])
            for v in payload["verdicts"]:
                writer.writerow([v["pair_index"], v["target_morse"], v["order_a"],
                                 v["order_phi"], v["eig_rel_err"], v["passed"]])
        print(f"wrote {out / 'verify_summary.csv'}")
        return 0
    if kind == "spectrum":
        for row in payload["groups"]:
            print(f"  {row['indices']} lambda={row['eigenvalue_num']}/"
                  f"{row['eigenvalue_den']} j={row['j']} k={row['k']}")
        return 0
    print(f"report: unknown report kind {kind!r}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--domain", help="domain preset (square|cube)")
    parser.add_argument("--side-sq", dest="side_sq",
                        help="comma-separated squared sides, e.g. 'pi^2,4pi^2'")
    parser.add_argument("--out", help="output directory (or set BIFURCBOX_OUT)")
    parser.add_argument("--seed", type=int, help="seed for all stochastic pieces")
    parser.add_argument("-v", "--verbose", action="store_true")


def _add_target(parser):
    parser.add_argument("--j", type=int, help="1-based eigenvalue index")
    parser.add_argument("--lam", type=float, help="eigenvalue to target")
    parser.add_argument("--p", type=float, help="nonlinearity exponent (default 3)")
    parser.add_argument("--backend", choices=["exact-quartic", "quadrature"])
    parser.add_argument("--seed-budget", dest="seed_budget", type=int,
                        help="minimum total seed count, not a cap: random seeds "
                             "top the 4(3^k-1) structured seeds up to it")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check against the grid oracle (k <= 3)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bifurcbox", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("spectrum", help="enumerate eigenvalue groups")
    _add_common(sp)
    sp.add_argument("--count", type=int, help="number of groups to list")

    pp = sub.add_parser("predict", help="count and classify branch pairs")
    _add_common(pp)
    _add_target(pp)

    vp = sub.add_parser("verify", help="predict, then verify against the PDE")
    _add_common(vp)
    _add_target(vp)
    vp.add_argument("--grid", help="subintervals per axis, e.g. '64' or '33,33,33'")
    vp.add_argument("--eps0", type=float, help="largest eps of the schedule "
                    "(default: a tenth of the discrete neighbour gap, at most 0.1)")
    vp.add_argument("--eps-steps", dest="eps_steps", type=int)
    vp.add_argument("--eps-ratio", dest="eps_ratio", type=float)
    vp.add_argument("--no-morse", dest="no_morse", action="store_true",
                    help="skip Morse-index and eigenvalue-transfer checks")
    vp.add_argument("--a-rtol", dest="a_rtol", type=float)
    vp.add_argument("--min-phi-order", dest="min_phi_order", type=float)
    vp.add_argument("--mu-rtol", dest="mu_rtol", type=float)

    rp = sub.add_parser("report", help="render a JSON report to CSV/tables")
    _add_common(rp)
    rp.add_argument("--input", required=True, help="path to a JSON report")
    return parser


def _apply_flags(args, cfg: dict) -> dict:
    if getattr(args, "domain", None):
        cfg["domain"] = args.domain
    if getattr(args, "side_sq", None):
        cfg["domain"] = [s.strip() for s in args.side_sq.split(",")]
    if getattr(args, "count", None) is not None:
        cfg["count"] = args.count
    if getattr(args, "j", None) is not None and getattr(args, "lam", None) is not None:
        raise ConfigError("give either --j or --lam, not both")
    if getattr(args, "j", None) is not None:
        cfg["target"] = {"j": args.j}
    if getattr(args, "lam", None) is not None:
        cfg["target"] = {"lambda": args.lam}
    if getattr(args, "p", None) is not None:
        cfg["p"] = args.p
    if getattr(args, "backend", None):
        cfg["backend"] = args.backend
    if getattr(args, "seed_budget", None) is not None:
        cfg["search"]["seed_budget"] = args.seed_budget
    if getattr(args, "oracle", False):
        cfg["oracle"] = True
    if getattr(args, "seed", None) is not None:
        cfg["search"]["rng_seed"] = args.seed
        cfg["verify"]["rng_seed"] = args.seed
    for name in ("grid", "eps0", "eps_steps", "eps_ratio", "a_rtol",
                 "min_phi_order", "mu_rtol"):
        val = getattr(args, name, None)
        if val is not None:
            cfg["verify"][name] = val
    if getattr(args, "no_morse", False):
        cfg["verify"]["morse"] = False
    return cfg


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _load_config(getattr(args, "config", None))
        cfg = _apply_flags(args, cfg)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"bifurcbox: config error: {exc}", file=sys.stderr)
        return 1
    except BifurcBoxError as exc:
        print(f"bifurcbox: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
