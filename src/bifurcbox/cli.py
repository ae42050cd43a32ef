"""Command-line front end: spectrum | predict | verify | report.

Configuration comes from a JSON file (--config) with flag overrides.  Each
key is declared once, in ``_DEFAULTS``, whose search and verify blocks are
the fields of SearchConfig and VerifyConfig, and each flag's ``dest`` is
the dotted path of the key it sets.  One pass then types every value like
its default and refuses undeclared keys, so every report echoes the
effective, typed configuration and its hash, and identical configs and
seeds give byte-identical output.  Exit codes: 0 success,
1 usage or configuration error, 2 verification mismatch (or a prediction
containing degenerate points, or from a search whose completeness is not
established: an uncertified root count at p = 3, or an unsaturated
multistart; or a ``predict --oracle`` whose grid oracle disagrees).

Every report's ``search`` block says how complete the critical set is.
At p = 3, on either backend, the search counts the gradient's roots
against the Bezout number 3^k, and the block carries a ``certificate``
(method, distinct roots, Bezout number) with completeness ``"certified"``
or ``"uncertified"``; at any other p the multistart reports
``"oracle-checkable"``, ``"conjectured exact"`` or ``"unsaturated"`` and
no certificate.

Every key and column of every report file is defined in this module, and
the numerical modules return data classes only.  Each command renders all
of its files to text first and hands them to ``_write_files``, which makes
the output directory only then, so a failure while rendering leaves no
partial report set behind.  Every JSON report (``spectrum.json``,
``prediction.json``, ``verdicts.json``) is written by ``_json_text``, whose
bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
final newline, at the cost of the json module's C encoder.

The output directory resolves as: --out flag, then the BIFURCBOX_OUT
environment variable, then the config file, then ./bifurcbox-out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import sys
from dataclasses import fields
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
)
from .errors import BifurcBoxError, ConfigError, PatternMismatch, SupercriticalP
from .pdeverify import (
    VerifyConfig,
    _check_exponent,
    build_laplacian,
    continuation_run,
    geometric_schedule,
)
from .reduced import ReducedFunctional, extract_rect_coefficients
from .spectrum import DomainSpec, enumerate_groups, find_group

# Every config key, declared once: its default fixes its type.  The search
# and verify blocks are the fields of SearchConfig and VerifyConfig.
_DEFAULTS = {
    "domain": "square",
    "target": {"j": 1},
    "p": 3.0,
    "count": 10,
    "backend": None,
    "oracle": False,
    "quadrature": {"nodes_per_panel": 12, "panels_per_halfwave": 1},
    "search": {f.name: f.default for f in fields(SearchConfig)},
    "verify": {"grid": None, "eps0": None, "eps_steps": 4, "eps_ratio": 0.5,
               **{f.name: f.default for f in fields(VerifyConfig)}},
    "output_dir": "bifurcbox-out",
}
# the types of the keys that default to None; verify.grid is parsed by cmd_verify
_NULLABLE = {"backend": str, "verify.eps0": float}


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not 2), and with
    negative numbers in exponent notation (``--eps0 -1e-3``) read as values,
    not as options, like ``-1`` and ``-0.5``, so that their range check
    names the key."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# replaced wholesale, never deep-merged; as objects they take these keys
_ATOMIC_KEYS = {"target": {"j", "lambda"}, "domain": {"side_sq", "dimension"}}


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
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict) and not isinstance(cfg[key], dict):
            raise ConfigError(f"{key}: expected object, got {cfg[key]!r}")
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
        spec = {"side_sq": spec}
    if isinstance(spec, dict):
        sides = spec.get("side_sq")
        if not isinstance(sides, list):
            raise ConfigError("domain.side_sq must be a list of strings")
        dom = DomainSpec.from_strings([str(s) for s in sides])
        dimension = _as(int, spec.get("dimension", dom.dimension), "domain.dimension")
        if dimension != dom.dimension:
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


_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def _as(kind: type, value, key: str):
    """``value`` as a ``kind``: an int takes a JSON integer, a float any
    finite JSON number, a bool a boolean and a str a string.  Anything
    else, a bool for a number included, is a configuration error naming
    ``key``."""
    if isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind is bool):
        try:
            typed = kind(value)
        except OverflowError:  # an integer beyond the float range
            typed = math.inf
        if kind is not float or math.isfinite(typed):
            return typed
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


def _checked(cfg: dict, defaults: dict = _DEFAULTS, prefix: str = "") -> dict:
    """``cfg`` with every leaf typed like its default, in place, so that the
    echo is the effective config.  A key that ``defaults`` does not declare
    is a configuration error, and so is one that a ``domain`` or ``target``
    object does not take; their values have checks of their own."""
    for key, value in cfg.items():
        path = prefix + key
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key")
        default = defaults[key]
        if key in _ATOMIC_KEYS:
            for sub in value if isinstance(value, dict) else ():
                if sub not in _ATOMIC_KEYS[key]:
                    raise ConfigError(f"{path}.{sub}: unknown key")
            continue
        if value is None:
            continue
        if isinstance(default, dict):
            _checked(value, default, path + ".")
        elif (kind := _NULLABLE.get(path) if default is None else type(default)):
            cfg[key] = _as(kind, value, path)
    return cfg


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
            return find_group(domain, j=_as(int, j, "target.j"))
        return find_group(domain, eigenvalue=_as(float, lam, "target.lambda"))
    except ValueError as exc:
        raise ConfigError(str(exc))


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
# report files: every key and column of every file the commands write


def _report_header(cfg: dict, kind: str) -> dict:
    """The keys every JSON report carries: its kind, the version, the typed
    config and its hash."""
    config_hash = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    return {"kind": kind, "version": __version__, "config": cfg, "config_hash": config_hash}


def _spectrum_rows(groups) -> list[dict]:
    """The rows of ``spectrum.json``, one per mode: indices, exact
    eigenvalue, j, k."""
    return [{"indices": list(m.indices), "eigenvalue_num": m.eigenvalue_num,
             "eigenvalue_den": m.eigenvalue_den, "j": g.j, "k": g.k}
            for g in groups for m in g.modes]


def _prediction_dict(pred, domain: DomainSpec) -> dict:
    """The prediction block of ``prediction.json`` and ``verdicts.json``."""
    g = pred.group
    return {
        "lambda_j": g.eigenvalue(domain),
        "lambda_num": g.value.numerator,
        "lambda_den": g.value.denominator,
        "j": g.j,
        "k": g.k,
        "p": pred.p,
        "modes": [list(m.indices) for m in g.modes],
        "pairs": [
            {
                "a": cp.a.tolist(),
                "J": cp.value,
                "grad_norm": cp.grad_norm,
                "hess_eigs": cp.hess_eigs.tolist(),
                "m": cp.morse_index,
                "solution_morse_index": cp.morse_index + g.j - 1,
                "nondegenerate": cp.nondegenerate,
                "margin": cp.margin,
                "profile": pred.profile(i),
            }
            for i, cp in enumerate(pred.pairs)
        ],
        "pair_count_h": pred.pair_count_h,
        "exact": pred.exact,
        "guaranteed_minimum": pred.guaranteed_minimum,
    }


# the BranchVerdict attributes that verdicts.json carries under their own names
_VERDICT_KEYS = ("pair_index", "target_morse", "order_a", "order_phi", "a_ok", "phi_ok",
                 "morse_ok", "morse_threshold", "eig_scaled", "eig_rel_err", "eig_ok",
                 "distinct_ok", "inconclusive", "passed", "notes", "transported_from")


def _verdict_dict(v) -> dict:
    """One entry of the ``verdicts`` list of ``verdicts.json``."""
    return {
        **{key: getattr(v, key) for key in _VERDICT_KEYS},
        "a": v.predicted.a.tolist(),
        "m": v.predicted.morse_index,
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


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for
    byte.  With ``indent`` the json module runs its pure-Python encoder, so
    the payload goes through the C encoder without it, and one numpy pass
    lays the text out: a line break and two spaces per level of depth after
    each non-empty opener and each comma, and before each non-empty closer,
    of those outside strings."""
    raw = np.frombuffer(json.dumps(payload, sort_keys=True, separators=(",", ": "))
                        .encode("ascii"), np.int8)
    quote = raw == ord('"')
    slashes = np.flatnonzero(raw == ord("\\"))
    if slashes.size:  # a backslash that ends an odd run escapes the quote after it
        first = np.flatnonzero(np.diff(slashes, prepend=-2) != 1)
        run = np.diff(first, append=slashes.size)
        quote[(slashes[first] + run)[run % 2 == 1]] = False
    layout = raw == ord(",")
    for c in "[]{}":
        layout |= raw == ord(c)
    layout &= ~np.logical_xor.accumulate(quote)  # outside strings
    pos = np.flatnonzero(layout)
    del quote, layout  # freed early, so the peak stays the C encoder's
    byte = raw[pos]
    opener = (byte == ord("[")) | (byte == ord("{"))
    closer = (byte == ord("]")) | (byte == ord("}"))
    width = 1 + 2 * (np.cumsum(opener) - np.cumsum(closer))
    empty = opener[:-1] & closer[1:] & (np.diff(pos) == 1)
    width[:-1][empty] = width[1:][empty] = 0
    # runs of the original bytes alternate with the breaks, the last one "\n";
    # a break goes after an opener or a comma, before a closer
    lengths = np.empty(2 * np.count_nonzero(width) + 2, np.intp)
    lengths[0::2] = np.diff((pos + ~closer)[width > 0], prepend=0, append=raw.size)
    lengths[1:-1:2], lengths[-1] = width[width > 0], 1
    del pos, byte, opener, closer, width
    out = np.full(raw.size + lengths[1::2].sum(), ord(" "), np.int8)
    out[np.repeat(np.tile([True, False], lengths.size // 2), lengths)] = raw
    out[np.cumsum(lengths)[0::2]] = ord("\n")
    return str(out.data, "ascii")


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _prediction_csv(payload: dict) -> str:
    header = ["pair", *[f"a_{i + 1}" for i in range(payload["k"])], "J", "m",
              "solution_morse_index", "nondegenerate", "margin"]
    return _csv_text([header] + [
        [i, *row["a"], row["J"], row["m"], row["solution_morse_index"],
         row["nondegenerate"], row["margin"]]
        for i, row in enumerate(payload["pairs"])
    ])


def _branch_files(verdicts: list[dict]) -> dict[str, str]:
    """One whitespace-delimited ``branch_NN.dat`` per verdict entry that
    has records: lambda, |u|_L2, the a_lambda components, the remainder
    norm and the Morse index (-1 where it was not counted)."""
    files = {}
    for v in verdicts:
        if not v["records"]:
            continue
        lines = ["# lambda u_l2 " + " ".join(f"a_{i + 1}" for i in range(len(v["a"])))
                 + " phi_norm morse_index\n"]
        for r in v["records"]:
            morse = r["discrete_morse_index"]
            row = [r["lambda"], r["u_l2_norm"], *r["a_lambda"], r["phi_norm"],
                   -1 if morse is None else morse]
            lines.append(" ".join(f"{x:.16g}" for x in row) + "\n")
        files[f"branch_{v['pair_index']:02d}.dat"] = "".join(lines)
    return files


def _write_files(args, cfg: dict, files: dict[str, str]) -> Path:
    """Write the rendered ``{name: text}`` files of one command into the
    output directory, which is made only now, and return it."""
    out = Path(args.out or os.environ.get("BIFURCBOX_OUT") or cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, newline="")
    return out


def _prediction_report(payload: dict) -> tuple[list[str], dict[str, str]]:
    files = {"prediction.csv": _prediction_csv(payload)}
    lines = [f"pairs: {payload['pair_count_h']} (exact={payload['exact']})"]
    lines += [f"  pair {i}: m={row['m']} m+j-1={row['solution_morse_index']} a={row['a']}"
              for i, row in enumerate(payload["pairs"])]
    return lines, files


def _verify_report(payload: dict) -> tuple[list[str], dict[str, str]]:
    verdicts = payload["verdicts"]
    lines = [f"verify report: {len(verdicts)} branches, all_passed={payload['all_passed']}"]
    summary = _csv_text(
        [["pair", "target_morse", "order_a", "order_phi", "eig_rel_err", "passed"]]
        + [[v["pair_index"], v["target_morse"], v["order_a"], v["order_phi"],
            v["eig_rel_err"], v["passed"]] for v in verdicts]
    )
    return lines, {"verify_summary.csv": summary}


def _spectrum_report(payload: dict) -> tuple[list[str], dict[str, str]]:
    return [f"  {row['indices']} lambda={row['eigenvalue_num']}/"
            f"{row['eigenvalue_den']} j={row['j']} k={row['k']}"
            for row in payload["groups"]], {}


_REPORTS = {"prediction": _prediction_report, "verify": _verify_report,
            "spectrum": _spectrum_report}


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, cfg: dict) -> int:
    domain = _domain_from_config(cfg["domain"])
    cfg["domain"] = _domain_echo(domain)
    try:
        groups = enumerate_groups(domain, cfg["count"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    payload = _report_header(cfg, "spectrum")
    payload["groups"] = _spectrum_rows(groups)
    out = _write_files(args, cfg, {"spectrum.json": _json_text(payload)})

    print(f"{'lambda':>12}  {'exact':>10}  {'j':>3}  {'k':>3}  modes")
    for g in groups:
        lam = g.eigenvalue(domain)
        exact = f"{g.value.numerator}/{g.value.denominator}"
        modes = " ".join(str(tuple(m.indices)) for m in g.modes)
        print(f"{lam:12.6f}  {exact:>10}  {g.j:3d}  {g.k:3d}  {modes}")
    print(f"wrote {out / 'spectrum.json'}")
    return 0


def _check_ranges(name: str, block: dict, fractions=(), positive=(), counts=()):
    """A configuration error naming the first key of the ``name`` block
    outside its range: ``fractions`` lie strictly between 0 and 1,
    ``positive`` above 0 and ``counts`` at 1 or more."""
    for keys, ok, rule in ((fractions, lambda v: 0 < v < 1, "lie strictly between 0 and 1"),
                           (positive, lambda v: v > 0, "be positive"),
                           (counts, lambda v: v >= 1, "be at least 1")):
        for key in keys:
            if not ok(block[key]):
                raise ConfigError(f"{name}.{key}: must {rule}, got {block[key]!r}")


def _target(cfg: dict, pde: bool = False):
    """The domain, group and reduced functional of the configured target;
    a bad exponent or backend is a configuration error, and so is a search
    that cannot converge or tell its points apart (``newton_tol`` or
    ``dedup_radius`` not positive, ``max_iter`` below 1), and an exponent
    the PDE verifier refuses when ``pde`` is set."""
    _check_ranges("search", cfg["search"], positive=("newton_tol", "dedup_radius"),
                  counts=("max_iter",))
    domain = _domain_from_config(cfg["domain"])
    cfg["domain"] = _domain_echo(domain)
    group = _target_group(domain, cfg)
    try:
        if pde:
            _check_exponent(domain, cfg["p"])
        functional = ReducedFunctional.for_group(
            group, domain, p=cfg["p"], backend=cfg["backend"], **cfg["quadrature"]
        )
    except (ValueError, SupercriticalP) as exc:
        raise ConfigError(str(exc))
    return domain, group, functional


def _run_prediction(cfg: dict, group, functional):
    """Search the target group; ``search`` is the block every report carries,
    with a ``certificate`` block when the search counted roots against the
    Bezout number."""
    scfg = SearchConfig(**cfg["search"])
    points, diagnostics = find_critical_points_with_diagnostics(functional, scfg)
    prediction = predict_branches(
        group, points, p=functional.p, dedup_radius=scfg.dedup_radius
    )
    search = {key: getattr(diagnostics, key) for key in
              ("n_seeds", "n_converged", "n_failed", "saturated", "completeness")}
    if (cert := diagnostics.certificate) is not None:
        search["certificate"] = {"method": cert.method, "distinct_roots": cert.distinct_roots,
                                 "bezout_number": cert.bezout_number}
    return prediction, search


def _row_text(a: np.ndarray) -> str:
    """``np.array2string(a, precision=6, suppress_small=True)`` of a 1-D
    row: each value positional, unique to 6 digits with trailing zeros
    trimmed, padded to a common integer and fraction width, the words
    wrapped at 75 columns.  Values of 1e8 or more, and non-finite ones,
    which numpy prints otherwise, go to numpy itself."""
    if not np.all(np.abs(a) < 1e8):
        return np.array2string(a, precision=6, suppress_small=True)
    parts = [f"{x:.6f}".rstrip("0").split(".") for x in a.tolist()]
    left = max(len(whole) for whole, _ in parts)
    right = max(len(frac) for _, frac in parts)
    lines, line = [], " "
    for whole, frac in parts:
        word = f"{whole:>{left}}.{frac:<{right}}"
        if len(line) + len(word) > 74 and len(line) > 1:
            lines.append(line.rstrip())
            line = " "
        line += word + " "
    lines.append(line[:-1])
    return "[" + "\n".join(lines)[1:] + "]"


def cmd_predict(args, cfg: dict) -> int:
    domain, group, functional = _target(cfg)
    if cfg["oracle"] and group.k > 3:
        raise ConfigError(f"oracle: the grid oracle covers k <= 3, this group has k={group.k}")
    prediction, search = _run_prediction(cfg, group, functional)
    payload = _report_header(cfg, "prediction")
    payload.update(_prediction_dict(prediction, domain))
    payload["search"] = search
    note = _normalization_note(group, domain, functional)
    if note is not None:
        payload["normalization_note"] = note
    payload["morse_index_note"] = (
        "m is the Morse index of the reduced critical point; the predicted "
        "solution Morse index is m + j - 1 and both are reported"
    )
    if cfg["oracle"]:
        oracle = brute_force_oracle(functional, cfg=SearchConfig(**cfg["search"]))
        dist = pair_set_distance(
            [cp.a for cp in prediction.pairs], [cp.a for cp in oracle]
        )
        payload["oracle"] = {
            "pair_count": len(oracle),
            "set_distance": dist,
            "agrees": bool(dist <= 1e-6),
        }

    out = _write_files(args, cfg, {"prediction.json": _json_text(payload),
                                   "prediction.csv": _prediction_csv(payload)})

    completeness = search["completeness"]
    uncertain = completeness in ("unsaturated", "uncertified")
    if not prediction.exact:
        qualifier = "at least, degenerate present"
    elif completeness == "unsaturated":
        qualifier = "not certified: the search is unsaturated"
    elif completeness == "uncertified":
        cert = search["certificate"]
        qualifier = (f"not certified: {cert['distinct_roots']} of "
                     f"{cert['bezout_number']} Bezout roots found")
    else:
        qualifier = "exact"
    disagrees = cfg["oracle"] and not payload["oracle"]["agrees"]
    if disagrees:
        mismatch = (f"the grid oracle disagrees: {payload['oracle']['pair_count']} pairs "
                    f"at set distance {payload['oracle']['set_distance']:.3g}")
        qualifier = mismatch if qualifier == "exact" else f"{qualifier}; {mismatch}"
    lam = payload["lambda_j"]
    print(
        f"lambda_j={lam:g} (j={group.j}, k={group.k}, p={functional.p:g}): "
        f"{prediction.pair_count_h} pairs of branches ({qualifier})"
    )
    print(f"{'pair':>4}  {'m':>2}  {'m+j-1':>5}  {'J':>12}  a")
    for i, cp in enumerate(prediction.pairs):
        print(
            f"{i:4d}  {cp.morse_index:2d}  {cp.morse_index + group.j - 1:5d}  "
            f"{cp.value:12.6g}  {_row_text(cp.a)}"
        )
    print(f"wrote {out / 'prediction.json'}")
    return 0 if prediction.exact and not uncertain and not disagrees else 2


def cmd_verify(args, cfg: dict) -> int:
    if cfg["oracle"]:
        raise ConfigError("oracle: the grid oracle runs with predict only, not verify")
    domain, group, functional = _target(cfg, pde=True)
    vcfg = cfg["verify"]
    # the exponent, the tolerances, the grid and the schedule are checked
    # before the search runs: a tolerance out of range would switch its check off
    _check_ranges("verify", vcfg, fractions=("a_rtol", "mu_rtol", "linear_rtol"),
                  positive=("min_phi_order", "newton_tol", "dedup_radius"),
                  counts=("max_newton",))
    grid = vcfg["grid"]
    if grid is None:
        grid = 64 if domain.dimension == 2 else 33
    try:
        if isinstance(grid, str):
            grid = [int(x) for x in grid.split(",")]
        grid = [_as(int, g, "verify.grid") for g in (grid if isinstance(grid, list) else [grid])]
        dp = build_laplacian(domain, grid[0] if len(grid) == 1 else grid, group)
    except ValueError as exc:
        raise ConfigError(f"verify.grid: {exc}")
    if vcfg["eps0"] is None:
        vcfg["eps0"] = min(0.1, 0.1 * dp.neighbor_gap)
    try:
        schedule = geometric_schedule(vcfg["eps0"], vcfg["eps_steps"], vcfg["eps_ratio"])
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}")
    vcfg["grid"] = list(dp.grid)

    prediction, search = _run_prediction(cfg, group, functional)
    verdicts = continuation_run(dp, prediction, schedule, VerifyConfig(
        **{f.name: vcfg[f.name] for f in fields(VerifyConfig)}
    ))
    all_passed = bool(verdicts) and all(v.passed for v in verdicts)

    payload = _report_header(cfg, "verify")
    payload["prediction"] = _prediction_dict(prediction, domain)
    payload["search"] = search
    note = _normalization_note(group, domain, functional)
    if note is not None:
        payload["normalization_note"] = note
    payload["grid"] = list(dp.grid)
    payload["lambda_h"] = dp.lambda_h
    payload["multiplet_splitting"] = dp.splitting
    payload["neighbor_gap"] = dp.neighbor_gap
    payload["eps_schedule"] = schedule
    payload["verdicts"] = [_verdict_dict(v) for v in verdicts]
    payload["all_passed"] = all_passed
    out = _write_files(args, cfg, {"verdicts.json": _json_text(payload),
                                   **_branch_files(payload["verdicts"])})

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


def cmd_report(args, cfg: dict) -> int:
    """Render a report: every line and file is built before anything is
    written, so a malformed report exits 1 and leaves no output file."""
    path = Path(args.input)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"report: no such file: {path}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"report: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(payload, dict):
        print(f"report: {path} is not a bifurcbox report: expected a JSON object, "
              f"got {type(payload).__name__}", file=sys.stderr)
        return 1
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _REPORTS:
        print(f"report: unknown report kind {kind!r}", file=sys.stderr)
        return 1
    try:
        lines, files = _REPORTS[kind](payload)
    except (LookupError, TypeError) as exc:  # a missing key, or a value of another type
        reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
        print(f"report: {path} is not a bifurcbox {kind} report: {reason}", file=sys.stderr)
        return 1
    out = _write_files(args, cfg, files)
    lines += [f"wrote {out / name}" for name in files]
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--domain", help="domain preset (square|cube)")
    parser.add_argument("--side-sq", dest="side_sq",
                        help="comma-separated squared sides, e.g. 'pi^2,4pi^2'")
    parser.add_argument("--out", help="output directory (or set BIFURCBOX_OUT)")
    parser.add_argument("--seed", type=int,
                        help="seed of the search: at p = 3 it draws the homotopy "
                             "constant gamma, which moves the reported points only by "
                             "rounding; at other p the multistart draws from it the "
                             "random starts that top its 4(3^k-1) structured seeds up "
                             "to search.seed_budget (none for k >= 4 at the default 200)")
    parser.add_argument("-v", "--verbose", action="store_true")


def _add_target(parser):
    parser.add_argument("--j", type=int, help="1-based eigenvalue index")
    parser.add_argument("--lam", type=float, help="eigenvalue to target")
    parser.add_argument("--p", type=float, help="nonlinearity exponent (default 3)")
    parser.add_argument("--backend", choices=["exact-quartic", "quadrature"])
    parser.add_argument("--seed-budget", dest="search.seed_budget", type=int,
                        help="minimum total seed count of the multistart at p != 3, "
                             "not a cap: random seeds top its 4(3^k-1) structured seeds "
                             "up to it; the certified search at p = 3 tracks one "
                             "homotopy path per symmetry orbit instead and ignores it")
    parser.add_argument("--oracle", action="store_const", const=True, default=None,
                        help="cross-check against the grid oracle (predict, k <= 3)")


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
    vp.add_argument("--grid", dest="verify.grid",
                    help="subintervals per axis, e.g. '64' or '33,33,33'")
    vp.add_argument("--eps0", dest="verify.eps0", type=float, help="largest eps of the "
                    "schedule (default: a tenth of the discrete neighbour gap, at most 0.1)")
    vp.add_argument("--eps-steps", dest="verify.eps_steps", type=int)
    vp.add_argument("--eps-ratio", dest="verify.eps_ratio", type=float)
    vp.add_argument("--no-morse", dest="verify.morse", action="store_false", default=None,
                    help="skip Morse-index and eigenvalue-transfer checks")
    vp.add_argument("--a-rtol", dest="verify.a_rtol", type=float)
    vp.add_argument("--min-phi-order", dest="verify.min_phi_order", type=float)
    vp.add_argument("--mu-rtol", dest="verify.mu_rtol", type=float)

    rp = sub.add_parser("report", help="render a JSON report to CSV/tables")
    _add_common(rp)
    rp.add_argument("--input", required=True, help="path to a JSON report")
    return parser


# flags that name no config key: --side-sq, --j, --lam and --seed set keys below
_NOT_KEYS = {"command", "config", "out", "verbose", "input", "side_sq", "j", "lam", "seed"}


def _apply_flags(args, cfg: dict) -> dict:
    """Each flag given sets the config key its ``dest`` names."""
    flags = vars(args)
    for path, val in flags.items():
        if path not in _NOT_KEYS and val is not None:
            block, _, key = path.rpartition(".")
            (cfg[block] if block else cfg)[key] = val
    if flags.get("side_sq"):
        cfg["domain"] = [s.strip() for s in flags["side_sq"].split(",")]
    j, lam = flags.get("j"), flags.get("lam")
    if j is not None and lam is not None:
        raise ConfigError("give either --j or --lam, not both")
    if j is not None:
        cfg["target"] = {"j": j}
    if lam is not None:
        cfg["target"] = {"lambda": lam}
    if flags.get("seed") is not None:
        cfg["search"]["rng_seed"] = cfg["verify"]["rng_seed"] = flags["seed"]
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
        cfg = _checked(_apply_flags(args, _load_config(args.config)))
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"bifurcbox: config error: {exc}", file=sys.stderr)
        return 1
    except BifurcBoxError as exc:
        print(f"bifurcbox: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
