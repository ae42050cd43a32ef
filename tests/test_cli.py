import argparse
import json
import logging
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bifurcbox
import bifurcbox.cli
from bifurcbox.cli import main
from bifurcbox.critpoints import pair_set_distance

REFS = Path(__file__).parents[1] / "bench" / "refs.json"


def run(tmp_path, *args, name="out"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


class TestSpectrum:
    def test_square_contains_five(self, tmp_path, capsys):
        code, out = run(tmp_path, "spectrum", "--domain", "square")
        assert code == 0
        rows = json.loads((out / "spectrum.json").read_text())["groups"]
        assert {"indices": [1, 2], "eigenvalue_num": 5, "eigenvalue_den": 1,
                "j": 2, "k": 2} in rows
        assert "5.000000" in capsys.readouterr().out

    def test_cube_count_two(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--domain", "cube", "--count", "2")
        assert code == 0
        rows = json.loads((out / "spectrum.json").read_text())["groups"]
        assert [(r["eigenvalue_num"], r["j"], r["k"]) for r in rows] == [
            (3, 1, 1), (6, 2, 3), (6, 2, 3), (6, 2, 3)
        ]

    def test_invalid_domain_is_usage_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "spectrum", "--domain", "triangle")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--frobnicate"])
        assert exc.value.code == 1


class TestPredict:
    def test_square_five_pairs(self, tmp_path, capsys):
        code, out = run(tmp_path, "predict", "--domain", "square", "--j", "2")
        assert code == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["pair_count_h"] == 4
        assert payload["exact"] is True
        assert sorted(p["solution_morse_index"] for p in payload["pairs"]) == [2, 2, 3, 3]
        assert payload["config_hash"]
        assert payload["version"]
        assert "4 pairs" in capsys.readouterr().out
        assert (out / "prediction.csv").read_text().splitlines()[0].startswith("pair,a_1,a_2")

    def test_cube_thirteen_pairs(self, tmp_path):
        code, out = run(tmp_path, "predict", "--domain", "cube", "--j", "2")
        assert code == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["pair_count_h"] == 13

    def test_simple_eigenvalue_single_pair(self, tmp_path):
        code, out = run(tmp_path, "predict", "--domain", "square", "--j", "1")
        assert code == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["pair_count_h"] == 1
        assert payload["pairs"][0]["solution_morse_index"] == 1

    def test_normalization_note_flags_convention(self, tmp_path):
        code, out = run(tmp_path, "predict", "--domain", "square", "--lam", "5")
        note = json.loads((out / "prediction.json").read_text())["normalization_note"]
        assert note["pattern"] is True
        assert note["discrepancy_flag"] is True
        assert note["matches_normalized_convention"] is True
        assert note["ratio_matches_reference"] is True

    def test_oracle_flag(self, tmp_path):
        code, out = run(tmp_path, "predict", "--domain", "square", "--j", "2", "--oracle")
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["oracle"]["agrees"] is True
        assert payload["oracle"]["pair_count"] == 4

    def test_oracle_disagreement_exits_2(self, tmp_path, capsys, monkeypatch):
        # an oracle that misses one of square lambda=50's 13 pairs
        oracle = bifurcbox.cli.brute_force_oracle
        monkeypatch.setattr(bifurcbox.cli, "brute_force_oracle",
                            lambda *a, **kw: oracle(*a, **kw)[1:])
        code, out = run(tmp_path, "predict", "--domain", "square", "--lam", "50", "--oracle")
        payload = json.loads((out / "prediction.json").read_text())
        assert code == 2
        assert payload["pair_count_h"] == 13 and payload["search"]["completeness"] == "certified"
        assert payload["oracle"]["agrees"] is False and payload["oracle"]["pair_count"] == 12
        dist = payload["oracle"]["set_distance"]
        assert dist > 1e-6
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith(
            f"13 pairs of branches (the grid oracle disagrees: 12 pairs at set distance {dist:.3g})")

    @pytest.mark.parametrize("args", [
        ("--domain", "square", "--j", "2"),  # the closed form
        ("--domain", "cube", "--lam", "14"),  # the homotopy, on either backend
        ("--domain", "cube", "--lam", "14", "--backend", "quadrature"),
    ])
    def test_byte_identical_reports(self, args, tmp_path):
        _, out1 = run(tmp_path, "predict", *args, name="a")
        _, out2 = run(tmp_path, "predict", *args, name="b")
        for name in ("prediction.json", "prediction.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_search_diagnostics_embedded(self, tmp_path):
        _, out = run(tmp_path, "predict", "--domain", "square", "--j", "2")
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["search"]["completeness"] == "certified"
        assert payload["search"]["saturated"] is True
        assert payload["search"]["certificate"] == {
            "method": "closed form", "distinct_roots": 9, "bezout_number": 9}
        _, out = run(tmp_path, "verify", "--domain", "square", "--j", "2",
                     "--grid", "32", "--eps-steps", "1", "--no-morse", name="v")
        verify = json.loads((out / "verdicts.json").read_text())
        assert verify["search"] == payload["search"]

    def test_unsaturated_search_exits_two(self, tmp_path, capsys):
        # p = 2 runs the quadrature multistart, whose k = 4 search on square
        # lambda=65 still finds a new pair in the second half of its seeds
        code, out = run(tmp_path, "predict", "--domain", "square", "--lam", "65", "--p", "2")
        assert code == 2
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["search"]["completeness"] == "unsaturated"
        assert "certificate" not in payload["search"]
        assert payload["exact"] is True  # the fields keep their meaning
        stdout = capsys.readouterr().out
        assert "not certified: the search is unsaturated" in stdout
        assert "(exact)" not in stdout

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_cube_14_is_certified(self, seed, tmp_path, capsys):
        # the homotopy counts all 3^6 roots, so the 172 pairs that the
        # multistart missed 18 of are certified complete
        code, out = run(tmp_path, "predict", "--domain", "cube", "--lam", "14", "--seed", seed)
        assert code == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["pair_count_h"] == 172 and payload["exact"] is True
        assert payload["search"]["completeness"] == "certified"
        assert payload["search"]["certificate"] == {
            "method": "homotopy", "distinct_roots": 729, "bezout_number": 729}
        stored = next(c for c in json.loads(REFS.read_text())["cases"]
                      if c["domain"] == "cube" and c["lambda"] == 14)
        assert pair_set_distance([p["a"] for p in payload["pairs"]], stored["pairs"]) <= 1e-6
        assert "172 pairs of branches (exact)" in capsys.readouterr().out

    def test_cube_14_quadrature_is_certified(self, tmp_path, capsys):
        # at p = 3 the quadrature backend searches its own quartic tensor
        # with the same certified homotopy
        code, out = run(tmp_path, "predict", "--domain", "cube", "--lam", "14",
                        "--backend", "quadrature")
        assert code == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["pair_count_h"] == 172 and payload["exact"] is True
        assert payload["search"]["completeness"] == "certified"
        assert payload["search"]["certificate"] == {
            "method": "homotopy", "distinct_roots": 729, "bezout_number": 729}
        stored = next(c for c in json.loads(REFS.read_text())["cases"]
                      if c["domain"] == "cube" and c["lambda"] == 14)
        assert pair_set_distance([p["a"] for p in payload["pairs"]], stored["pairs"]) <= 1e-6
        assert "172 pairs of branches (exact)" in capsys.readouterr().out

    def test_ill_conditioned_endpoints_leave_the_search_uncertified(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bifurcbox.critpoints, "_COND_LIMIT", 0.0)  # no endpoint counts
        code, out = run(tmp_path, "predict", "--domain", "cube", "--lam", "27")
        assert code == 2
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["search"]["completeness"] == "uncertified"
        assert payload["search"]["certificate"]["distinct_roots"] == 1  # the origin
        captured = capsys.readouterr()
        assert "not certified: 1 of 81 Bezout roots found" in captured.out
        assert captured.err == ""

    def test_dedup_radius_reaches_prediction(self, tmp_path, monkeypatch):
        seen = []
        fold = bifurcbox.cli.predict_branches
        monkeypatch.setattr(
            bifurcbox.cli, "predict_branches",
            lambda *args, **kw: seen.append(kw["dedup_radius"]) or fold(*args, **kw),
        )
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"domain": "square", "target": {"lambda": 5},
                                   "search": {"dedup_radius": 1e-5}}))
        assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert seen == [1e-5]

    def test_conflicting_target_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "predict", "--domain", "square", "--j", "2", "--lam", "5")
        assert code == 1


class TestVerify:
    def test_ground_state_run(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "--domain", "square", "--j", "1",
                        "--grid", "32", "--eps-steps", "3")
        assert code == 0
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["all_passed"] is True
        assert payload["eps_schedule"] == [0.1, 0.05, 0.025]
        v = payload["verdicts"][0]
        assert v["passed"] and v["order_phi"] >= 0.9
        dat = (out / "branch_00.dat").read_text().splitlines()
        assert dat[0].startswith("# lambda u_l2 a_1 phi_norm")
        assert len(dat) == 4
        assert "PASS" in capsys.readouterr().out

    def test_mismatch_exits_two(self, tmp_path):
        code, out = run(tmp_path, "verify", "--domain", "square", "--j", "1",
                        "--grid", "32", "--eps-steps", "3", "--min-phi-order", "5.0")
        assert code == 2
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["all_passed"] is False

    def test_rounding_level_neighbor_gap_is_refused(self, tmp_path, capsys):
        # at 18 intervals the FD modes (5, 7) and (7, 5) coincide with the
        # group's (1, 9) and (9, 1) to rounding: nothing could be checked
        code, out = run(tmp_path, "verify", "--domain", "square", "--lam", "82",
                        "--grid", "18")
        assert code == 2
        assert "GridTooCoarse" in capsys.readouterr().err
        assert not (out / "verdicts.json").exists()

    def test_indefinite_ritz_gram_matrix_ends_in_a_verdict(self, tmp_path):
        # square lambda=90 at 18 intervals: the refined Ritz span of pair 1
        # loses definiteness, and the Morse count defers instead of raising;
        # every pair FAILs on the FD spectrum's reordering (58 FD eigenvalues
        # below lambda_h against j - 1 = 62), not on a traceback
        code, out = run(tmp_path, "verify", "--domain", "square", "--lam", "90",
                        "--grid", "18")
        assert code == 2
        verdicts = json.loads((out / "verdicts.json").read_text())["verdicts"]
        assert [v["passed"] for v in verdicts] == [False] * 4
        assert [v["target_morse"] for v in verdicts] == [64, 63, 63, 64]
        assert [v["records"][0]["discrete_morse_index"] for v in verdicts] == [60, 60, 59, 60]
        assert "Gram matrix is not positive definite" in verdicts[1]["notes"][0]
        # only the Ritz refinement failed: the inertia count is kept at
        # every eps, and the transported eigenvalues are left out
        records = verdicts[1]["records"]
        assert [r["epsilon"] for r in records] == [0.1, 0.05, 0.025, 0.0125]
        assert [r["discrete_morse_index"] for r in records] == [60] * 4
        assert [r["near_zero_mu"] is None for r in records] == [False, True, True, True]
        assert verdicts[1]["notes"] == [
            f"eps={eps}: the Rayleigh-Ritz Gram matrix is not positive definite"
            for eps in ("0.05", "0.025", "0.0125")]
        assert verdicts[1]["morse_ok"] is False and verdicts[1]["eig_ok"] is None
        assert [v["order_a"] is None for v in verdicts] == [True, False, False, True]

    def test_no_morse_skips_eigen_checks(self, tmp_path):
        code, out = run(tmp_path, "verify", "--domain", "square", "--j", "1",
                        "--grid", "32", "--eps-steps", "2", "--no-morse")
        assert code == 0
        v = json.loads((out / "verdicts.json").read_text())["verdicts"][0]
        assert v["morse_ok"] is None and v["eig_ok"] is None

    def test_rectangle_side_flags(self, tmp_path):
        code, out = run(tmp_path, "verify", "--side-sq", "pi^2,pi^2", "--j", "1",
                        "--grid", "24", "--eps-steps", "2", "--no-morse")
        assert code == 0
        cfgecho = json.loads((out / "verdicts.json").read_text())["config"]
        assert cfgecho["domain"]["side_sq"] == ["pi^2", "pi^2"]

    def test_default_eps0_is_a_tenth_of_the_neighbor_gap(self, tmp_path):
        # the 3pi x pi rectangle's ground group is 0.33 from its neighbour
        code, out = run(tmp_path, "verify", "--side-sq", "9pi^2,pi^2", "--j", "1",
                        "--grid", "48,18", "--eps-steps", "2", "--no-morse")
        assert code == 0
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["neighbor_gap"] < 1.0
        assert payload["config"]["verify"]["eps0"] == 0.1 * payload["neighbor_gap"]

    def test_four_branches_matched(self, tmp_path):
        code, out = run(tmp_path, "verify", "--domain", "square", "--j", "2",
                        "--grid", "32", "--eps-steps", "2")
        assert code == 0
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["all_passed"] is True
        assert len(payload["verdicts"]) == 4
        assert sorted(v["target_morse"] for v in payload["verdicts"]) == [2, 2, 3, 3]
        last_morse = [v["records"][-1]["discrete_morse_index"]
                      for v in payload["verdicts"]]
        assert sorted(last_morse) == [2, 2, 3, 3]

    def test_verbose_run_reports_the_transport(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG)
        code, out = run(tmp_path, "verify", "--domain", "square", "--j", "2",
                        "--grid", "32", "--eps-steps", "1", "-v")
        assert code == 0
        verdicts = json.loads((out / "verdicts.json").read_text())["verdicts"]
        sources = [v["transported_from"] for v in verdicts]
        solved = [i for i, s in enumerate(sources) if s is None]
        assert len(solved) == 2 and sorted(s for s in sources if s is not None) == solved
        assert [r.getMessage() for r in caplog.records if r.name == "bifurcbox.pdeverify"] == [
            "grid symmetry group of order 8: 2 pairs started from a mapped solution"]

    def test_verify_peak_memory_at_the_grid_limit(self, tmp_path, capsys):
        # cube lambda=3 at 65^3: the record keeps one eighth of the grid, the
        # pair's sector, and the three Morse sectors share one array of c;
        # the traced peak is about 7.1 MB, 9.9 MB with full-grid records
        args = ["verify", "--domain", "cube", "--lam", "3", "--grid", "65", "--eps-steps", "1"]
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 8_000_000

    @pytest.mark.parametrize("domain, lam, grid, p, pairs", [
        ("square", "5", "64", "2.5", 4), ("cube", "6", "17", "2", 13),
    ])
    def test_verify_off_the_cubic_exponent(self, tmp_path, capsys, domain, lam, grid, p, pairs):
        # p != 3: the |v|^(p-1) residual and Morse weight, and the grid-sum
        # reference point on the dense group basis
        code, out = run(tmp_path, "verify", "--domain", domain, "--lam", lam, "--grid", grid,
                        "--p", p)
        assert code == 0
        verdicts = json.loads((out / "verdicts.json").read_text())["verdicts"]
        assert [v["passed"] for v in verdicts] == [True] * pairs
        assert capsys.readouterr().out.count("PASS") == pairs

    def test_byte_identical_verify_reports(self, tmp_path):
        args = ["verify", "--domain", "square", "--j", "1", "--grid", "32",
                "--eps-steps", "2"]
        _, out1 = run(tmp_path, *args, name="v1")
        _, out2 = run(tmp_path, *args, name="v2")
        assert (out1 / "verdicts.json").read_bytes() == (out2 / "verdicts.json").read_bytes()
        assert (out1 / "branch_00.dat").read_bytes() == (out2 / "branch_00.dat").read_bytes()


# Inputs under which a search would be vacuous or would run on NaN, each
# with the refusal that names its key.  "--config" is followed by the text
# of the config file.
_VACUOUS = [
    (["predict", "--lam", "5", "--p", "nan"], "p: expected a finite number, got nan"),
    (["predict", "--lam", "5", "--p", "inf"], "p: expected a finite number, got inf"),
    (["predict", "--lam", "5", "--config", '{"p": 1e400}'],
     "p: expected a finite number, got inf"),
    (["predict", "--lam", "5", "--config", '{"search": {"newton_tol": NaN}}'],
     "search.newton_tol: expected a finite number, got nan"),
    (["predict", "--lam", "5", "--config", '{"search": {"newton_tol": 0.0}}'],
     "search.newton_tol: must be positive, got 0.0"),
    (["predict", "--lam", "5", "--config", '{"search": {"max_iter": 0}}'],
     "search.max_iter: must be at least 1, got 0"),
    (["predict", "--lam", "5", "--config", '{"search": {"dedup_radius": 0}}'],
     "search.dedup_radius: must be positive, got 0.0"),
    (["verify", "--lam", "5", "--eps0", "inf"], "verify.eps0: expected a finite number, got inf"),
    (["verify", "--lam", "5", "--config", '{"search": {"max_iter": 0}}'],
     "search.max_iter: must be at least 1, got 0"),
    # verify tolerances out of range would switch their checks off
    (["verify", "--lam", "50", "--config", '{"verify": {"a_rtol": 1e9, "min_phi_order": -1e9, '
      '"mu_rtol": 1e9, "dedup_radius": -1}}'],
     "verify.a_rtol: must lie strictly between 0 and 1, got 1000000000.0"),
    (["verify", "--lam", "5", "--mu-rtol", "0"],
     "verify.mu_rtol: must lie strictly between 0 and 1, got 0.0"),
    (["verify", "--lam", "5", "--config", '{"verify": {"linear_rtol": 1}}'],
     "verify.linear_rtol: must lie strictly between 0 and 1, got 1.0"),
    (["verify", "--lam", "5", "--min-phi-order", "0"],
     "verify.min_phi_order: must be positive, got 0.0"),
    (["verify", "--lam", "5", "--config", '{"verify": {"newton_tol": 0}}'],
     "verify.newton_tol: must be positive, got 0.0"),
    (["verify", "--lam", "5", "--config", '{"verify": {"dedup_radius": -1}}'],
     "verify.dedup_radius: must be positive, got -1.0"),
    (["verify", "--lam", "5", "--config", '{"verify": {"max_newton": 0}}'],
     "verify.max_newton: must be at least 1, got 0"),
]


def _with_config_file(argv, tmp_path):
    """``argv`` with the config text after "--config" written to a file."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config") + 1
    path = tmp_path / "run.json"
    path.write_text(argv[i])
    return [*argv[:i], str(path), *argv[i + 1:]]


class TestConfigAndReport:
    @pytest.mark.parametrize("argv", [
        ["verify", "--domain", "square", "--lam", "5", "--grid", "8"],
        ["verify", "--domain", "square", "--lam", "5", "--grid", "64,x"],
        ["verify", "--domain", "square", "--lam", "5", "--grid", "64,64,64"],
        ["verify", "--domain", "square", "--lam", "5", "--eps-steps", "0"],
        ["verify", "--domain", "square", "--lam", "5", "--eps0", "-1"],
        ["verify", "--domain", "square", "--lam", "5", "--eps-ratio", "2"],
        ["verify", "--domain", "square", "--lam", "5", "--p", "0.5"],
        ["predict", "--domain", "square", "--lam", "5", "--p", "0.5"],
        ["predict", "--domain", "square", "--lam", "5", "--backend", "exact-quartic",
         "--p", "2"],
        ["spectrum", "--domain", "square", "--count", "0"],
        ["spectrum", "--domain", "square", "--count", "-3"],
        ["predict", "--domain", "square", "--lam", "1e12"],
        ["predict", "--domain", "square", "--lam", "65", "--oracle"],  # k = 4
        ["verify", "--domain", "square", "--lam", "5", "--oracle"],
        *(argv for argv, _ in _VACUOUS),
        # negative values in exponent notation are values, not options
        ["verify", "--domain", "square", "--lam", "5", "--eps0", "-1e-3"],
        ["verify", "--domain", "square", "--lam", "5", "--min-phi-order", "-1e9"],
    ])
    def test_bad_input_is_config_error_before_the_search(self, argv, tmp_path,
                                                         monkeypatch, capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before the input was checked")

        monkeypatch.setattr(bifurcbox.cli, "find_critical_points_with_diagnostics", no_search)
        assert main([*_with_config_file(argv, tmp_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config error" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid, shown", [("[64.9, 64.9]", "64.9"), ("[true, true]", "True"),
                                             ("64.9", "64.9")])
    def test_verify_grid_takes_integers_only(self, grid, shown, tmp_path, capsys):
        # a float entry is refused, not truncated (64.9 ran at 64^2), and so
        # is a bool; a scalar float named no key ("'float' object is not
        # iterable")
        argv = ["verify", "--domain", "square", "--lam", "5",
                "--config", f'{{"verify": {{"grid": {grid}}}}}']
        assert main([*_with_config_file(argv, tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"bifurcbox: config error: verify.grid: expected int, got {shown}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", _VACUOUS,
                             ids=[message.split(":")[0] for _, message in _VACUOUS])
    def test_vacuous_search_is_refused_by_key(self, argv, message, tmp_path, capsys):
        assert main([*_with_config_file(argv, tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"bifurcbox: config error: {message}\n"

    def test_scan_ceiling_is_config_error(self, tmp_path, monkeypatch, capsys):
        # an index box of 10^6 x 10^6 modes is refused before the scan
        start = time.perf_counter()
        assert main(["predict", "--domain", "square", "--lam", "1e12",
                     "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 0.5
        assert "too large" in capsys.readouterr().err
        # more groups than the ceiling has modes, refused before any scan
        for argv in (["spectrum", "--count", "2000000"], ["predict", "--j", "2000000"]):
            start = time.perf_counter()
            assert main([*argv, "--domain", "square", "--out", str(tmp_path / "c")]) == 1
            assert time.perf_counter() - start < 0.5
            assert "too large" in capsys.readouterr().err
        # a spectrum count whose doubling scan outgrows the ceiling
        monkeypatch.setattr(bifurcbox.spectrum, "_MAX_SCAN_MODES", 100)
        assert main(["spectrum", "--domain", "square", "--count", "500",
                     "--out", str(tmp_path / "s")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_supercritical_exponent_is_config_error_before_the_search(
            self, tmp_path, monkeypatch, capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before the exponent was checked")

        monkeypatch.setattr(bifurcbox.cli, "find_critical_points_with_diagnostics", no_search)
        argv = ["verify", "--domain", "cube", "--lam", "14", "--p", "7", "--grid", "17"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config error" in err[0]
        assert "critical exponent 5" in err[0]

    @pytest.mark.parametrize("command, block, key, value, kind", [
        ("verify", "verify", "newton_tol", "x", "float"),
        ("predict", "search", "seed_budget", "many", "int"),
        ("verify", "verify", "morse", "false", "bool"),
        ("verify", "verify", "morse", 0, "bool"),
        ("verify", "verify", "eps_steps", "two", "int"),
        ("predict", None, "oracle", "no", "bool"),
        ("predict", None, "p", "cubic", "float"),
        ("spectrum", None, "count", "many", "int"),
        ("predict", "domain", "dimension", "x", "int"),
        ("predict", "target", "j", "x", "int"),
        ("predict", "target", "lambda", [5], "float"),
        ("predict", "quadrature", "nodes_per_panel", "x", "int"),
        ("predict", None, "quadrature", 3, "object"),
        ("predict", "search", "max_iter", 2.7, "int"),
        ("spectrum", None, "count", True, "int"),
        ("predict", "search", "newton_tol", "1e-12", "float"),
        ("predict", None, "p", "3", "float"),
        ("predict", None, "backend", 3, "str"),
    ])
    def test_config_file_value_of_wrong_type(self, command, block, key, value, kind,
                                             tmp_path, monkeypatch, capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before the config was checked")

        monkeypatch.setattr(bifurcbox.cli, "find_critical_points_with_diagnostics", no_search)
        # a domain or target object in the file must not be replaced by a flag
        entry = {key: value}
        if block == "domain":
            entry["side_sq"] = ["pi^2", "pi^2"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry if block is None else {block: entry}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if block != "domain":
            argv += ["--domain", "square"]
        if block != "target" and command != "spectrum":
            argv += ["--lam", "5"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        name = key if block is None else f"{block}.{key}"
        assert err == [f"bifurcbox: config error: {name}: expected {kind}, got {value!r}"]

    @pytest.mark.parametrize("path", ["seach", "search.typo", "verify.mortse",
                                      "target.lamda", "domain.dimesion"])
    def test_unknown_config_key_is_refused(self, path, tmp_path, capsys):
        block, _, key = path.rpartition(".")
        # the domain and target objects are otherwise valid
        base = {"target": {"j": 2}, "domain": {"side_sq": ["pi^2", "pi^2"]}}.get(block, {})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({block: {**base, key: 1}} if block else {key: {}}))
        assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"bifurcbox: config error: {path}: unknown key"]

    def test_domain_list_entries_read_like_side_sq_entries(self, tmp_path):
        reports = []
        for name, domain in [("list", [1, 1]), ("object", {"side_sq": [1, 1]})]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"domain": domain}))
            _, out = run(tmp_path, "spectrum", "--config", str(cfg), name=name)
            reports.append(json.loads((out / "spectrum.json").read_text()))
        assert reports[0]["groups"] == reports[1]["groups"]
        assert reports[0]["config"]["domain"] == {"dimension": 2, "side_sq": ["1", "1"]}

    @pytest.mark.parametrize("command, report, config_hash, eps0, grid", [
        ("predict", "prediction.json", "9ec370d6ec180183", None, None),
        ("verify", "verdicts.json", "3334d63ce3efcebc", 0.1, [64, 64]),
    ])
    def test_default_config_echo(self, command, report, config_hash, eps0, grid, tmp_path):
        # the echo and hash of a default run with --seed 7
        _, out = run(tmp_path, command, "--seed", "7")
        payload = json.loads((out / report).read_text())
        assert payload["config"] == {
            "backend": None, "count": 10, "oracle": False, "output_dir": "bifurcbox-out",
            "domain": {"dimension": 2, "side_sq": ["pi^2", "pi^2"]},
            "p": 3.0, "quadrature": {"nodes_per_panel": 12, "panels_per_halfwave": 1},
            "search": {"dedup_radius": 1e-06, "degeneracy_rtol": 1e-08, "max_iter": 100,
                       "newton_tol": 1e-12, "rng_seed": 7, "seed_budget": 200},
            "target": {"j": 1},
            "verify": {"a_rtol": 0.1, "dedup_radius": 1e-06, "eps0": eps0, "eps_ratio": 0.5,
                       "eps_steps": 4, "grid": grid, "linear_rtol": 1e-12, "max_newton": 60,
                       "min_phi_order": 0.9, "morse": True, "mu_rtol": 0.05,
                       "newton_tol": 1e-10, "rng_seed": 7},
        }
        assert payload["config_hash"] == config_hash

    def test_echo_is_the_typed_config_and_absent_flags_keep_the_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 3, "oracle": True, "verify": {"morse": False}}))
        argv = ["--config", str(cfg), "--domain", "square", "--j", "1"]
        _, out = run(tmp_path, "predict", *argv, name="p")
        payload = json.loads((out / "prediction.json").read_text())
        assert repr(payload["config"]["p"]) == "3.0"
        assert payload["config"]["oracle"] is True and payload["oracle"]["agrees"] is True
        # verify refuses the oracle key, so its file drops it
        assert run(tmp_path, "verify", *argv, name="refused")[0] == 1
        cfg.write_text(json.dumps({"p": 3, "verify": {"morse": False}}))
        _, out = run(tmp_path, "verify", *argv, "--grid", "32", "--eps-steps", "1", name="v")
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["config"]["verify"]["morse"] is False
        assert payload["verdicts"][0]["morse_ok"] is None

    def test_every_flag_names_a_config_key(self):
        parser = bifurcbox.cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices.values()
        # the dests that land in the parsed namespace (not --help, --version)
        dests = {a.dest for p in (parser, *commands) for a in p._actions
                 if a.default is not argparse.SUPPRESS}
        defaults = bifurcbox.cli._DEFAULTS
        declared = {*defaults, *(f"{block}.{key}" for block, default in defaults.items()
                                 if isinstance(default, dict) for key in default)}
        others = {"command", "config", "out", "verbose", "input", "side_sq", "j", "lam", "seed"}
        assert dests - others <= declared
        assert "verify.eps0" in dests and "search.seed_budget" in dests

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "domain": "square",
            "target": {"lambda": 5},
            "search": {"seed_budget": 150},
            "output_dir": str(tmp_path / "cfgout"),
        }))
        code = main(["predict", "--config", str(cfg)])
        assert code == 0
        payload = json.loads((tmp_path / "cfgout" / "prediction.json").read_text())
        assert payload["lambda_j"] == 5.0
        assert payload["config"]["search"]["seed_budget"] == 150
        # flag overrides the file
        code = main(["predict", "--config", str(cfg), "--j", "1",
                     "--out", str(tmp_path / "cfgout2")])
        assert code == 0
        payload2 = json.loads((tmp_path / "cfgout2" / "prediction.json").read_text())
        assert payload2["lambda_j"] == 2.0
        assert payload2["config_hash"] != payload["config_hash"]

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["predict", "--config", str(bad)]) == 1
        assert "line" in capsys.readouterr().err
        assert main(["predict", "--config", str(tmp_path / "missing.json")]) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIFURCBOX_OUT", str(tmp_path / "envout"))
        assert main(["spectrum", "--domain", "square"]) == 0
        assert (tmp_path / "envout" / "spectrum.json").exists()

    def test_report_prediction(self, tmp_path, capsys):
        _, out = run(tmp_path, "predict", "--domain", "square", "--j", "2")
        capsys.readouterr()
        code = main(["report", "--input", str(out / "prediction.json"),
                     "--out", str(tmp_path / "rep")])
        assert code == 0
        assert "pairs: 4" in capsys.readouterr().out
        assert (tmp_path / "rep" / "prediction.csv").exists()

    def test_report_verify(self, tmp_path, capsys):
        _, out = run(tmp_path, "verify", "--domain", "square", "--j", "1",
                     "--grid", "32", "--eps-steps", "2")
        capsys.readouterr()
        code = main(["report", "--input", str(out / "verdicts.json"),
                     "--out", str(tmp_path / "rep2")])
        assert code == 0
        summary = (tmp_path / "rep2" / "verify_summary.csv").read_text()
        assert summary.splitlines()[0] == "pair,target_morse,order_a,order_phi,eig_rel_err,passed"

    def test_report_spectrum(self, tmp_path, capsys):
        _, out = run(tmp_path, "spectrum", "--domain", "square", "--count", "2")
        capsys.readouterr()
        code = main(["report", "--input", str(out / "spectrum.json"),
                     "--out", str(tmp_path / "rep3")])
        assert code == 0
        assert "j=2 k=2" in capsys.readouterr().out

    def test_report_missing_file(self, tmp_path):
        assert main(["report", "--input", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("payload, kind, reason", [
        ([1, 2], "", "expected a JSON object, got list"),
        ({"kind": "prediction"}, "prediction ", "missing key 'k'"),
        ({"kind": "verify", "verdicts": [{}]}, "verify ", "missing key 'all_passed'"),
    ])
    def test_report_of_a_non_report_is_refused(self, tmp_path, capsys, payload, kind, reason):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        code = main(["report", "--input", str(path), "--out", str(tmp_path / "rep")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"report: {path} is not a bifurcbox {kind}report: {reason}\n"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("kind", ["banana", ["verify"], None])
    def test_report_of_an_unknown_kind_is_refused(self, tmp_path, capsys, kind):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": kind}))
        code = main(["report", "--input", str(path), "--out", str(tmp_path / "rep")])
        assert code == 1
        assert capsys.readouterr().err == f"report: unknown report kind {kind!r}\n"
        assert not (tmp_path / "rep").exists()


def indent_2(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# strings that hold the layout's bytes, escapes and runs of backslashes
TRICKY = ["[]{}:,", '"', '\\"', "\\", "a\\", '\\\\"', '"[",', "\\\\\\", "{,\\", "", " ", "\t\n"]


def random_payload(rng, depth=0):
    roll = rng.random() * (0.45 if depth == 0 else 1.0)  # a container at the top
    if depth < 5 and roll < 0.25:
        return {random_string(rng): random_payload(rng, depth + 1)
                for _ in range(rng.integers(0, 5))}
    if depth < 5 and roll < 0.45:
        return [random_payload(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    return [
        lambda: float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
        lambda: int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 40)),
        lambda: random_string(rng),
        lambda: [True, False, None][rng.integers(3)],
        lambda: [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308][rng.integers(6)],
    ][rng.integers(5)]()


def random_string(rng):
    alphabet = ["a", "Z", "0", " ", ":", "\u00e9", "\u2202", "\U0001d706", "\x00", "\x7f",
                *"[]{},", '"', "\\"]
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 9)))


class TestReportFiles:
    def test_json_text_is_indent_2_on_a_random_corpus(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            payload = random_payload(rng)
            assert bifurcbox.cli._json_text(payload) == indent_2(payload), payload

    @pytest.mark.parametrize("empty", [{}, []])
    def test_json_text_keeps_empty_containers_at_every_depth(self, empty):
        payload = empty
        for depth in range(6):
            payload = {"a": [payload, empty, 1], "b": empty, "c": [empty], "d": {"e": payload}}
            for p in (payload, empty, [empty, empty], {"x": empty}):
                assert bifurcbox.cli._json_text(p) == indent_2(p)

    def test_json_text_of_special_values(self):
        payload = {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": [-0.0, 0.0],
                   "tiny": 5e-324, "huge": 1e308, "flags": [True, False, None],
                   "big": [2**200, -(3**90)], "ints": [0, -1, 7]}
        assert bifurcbox.cli._json_text(payload) == indent_2(payload)
        for value in (*payload.values(), math.nan, 5e-324, "x", None, 2**70):
            assert bifurcbox.cli._json_text(value) == indent_2(value)

    def test_json_text_of_non_ascii_and_tricky_strings(self):
        payload = {"\u03bb\u2081": "\u00e9t\u00e9",
                   "\U0001d706": ["\u2202F", {"\u00fc": "\u2264"}],
                   **{key: [key, {key: key}] for key in TRICKY}}
        assert bifurcbox.cli._json_text(payload) == indent_2(payload)
        for key in TRICKY:
            for p in (key, [key], {key: []}, {key: [key, 1]}, [[key], {}, {"k": key}]):
                assert bifurcbox.cli._json_text(p) == indent_2(p), p

    def test_json_text_peak_memory(self, tmp_path, capsys):
        # square lambda=325 (k = 6): 424 KB of indented report.  Its
        # tracemalloc peak is the C encoder's own, 1.63 MB, against 2.29 MB
        # for the pure-Python encoder that indent=2 runs
        code, out = run(tmp_path, "predict", "--domain", "square", "--lam", "325")
        capsys.readouterr()
        assert code == 0
        payload = json.loads((out / "prediction.json").read_text())
        peaks = []
        for write in (bifurcbox.cli._json_text, indent_2):
            text = write(payload)
            tracemalloc.start()
            try:
                write(payload)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert text == (out / "prediction.json").read_text()
        assert peaks[0] <= peaks[1]

    def test_row_text_is_array2string(self):
        # the stdout table's coefficient column, byte for byte: random rows
        # of k = 1..12 (long ones wrap at 75 columns), values that round to
        # +-0 at six digits, rows of zeros and of -0.0, exact ties at the
        # sixth digit, values just below 1e8, subnormals
        rng = np.random.default_rng(5)
        rows = [np.zeros(k) for k in (1, 6, 12)] + [np.array([-0.0, 0.0, -0.0])]
        rows += [np.array([1e-9, -1e-9, 5e-7, -5e-7, 4.9e-7, 2.0, -0.0])]
        rows += [np.array([0.0078125, -0.5078125, 1.0000005]),
                 np.array([0.0000005, 0.0000015, -0.0000025, 2.5e-6, 0.1234565, 3.0000005]),
                 np.array([99999999.99999999, -99999999.9, 99999999.9999995]),
                 np.nextafter(1e8, 0.0) * np.array([1.0, -1.0, 0.5]),
                 np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]),
                 np.array([-0.0, 4e-7, 0.0, -4e-7, 1e-300, -0.0]),
                 np.array([0.0, -3e-8, 1.5, -0.0])]
        for k in range(1, 13):
            for scale in (1e-7, 1e-3, 1.0, 1e3, 1e7):
                rows.append(rng.standard_normal(k) * scale)
                rows.append(rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k))
                rows.append(np.round(rng.uniform(-3, 3, k), int(rng.integers(0, 8)))
                            * (rng.random(k) < 0.6))
        rows.append(np.array([np.nan, 1e9, -np.inf]))  # handed to numpy
        assert any("\n" in bifurcbox.cli._row_text(a) for a in rows)
        for a in rows:
            assert bifurcbox.cli._row_text(a) == np.array2string(
                a, precision=6, suppress_small=True), a

    def test_report_payload(self, square, sq_g5, f_sq5):
        pred = bifurcbox.predict_branches(sq_g5, bifurcbox.find_critical_points(f_sq5))
        payload = bifurcbox.cli._prediction_dict(pred, square)
        assert payload["lambda_j"] == 5.0
        assert payload["j"] == 2 and payload["k"] == 2 and payload["p"] == 3.0
        assert payload["pair_count_h"] == 4 and payload["exact"] is True
        row = payload["pairs"][0]
        assert set(row) >= {"a", "J", "hess_eigs", "m", "solution_morse_index"}
        prof = row["profile"]
        assert prof["amplitude_exponent"] == pytest.approx(0.5)
        assert prof["modes"] == [[1, 2], [2, 1]]

    @pytest.fixture(scope="class")
    def sq1_run(self, square, sq_g1, f_sq1):
        dp = bifurcbox.build_laplacian(square, 32, sq_g1)
        pred = bifurcbox.predict_branches(sq_g1, bifurcbox.find_critical_points(f_sq1))
        return dp, bifurcbox.continuation_run(dp, pred, [0.1, 0.05])

    def test_verdict_payload(self, sq1_run):
        _, verdicts = sq1_run
        d = bifurcbox.cli._verdict_dict(verdicts[0])
        assert d["passed"] is True
        assert d["transported_from"] is None
        assert len(d["records"]) == 2
        rec = d["records"][0]
        assert set(rec) >= {"lambda", "epsilon", "a_lambda", "phi_norm",
                            "newton_residual", "discrete_morse_index"}

    def test_branch_files(self, sq1_run):
        dp, verdicts = sq1_run
        files = bifurcbox.cli._branch_files([bifurcbox.cli._verdict_dict(verdicts[0])])
        header, *rows = files["branch_00.dat"].splitlines()
        rows = [[float(x) for x in row.split()] for row in rows]
        assert len(rows) == 2
        # columns: lambda, |u|_L2, a_1..a_k, phi_norm, morse
        assert header.split()[1:] == ["lambda", "u_l2", "a_1", "phi_norm", "morse_index"]
        assert len(rows[0]) == 4 + dp.group.k
        assert rows[0][0] == pytest.approx(dp.lambda_h - 0.1)
        assert rows[1][0] > rows[0][0]

    def test_spectrum_rows_wire_format(self, square):
        rows = bifurcbox.cli._spectrum_rows(bifurcbox.enumerate_groups(square, 2))
        assert rows == [
            {"indices": [1, 1], "eigenvalue_num": 2, "eigenvalue_den": 1, "j": 1, "k": 1},
            {"indices": [1, 2], "eigenvalue_num": 5, "eigenvalue_den": 1, "j": 2, "k": 2},
            {"indices": [2, 1], "eigenvalue_num": 5, "eigenvalue_den": 1, "j": 2, "k": 2},
        ]

    @pytest.mark.parametrize("renderer, argv", [
        ("_prediction_csv", ["predict", "--domain", "square", "--lam", "5"]),
        ("_branch_files", ["verify", "--domain", "square", "--j", "1", "--grid", "24",
                           "--eps-steps", "1"]),
    ])
    def test_a_failing_renderer_writes_nothing(self, renderer, argv, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("renderer failed")

        monkeypatch.setattr(bifurcbox.cli, renderer, fail)
        with pytest.raises(RuntimeError, match="renderer failed"):
            main([*argv, "--out", str(tmp_path / "o")])
        assert list(tmp_path.iterdir()) == []


def _fresh(code: str, *args: str) -> str:
    """The last line a fresh interpreter prints running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(bifurcbox.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1]


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after importing
    the CLI; each module left out is import time every CLI call saves."""
    return _fresh(f"import sys, bifurcbox.cli; print({module!r} in sys.modules)") == "True"


def test_cli_import_skips_scipy_ndimage():
    assert not _loaded_by_cli_import("scipy.ndimage")


def test_cli_import_skips_scipy_fft():
    assert not _loaded_by_cli_import("scipy.fft")


def test_cli_import_skips_the_verifier():
    assert not _loaded_by_cli_import("bifurcbox.pdeverify")


def test_predict_runs_without_the_verifier(tmp_path):
    code = (
        "import sys, bifurcbox.cli\n"
        "rc = bifurcbox.cli.main(['predict', '--domain', 'square', '--lam', '5',"
        " '--out', sys.argv[1]])\n"
        "print(rc, 'bifurcbox.pdeverify' in sys.modules)\n"
    )
    assert _fresh(code, str(tmp_path)) == "0 False"


def test_package_import_loads_no_submodule_and_resolves_every_name():
    code = (
        "import sys, bifurcbox\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('bifurcbox.'))\n"
        "names = bifurcbox.__all__\n"
        "resolved = [n for n in names if getattr(bifurcbox, n, None) is not None]\n"
        "print(loaded, resolved == names, set(names) <= set(dir(bifurcbox)),"
        " hasattr(bifurcbox, 'no_such_name'))\n"
    )
    assert _fresh(code) == "[] True True False"


def test_verifier_names_bind_on_lookup_and_keep_a_patched_value(monkeypatch):
    from bifurcbox import pdeverify

    assert not hasattr(bifurcbox.cli, "no_such_name")
    for name in bifurcbox.cli._VERIFIER:
        assert getattr(bifurcbox.cli, name) is getattr(pdeverify, name)
    monkeypatch.setattr(bifurcbox.cli, "continuation_run", len)
    bifurcbox.cli._bind_verifier()
    assert bifurcbox.cli.continuation_run is len


def test_verify_runs_without_scipy(tmp_path):
    """A fresh interpreter imports the package and the CLI and runs a
    verify with the Morse check without loading any part of scipy: each
    part left out is import time every CLI call saves."""
    code = (
        "import sys, bifurcbox, bifurcbox.cli\n"
        "rc = bifurcbox.cli.main(['verify', '--domain', 'square', '--lam', '5', '--grid', '32',"
        " '--eps-steps', '2', '--out', sys.argv[1]])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh(code, str(tmp_path)) == "0 []"
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())["verdicts"]
    assert all(v["morse_ok"] for v in verdicts)
