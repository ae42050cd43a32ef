import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bifurcbox
import bifurcbox.cli
from bifurcbox.cli import main


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

    def test_byte_identical_reports(self, tmp_path):
        _, out1 = run(tmp_path, "predict", "--domain", "square", "--j", "2", name="a")
        _, out2 = run(tmp_path, "predict", "--domain", "square", "--j", "2", name="b")
        assert (out1 / "prediction.json").read_bytes() == (out2 / "prediction.json").read_bytes()

    def test_search_diagnostics_embedded(self, tmp_path):
        _, out = run(tmp_path, "predict", "--domain", "square", "--j", "2")
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["search"]["completeness"] == "oracle-checkable"
        assert payload["search"]["saturated"] is True
        _, out = run(tmp_path, "verify", "--domain", "square", "--j", "2",
                     "--grid", "32", "--eps-steps", "1", "--no-morse", name="v")
        verify = json.loads((out / "verdicts.json").read_text())
        assert verify["search"] == payload["search"]

    def test_unsaturated_search_exits_two(self, tmp_path, capsys):
        code, out = run(tmp_path, "predict", "--domain", "cube", "--lam", "14")
        assert code == 2
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["search"]["completeness"] == "unsaturated"
        assert payload["exact"] is True  # the fields keep their meaning
        stdout = capsys.readouterr().out
        assert "not certified: the search is unsaturated" in stdout
        assert "(exact)" not in stdout

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

    def test_byte_identical_verify_reports(self, tmp_path):
        args = ["verify", "--domain", "square", "--j", "1", "--grid", "32",
                "--eps-steps", "2"]
        _, out1 = run(tmp_path, *args, name="v1")
        _, out2 = run(tmp_path, *args, name="v2")
        assert (out1 / "verdicts.json").read_bytes() == (out2 / "verdicts.json").read_bytes()
        assert (out1 / "branch_00.dat").read_bytes() == (out2 / "branch_00.dat").read_bytes()


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
    ])
    def test_bad_input_is_config_error_before_the_search(self, argv, tmp_path,
                                                         monkeypatch, capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran before the input was checked")

        monkeypatch.setattr(bifurcbox.cli, "find_critical_points_with_diagnostics", no_search)
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config error" in err[0]

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


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after importing
    the CLI; each module left out is import time every CLI call saves."""
    env = dict(os.environ, PYTHONPATH=str(Path(bifurcbox.__file__).parents[1]))
    code = f"import sys, bifurcbox.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_cli_import_skips_scipy_ndimage():
    assert not _loaded_by_cli_import("scipy.ndimage")


def test_cli_import_skips_scipy_fft():
    assert not _loaded_by_cli_import("scipy.fft")
