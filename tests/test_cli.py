"""Command-line interface: subcommands, exit codes, reproducibility."""

import json
import re

import pytest

from ddgraphs.cli import main
from ddgraphs.presets import PRESETS, Check, PresetOutcome


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


CONST_HALF = '{"kind":"constant","params":{"p":0.5}}'


class TestPresetCommand:
    def test_list_names_all_presets(self, capsys):
        code, out, _ = run(capsys, "preset", "--list")
        assert code == 0
        for name in PRESETS:
            assert name in out

    def test_unknown_preset_is_operational_error(self, capsys):
        code, _, err = run(capsys, "preset", "definitely_not_a_preset")
        assert code == 1
        assert "unknown preset" in err

    def test_passing_preset_writes_artifacts(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "--out", str(tmp_path), "--seed", "5", "preset", "thm6_triangle",
            "--trials", "400",
        )
        assert code == 0
        assert (tmp_path / "thm6_triangle.csv").exists()
        summary = json.loads((tmp_path / "thm6_triangle_summary.json").read_text())
        assert summary["status"] == "PASS"
        assert "[PASS]" in out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "--out", str(a), "--seed", "3", "preset", "lemma_copies", "--trials", "50")
        run(capsys, "--out", str(b), "--seed", "3", "preset", "lemma_copies", "--trials", "50")
        assert (a / "lemma_copies.csv").read_bytes() == (b / "lemma_copies.csv").read_bytes()
        assert (
            (a / "lemma_copies_summary.json").read_bytes()
            == (b / "lemma_copies_summary.json").read_bytes()
        )

    def test_threshold_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # a preset whose one check fails by construction
        def always_fails(seed, trials):
            return PresetOutcome("always_fails", {"always_fails": "n\n"}, [Check("never", False)])

        monkeypatch.setitem(PRESETS, "always_fails", (always_fails, "fails its only check"))
        code, out, _ = run(capsys, "--out", str(tmp_path), "preset", "always_fails")
        assert code == 2
        assert "[FAIL]" in out
        summary = json.loads((tmp_path / "always_fails_summary.json").read_text())
        assert summary["status"] == "FAIL"


    def test_all_fast_runs_every_preset(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--out", str(tmp_path), "preset", "--all", "--fast")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == sorted(PRESETS)
        assert all(re.fullmatch(r"\S+ +PASS  \( *\d+\.\ds\)", line) for line in lines), lines
        tables = {f"{name}.csv" for name in PRESETS} | {"thm1_osc_stats.csv"}
        summaries = {f"{name}_summary.json" for name in PRESETS}
        assert {f.name for f in tmp_path.iterdir()} == tables | summaries

    def test_all_exits_with_worst_status(self, tmp_path, capsys, monkeypatch):
        def always_fails(seed, trials):
            return PresetOutcome("always_fails", {"always_fails": "n\n"}, [Check("never", False)])

        monkeypatch.setitem(PRESETS, "always_fails", (always_fails, "fails its only check"))
        code, out, _ = run(capsys, "--out", str(tmp_path), "preset", "--all", "--fast")
        assert code == 2
        assert re.search(r"^always_fails +FAIL ", out, re.M)
        assert out.count(" PASS ") == len(PRESETS) - 1


class TestSampleAndEval:
    def test_sample_deterministic_text(self, capsys):
        code, out1, _ = run(capsys, "--seed", "9", "sample", "--seq", CONST_HALF, "--n", "12")
        code2, out2, _ = run(capsys, "--seed", "9", "sample", "--seq", CONST_HALF, "--n", "12")
        assert code == code2 == 0 and out1 == out2
        assert out1.startswith("# master_seed 9 stream 0\nn 12\n")

    def test_named_sequence(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "thm6_half", "--n", "60")
        assert code == 0
        assert out.splitlines()[0] == "i,p"
        assert "6,0.5" in out and "54,0.5" in out

    def test_eval_specific_indices(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", CONST_HALF, "--i", "3,9")
        assert "3,0.5" in out and "9,0.5" in out

    def test_eval_statistic(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", CONST_HALF, "--n", "4", "--stat", "C2")
        assert code == 0 and "-2.0" in out

    def test_bad_sequence_is_operational_error(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", "nonsense")
        assert code == 1 and "unknown sequence" in err

    @pytest.mark.parametrize("params", ['{}', '{"p": 0.5, "q": 1}', '[0.5]'])
    def test_bad_sequence_params_are_operational_errors(self, capsys, params):
        seq = f'{{"kind": "constant", "params": {params}}}'
        code, _, err = run(capsys, "sample", "--seq", seq, "--n", "3")
        assert code == 1 and err.startswith("error: ") and "constant" in err


class TestEstimateScanOracle:
    def test_estimate_row(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--seq", CONST_HALF, "--n", "4", "--target", "triangle",
            "--trials", "500",
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].startswith("n,estimate")
        assert rows[1].startswith("4,")

    def test_scan_grid(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--seq", "thm6_half", "--n-list", "17,18", "--target",
            "has_triangle", "--model", "circle", "--trials", "300",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("17,0,")  # triangle-free below alignment

    def test_scan_invariant_under_jobs(self, capsys):
        argv = ["scan", "--seq", "thm6_half", "--n-list", "17,18", "--target",
                "has_triangle", "--model", "circle", "--trials", "200"]
        _, serial, _ = run(capsys, "--jobs", "1", *argv)
        _, parallel, _ = run(capsys, "--jobs", "2", *argv)
        assert serial == parallel

    def test_scan_json_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "scan", "--seq", CONST_HALF, "--n-list", "3",
            "--target", "triangle", "--trials", "50",
        )
        rows = json.loads(out)
        assert rows[0]["n"] == 3

    def test_oracle_path2(self, capsys):
        code, out, _ = run(capsys, "oracle", "--kind", "path2", "--seq", CONST_HALF, "--n", "5")
        assert code == 0 and "5,0.578125," in out

    @pytest.mark.parametrize("model", ["line", "circle"])
    def test_oracle_path2_on_two_vertices(self, capsys, model):
        code, out, err = run(capsys, "oracle", "--kind", "path2", "--seq", CONST_HALF, "--n", "2",
                             "--model", model)
        assert code == 0 and err == ""
        assert out.splitlines()[1] == f"2,0,0,0,0,0,path2_exact,{model.upper()}"

    def test_oracle_brute(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--kind", "brute", "--seq", CONST_HALF, "--n", "4",
            "--target", "triangle",
        )
        assert code == 0 and "4,0.359375," in out

    def test_oracle_brute_needs_a_vertex(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--kind", "brute", "--seq", CONST_HALF, "--n", "0",
            "--target", "edge_in_c4",
        )
        assert code == 1 and out == "" and "n must be >= 1" in err

    def test_psi_target(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--seq", CONST_HALF, "--n", "8", "--target", "psi_r:2",
            "--trials", "100",
        )
        assert code == 0 and "psi_r_2" in out

    def test_copies_target_from_sequence_file(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(CONST_HALF)
        code, out, _ = run(
            capsys, "estimate", "--seq", f"@{seq_file}", "--n", "6", "--target", "copies:2:1",
            "--trials", "50",
        )
        assert code == 0 and "copies_K2_ge1" in out

    def test_extension_target(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--seq", CONST_HALF, "--n", "6", "--target", "extension_Ak:1",
            "--trials", "50",
        )
        assert code == 0 and "extension_Ak_1" in out

    def test_scan_empty_n_list_is_operational_error(self, capsys):
        code, out, err = run(
            capsys, "scan", "--seq", CONST_HALF, "--n-list", "", "--target", "triangle",
        )
        assert code == 1 and out == "" and err.startswith("error: ")


class TestEfgameCommand:
    def test_equal_and_stats(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("n 3\n")
        (tmp_path / "b.txt").write_text("n 5\n")
        code, out, _ = run(
            capsys, "efgame", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--k", "2"
        )
        assert code == 0
        assert out.startswith("EQUAL\n")
        assert "positions" in out

    def test_not_equal(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("n 2\ne 1 2\n")
        (tmp_path / "b.txt").write_text("n 2\n")
        code, out, _ = run(
            capsys, "efgame", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--k", "2"
        )
        assert code == 0 and out.startswith("NOT_EQUAL\n")

    def test_budget_exceeded_is_operational_error(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("n 40\n")
        code, _, err = run(
            capsys, "efgame", str(tmp_path / "a.txt"), str(tmp_path / "a.txt"), "--k", "6"
        )
        assert code == 1 and "budget" in err


class TestConfigRunner:
    def test_minimal_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# triangle probability at one size\n"
            f"sequence = {CONST_HALF}\n"
            "target = triangle\n"
            "model_kind = line\n"
            "n_list = 4\n"
            "trials = 10000\n"
            "master_seed = 3\n"
        )
        code, out, _ = run(capsys, "run", str(cfg))
        assert code == 0
        est = float(out.strip().split("\n")[1].split(",")[1])
        assert abs(est - 23 / 64) < 0.02

    def test_exact_oracle_row_when_trials_zero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"sequence = {CONST_HALF}\ntarget = path2\nn_list = 5\ntrials = 0\n"
        )
        code, out, _ = run(capsys, "run", str(cfg))
        assert code == 0 and "5,0.578125," in out

    def test_path2_on_the_circle_answers_through_lineage(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"sequence = {CONST_HALF}\ntarget = path2\nmodel_kind = circle\nn_list = 5\ntrials = 0\n"
        )
        code, from_run, _ = run(capsys, "run", str(cfg))
        assert code == 0
        code, from_oracle, _ = run(
            capsys, "oracle", "--kind", "path2", "--seq", CONST_HALF, "--n", "5", "--model", "circle"
        )
        assert code == 0 and from_run == from_oracle
        assert from_run.splitlines()[1] == "5,0.578125,0.578125,0.578125,0,0,path2_exact,CIRCLE"
        code, brute, _ = run(capsys, "oracle", "--kind", "brute", "--target", "path2",
                             "--seq", CONST_HALF, "--n", "5", "--model", "circle")
        assert code == 0 and brute.splitlines()[1].startswith("5,0.578125,")

    def test_no_exact_oracle_without_lineage(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"sequence = {CONST_HALF}\ntarget = edge_in_c4\nn_list = 5\ntrials = 0\n")
        code, out, err = run(capsys, "run", str(cfg))
        assert code == 1 and out == "" and "no exact oracle" in err

    def test_lineage_budget_is_an_operational_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        seq = '{"kind":"constant","params":{"p":0.1}}'
        cfg.write_text(f"sequence = {seq}\ntarget = triangle\nn_list = 8\ntrials = 0\n")
        code, out, err = run(capsys, "run", str(cfg))
        assert code == 1 and out == "" and err.startswith("error: ") and "lineage budget" in err

    def test_circle_triangle_row_equals_oracle(self, tmp_path, capsys):
        thm6 = '{"kind":"thm6","params":{"a":[0.5,0.5,0.5]}}'
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"sequence = {thm6}\ntarget = triangle\nmodel_kind = circle\nn_list = 18\n"
            "trials = 0\nmaster_seed = 4\n"
        )
        code, from_run, _ = run(capsys, "run", str(cfg))
        assert code == 0
        code, from_oracle, _ = run(
            capsys, "--seed", "4", "oracle", "--kind", "triangle_circle", "--seq", thm6, "--n", "18"
        )
        assert code == 0
        assert from_run == from_oracle
        assert from_run.splitlines()[1].startswith("18,0.551204681396,") and "triangle_exact,CIRCLE" in from_run

    def test_preset_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"preset = lemma_copies\ntrials = 40\nout = {tmp_path}\n")
        code, _, _ = run(capsys, "run", str(cfg))
        assert code == 0
        assert (tmp_path / "lemma_copies.csv").exists()

    def test_preset_config_without_trials_matches_preset_command(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"preset = thm6_triangle\nmaster_seed = 5\nout = {tmp_path / 'run'}\n")
        assert run(capsys, "run", str(cfg))[0] == 0
        code, _, _ = run(
            capsys, "--out", str(tmp_path / "preset"), "--seed", "5", "preset", "thm6_triangle"
        )
        assert code == 0
        csv = "thm6_triangle.csv"
        assert (tmp_path / "run" / csv).read_bytes() == (tmp_path / "preset" / csv).read_bytes()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("this is not a config\n")
        code, _, err = run(capsys, "run", str(cfg))
        assert code == 1 and "expected key = value" in err

    def test_config_requires_exactly_one_mode(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"preset = lemma_copies\nsequence = {CONST_HALF}\n")
        code, _, err = run(capsys, "run", str(cfg))
        assert code == 1 and "exactly one" in err

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run(capsys, "estimate", "--seq", CONST_HALF)
        assert code == 1
