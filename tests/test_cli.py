"""Command-line interface: subcommands, exit codes, reproducibility."""

import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ddgraphs
from ddgraphs import sampler
from ddgraphs.cli import main
from ddgraphs.presets import NAMED_SEQUENCES, PRESETS, Check, PresetOutcome


def test_package_root_binds_only_modules_and_the_version():
    # every other name is imported from its module
    public = {name for name in vars(ddgraphs) if not name.startswith("_")}
    assert all(isinstance(getattr(ddgraphs, name), types.ModuleType) for name in public)
    assert ddgraphs.__version__ == "0.1.0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


CONST_HALF = '{"kind":"constant","params":{"p":0.5}}'

# sha256 of each file ``preset --all --fast --seed 0`` writes
FAST_SWEEP_SHA256 = {
    "ak_random.csv": "509b47b30b2aa47a2ad59425a68ceaeac2d5932a1d98419adfeb8bf227e2477f",
    "ak_random_summary.json": "081e947177f1fe1ca42e33ede7e6c84bfd9a01d6a9eec551c74a54384a54bf29",
    "example2_osc.csv": "34c7daee253efb49df50c06f9d42e2cac97b007a5577c807ed4b0b60fe1c3553",
    "example2_osc_summary.json": "7b24ecf77ecfa65f9bca6e0ef8c75486981c54d33529aa0f47ec956fe360121b",
    "fact4_search.csv": "5e41e5081e2a6f89c0fc12311e26420a3c46c6324051bf928b931bebcca5e8c6",
    "fact4_search_summary.json": "47bf95a578a7e7269f93e11d1fe5ad6b5a38247212e5e0639e93998ecd26cca0",
    "lemma_copies.csv": "8ec0944ac7c7f0886c63fc4d55f0c0ece5027c0fb95870cd76a8b5930c32bb3d",
    "lemma_copies_summary.json": "d5130aa897ac6bf0c89335e2bc28df69785a0380aa4af47de2222779f6e06eb0",
    "ones_c4.csv": "7cef560bb177e95775168915712d336dccd92c437b793d229e6faff323c4b117",
    "ones_c4_summary.json": "d9865c40c7790fd4f34f32664d4d6dca88e9be75c2d213e3c28131f5d89d5588",
    "thm1_osc.csv": "42dd992bdb28d2bffa521dd04ec066b399bb015f1dac8c562753148d7bded8de",
    "thm1_osc_stats.csv": "f1959d00584c9d26ad59473ce0286824419b41b5bf4970e5e09a4dfb40cb3694",
    "thm1_osc_summary.json": "f7bada54f87daa55435bb6d4ae2d8e9aaf9d6c33584a3ebf397a54793846a921",
    "thm2_osc.csv": "1a01f216e038d620b991d1c398f9ab6e8df319cf40d576cf9b58cf181505aa4a",
    "thm2_osc_summary.json": "eb2765ef7bd02dd7953568146a1cdb8e8e44839c0727e1717d81304ac55c2547",
    "thm3_cutpoint.csv": "248887f7ba335671d828ca855af1f05dc8dcdbcd9d6cfbcafaf14e7b479620c1",
    "thm3_cutpoint_summary.json": "ac9785ac76851792e9bd0df099cb2d648ad296567165412e6240498bfb785478",
    "thm5_chain.csv": "38d72fbb90beba8fbf6e526ff2e4ffc5d7afb638f8b27b1bf9a57e8069883d69",
    "thm5_chain_summary.json": "2ae38f6de6be8ded1fc255b4fe5024da5c9f0c5f20426622be1e193dfb715bed",
    "thm6_triangle.csv": "7109f19ffb074726a8279cd39d215fb22a9b97275cd9d1627ff091565a1c3655",
    "thm6_triangle_summary.json": "9d6a18a84c284a29c6981f75efc3b9de13df5b2df359df48612e18e91d4255ea",
}


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

    def test_fast_sweep_bytes_are_pinned(self, tmp_path, capsys):
        # a refactor must leave every file the fast sweep writes byte for byte
        code, _, _ = run(capsys, "--out", str(tmp_path), "--seed", "0", "preset", "--all", "--fast")
        assert code == 0
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert written == FAST_SWEEP_SHA256

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

    def test_eval_past_the_index_budget_is_operational_error(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", CONST_HALF, "--i", str(2**63))
        assert code == 1
        assert err == "error: index at i=9223372036854775808 exceeds the 64-bit index budget\n"

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
    def test_estimate_row(self, tmp_path, capsys):
        argv = ["estimate", "--seq", CONST_HALF, "--n", "4", "--target", "triangle", "--trials", "500"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].startswith("n,estimate")
        assert rows[1].startswith("4,")
        assert run(capsys, "--out", str(tmp_path), *argv) == (0, "", "")
        assert [f.name for f in tmp_path.iterdir()] == ["estimate.csv"]
        assert (tmp_path / "estimate.csv").read_text() == out

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

    @pytest.mark.parametrize("seq", ["thm1_scaled", "file"])
    def test_scan_warns_as_often_under_jobs(self, tmp_path, capfd, seq):
        # a fresh interpreter, so warnings print with Python's default filters
        if seq == "file":
            (tmp_path / "seq.json").write_text(NAMED_SEQUENCES["thm1_scaled"]().to_json())
            seq = f"@{tmp_path / 'seq.json'}"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        err = []
        for jobs in ("1", "2"):
            subprocess.run([sys.executable, "-m", "ddgraphs.cli", "--jobs", jobs, "scan", "--seq",
                            seq, "--n-list", "10,12,14", "--target", "path2", "--trials", "50"],
                           env=env, check=True)
            err.append(capfd.readouterr().err)
        assert err[0] == err[1]
        assert err[0].count("ScaleWarning") == (seq != "thm1_scaled")

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
        assert code == 0 and out == "EQUAL\n"

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
            "# triangle probability at two sizes\n"
            f"sequence = {CONST_HALF}\n"
            "target = triangle\n"
            "model_kind = line\n"
            "n_list = 4, 5\n"
            "trials = 10000\n"
            "master_seed = 3\n"
        )
        code, out, _ = run(capsys, "run", str(cfg))
        assert code == 0
        est = float(out.strip().split("\n")[1].split(",")[1])
        assert abs(est - 23 / 64) < 0.02
        # the config honours --jobs, and its rows do not depend on it
        for jobs in ("1", "2"):
            assert run(capsys, "--jobs", jobs, "--out", str(tmp_path / jobs), "run", str(cfg))[0] == 0
            assert (tmp_path / jobs / "run.csv").read_text() == out

    @pytest.mark.parametrize("model", ["line", "circle"])
    def test_exact_oracle_row_when_trials_zero(self, tmp_path, capsys, model):
        # a trials = 0 config, scan and estimate with --trials 0, and the
        # path2 oracle write the same exact rows
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"sequence = {CONST_HALF}\ntarget = path2\nmodel_kind = {model}\nn_list = 5\ntrials = 0\n"
        )
        code, out, _ = run(capsys, "run", str(cfg))
        assert code == 0 and "5,0.578125," in out
        common = ["--seq", CONST_HALF, "--model", model]
        assert run(capsys, "oracle", "--kind", "path2", "--n", "5", *common) == (0, out, "")
        exact = ["--target", "path2", "--trials", "0", *common]
        assert run(capsys, "estimate", "--n", "5", *exact) == (0, out, "")
        assert run(capsys, "scan", "--n-list", "5", *exact) == (0, out, "")
        code, rows, _ = run(capsys, "scan", "--n-list", "2,5", *exact)
        assert code == 0 and rows.splitlines()[2] == out.splitlines()[1]
        assert rows.splitlines()[1] == f"2,0,0,0,0,0,path2_exact,{model.upper()}"

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lineage_budget_is_an_operational_error(self, tmp_path, capsys, jobs):
        # under --jobs 2 the error is raised in a worker and rebuilt in the caller
        cfg = tmp_path / "exp.cfg"
        seq = '{"kind":"constant","params":{"p":0.1}}'
        cfg.write_text(f"sequence = {seq}\ntarget = triangle\nn_list = 8\ntrials = 0\n")
        code, out, err = run(capsys, "--jobs", jobs, "run", str(cfg))
        assert code == 1 and out == "" and err.startswith("error: ") and "lineage budget" in err

    def test_checker_budget_is_an_operational_error(self, monkeypatch, capsys):
        # edge_in_c4 has no lineage, so each row is decided by the model checker; its
        # witnesses are counted, so the largest slice is one x's 6 vertices y
        monkeypatch.setattr(sampler, "CELL_BUDGET", 5)
        code, out, err = run(capsys, "estimate", "--seq", CONST_HALF, "--n", "6", "--target",
                             "edge_in_c4", "--trials", "10")
        assert (code, out, err) == (1, "", "error: estimated 6 cells in one slice exceeds budget 5\n")

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
        for target in ("triangle", "has_triangle"):
            assert run(capsys, "--seed", "4", "scan", "--seq", thm6, "--n-list", "18", "--target",
                       target, "--model", "circle", "--trials", "0") == (0, from_run, "")
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
        code, from_run, _ = run(capsys, "run", str(cfg))
        assert code == 0
        code, from_preset, _ = run(
            capsys, "--out", str(tmp_path / "preset"), "--seed", "5", "preset", "thm6_triangle"
        )
        assert code == 0 and from_run == from_preset
        csv = "thm6_triangle.csv"
        assert (tmp_path / "run" / csv).read_bytes() == (tmp_path / "preset" / csv).read_bytes()

    @pytest.mark.parametrize("text,message", [
        ("this is not a config\n", "expected key = value"),
        (f"sequence = {CONST_HALF}\ntarget = path2\nn_list = 5\ntrails = 100\n",
         ":4: unknown config key 'trails'"),
    ], ids=["no-equals", "unknown-key"])
    def test_malformed_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "run", str(cfg))
        assert code == 1 and out == "" and message in err

    def test_config_requires_exactly_one_mode(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"preset = lemma_copies\nsequence = {CONST_HALF}\n")
        code, _, err = run(capsys, "run", str(cfg))
        assert code == 1 and "exactly one" in err

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run(capsys, "estimate", "--seq", CONST_HALF)
        assert code == 1


class TestScripts:
    def test_convergence_traces(self, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_traces.py"
        monkeypatch.setattr(sys, "argv", [str(path), "--max-n", "16"])
        runpy.run_path(str(path))["main"]()
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "sequence,n,c2,c3_sum,c5"
        assert len(NAMED_SEQUENCES) == 7 and len(rows) == 28
        assert [row.split(",")[:2] for row in rows] == [
            [name, str(n)] for name in sorted(NAMED_SEQUENCES) for n in (2, 4, 8, 16)]
