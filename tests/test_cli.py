import json
import subprocess
import sys
import time

import pytest

from qmemcheck.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    SEED_ENV_VAR,
    main,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "trials": 50, "seed": 4}))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_json_output(self, config_path, capsys):
        code, out, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == "qmemcheck.results.v1"
        assert doc["config"]["n"] == 3
        assert doc["aggregates"]["rates"]["correctness"] == 1.0

    def test_deterministic_stdout(self, config_path, capsys):
        _, first, _ = run_cli(["simulate", "--config", config_path], capsys)
        _, second, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert first == second

    def test_csv_format(self, config_path, capsys):
        code, out, _ = run_cli(["simulate", "--config", config_path, "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "metric,step,numerator,denominator,value"

    def test_overrides_reflected(self, config_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", config_path, "--trials", "7", "--seed", "123"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["trials"] == 7
        assert doc["config"]["seed"] == 123

    def test_out_dir_writes_files(self, config_path, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, _, _ = run_cli(["simulate", "--config", config_path, "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        for name in ("results.json", "results.csv", "run_meta.json"):
            assert (out_dir / name).exists()

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(["simulate", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == EXIT_IO
        assert err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert err

    def test_invalid_config_reports_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 0}))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert "n" in err

    def test_incremental_overflow_rejected_without_traceback(self, tmp_path):
        # four rounded-up quarter steps at m=2 need 4 flips of 2 positions
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(
            {"n": 1, "k": 1, "trials": 50, "attack": {"kind": "incremental", "deltas": [0.25] * 4}}
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "qmemcheck.cli", "simulate", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert "attack.deltas" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_target_equal_to_message_rejected(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps(
            {"n": 4, "k": 7, "message": "1010", "attack": {"kind": "substitute", "target": "1010"}}
        ))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert "attack.target" in err

    def test_substitution_without_steps_passes(self, capsys, tmp_path):
        # steps 0 runs no substitution, so no detection bound applies
        path = tmp_path / "no_steps.json"
        path.write_text(json.dumps({"n": 4, "attack": {"kind": "substitute"}, "steps": 0, "trials": 200}))
        code, out, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["aggregates"]["rates"]["buggy"] == 0.0
        assert "substitution_detection" not in [b["name"] for b in doc["aggregates"]["bounds"]]

    def test_scripted_store_equal_to_target_rejected(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps({
            "n": 4, "attack": {"kind": "substitute", "target": "1010"},
            "script": [{"op": "store", "message": "1010"}, {"op": "attack"}, {"op": "retrieve"}],
        }))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert "script[0].message" in err

    def test_unknown_flag(self, config_path, capsys):
        code, _, err = run_cli(["simulate", "--config", config_path, "--fast"], capsys)
        assert code == EXIT_VALIDATION
        assert err


class TestSeedPrecedence:
    def test_env_seed_used(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "555")
        _, out, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert json.loads(out)["config"]["seed"] == 555

    def test_flag_beats_env(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "555")
        _, out, _ = run_cli(["simulate", "--config", config_path, "--seed", "9"], capsys)
        assert json.loads(out)["config"]["seed"] == 9

    def test_config_seed_when_no_override(self, config_path, capsys):
        _, out, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert json.loads(out)["config"]["seed"] == 4

    def test_invalid_env_seed(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        code, _, err = run_cli(["simulate", "--config", config_path], capsys)
        assert code == EXIT_VALIDATION
        assert SEED_ENV_VAR in err


class TestBounds:
    def test_reference_parameters(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--epsilon", "0.01", "--delta", "0.5", "--deltas", "0.25,0.25"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["required_k"] == 7
        assert doc["p_single"] == 0.5
        assert doc["p_multi"] == 0.390625
        assert doc["all_accept_bound"] == 0.0078125
        assert doc["detection_lower_bound"] == 0.9921875

    def test_explicit_k(self, capsys):
        code, out, _ = run_cli(["bounds", "--delta", "0.5", "--k", "2"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["all_accept_bound"] == 0.25

    def test_bad_delta(self, capsys):
        code, _, err = run_cli(["bounds", "--delta", "1.5"], capsys)
        assert code == EXIT_VALIDATION
        assert err


class TestVerifyLemma2:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(["verify-lemma2", "--grid", "6", "--t-max", "3"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["details"]["violations"] == 0
        assert doc["details"]["t2_variant_consistent"] is False

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(["verify-lemma2", "--grid", "0"], capsys)
        assert code == EXIT_VALIDATION
        assert err

    def test_oversized_grid_fails_fast(self, capsys):
        start = time.monotonic()
        code, out, err = run_cli(["verify-lemma2", "--grid", "200", "--t-max", "8"], capsys)
        assert code == EXIT_VALIDATION
        assert "cap" in err and out == ""
        assert time.monotonic() - start < 5.0


class TestOracleCheck:
    def test_small_sizes(self, capsys):
        code, out, _ = run_cli(["oracle-check", "--sizes", "2,4", "--pairs", "20"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["samples"] == 40

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(["oracle-check", "--sizes", "2,x"], capsys)
        assert code == EXIT_VALIDATION
        assert err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tolerance", "nan"],  # crashed in canonical_json
            ["--tolerance", "inf"],  # crashed in canonical_json
            ["--tolerance", "-1"],  # no deviation can pass: a false self-check failure
            ["--sizes", ""],  # checks 0 pairs and passes vacuously
        ],
        ids=["nan", "inf", "negative", "empty-sizes"],
    )
    def test_vacuous_or_false_check_rejected(self, argv, capsys):
        code, out, err = run_cli(["oracle-check", "--pairs", "2", *argv], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_installed_entry_point(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n": 3, "trials": 10, "seed": 1}))
    proc = subprocess.run(
        ["qmemcheck", "simulate", "--config", str(config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["aggregates"]["trials"] == 10


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "qmemcheck.cli", "bounds", "--delta", "0.5", "--k", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_accept_bound"] == 0.0078125
