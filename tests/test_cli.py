import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qmemcheck import cli, harness
from qmemcheck.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


LEMMA2_DEFAULT = (
    '{"analytic": {"max_margin": 0.0},"details": {"grid": 20,"t2_identity_consistent": true,'
    '"t2_identity_max_dev": 3.191891195797325e-16,"t2_variant_consistent": false,'
    '"t2_variant_max_dev": 0.5,"t_max": 4,"violations": 0},"empirical": 0.0,'
    '"name": "single_step_dominance","passed": true,"samples": 12649,"std_error": null,"tolerance": 1e-12}'
)
LEMMA2_GRID36 = LEMMA2_DEFAULT.replace('"grid": 20', '"grid": 36').replace("12649", "101269")
ORACLE_DEFAULT = (
    '{"analytic": {"max_allowed_dev": 1e-10},"details": {"pairs_per_size": 200,"seed": SEED,'
    '"sizes": [2,4,8,16,32]},"empirical": 7.771561172376096e-16,"name": "swap_oracle_equivalence",'
    '"passed": true,"samples": 1000,"std_error": null,"tolerance": 1e-10}'
)


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
        assert doc["schema"] == "qmemcheck.results.v4"
        assert doc["config"]["n"] == 3
        assert doc["aggregates"]["rates"]["correctness"] == 1.0

    def test_deterministic_stdout(self, config_path, capsys):
        _, first, _ = run_cli(["simulate", "--config", config_path], capsys)
        _, second, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert first == second

    def test_csv_format(self, config_path, capsys):
        code, out, _ = run_cli(["simulate", "--config", config_path, "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "metric,value"

    def test_overrides_reflected(self, config_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", config_path, "--trials", "7", "--seed", "123"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["trials"] == 7
        assert doc["config"]["seed"] == 123
        assert doc["config"]["n"] == 3  # the file's other values are kept
        assert doc["aggregates"]["trials"] == 7

    def test_out_dir_writes_files(self, config_path, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, _, _ = run_cli(["simulate", "--config", config_path, "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        for name in ("results.json", "results.csv", "run_meta.json"):
            assert (out_dir / name).exists()

    def test_out_changes_no_byte(self, config_path, capsys, tmp_path):
        outs = []
        for where in ("a", "b", None):
            argv = ["simulate", "--config", config_path] + ([] if where is None else ["--out", str(tmp_path / where)])
            code, out, _ = run_cli(argv, capsys)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert (tmp_path / "a" / "results.json").read_bytes() == (tmp_path / "b" / "results.json").read_bytes()
        assert (tmp_path / "a" / "results.json").read_text() == outs[2]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_renders_each_document_once(self, fmt, config_path, capsys, tmp_path, monkeypatch):
        # result_document is the json render's one call, flat_csv the csv render's
        calls = []
        real_document, real_csv = harness.ExperimentResult.result_document, harness.flat_csv

        def counted_document(self):
            calls.append("json")
            return real_document(self)

        def counted_csv(payload):
            calls.append("csv")
            return real_csv(payload)

        monkeypatch.setattr(harness.ExperimentResult, "result_document", counted_document)
        monkeypatch.setattr(harness, "flat_csv", counted_csv)
        code, out, _ = run_cli(["simulate", "--config", config_path, "--format", fmt, "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert sorted(calls) == ["csv", "json"]
        assert out == (tmp_path / f"results.{fmt}").read_text()
        calls.clear()
        run_cli(["simulate", "--config", config_path, "--format", fmt], capsys)
        assert calls == [fmt]

    def test_out_dir_key_rejected_as_unknown(self, capsys, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"n": 3, "out_dir": str(tmp_path / "o"), "trials": 5}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "unknown keys ['out_dir']" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"n": 3, "n": 4, "trials": 5}', "n"),
            ('{"n": 3, "trials": 5, "attack": {"kind": "noop", "kind": "substitute"}}', "kind"),
        ],
        ids=["top-level", "attack"],
    )
    def test_repeated_key_rejected(self, text, key, capsys, tmp_path):
        # json.loads alone keeps a repeated key's last value, which would run a different config
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert f"key {key!r} is repeated" in err and err.count("\n") == 1

    def test_unwritable_out_exits_3(self, config_path, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(["simulate", "--config", config_path, "--out", str(blocker)], capsys)
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("error: cannot write output:")

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

    @pytest.mark.parametrize(
        "data", [b"\xc3\x28", b"[" * 100_000, b"1" * 5000], ids=["not-utf8", "deep-nesting", "huge-integer"]
    )
    def test_undecodable_json_rejected_in_one_line(self, data, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("n, deltas", [(2, [1.0, 0.0]), (3, [0.5, 0.5, 0.0])])
    def test_incremental_step_with_no_fresh_position_runs(self, n, deltas, capsys, tmp_path):
        # the last step flips 0 of the 0 positions left fresh
        path = tmp_path / "drained.json"
        config = {"n": n, "k": 1, "attack": {"kind": "incremental", "deltas": deltas}, "trials": 10}
        path.write_text(json.dumps(config))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_OK, err
        assert all(b["passed"] for b in json.loads(out)["aggregates"]["bounds"])

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
        assert [b["name"] for b in doc["aggregates"]["bounds"]] == ["all_accept"]
        assert doc["aggregates"]["bounds"][0]["passed"]

    def test_scripted_store_equal_to_target_rejected(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps({
            "n": 4, "attack": {"kind": "substitute", "target": "1010"},
            "script": [{"op": "store", "message": "1010"}, {"op": "attack"}, {"op": "retrieve"}],
        }))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert "script[0].message" in err

    def test_steps_beside_a_script_rejected(self, capsys, tmp_path):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"n": 3, "steps": 5, "script": [{"op": "store"}, {"op": "retrieve"}], "trials": 3}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: steps: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, cap", [("k", "MAX_K"), ("steps", "MAX_STEPS"), ("trials", "MAX_TRIALS")])
    def test_oversized_field_rejected(self, field, cap, capsys, tmp_path):
        # one past the cap is refused while validating; nothing that large is run
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 3, "trials": 5, field: getattr(harness, cap) + 1}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra, expected", [(0, EXIT_OK), (1, EXIT_VALIDATION)])
    def test_schedule_length_counts_as_steps(self, extra, expected, capsys, tmp_path):
        # without steps, the default script runs one step per delta, under the same cap
        path = tmp_path / "long.json"
        deltas = [1e-5] * (harness.MAX_STEPS + extra)
        path.write_text(json.dumps({"n": 4, "k": 1, "attack": {"kind": "incremental", "deltas": deltas}, "trials": 1}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == expected, err
        if expected == EXIT_VALIDATION:
            assert out == ""
            assert err.startswith("error: attack.deltas: ") and err.count("\n") == 1

    def test_zero_step_run_renders_all_accept_as_a_float(self, capsys, tmp_path):
        # the empty product of step rates is 1.0, like every other run's
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 3, "steps": 0, "trials": 10}))
        code, out, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_OK
        assert '"analytic": {"all_accept": 1.0}' in out

    def test_oversized_trials_override_rejected(self, config_path, capsys):
        # trial indices are uint64 counters: 2^64 + 1 trials cannot be numbered
        code, out, err = run_cli(["simulate", "--config", config_path, "--trials", str(2**64 + 1)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: trials: ") and err.count("\n") == 1

    @pytest.mark.parametrize("given, flag", [(10**8, []), (5, ["--trials", str(10**8)])])
    def test_oversized_recording_rejected(self, given, flag, capsys, tmp_path):
        # 10^8 trials of 3 ops would keep 3 * 10^8 verdicts in memory; the
        # cap is checked on the config and again on a --trials override
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"n": 3, "trials": given, "record_trials": True}))
        code, out, err = run_cli(["simulate", "--config", str(path), *flag], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: trials: ") and str(harness.MAX_RECORDED_VERDICTS) in err

    def test_non_boolean_record_trials_rejected(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"n": 3, "trials": 5, "record_trials": 1}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: record_trials: expected a boolean, got 1\n"

    def test_flag_replaces_an_invalid_file_value(self, capsys, tmp_path):
        # --seed and --trials replace the file's values before the config is built,
        # so a file value a flag replaces is never validated
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 3, "trials": 0, "seed": -1}))
        code, out, err = run_cli(["simulate", "--config", str(path), "--trials", "5", "--seed", "2"], capsys)
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["config"]["trials"] == 5
        code, out, err = run_cli(["simulate", "--config", str(path), "--seed", "2"], capsys)
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("error: trials: ") and err.count("\n") == 1

    def test_config_built_once(self, config_path, capsys, monkeypatch):
        built = []
        real = harness.ExperimentConfig.__post_init__

        def counted(self):
            built.append(self.trials)
            real(self)

        monkeypatch.setattr(harness.ExperimentConfig, "__post_init__", counted)
        code, _, _ = run_cli(["simulate", "--config", config_path, "--seed", "3", "--trials", "7"], capsys)
        assert code == EXIT_OK
        assert built == [7]

    def test_delta_dec_rejected_as_unknown_key(self, capsys, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"n": 3, "delta_dec": 0.125, "trials": 5}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "unknown keys ['delta_dec']" in err

    def test_single_flip_at_large_m_passes(self, capsys, tmp_path):
        # 199 of 200 accepted at an exact rate of 0.99979 lies outside the 4 sigma
        # band, but its exact binomial tail is 0.04
        path = tmp_path / "n16.json"
        path.write_text(json.dumps(
            {"n": 16, "k": 7, "attack": {"kind": "flip_count", "bits_per_step": 1}, "steps": 1, "trials": 200}
        ))
        code, out, err = run_cli(["simulate", "--config", str(path), "--seed", "38"], capsys)
        assert code == EXIT_OK, err
        assert json.loads(out)["aggregates"]["sessions"]["all_accept"] == 199

    def test_unreached_steps_pass(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps(
            {"n": 4, "k": 7, "attack": {"kind": "flip_count", "bits_per_step": 8}, "steps": 3, "trials": 20}
        ))
        code, out, err = run_cli(["simulate", "--config", str(path), "--seed", "0"], capsys)
        assert code == EXIT_OK, err
        names = [b["name"] for b in json.loads(out)["aggregates"]["bounds"]]
        assert names == ["step_accept[0]", "all_accept"]

    def test_unknown_flag(self, config_path, capsys):
        code, _, err = run_cli(["simulate", "--config", config_path, "--fast"], capsys)
        assert code == EXIT_VALIDATION
        assert err


class TestSeedPrecedence:
    def test_config_seed_when_no_override(self, config_path, capsys):
        _, out, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert json.loads(out)["config"]["seed"] == 4

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["simulate", "oracle-check"])
    def test_seed_flag_out_of_range(self, command, seed, config_path, capsys):
        argv = ["simulate", "--config", config_path] if command == "simulate" else [command, "--pairs", "5"]
        code, out, err = run_cli([*argv, f"--seed={seed}"], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "argument --seed: seed must be in [0, 2^64)" in err

    @pytest.mark.parametrize("command", ["simulate", "oracle-check"])
    def test_environment_changes_no_byte(self, command, config_path, capsys, monkeypatch):
        # a run depends on its flags and config only; no variable stands in for the seed
        argv = ["simulate", "--config", config_path] if command == "simulate" else [command, "--pairs", "5"]
        monkeypatch.delenv("QMEMCHECK_SEED", raising=False)
        _, plain, _ = run_cli(argv, capsys)
        monkeypatch.setenv("QMEMCHECK_SEED", "555")
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert out == plain


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

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["--grid", "36", "--t-max", "4"], LEMMA2_GRID36),
            ([], LEMMA2_DEFAULT),
        ],
        ids=["grid36", "default"],
    )
    def test_document_pinned(self, argv, doc, capsys, tmp_path):
        # the bytes the schedule-at-a-time enumeration wrote for these arguments
        code, out, _ = run_cli(["verify-lemma2", *argv, "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "lemma2.json").read_text() == doc + "\n"


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

    @pytest.mark.parametrize("sizes, bad", [("0", 0), ("-4", -4), ("2,3", 3), ("4,128", 128)])
    def test_bad_size_fails_fast(self, sizes, bad, capsys):
        # 400,000 m=2 pairs would run for seconds if the sizes were checked as they came up
        start = time.monotonic()
        code, out, err = run_cli(["oracle-check", "--sizes", sizes, "--pairs", "400000"], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: statevector oracle requires m to be a power of two in [1, 64], got {bad}\n"
        assert time.monotonic() - start < 1.0

    def test_oversized_pair_count_fails_fast(self, capsys):
        start = time.monotonic()
        code, out, err = run_cli(["oracle-check", "--pairs", "100000000"], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "cap of 1000000 pairs" in err
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_document_pinned(self, seed, capsys, tmp_path):
        # the bytes the pair-at-a-time oracle wrote at the default sizes
        code, out, _ = run_cli(["oracle-check", "--seed", str(seed), "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "oracle.json").read_text() == ORACLE_DEFAULT.replace("SEED", str(seed)) + "\n"


@pytest.mark.parametrize(
    "argv", [["verify-lemma2", "--grid", "4", "--t-max", "2"], ["oracle-check", "--sizes", "2", "--pairs", "3"]]
)
def test_unwritable_out_prints_nothing(argv, capsys, tmp_path):
    # --out is written before stdout, so a failed write leaves stdout empty
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli([*argv, "--out", str(blocker)], capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: cannot write output:") and err.count("\n") == 1


@pytest.mark.parametrize("command, stem", [("simulate", "results"), ("bounds", "bounds")])
def test_missing_nested_out_created(command, stem, config_path, capsys, tmp_path, monkeypatch):
    # each writer makes a missing --out directory with its parents, and calls no mkdir on one that exists
    argv = [command, *(["--config", config_path] if command == "simulate" else []), "--out", str(tmp_path / "a" / "b")]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert (tmp_path / "a" / "b" / f"{stem}.json").read_text() == out
    made = []
    monkeypatch.setattr(Path, "mkdir", lambda self, *args, **kwargs: made.append(self))
    assert run_cli(argv, capsys)[:2] == (EXIT_OK, out)
    assert made == []


def test_read_only_results_json_exits_3(config_path, capsys, tmp_path):
    doc = tmp_path / "results.json"
    doc.write_text("old\n")
    doc.chmod(0o444)
    if os.access(doc, os.W_OK):
        pytest.skip("this user may write read-only files")
    code, out, err = run_cli(["simulate", "--config", config_path, "--out", str(tmp_path)], capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: cannot write output:")
    assert doc.read_text() == "old\n"


def test_directory_at_results_json_exits_3(config_path, capsys, tmp_path):
    # no user opens a directory for writing
    (tmp_path / "results.json").mkdir()
    code, out, err = run_cli(["simulate", "--config", config_path, "--out", str(tmp_path)], capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: cannot write output:")


def test_out_file_linked_to_a_device(config_path, capsys, tmp_path):
    # a file linked to /dev/null discards its document and the others are written
    (tmp_path / "results.json").symlink_to(os.devnull)
    code, out, _ = run_cli(["simulate", "--config", config_path, "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "results.csv").read_text().startswith("metric,value")
    assert json.loads(out)["config"]["n"] == 3


@pytest.mark.parametrize(
    "argv, stem",
    [
        (["bounds"], "bounds"),
        (["verify-lemma2", "--grid", "4", "--t-max", "2"], "lemma2"),
        (["oracle-check", "--sizes", "2", "--pairs", "3"], "oracle"),
    ],
)
def test_report_rewritten_in_place(argv, stem, capsys, tmp_path):
    # the document keeps its inode, and the old, longer text leaves no tail
    doc = tmp_path / f"{stem}.json"
    doc.write_text("x" * 100_000)
    inode = doc.stat().st_ino
    code, out, _ = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert doc.read_text() == out
    assert doc.stat().st_ino == inode


def test_failed_check_named_on_stderr(capsys):
    code, out, err = run_cli(["oracle-check", "--tolerance", "0"], capsys)
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["passed"] is False
    assert err.splitlines() == ["check failed: swap_oracle_equivalence"]


def test_parser_built_once(config_path, capsys, monkeypatch):
    built = []
    real_init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    try:
        code, out, _ = run_cli(["simulate", "--config", config_path, "--trials", "5"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["aggregates"]["trials"] == 5
        code, out, _ = run_cli(["bounds", "--epsilon", "0.05", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert "required_k,5" in out.splitlines()
        code, out, _ = run_cli(["simulate", "--config", config_path], capsys)
        assert json.loads(out)["aggregates"]["trials"] == 50  # no value carried over from the first call
    finally:
        cli.build_parser.cache_clear()
    assert built.count("qmemcheck") == 1  # the top-level parser, and its subparsers, built once
    assert len(built) == 5


def test_simulate_leaves_no_reference_cycles(config_path, capsys, tmp_path):
    # cyclic garbage waits for the collector; a csv writer left that way holds a
    # 128 KiB buffer. Every subcommand, in both formats, must leave none.
    commands = [
        ["simulate", "--config", config_path],
        ["bounds", "--deltas", "0.25,0.25"],
        ["verify-lemma2", "--grid", "6", "--t-max", "3"],
        ["oracle-check", "--sizes", "2,4", "--pairs", "5"],
    ]
    for argv in commands:
        main(argv + ["--out", str(tmp_path)])  # warm: the parser is built once
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            for fmt in ("json", "csv"):
                assert main(argv + ["--format", fmt, "--out", str(tmp_path)]) == EXIT_OK
                assert gc.collect() == 0, (argv, fmt)
    finally:
        gc.enable()
    capsys.readouterr()


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


@pytest.mark.parametrize("module", ["qmemcheck.cli", "qmemcheck"])
def test_module_invocation(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "bounds", "--delta", "0.5", "--k", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_accept_bound"] == 0.0078125
