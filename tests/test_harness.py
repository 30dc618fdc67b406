import json

import pytest

from qmemcheck import checker, harness
from qmemcheck.adversary import (
    FlipCount,
    IncrementalAttack,
    NoOpAttack,
    SubstituteCodeword,
)
from qmemcheck.harness import (
    ConfigError,
    ExperimentConfig,
    OpSpec,
    canonical_json,
    derive_trial_seed,
    run_experiment,
)


def make_config(**overrides):
    base = dict(n=3, trials=40, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestOpSpec:
    def test_store_with_message(self):
        op = OpSpec(op="store", message="101")
        assert op.to_dict() == {"op": "store", "message": "101"}

    def test_unknown_op(self):
        with pytest.raises(ConfigError):
            OpSpec(op="decode")

    def test_message_only_on_store(self):
        with pytest.raises(ConfigError):
            OpSpec(op="retrieve", message="101")

    def test_index_only_on_retrieve(self):
        with pytest.raises(ConfigError):
            OpSpec(op="store", index=0)


class TestConfigValidation:
    def test_defaults(self):
        cfg = ExperimentConfig(n=3)
        assert cfg.delta_dec == 0.125
        assert cfg.epsilon == 0.01
        assert cfg.k is None
        assert cfg.resolved_k() == 7
        assert isinstance(cfg.attack, NoOpAttack)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": True},  # bools are not sizes
            {"n": 3, "delta_dec": 0.25},
            {"n": 3, "delta_dec": False},  # bools are not rates
            {"n": 3, "epsilon": True},
            {"n": 3, "epsilon": 0.0},
            {"n": 3, "epsilon": 0.5},
            {"n": 3, "k": 0},
            {"n": 3, "steps": -1},
            {"n": 3, "trials": 0},
            {"n": 3, "seed": -1},
            {"n": 3, "seed": 2**64},
            {"n": 3, "retrieve_index": "first"},
            {"n": 3, "retrieve_index": 3},
            {"n": 3, "message": "10"},
            {"n": 3, "message": "10x"},
            {"n": 3, "attack": {"kind": "noop"}},  # a schedule object, not its JSON form
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises((ConfigError, ValueError)):
            ExperimentConfig(**kwargs)

    def test_error_carries_field_path(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(n=3, epsilon=1.2)
        assert exc.value.path == "epsilon"
        assert str(exc.value).startswith("epsilon:")

    def test_substitute_target_length_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n=3, attack=SubstituteCodeword(target="1010"))

    def test_incremental_must_reach_codeword(self):
        # half-then-half lands on the complement, a codeword
        ExperimentConfig(n=3, attack=IncrementalAttack(deltas=(0.5, 0.5), require_reach=True))
        with pytest.raises(ConfigError):
            ExperimentConfig(n=3, attack=IncrementalAttack(deltas=(0.25,), require_reach=True))

    def test_script_retrieve_before_store(self):
        with pytest.raises(ConfigError) as exc:
            make_config(script=(OpSpec(op="retrieve"), OpSpec(op="store")))
        assert "before the first store" in str(exc.value)

    def test_script_attack_count_capped_by_schedule(self):
        script = (OpSpec(op="store"), OpSpec(op="attack"), OpSpec(op="attack"))
        with pytest.raises(ConfigError):
            make_config(attack=SubstituteCodeword(), script=script)

    def test_script_index_range(self):
        script = (OpSpec(op="store"), OpSpec(op="retrieve", index=5))
        with pytest.raises(ConfigError) as exc:
            make_config(script=script)
        assert "script[1].index" in str(exc.value)

    def test_list_deltas_config_is_hashable(self):
        cfg = ExperimentConfig(n=3, attack=IncrementalAttack(deltas=[0.25, 0.25]))
        assert hash(cfg) == hash(ExperimentConfig(n=3, attack=IncrementalAttack(deltas=(0.25, 0.25))))

    def test_scripted_store_equal_to_target_rejected(self):
        # only the store an attack op follows is checked against the target
        attack = SubstituteCodeword(target="101")
        make_config(attack=attack, script=(OpSpec(op="store", message="101"), OpSpec(op="retrieve")))
        with pytest.raises(ConfigError) as exc:
            make_config(
                attack=attack,
                script=(
                    OpSpec(op="store", message="011"),
                    OpSpec(op="store", message="101"),
                    OpSpec(op="attack"),
                    OpSpec(op="retrieve"),
                ),
            )
        assert exc.value.path == "script[1].message"

    def test_steps_beyond_schedule(self):
        with pytest.raises(ConfigError):
            make_config(attack=IncrementalAttack(deltas=(0.5,)), steps=2)


class TestBuildScript:
    def test_default_single_round(self):
        script = make_config().build_script()
        assert [op.op for op in script] == ["store", "attack", "retrieve"]

    def test_incremental_default_uses_schedule_length(self):
        cfg = make_config(attack=IncrementalAttack(deltas=(0.25, 0.25)))
        ops = [op.op for op in cfg.build_script()]
        assert ops == ["store", "attack", "retrieve", "attack", "retrieve"]

    def test_steps_zero_is_store_only(self):
        script = make_config(steps=0).build_script()
        assert [op.op for op in script] == ["store"]

    def test_explicit_script_returned_verbatim(self):
        script = (OpSpec(op="store", message="101"), OpSpec(op="retrieve", index=2))
        assert make_config(script=script).build_script() == script


class TestSerialization:
    @pytest.mark.parametrize(
        "cfg",
        [
            make_config(),
            make_config(attack=SubstituteCodeword(target="110")),
            make_config(attack=FlipCount(bits_per_step=2, policy="prefix"), steps=3),
            make_config(attack=IncrementalAttack(deltas=(0.25, 0.25), policy="uniform")),
            make_config(k=4, retrieve_index="cycle", message="011", record_trials=True),
            make_config(script=(OpSpec(op="store", message="101"), OpSpec(op="retrieve", index=1))),
        ],
    )
    def test_round_trip(self, cfg):
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = make_config(attack=IncrementalAttack(deltas=(0.5, 0.5)))
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_auto_k_serializes_as_auto(self):
        assert make_config().to_dict()["k"] == "auto"

    def test_unknown_key_rejected(self):
        raw = make_config().to_dict()
        raw["trails"] = 10
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert "trails" in str(exc.value)

    def test_missing_n_rejected(self):
        raw = make_config().to_dict()
        del raw["n"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_bad_attack_kind(self):
        raw = make_config().to_dict()
        raw["attack"] = {"kind": "ddos"}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert "attack" in exc.value.path

    def test_attack_extra_key_rejected(self):
        raw = make_config().to_dict()
        raw["attack"] = {"kind": "noop", "strength": 3}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "attack, path",
        [
            ({"kind": ["noop"]}, "attack.kind"),
            ({"kind": "flip_count"}, "attack.bits_per_step"),
            ({"kind": "flip_count", "bits_per_step": 1, "policy": "x"}, "attack.policy"),
            ({"kind": "incremental", "deltas": [0.7, 0.7]}, "attack.deltas"),
            ("noop", "attack"),
        ],
    )
    def test_attack_error_paths(self, attack, path):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({"n": 3, "attack": attack})
        assert exc.value.path == path

    @pytest.mark.parametrize(
        "script, path",
        [
            ({"op": "store"}, "script"),
            ([{}], "script[0].op"),
            (["store"], "script[0]"),
            ([{"op": "store", "message": 5}], "script[0].message"),
            ([{"op": "store"}, {"op": "retrieve", "index": "z"}], "script[1].index"),
            ([{"op": "store"}, {"op": "retrieve", "extra": 1}], "script[1]"),
        ],
    )
    def test_script_error_paths(self, script, path):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({"n": 3, "script": script})
        assert exc.value.path == path

    def test_top_level_errors(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict([])
        assert exc.value.path == "config"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({"n": 3, "trails": 1})
        assert exc.value.path == "config"

    def test_with_overrides(self):
        cfg = make_config()
        out = cfg.with_overrides(seed=99, trials=5, out_dir="/tmp/x")
        assert (out.seed, out.trials, out.out_dir) == (99, 5, "/tmp/x")
        assert cfg.seed == 11  # original untouched

    def test_with_overrides_that_change_nothing_return_self(self):
        cfg = make_config()
        assert cfg.with_overrides() is cfg
        assert cfg.with_overrides(seed=11, trials=40) is cfg
        assert cfg.with_overrides(seed=12) is not cfg

    def test_with_overrides_still_validates_a_retyped_value(self):
        cfg = make_config(trials=1)
        with pytest.raises(ConfigError):
            cfg.with_overrides(trials=True)  # equal to 1, but not an integer


class TestDeriveTrialSeed:
    def test_frozen_value(self):
        # pinned: the derivation must not drift across platforms or releases
        assert derive_trial_seed(0, 0) == 285295601229159067524018170220488861561

    def test_distinct_across_indices(self):
        seeds = {derive_trial_seed(42, i) for i in range(2000)}
        assert len(seeds) == 2000

    def test_distinct_across_masters(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)

    def test_range(self):
        for _ in range(5):
            assert 0 <= derive_trial_seed(7, 3) < 2**128

    def test_domain(self):
        with pytest.raises(ValueError):
            derive_trial_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_trial_seed(0, 2**64)


class TestRunExperiment:
    def test_honest_session_exact(self):
        res = run_experiment(make_config(trials=200))
        agg = res.aggregates
        assert agg["rates"]["correctness"] == 1.0
        assert agg["rates"]["buggy"] == 0.0
        assert agg["rates"]["false_buggy"] == 0.0
        assert agg["sessions"]["all_accept"] == 200
        names = [b["name"] for b in agg["bounds"]]
        assert "honest_completeness" in names

    def test_session_counts_partition(self):
        cfg = make_config(attack=SubstituteCodeword(), trials=300, k=2)
        agg = run_experiment(cfg).aggregates
        s = agg["sessions"]
        assert s["buggy"] + s["clean"] == cfg.trials
        assert agg["per_step_accept"][0]["reached"] == cfg.trials

    def test_substitution_bound_attached_and_passes(self):
        cfg = make_config(trials=400, attack=SubstituteCodeword())
        agg = run_experiment(cfg).aggregates
        bound = next(b for b in agg["bounds"] if b["name"] == "substitution_detection")
        assert bound["passed"]
        assert bound["analytic"]["detect_lower_bound"] == pytest.approx(1 - 0.5**7)

    def test_fixed_target_against_random_message(self):
        # 1 in 2^n sessions store the target itself, so detection is at most
        # (1 - 2^-n)(1 - 2^-k), not 1 - 2^-k
        cfg = ExperimentConfig(n=4, k=7, attack=SubstituteCodeword(target="1010"), trials=2000, seed=5)
        agg = run_experiment(cfg).aggregates
        bound = next(b for b in agg["bounds"] if b["name"] == "substitution_detection")
        exact = (1 - 2**-4) * (1 - 2**-7)
        assert bound["analytic"]["detect_exact_orthogonal"] == pytest.approx(exact)
        assert bound["analytic"]["detect_lower_bound"] == pytest.approx(exact)
        assert abs(agg["rates"]["buggy"] - exact) <= bound["tolerance"]
        assert bound["passed"]

    def test_incremental_all_accept_bound(self):
        cfg = make_config(
            attack=IncrementalAttack(deltas=(0.25, 0.25)),
            k=1,
            trials=4000,
            seed=3,
        )
        agg = run_experiment(cfg).aggregates
        bound = next(b for b in agg["bounds"] if b["name"] == "incremental_all_accept")
        assert bound["passed"]
        assert bound["analytic"]["all_accept"] == pytest.approx(0.390625)
        # two retrieve rounds tracked separately, later rounds only reached on accept
        steps = agg["per_step_accept"]
        assert len(steps) == 2
        assert steps[0]["reached"] == cfg.trials
        assert steps[1]["reached"] == steps[0]["accepted"]

    def test_one_code_per_config(self, monkeypatch):
        built = []

        class CountingCode(harness.HadamardCode):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "HadamardCode", CountingCode)
        for trials in (5, 50):
            built.clear()
            cfg = make_config(attack=SubstituteCodeword(), trials=trials)
            run_experiment(cfg)
            run_experiment(cfg.with_overrides(seed=3))
            assert len(built) == 2  # one per config instance, none per trial

    def test_resolved_k_builds_no_checker_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("resolved_k built a CheckerState")

        monkeypatch.setattr(checker, "CheckerState", refuse)
        assert make_config().resolved_k() == 7
        assert make_config(k=2).resolved_k() == 2

    def test_record_trials(self):
        cfg = make_config(trials=25, record_trials=True)
        res = run_experiment(cfg)
        assert len(res.trial_verdicts) == 25
        for verdicts in res.trial_verdicts:
            assert verdicts[0] == "store:1"
            assert verdicts[1] in ("retrieve:0", "retrieve:1")

    def test_trial_verdicts_absent_without_flag(self):
        assert run_experiment(make_config(trials=5)).trial_verdicts is None

    def test_deterministic_aggregates(self):
        cfg = make_config(attack=SubstituteCodeword(), trials=150, seed=77)
        a = run_experiment(cfg).aggregates_json()
        b = run_experiment(cfg).aggregates_json()
        assert a == b

    def test_seed_changes_samples(self):
        cfg = make_config(attack=IncrementalAttack(deltas=(0.25,)), k=1, trials=400)
        a = run_experiment(cfg).aggregates["rates"]["all_accept"]
        b = run_experiment(cfg.with_overrides(seed=12)).aggregates["rates"]["all_accept"]
        assert a != b

    def test_store_only_script_has_vacuous_correctness(self):
        agg = run_experiment(make_config(steps=0, trials=10)).aggregates
        assert agg["counts"]["answers_total"] == 0
        assert agg["rates"]["correctness"] == 1.0

    def test_explicit_script_multiple_rounds(self):
        script = (
            OpSpec(op="store", message="101"),
            OpSpec(op="retrieve", index=0),
            OpSpec(op="store", message="010"),
            OpSpec(op="retrieve", index=2),
        )
        agg = run_experiment(make_config(script=script, trials=30)).aggregates
        assert agg["counts"]["answers_total"] == 60
        assert agg["rates"]["correctness"] == 1.0
        assert agg["rates"]["buggy"] == 0.0

    def test_complexity_block(self):
        agg = run_experiment(ExperimentConfig(n=8, k=7, trials=2)).aggregates
        assert agg["complexity"] == {"s_qubits": 56, "t_qubits_per_retrieve": 114}

    def test_write_outputs(self, tmp_path):
        cfg = make_config(trials=20, out_dir=str(tmp_path / "run"))
        res = run_experiment(cfg)
        out = tmp_path / "run"
        results = json.loads((out / "results.json").read_text())
        assert results["schema"] == "qmemcheck.results.v1"
        assert results["aggregates"] == res.aggregates
        assert (out / "results.csv").read_text().startswith("metric,")
        meta = json.loads((out / "run_meta.json").read_text())
        assert "elapsed_seconds" in meta

    def test_results_json_excludes_wall_clock(self):
        res = run_experiment(make_config(trials=5))
        doc = json.loads(res.results_json())
        assert "run_meta" not in doc
        assert "started_utc" not in res.aggregates_json()

    def test_csv_has_bound_rows(self):
        res = run_experiment(make_config(trials=20))
        lines = res.render_csv().splitlines()
        assert lines[0] == "metric,step,numerator,denominator,value"
        assert any(line.startswith("bound:honest_completeness") for line in lines)


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    assert a == '{"a": [1.5,2],"b": 1}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
