import dataclasses
import importlib
import json
import math
import os
import pkgutil
import random
import tracemalloc

import numpy as np
import pytest

import qmemcheck
from qmemcheck import bits, checker, engine, harness
from qmemcheck.adversary import (
    SCHEDULES,
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
    run_experiment,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS


def bound_named(agg, name):
    return next(b for b in agg["bounds"] if b["name"] == name)


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
        assert cfg.code.params.delta_dec == 0.125
        assert cfg.epsilon == 0.01
        assert cfg.k is None
        assert cfg.resolved_k() == 7
        assert isinstance(cfg.attack, NoOpAttack)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": True},  # bools are not sizes
            {"n": 3, "k": True},  # bools are not counts
            {"n": 3, "epsilon": -0.1},
            {"n": 3, "epsilon": True},
            {"n": 3, "epsilon": 0.0},
            {"n": 3, "epsilon": 0.5},
            {"n": 3, "k": 0},
            {"n": 3, "k": harness.MAX_K + 1},  # every verification would draw k uniforms
            {"n": 3, "steps": -1},
            {"n": 3, "steps": harness.MAX_STEPS + 1},  # the default script grows with steps
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

    @pytest.mark.parametrize("value", [1, 0, "yes", None])
    def test_record_trials_must_be_a_boolean(self, value):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(n=3, record_trials=value)
        assert exc.value.path == "record_trials"
        assert str(exc.value) == f"record_trials: expected a boolean, got {value!r}"

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

    def test_steps_beside_a_script_rejected(self):
        # an explicit script fixes its own ops, so steps would be silently ignored
        raw = {"n": 3, "steps": 5, "script": [{"op": "store"}, {"op": "retrieve"}], "trials": 3}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "steps"
        del raw["steps"]
        ExperimentConfig.from_dict(raw)


class TestBuildScript:
    def test_default_single_round(self):
        script = make_config().build_script()
        assert [op.op for op in script] == ["store", "attack", "retrieve"]

    def test_incremental_default_uses_schedule_length(self):
        cfg = make_config(attack=IncrementalAttack(deltas=(0.25, 0.25)))
        ops = [op.op for op in cfg.build_script()]
        assert ops == ["store", "attack", "retrieve", "attack", "retrieve"]

    def test_steps_zero_is_store_only(self):
        config = make_config(steps=0)
        assert [op.op for op in config.build_script()] == ["store"]
        assert config.ops == (("store", 0, None),)

    def test_explicit_script_returned_verbatim(self):
        script = (OpSpec(op="store", message="101"), OpSpec(op="retrieve", index=2))
        assert make_config(script=script).build_script() == script


def resolved(config):
    """config.ops with each parsed message as a list of bits."""
    return [
        (kind, step, value.tolist() if isinstance(value, np.ndarray) else value) for kind, step, value in config.ops
    ]


class TestResolvedOps:
    def test_a_config_resolves_its_script_once(self, monkeypatch):
        # building the config, planning its draws and attaching its bounds all read one walk
        real = ExperimentConfig.build_script
        calls = 0

        def counted(config):
            nonlocal calls
            calls += 1
            return real(config)

        monkeypatch.setattr(ExperimentConfig, "build_script", counted)
        run_experiment(ExperimentConfig.from_dict(GOLDEN_CONFIGS["script-attack-n3"]))
        assert calls == 1

    def test_every_answer_is_the_stored_bit_at_the_resolved_index(self):
        # config-level message and cycle index, an explicit message and index,
        # and cycle retrieves that run on across the second store and wrap mod 5
        retrieve, at = {"op": "retrieve"}, lambda index: {"op": "retrieve", "index": index}
        script = [{"op": "store"}, retrieve, at(3), retrieve, {"op": "store", "message": "01011"}] + [retrieve] * 4
        script += [at(4), retrieve]
        config = ExperimentConfig.from_dict({
            "n": 5, "message": "10110", "retrieve_index": "cycle", "script": script,
            "record_trials": True, "trials": 20, "seed": 4,
        })
        first, second = [1, 0, 1, 1, 0], [0, 1, 0, 1, 1]
        indices = [0, 3, 1, 2, 3, 4, 0, 4, 1]
        assert resolved(config) == (
            [("store", 0, first)] + [("retrieve", i, indices[i]) for i in range(3)]
            + [("store", 1, second)] + [("retrieve", i, indices[i]) for i in range(3, 9)]
        )
        answers = [first[i] for i in indices[:3]] + [second[i] for i in indices[3:]]
        labels = [f"retrieve:{bit}" for bit in answers]
        assert run_experiment(config).trial_verdicts == [["store:1", *labels[:3], "store:1", *labels[3:]]] * 20

    def test_default_script_steps_from_the_schedule(self):
        config = make_config(message="101", retrieve_index=2, attack=IncrementalAttack(deltas=(0.25, 0.25)))
        assert resolved(config) == [
            ("store", 0, [1, 0, 1]), ("attack", 0, {2: 1.0}), ("retrieve", 0, 2), ("attack", 1, {2: 1.0}),
            ("retrieve", 1, 2),
        ]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_each_attack_law_is_computed_once(self, name, monkeypatch):
        # the draw plan and the bounds both read an attack op's law from config.ops
        steps = []
        for cls in SCHEDULES.values():
            real = cls.step_distances
            monkeypatch.setattr(
                cls, "step_distances", lambda self, *args, _real=real: steps.append(args[-1]) or _real(self, *args)
            )
        config = ExperimentConfig.from_dict(GOLDEN_CONFIGS[name])
        run_experiment(config)
        assert steps == [step for kind, step, _ in config.ops if kind == "attack"]

    def test_replaced_seed_and_trials_resolve_the_same_ops(self):
        # the CLI's --seed and --trials override a parsed config this way
        config = ExperimentConfig.from_dict(GOLDEN_CONFIGS["script-attack-n3"])
        assert resolved(dataclasses.replace(config, seed=123, trials=7)) == resolved(config)


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

    def test_delta_dec_is_an_unknown_key(self):
        # no result reads a decoder radius, so the config has no such knob
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({"n": 3, "delta_dec": 0.125})
        assert exc.value.path == "config"
        assert "delta_dec" in str(exc.value)

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
            ([], "script"),  # runs no ops, so every session would pass vacuously
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

    @pytest.mark.parametrize(
        "raw, path, message",
        [
            ({"n": 3, "trails": 1}, "config", "unknown keys ['trails']"),
            ({"trials": 3}, "n", "missing required key"),
            ({"n": 3, "attack": {"kind": "noop", "strength": 3}}, "attack", "unknown keys ['strength']"),
            ({"n": 3, "attack": {"kind": "flip_count"}}, "attack.bits_per_step", "missing required key"),
            ({"n": 3, "script": [{"op": "store"}, {"op": "retrieve", "z": 1, "b": 2}]}, "script[1]",
             "unknown keys ['b', 'z']"),
            ({"n": 3, "script": [{"op": "store"}, {"index": 0}]}, "script[1].op", "missing required key"),
        ],
    )
    def test_key_errors_name_their_path(self, raw, path, message):
        # unknown keys are reported at the object holding them, a missing key at its own path
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert (exc.value.path, exc.value.message, str(exc.value)) == (path, message, f"{path}: {message}")

    def test_with_overrides(self):
        # the CLI applies --seed/--trials by replacing fields of the loaded config
        cfg = make_config()
        out = dataclasses.replace(cfg, seed=99, trials=5)
        assert (out.seed, out.trials, out.n) == (99, 5, 3)
        assert (cfg.seed, cfg.trials) == (11, 40)  # original untouched
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, trials=True)  # equal to 1, but not an integer


class TestCounterDraw:
    def test_frozen_value(self):
        # pinned: the derivation must not drift across platforms or releases
        assert engine.counter_draw(0, 0, 0, 0) == 2391539541053276776
        assert engine.counter_draw(1, 2, 3, 4) == 4181974824002594042

    def test_distinct_across_indices(self):
        draws = {engine.counter_draw(42, i, 0, 0) for i in range(2000)}
        assert len(draws) == 2000
        # and across the ops and slots of one trial
        assert len({engine.counter_draw(42, 0, op, slot) for op in range(40) for slot in range(50)}) == 2000

    def test_distinct_across_masters(self):
        assert engine.counter_draw(1, 0, 0, 0) != engine.counter_draw(2, 0, 0, 0)

    def test_range(self):
        top = 2**64 - 1
        for args in ((7, 3, 0, 0), (top, top, top, top), (0, top, 1, 2**32)):
            assert 0 <= engine.counter_draw(*args) < 2**64

    def test_domain(self):
        for args in ((-1, 0, 0, 0), (0, 2**64, 0, 0), (0, 0, -1, 0), (0, 0, 0, 2**64), (0.5, 0, 0, 0)):
            with pytest.raises(ValueError):
                engine.counter_draw(*args)

    def test_numpy_integers_give_the_same_draw(self):
        # np.arange indices are the natural input of a replay
        drawn = [engine.counter_draw(3, i, 1, 2) for i in range(4)]
        assert [engine.counter_draw(3, i, 1, 2) for i in np.arange(4)] == drawn
        for kind in (np.uint64, np.int64, np.uint8):
            assert engine.counter_draw(kind(1), kind(2), kind(3), kind(4)) == 4181974824002594042
        top = np.uint64(2**64 - 1)
        assert engine.counter_draw(top, top, top, top) == engine.counter_draw(*[2**64 - 1] * 4)

    def test_bools_are_not_integers(self):
        for args in ((True, 0, 0, 0), (0, False, 0, 0), (0, 0, np.True_, 0)):
            with pytest.raises(ValueError):
                engine.counter_draw(*args)


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

    @pytest.mark.parametrize("raw", [
        {"n": 4, "k": 7, "attack": {"kind": "flip_count", "bits_per_step": 0}, "trials": 10},
        {"n": 4, "k": 7, "attack": {"kind": "incremental", "deltas": [0.0, 0.0]}, "trials": 10},
        {"n": 4, "attack": {"kind": "substitute"}, "trials": 10,
         "script": [{"op": "store"}, {"op": "retrieve"}, {"op": "retrieve"}]},
    ])
    def test_completeness_follows_the_step_laws(self, raw):
        # every attack op (or none at all) leaves the memory at distance 0
        report = bound_named(run_experiment(ExperimentConfig.from_dict(raw)).aggregates, "honest_completeness")
        assert report["passed"]

    def test_no_completeness_once_a_step_moves_the_memory(self):
        agg = run_experiment(make_config(attack=FlipCount(1), k=1, trials=10)).aggregates
        assert "honest_completeness" not in [b["name"] for b in agg["bounds"]]

    def test_session_counts_partition(self):
        cfg = make_config(attack=SubstituteCodeword(), trials=300, k=2)
        agg = run_experiment(cfg).aggregates
        s = agg["sessions"]
        assert s["buggy"] + s["all_accept"] == cfg.trials
        assert agg["per_step_accept"][0]["reached"] == cfg.trials

    def test_substitution_bound_attached_and_passes(self):
        cfg = make_config(trials=400, attack=SubstituteCodeword())
        agg = run_experiment(cfg).aggregates
        bound = bound_named(agg, "step_accept[0]")
        assert bound["passed"]
        # distinct codewords sit at half distance, where Lemma 1 is tight
        assert bound["analytic"] == {"accept": 0.5**7, "lemma1_bound": 0.5**7}
        assert bound["details"]["distances"] == {"4": 1.0}

    def test_fixed_target_against_random_message(self):
        # 1 in 2^n sessions store the target itself and then accept surely, so
        # the accept rate is 2^-n + (1 - 2^-n) 2^-k, and Lemma 1 does not apply
        cfg = ExperimentConfig(n=4, k=7, attack=SubstituteCodeword(target="1010"), trials=2000, seed=5)
        agg = run_experiment(cfg).aggregates
        bound = bound_named(agg, "step_accept[0]")
        exact = 2**-4 + (1 - 2**-4) * 2**-7
        assert bound["analytic"] == {"accept": pytest.approx(exact)}
        assert abs(agg["sessions"]["all_accept"] / cfg.trials - exact) <= bound["tolerance"]
        assert bound["passed"]

    def test_incremental_all_accept_bound(self):
        cfg = make_config(
            attack=IncrementalAttack(deltas=(0.25, 0.25)),
            k=1,
            trials=4000,
            seed=3,
        )
        agg = run_experiment(cfg).aggregates
        bound = bound_named(agg, "all_accept")
        assert bound["passed"]
        assert bound["analytic"]["all_accept"] == pytest.approx(0.390625)
        for step in (0, 1):
            step_bound = bound_named(agg, f"step_accept[{step}]")
            assert step_bound["passed"]
            assert step_bound["analytic"] == {"accept": pytest.approx(0.625)}
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
            run_experiment(dataclasses.replace(cfg, seed=3))
            assert len(built) == 2  # one per config instance, none per trial

    def test_resolved_k_builds_no_checker_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("resolved_k built a CheckerState")

        monkeypatch.setattr(checker, "CheckerState", refuse)
        monkeypatch.setattr(harness, "CheckerState", refuse)
        assert make_config().resolved_k() == 7
        assert make_config(k=2).resolved_k() == 2

    def test_as_bits_only_where_bits_enter(self, monkeypatch):
        # each explicit message (a stored message or a substitution target) is
        # parsed once per run, however many chunks and sessions it has; the
        # complexity probe's one store parses twice, the message in encode and
        # the codeword in PublicMemory.write; nothing the package built is parsed
        real = bits.as_bits
        calls = 0

        def counted(value, **kwargs):
            nonlocal calls
            calls += 1
            return real(value, **kwargs)

        for info in pkgutil.iter_modules(qmemcheck.__path__):
            module = importlib.import_module(f"qmemcheck.{info.name}")
            if getattr(module, "as_bits", None) is real:
                monkeypatch.setattr(module, "as_bits", counted)
        monkeypatch.setattr(engine, "CHUNK_BYTES", 7 * 8 * 5)  # 8 bytes per message bit: 7 sessions per chunk, 8 chunks
        flips = dict(attack=FlipCount(bits_per_step=3), steps=3)
        stores = tuple(OpSpec(op="store", message=msg) for msg in ("10101", "01100", "10101"))
        script = stores + (OpSpec(op="retrieve"),)
        for parsed, kwargs in (
            (0, dict(message="random", **flips)),
            (1, dict(message="10101", **flips)),
            (1, dict(attack=SubstituteCodeword(target="11100"))),
            (2, dict(message="10101", attack=SubstituteCodeword(target="11100"))),
            (2, dict(script=script)),
        ):
            calls = 0
            run_experiment(make_config(n=5, trials=50, **kwargs))
            assert calls == parsed + 2, kwargs

    def test_record_trials(self):
        cfg = make_config(trials=25, record_trials=True)
        res = run_experiment(cfg)
        assert len(res.trial_verdicts) == 25
        for verdicts in res.trial_verdicts:
            assert verdicts[0] == "store:1"
            assert verdicts[1] in ("retrieve:0", "retrieve:1")

    def test_trial_verdicts_absent_without_flag(self):
        assert run_experiment(make_config(trials=5)).trial_verdicts is None

    def test_verdict_text_is_the_canonical_list_document(self):
        # random explicit scripts whose stores and retrieves reject, so sessions
        # stop early and leave ops without a verdict
        chooser = random.Random(3)
        seen = set()
        for seed in range(30):
            ops = chooser.choices(["store", "attack", "retrieve"], weights=[1, 1, 2], k=chooser.randint(1, 9))
            script = [OpSpec(op="store")] + [OpSpec(op=op) for op in ops]
            cfg = make_config(
                k=1, attack=FlipCount(bits_per_step=chooser.randint(1, 6)), script=tuple(script),
                record_trials=True, trials=chooser.randint(1, 60), seed=seed,
            )
            res = run_experiment(cfg)
            listed = {**res.result_document(), "trial_verdicts": res.trial_verdicts}
            assert res.results_json() == canonical_json(listed)
            seen.update(v for stream in res.trial_verdicts for v in stream)
            if any(len(stream) < sum(op.op != "attack" for op in script) for stream in res.trial_verdicts):
                seen.add("stopped early")
        assert {"store:buggy", "retrieve:buggy", "stopped early"} <= seen

    def test_recorded_verdicts_kept_as_codes(self):
        # 1.6 million verdicts kept as one byte each; kept as label lists, they peaked at 28.5 MB
        script = (OpSpec(op="store"), OpSpec(op="retrieve")) * 4
        cfg = make_config(n=8, script=script, record_trials=True, trials=200_000)
        tracemalloc.start()
        try:
            res = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.tally.codes.shape == (200_000, 8)
        assert peak < 8 * 10**6

    def test_deterministic_aggregates(self):
        cfg = make_config(attack=SubstituteCodeword(), trials=150, seed=77)
        a = canonical_json(run_experiment(cfg).aggregates)
        b = canonical_json(run_experiment(cfg).aggregates)
        assert a == b

    def test_seed_changes_samples(self):
        cfg = make_config(attack=IncrementalAttack(deltas=(0.25,)), k=1, trials=400)
        a = run_experiment(cfg).aggregates["sessions"]["all_accept"] / cfg.trials
        b = run_experiment(dataclasses.replace(cfg, seed=12)).aggregates["sessions"]["all_accept"] / cfg.trials
        assert a != b

    def test_store_only_script_has_vacuous_correctness(self):
        agg = run_experiment(make_config(steps=0, trials=10)).aggregates
        assert agg["counts"]["answers_total"] == 0
        assert agg["rates"]["correctness"] == 1.0

    def test_completeness_needs_answers(self):
        # no retrieve ran, so there is no answer whose correctness could be checked
        agg = run_experiment(ExperimentConfig(n=3, steps=0, trials=5)).aggregates
        assert agg["counts"]["answers_total"] == 0
        assert [b["name"] for b in agg["bounds"]] == ["all_accept"]

    def test_unreached_steps_get_no_report(self):
        # half-distance flips at k=7 accept 1 in 128: no session reaches step 1
        cfg = ExperimentConfig(n=4, k=7, attack=FlipCount(bits_per_step=8), steps=3, trials=20)
        agg = run_experiment(cfg).aggregates
        assert [s["reached"] for s in agg["per_step_accept"]] == [20, 0, 0]
        assert [b["name"] for b in agg["bounds"]] == ["step_accept[0]", "all_accept"]
        assert all(b["passed"] for b in agg["bounds"])

    def test_every_step_checked(self):
        # uniform flips put the same distance between memory and the refreshed
        # fingerprint at every step, so each reached step has the same exact rate
        cfg = ExperimentConfig(n=5, k=2, attack=FlipCount(bits_per_step=4), steps=3, trials=400, seed=2)
        agg = run_experiment(cfg).aggregates
        steps = [b for b in agg["bounds"] if b["name"].startswith("step_accept")]
        assert len(steps) == 3
        for bound in steps:
            assert bound["analytic"] == {"accept": pytest.approx((1 - 2 / 8 + 2 / 64) ** 2)}
            assert bound["passed"]

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

    def test_complexity_probe_plays_a_live_session(self, monkeypatch):
        # the probe's counts come from one real store and retrieve, whose
        # verification samples the comparison test on all k copies
        calls, sampled = [], []
        for name in ("store", "retrieve"):
            real_op = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, _op=real_op, _name=name: calls.append(_name) or _op(*a))
        real_swap = checker.sample_swap_test

        def swap(a, b, rng, copies=1):
            sampled.append(copies)
            return real_swap(a, b, rng, copies=copies)

        monkeypatch.setattr(checker, "sample_swap_test", swap)
        agg = run_experiment(ExperimentConfig(n=8, k=7, trials=50)).aggregates
        assert calls == ["store", "retrieve"]
        assert sampled and sum(sampled) >= 7
        assert agg["complexity"] == {"s_qubits": 56, "t_qubits_per_retrieve": 114}

    def test_a_run_reports_the_stated_cost_its_session_meters(self, monkeypatch):
        # the complexity block is checker.stated_complexity, and a run stops if
        # the live session's meters disagree with it
        stated = []
        real = harness.stated_complexity
        monkeypatch.setattr(harness, "stated_complexity", lambda *a: stated.append(a) or real(*a))
        config = ExperimentConfig(n=8, k=7, trials=5)
        assert run_experiment(config).aggregates["complexity"] == {"s_qubits": 56, "t_qubits_per_retrieve": 114}
        assert stated == [(config.code, 7)]
        monkeypatch.setattr(harness, "stated_complexity", lambda code, k: real(code, k + 1))
        with pytest.raises(RuntimeError, match="differs from the metered"):
            run_experiment(config)

    def test_write_outputs(self, tmp_path):
        res = run_experiment(make_config(trials=20))
        out = tmp_path / "run"
        paths = res.write_outputs(out)
        assert paths == {"json": out / "results.json", "csv": out / "results.csv", "meta": out / "run_meta.json"}
        results = json.loads((out / "results.json").read_text())
        assert results["schema"] == "qmemcheck.results.v4"
        assert results["aggregates"] == res.aggregates
        assert (out / "results.csv").read_text().startswith("metric,")
        meta = json.loads((out / "run_meta.json").read_text())
        assert "elapsed_seconds" in meta

    def test_write_outputs_rewrites_in_place(self, tmp_path):
        # each file keeps its inode, and the shorter document leaves none of the old tail
        res = run_experiment(make_config(trials=20))
        old = {}
        for name in ("results.json", "results.csv", "run_meta.json"):
            (tmp_path / name).write_text("x" * 100_000)
            old[name] = (tmp_path / name).stat().st_ino
        paths = res.write_outputs(tmp_path)
        texts = {"json": res.results_json(), "csv": res.render_csv(), "meta": canonical_json(res.run_meta)}
        for key, path in paths.items():
            assert path.read_bytes() == texts[key].encode()
            assert path.stat().st_ino == old[path.name]

    def test_run_experiment_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = run_experiment(make_config(attack=SubstituteCodeword(), trials=20, record_trials=True))
        assert list(tmp_path.iterdir()) == []
        assert "out_dir" not in res.result_document()["config"]

    def test_each_fact_said_once(self):
        # all_accept is trials - buggy, so only its count is reported
        agg = run_experiment(make_config(attack=SubstituteCodeword(), k=1, trials=40)).aggregates
        assert set(agg["rates"]) == {"correctness", "buggy", "false_buggy"}
        assert set(agg["std_errors"]) == {"buggy"}
        assert agg["sessions"]["all_accept"] == agg["trials"] - agg["sessions"]["buggy"]

    def test_results_json_excludes_wall_clock(self):
        res = run_experiment(make_config(trials=5))
        doc = json.loads(res.results_json())
        assert "run_meta" not in doc
        assert "started_utc" not in canonical_json(res.aggregates)

    def test_csv_has_bound_rows(self):
        res = run_experiment(make_config(trials=20))
        lines = res.render_csv().splitlines()
        assert lines[0] == "metric,value"
        assert "bounds[0].name,honest_completeness" in lines
        assert "bounds[0].passed,True" in lines


class TestWriteDocument:
    @pytest.mark.parametrize("old", [None, "", "new", "a longer old document\n" * 1000])
    @pytest.mark.parametrize("text", ["", "new text\n"])
    def test_leaves_exactly_the_new_bytes(self, tmp_path, old, text):
        # an existing file is rewritten in place: it keeps its inode and loses its old tail
        path = tmp_path / "doc"
        if old is not None:
            path.write_text(old)
        inode = path.stat().st_ino if old is not None else None
        harness.write_document(path, text)
        assert path.read_bytes() == text.encode()
        assert inode in (None, path.stat().st_ino)

    def test_never_opens_with_truncation(self, tmp_path, monkeypatch):
        # truncating to zero before the write is the slow path the writer avoids
        flags = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda path, flag, mode: flags.append(flag) or real_open(path, flag, mode))
        harness.write_document(tmp_path / "doc", "text")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    def test_text_is_utf8(self, tmp_path):
        harness.write_document(tmp_path / "doc", "\u00e9\u2264\n")
        assert (tmp_path / "doc").read_bytes() == "\u00e9\u2264\n".encode("utf-8")

    def test_holds_one_copy_of_the_text(self, tmp_path):
        # the encoded bytes, as Path.write_text holds: the text is the peak of a recorded run
        text = "0123456789" * 1_000_000
        tracemalloc.start()
        try:
            harness.write_document(tmp_path / "doc", text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) <= peak < 1.01 * len(text)


    def test_cuts_only_a_longer_old_file(self, tmp_path, monkeypatch):
        cuts = []
        real_ftruncate = os.ftruncate
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length) or real_ftruncate(fd, length))
        path = tmp_path / "doc"
        # a new file, then rewrites of equal length, longer and shorter
        for text, cut in [("12345", []), ("abcde", []), ("a longer text", []), ("short", [5])]:
            cuts.clear()
            harness.write_document(path, text)
            assert path.read_bytes() == text.encode()
            assert cuts == cut, text

    def test_writes_to_a_device(self, monkeypatch):
        cuts = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length))
        harness.write_document(os.devnull, "discarded\n")
        assert cuts == []


class TestVerdictRows:
    """_verdict_rows_json against the plain render of each trial's label list."""

    @staticmethod
    def render(codes, ops):
        tally = engine.Tally([], [], codes=np.array(codes, dtype=np.int8).reshape(-1, len(ops)), ops=tuple(ops))
        expected = ",".join(json.dumps(row, separators=(",", ":")) for row in tally.verdicts)
        assert harness._verdict_rows_json(tally) == expected
        return expected

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
    def test_matches_the_plain_render(self, width):
        # on both sides of each 8-op word boundary: 300 trials drawn from 40 rows, so rows repeat
        rng = np.random.default_rng(width)
        ops = ["store", *rng.choice(harness.OP_KINDS, max(width - 2, 0)).tolist(), "retrieve"][:width]
        codes = rng.choice([0, 1, 1, 1, 2], size=(40, width))
        codes[:, [op == "attack" for op in ops]] = -1
        # a session ends at its first reject: -1 after it
        codes[np.cumsum(codes == 2, axis=1) - (codes == 2) > 0] = -1
        # two rows that differ only in their last op
        codes[:2] = np.where([op == "attack" for op in ops], -1, 1)
        codes[1, -1] = 0
        self.render(codes[np.r_[0, 1, rng.integers(0, 40, size=300)]], ops)

    @pytest.mark.parametrize("trials", [1, 50])
    def test_equal_rows(self, trials):
        # a single trial, and every trial alike: a reject, then ops not run
        ops = ("store", "attack", "retrieve") * 3
        text = self.render([[1, -1, 0, 1, -1, 2, -1, -1, -1]] * trials, ops)
        assert text == ",".join(['["store:1","retrieve:0","store:1","retrieve:buggy"]'] * trials)


class TestRateCheck:
    def check(self, count, samples, p):
        return harness._rate_check("r", {}, p, count, samples, {}).passed

    @pytest.mark.parametrize("inside, outside", [(911, 910), (1089, 1090)])
    def test_band_edge(self, inside, outside):
        # 2,000 samples at p = 1/2: 4 sigma is 89.4 counts, and just outside it the exact
        # one-sided tail, 3.10e-5, falls just below Phi(-4) = 3.17e-5, on either side of the mean
        samples = 2000
        band = 4 * math.sqrt(0.25 / samples) * samples
        assert abs(inside - 1000) <= band < abs(outside - 1000)
        tail = range(outside + 1) if outside < 1000 else range(outside, samples + 1)
        assert sum(math.comb(samples, c) for c in tail) / 2**samples < harness.TAIL_ALPHA
        assert self.check(inside, samples, 0.5)
        assert not self.check(outside, samples, 0.5)

    def test_exact_tail_passes_near_one(self):
        # 4 sigma is 0.004 here, but P(X <= 199) = 1 - p^200 = 0.041
        assert self.check(199, 200, 0.99979)

    def test_far_tail_fails(self):
        assert not self.check(190, 200, 0.99979)

    def test_exact_rates_demand_an_exact_match(self):
        assert not self.check(199, 200, 1.0)
        assert not self.check(1, 200, 0.0)
        assert self.check(200, 200, 1.0)


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    assert a == '{"a": [1.5,2],"b": 1}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
