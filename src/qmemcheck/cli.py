"""Command-line entry points.

Subcommands:
  simulate      run a Monte Carlo experiment from a JSON config file
  bounds        print the closed-form rates (required k, detection bounds)
  verify-lemma2 exhaustive grid check of single-step dominance
  oracle-check  statevector cross-validation of the comparison test

Exit codes: 0 success; 1 validation error (bad flags, bad config, bad env
seed); 2 a self-check failed (a verify/oracle report or an attached bound
check did not pass); 3 I/O error. The master seed resolves as: --seed flag,
else the QMEMCHECK_SEED environment variable, else the config value/default.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis import p_multi, p_single, lemma1_bound, verify_lemma2, verify_swap_oracle
from .checker import required_k
from .harness import ConfigError, ExperimentConfig, canonical_json, flat_csv, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3

SEED_ENV_VAR = "QMEMCHECK_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap those to the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^64)")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _resolve_seed(flag_value: int | None) -> int | None:
    """Seed precedence: flag, then environment, then None (caller's default)."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(SEED_ENV_VAR, f"expected an integer, got {raw!r}") from None
    if not 0 <= value < 2**64:
        raise ConfigError(SEED_ENV_VAR, f"expected a value in [0, 2^64), got {value}")
    return value


def _emit(payload: dict, fmt: str, out_dir: str | None, stem: str) -> int:
    sys.stdout.write(canonical_json(payload) if fmt == "json" else flat_csv(payload))
    if out_dir is not None:
        try:
            target = Path(out_dir)
            target.mkdir(parents=True, exist_ok=True)
            (target / f"{stem}.json").write_text(canonical_json(payload))
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        data = Path(args.config).read_bytes()  # JSON is UTF-8, whatever the locale
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer over the digit limit
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        config = ExperimentConfig.from_dict(raw)
        given = {"seed": _resolve_seed(args.seed), "trials": args.trials}
        config = dataclasses.replace(config, **{key: value for key, value in given.items() if value is not None})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    result = run_experiment(config)
    if args.out is not None:
        try:
            result.write_outputs(args.out)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    sys.stdout.write(result.results_json() if args.format == "json" else result.render_csv())
    failed = [b["name"] for b in result.aggregates["bounds"] if not b["passed"]]
    if failed:
        print(f"bound check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        base_k = required_k(args.epsilon, args.delta)
        k = args.k if args.k is not None else base_k
        payload = {
            "epsilon": args.epsilon,
            "delta": args.delta,
            "required_k": base_k,
            "k": k,
            "p_single": p_single(args.delta),
            "all_accept_bound": lemma1_bound(args.delta, k),
            "detection_lower_bound": 1.0 - lemma1_bound(args.delta, k),
            "deltas": args.deltas,
            "p_multi": None if args.deltas is None else p_multi(args.deltas),
        }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return _emit(payload, args.format, args.out, "bounds")


def _cmd_verify_lemma2(args) -> int:
    try:
        report = verify_lemma2(grid=args.grid, t_max=args.t_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    rc = _emit(report.to_dict(), args.format, args.out, "lemma2")
    if rc != EXIT_OK:
        return rc
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_oracle_check(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        report = verify_swap_oracle(
            sizes=tuple(args.sizes),
            pairs_per_size=args.pairs,
            seed=0 if seed is None else seed,
            tolerance=args.tolerance,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    rc = _emit(report.to_dict(), args.format, args.out, "oracle")
    if rc != EXIT_OK:
        return rc
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (a build costs about a millisecond)."""
    parser = _Parser(prog="qmemcheck", description="Memory-checking protocol simulator and bound checker.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    sim.add_argument("--config", required=True, metavar="PATH", help="JSON experiment config")
    sim.add_argument("--seed", type=_seed_type, default=None, metavar="U64", help="master seed override")
    sim.add_argument("--trials", type=_positive_int, default=None, metavar="N", help="trial count override")
    sim.add_argument("--out", default=None, metavar="DIR", help="write results.json/results.csv/run_meta.json here")
    sim.add_argument("--format", choices=("json", "csv"), default="json", help="stdout format")
    sim.set_defaults(handler=_cmd_simulate)

    bounds = sub.add_parser("bounds", help="print closed-form rates for given parameters")
    bounds.add_argument("--epsilon", type=float, default=0.01, help="target error rate (default 0.01)")
    bounds.add_argument("--delta", type=float, default=0.5, help="code distance (default 0.5)")
    bounds.add_argument("--k", type=_positive_int, default=None, help="fingerprint count (default: required_k)")
    bounds.add_argument("--deltas", type=_float_list, default=None, metavar="D1,D2,...",
                        help="per-step flip fractions for the multi-step accept probability")
    bounds.add_argument("--out", default=None, metavar="DIR")
    bounds.add_argument("--format", choices=("json", "csv"), default="json")
    bounds.set_defaults(handler=_cmd_bounds)

    lem = sub.add_parser("verify-lemma2", help="exhaustive grid check of single-step dominance")
    lem.add_argument("--grid", type=_positive_int, default=20, help="grid resolution (default 20)")
    lem.add_argument("--t-max", type=_positive_int, default=4, dest="t_max", help="max step count (default 4)")
    lem.add_argument("--out", default=None, metavar="DIR")
    lem.add_argument("--format", choices=("json", "csv"), default="json")
    lem.set_defaults(handler=_cmd_verify_lemma2)

    orc = sub.add_parser("oracle-check", help="cross-validate the comparison test against a statevector circuit")
    orc.add_argument("--sizes", type=_int_list, default=[2, 4, 8, 16, 32], metavar="M1,M2,...",
                     help="codeword lengths to test (powers of two in [1, 64], default 2,4,8,16,32)")
    orc.add_argument("--pairs", type=_positive_int, default=200,
                     help="random pairs per size (default 200; at most 10^6 over all sizes)")
    orc.add_argument("--seed", type=_seed_type, default=None, metavar="U64")
    orc.add_argument("--tolerance", type=float, default=1e-10, help="max allowed deviation (default 1e-10)")
    orc.add_argument("--out", default=None, metavar="DIR")
    orc.add_argument("--format", choices=("json", "csv"), default="json")
    orc.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on usage errors and --help; surface the
        # code as a return value so callers can treat main() as a function
        return int(exc.code or 0)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
