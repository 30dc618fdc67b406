"""Command-line entry points.

Subcommands:
  simulate      run a Monte Carlo experiment from a JSON config file
  bounds        print the closed-form rates (required k, detection bounds)
  verify-lemma2 exhaustive grid check of single-step dominance
  oracle-check  statevector cross-validation of the comparison test

Each subcommand builds one document and hands it to _finish, which writes
the --out files first, then prints the document in --format, then names the
failed checks on one stderr line.

Exit codes: 0 success; 1 validation error (bad flags or config); 2 a
self-check failed (a verify/oracle report or an attached bound check did not
pass); 3 I/O error, with nothing on stdout. The master seed is the --seed
flag, else the config's seed (oracle-check: else 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import p_multi, p_single, lemma1_bound, required_k, verify_lemma2, verify_swap_oracle
from .code import HadamardCode
from .harness import ExperimentConfig, canonical_json, flat_csv, output_dir, run_experiment, write_document

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3


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


def _comma_list(kind: type, text: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__} values, got {text!r}") from None


@dataclasses.dataclass(frozen=True)
class _Report:
    """A report document, rendered like an ExperimentResult and written as <stem>.json."""

    stem: str
    payload: dict

    def results_json(self) -> str:
        return canonical_json(self.payload)

    def render_csv(self) -> str:
        return flat_csv(self.payload)

    def write_outputs(self, out_dir) -> None:
        write_document(output_dir(out_dir) / f"{self.stem}.json", self.results_json())


def _finish(args, document, failed: list[str]) -> int:
    """Write --out, then print the document in --format, then name the failed checks."""
    if args.out is not None:
        try:
            document.write_outputs(args.out)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    sys.stdout.write(document.results_json() if args.format == "json" else document.render_csv())
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _invalid(exc: object) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """An object of a config file as a dict. A key given twice raises ValueError
    naming it, where json.loads would keep its last value silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # obj holds each key at its first place, so the first pair out of step repeats one
        raise ValueError(f"key {next(k for (k, _), first in zip(pairs, [*obj, None]) if k != first)!r} is repeated")
    return obj


def _cmd_simulate(args) -> int:
    try:
        data = Path(args.config).read_bytes()  # JSON is UTF-8, whatever the locale
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        raw = json.loads(data, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer over the digit limit
        return _invalid(f"config is not valid JSON: {exc}")
    given = {key: value for key, value in (("seed", args.seed), ("trials", args.trials)) if value is not None}
    try:
        # a flag replaces the file's value before the config is built, so that value is never validated
        config = ExperimentConfig.from_dict({**raw, **given} if isinstance(raw, dict) else raw)
    except ValueError as exc:
        return _invalid(exc)
    result = run_experiment(config)
    return _finish(args, result, [b["name"] for b in result.aggregates["bounds"] if not b["passed"]])


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
        return _invalid(exc)
    return _finish(args, _Report("bounds", payload), [])


def _check(args, stem: str, run) -> int:
    """Run one exhaustive check, run(), and finish with its report written as <stem>.json."""
    try:
        report = run()
    except ValueError as exc:
        return _invalid(exc)
    return _finish(args, _Report(stem, report.to_dict()), [] if report.passed else [report.name])


def _cmd_verify_lemma2(args) -> int:
    return _check(args, "lemma2", lambda: verify_lemma2(grid=args.grid, t_max=args.t_max))


def _cmd_oracle_check(args) -> int:
    return _check(args, "oracle", lambda: verify_swap_oracle(
        sizes=tuple(args.sizes), pairs_per_size=args.pairs, seed=args.seed, tolerance=args.tolerance
    ))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (a build costs about a millisecond)."""
    parser = _Parser(prog="qmemcheck", description="Memory-checking protocol simulator and bound checker.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    sim.add_argument("--config", required=True, metavar="PATH", help="JSON experiment config")
    sim.add_argument("--seed", type=_seed_type, default=None, metavar="U64", help="master seed override")
    sim.add_argument("--trials", type=_positive_int, default=None, metavar="N", help="trial count override")
    sim.set_defaults(handler=_cmd_simulate)

    bounds = sub.add_parser("bounds", help="print closed-form rates for given parameters")
    bounds.add_argument("--epsilon", type=float, default=0.01, help="target error rate (default 0.01)")
    bounds.add_argument("--delta", type=float, default=HadamardCode(1).params.delta,
                        help="code distance (default %(default)s, the Hadamard code's)")
    bounds.add_argument("--k", type=_positive_int, default=None, help="fingerprint count (default: required_k)")
    bounds.add_argument("--deltas", type=functools.partial(_comma_list, float), default=None, metavar="D1,D2,...",
                        help="per-step flip fractions for the multi-step accept probability")
    bounds.set_defaults(handler=_cmd_bounds)

    lem = sub.add_parser("verify-lemma2", help="exhaustive grid check of single-step dominance")
    lem.add_argument("--grid", type=_positive_int, default=20, help="grid resolution (default 20)")
    lem.add_argument("--t-max", type=_positive_int, default=4, dest="t_max", help="max step count (default 4)")
    lem.set_defaults(handler=_cmd_verify_lemma2)

    orc = sub.add_parser("oracle-check", help="cross-validate the comparison test against a statevector circuit")
    orc.add_argument("--sizes", type=functools.partial(_comma_list, int), default=[2, 4, 8, 16, 32],
                     metavar="M1,M2,...", help="codeword lengths to test (powers of two in [1, 64], default 2,4,8,16,32)")
    orc.add_argument("--pairs", type=_positive_int, default=200,
                     help="random pairs per size (default 200; at most 10^6 over all sizes)")
    orc.add_argument("--seed", type=_seed_type, default=0, metavar="U64", help="draw seed (default 0)")
    orc.add_argument("--tolerance", type=float, default=1e-10, help="max allowed deviation (default 1e-10)")
    orc.set_defaults(handler=_cmd_oracle_check)

    for command in sub.choices.values():
        command.add_argument("--out", default=None, metavar="DIR", help="write this command's files here, before stdout")
        command.add_argument("--format", choices=("json", "csv"), default="json", help="stdout format")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on usage errors and --help; surface the
        # code as a return value so callers can treat main() as a function
        return int(exc.code or 0)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
