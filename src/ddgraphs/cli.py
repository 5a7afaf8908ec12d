"""Command-line front end.

Subcommands: sample, eval, estimate, scan, oracle, efgame, preset, run.
Global flags: --seed, --jobs, --out, --format.  Exit status: 0 on success,
2 when a preset's in-file acceptance threshold fails, 1 on operational
errors, budget errors among them.  All randomness flows from --seed through
derived per-(n, trial) streams, so outputs are byte-identical across reruns
and --jobs settings.  Every row estimate, scan, run and the closed-form or
lineage oracles write is one ``_row``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import probseq
from .efgame import th_k_equal
from .estimator import (
    brute_force_probability,
    exact_probability,
    exact_result,
    exact_triangle_circle,
    mc_probability,
    results_to_csv,
)
from .graph import from_edgelist_text, to_edgelist_text
from .logic import LabeledModel, Vocab, library
from .presets import (
    FAST_TRIALS,
    NAMED_SEQUENCES,
    PRESETS,
    has_triangle_predicate,
    kcopies_predicate,
    psi_r_predicate,
    run_preset,
)
from .rng import RngStream
from .sampler import CIRCLE, LINE, BudgetError, sample


class CliError(Exception):
    pass


def resolve_sequence(text: str) -> probseq.ProbSeq:
    """A sequence argument is a JSON document, @file of JSON, or a bundled
    sequence name."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    stripped = text.strip()
    if stripped.startswith("{"):
        return probseq.from_json(stripped)
    if stripped in NAMED_SEQUENCES:
        return NAMED_SEQUENCES[stripped]()
    raise CliError(
        f"unknown sequence {text!r}; expected JSON, @file, or one of "
        f"{', '.join(sorted(NAMED_SEQUENCES))}"
    )


_ARGUMENT_TARGETS = {  # name -> (maker, its integer arguments)
    "psi_r": (psi_r_predicate, ["<f_r>"]), "copies": (kcopies_predicate, ["<l>", "<min>"]),
    "extension_Ak": (lambda k: library("extension_Ak", k=k), ["<k>"])}


def resolve_target(text: str):
    """Target names: library sentences, or native predicates
    has_triangle / psi_r:<f_r> / copies:<l>:<min>, or extension_Ak:<k>."""
    if text == "has_triangle":
        return has_triangle_predicate()
    name, colon, args = text.partition(":")
    if colon and name in _ARGUMENT_TARGETS:
        make, spelling = _ARGUMENT_TARGETS[name]
        values = args.split(":")
        if len(values) != len(spelling) or not all(a.removeprefix("-").isdecimal() for a in values):
            raise CliError(f"target {text!r} is not {':'.join([name, *spelling])} with integers")
        return make(*map(int, values))
    try:
        return library(text)
    except Exception:
        raise CliError(f"unknown target {text!r}") from None


def _model_kind(text: str) -> str:
    kind = text.upper()
    if kind not in (LINE, CIRCLE):
        raise CliError(f"model kind must be line or circle, got {text!r}")
    return kind


def _write(out: Path | None, name: str, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


def _results_payload(results, fmt: str) -> str:
    if fmt == "csv":
        return results_to_csv(results)
    return json.dumps([r.__dict__ for r in results], indent=2, sort_keys=True) + "\n"


def _row(payload):
    """One row from (sequence JSON, target text, model kind, n, trials,
    seed): a Monte Carlo estimate, or with 0 trials the exact row
    ``{target}_exact``, the circle triangle by its closed form and any other
    target by ``exact_probability`` (an error for one with no lineage)."""
    seq_json, target, kind, n, trials, seed = payload
    with warnings.catch_warnings():  # the parent warned once when it resolved the sequence
        warnings.simplefilter("ignore", probseq.ScaleWarning)
        seq = probseq.from_json(seq_json)
    if trials != 0:
        return mc_probability(seq, n, resolve_target(target), kind, trials, seed)
    name = "triangle" if target == "has_triangle" else target
    if name == "triangle" and kind == CIRCLE:
        value = exact_triangle_circle(seq, n)
    else:
        value = exact_probability(seq, n, resolve_target(target), kind)
    return exact_result(value, n, f"{name}_exact", kind, seed)


def _write_rows(args, target: str, kind: str, ns: list[int], trials: int) -> int:
    """``_row`` of ``target`` on ``args.seq`` at each n, written to
    ``{args.command}.csv``; --jobs above 1 maps the rows over a process pool."""
    seq_json = resolve_sequence(args.seq).to_json()
    payloads = [(seq_json, target, kind, n, trials, args.seed) for n in ns]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_row, payloads))
    else:
        results = list(map(_row, payloads))
    _write(args.out, f"{args.command}.csv", _results_payload(results, args.format))
    return 0


# --- subcommands ------------------------------------------------------------------


def cmd_sample(args) -> int:
    seq = resolve_sequence(args.seq)
    g = sample(seq, args.n, RngStream(args.seed, args.stream), _model_kind(args.model))
    text = f"# master_seed {args.seed} stream {args.stream}\n" + to_edgelist_text(g)
    _write(args.out, f"sample_n{args.n}.txt", text)
    return 0


def cmd_eval(args) -> int:
    seq = resolve_sequence(args.seq)
    if args.stat:
        value = probseq.condition_statistic(seq, args.n, args.stat)
        sys.stdout.write(f"{args.stat}({args.n}) = {value!r}\n")
        return 0
    indices = [int(x) for x in args.i.split(",")] if args.i else []
    if indices:
        probs = [seq.eval(i) for i in indices]
    else:
        if args.n < 1:
            raise ValueError("n must be >= 1")
        indices, probs = (a.tolist() for a in probseq.support_table(seq, args.n))
    sys.stdout.write("i,p\n")
    for i, p in zip(indices, probs):
        sys.stdout.write(f"{i},{p:.12g}\n")
    return 0


def cmd_estimate(args) -> int:
    return _write_rows(args, args.target, _model_kind(args.model), [args.n], args.trials)


def cmd_scan(args) -> int:
    ns = [int(x) for x in args.n_list.split(",")]
    return _write_rows(args, args.target, _model_kind(args.model), ns, args.trials)


def cmd_oracle(args) -> int:
    if args.kind == "path2":
        return _write_rows(args, "path2", _model_kind(args.model), [args.n], 0)
    if args.kind == "triangle_circle":
        return _write_rows(args, "triangle", CIRCLE, [args.n], 0)
    seq, kind = resolve_sequence(args.seq), _model_kind(args.model)
    value = brute_force_probability(seq, args.n, resolve_target(args.target), kind)
    result = exact_result(value, args.n, f"brute_{args.target}", kind, args.seed)
    _write(args.out, "oracle.csv", _results_payload([result], args.format))
    return 0


def cmd_efgame(args) -> int:
    g1 = from_edgelist_text(Path(args.file1).read_text())
    g2 = from_edgelist_text(Path(args.file2).read_text())
    vocab = Vocab(args.vocab)
    equal = th_k_equal(LabeledModel(g1, vocab), LabeledModel(g2, vocab), args.k)
    sys.stdout.write("EQUAL\n" if equal else "NOT_EQUAL\n")
    return 0


def _preset_trials(name: str, args) -> int | None:
    """--trials if given, else the --fast count, else the preset's default."""
    if args.trials is None and args.fast:
        return FAST_TRIALS.get(name)
    return args.trials


def cmd_preset(args) -> int:
    if args.list:
        for name in sorted(PRESETS):
            sys.stdout.write(f"{name}: {PRESETS[name][1]}\n")
        return 0
    out = args.out or Path("out")
    if args.all:
        worst = 0
        for name in sorted(PRESETS):
            t0 = time.perf_counter()
            outcome = run_preset(name, seed=args.seed, trials=_preset_trials(name, args))
            outcome.write(out)
            status = "PASS" if outcome.passed else "FAIL"
            sys.stdout.write(f"{name:16s} {status}  ({time.perf_counter() - t0:5.1f}s)\n")
            worst = max(worst, 0 if outcome.passed else 2)
        return worst
    if not args.name:
        raise CliError("preset name required (or --list or --all)")
    outcome = run_preset(args.name, seed=args.seed, trials=_preset_trials(args.name, args))
    outcome.write(out)
    for check in outcome.checks:
        sys.stdout.write(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}\n")
    for note in outcome.notes:
        sys.stdout.write(f"note: {note}\n")
    sys.stdout.write(f"{outcome.name}: {'PASS' if outcome.passed else 'FAIL'}\n")
    return 0 if outcome.passed else 2


# config key -> the option it gives; ``preset = NAME`` picks ``preset NAME``
# over ``scan``, and --seed and --out go before the subcommand
_CONFIG_OPTIONS = {"master_seed": "--seed", "out": "--out", "sequence": "--seq",
                   "target": "--target", "model_kind": "--model", "n_list": "--n-list",
                   "trials": "--trials"}


def parse_config(path: Path) -> dict[str, str]:
    """Flat key = value lines; '#' comments; sequence JSON inline."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key != "preset" and key not in _CONFIG_OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def cmd_run(args) -> int:
    """A config as ``preset NAME`` or as a ``scan`` written to run.csv, under
    the global --jobs, --format and (unless it sets out) --out; seed 0 unless set."""
    path = Path(args.config)
    values = parse_config(path)
    if ("preset" in values) == ("sequence" in values):
        raise CliError("config needs exactly one of 'preset' or 'sequence'")
    if "sequence" in values and ("target" not in values or not values.get("n_list")):
        raise CliError("explicit config needs 'target' and 'n_list'")
    out = values.pop("out", args.out)
    argv = [f"--jobs={args.jobs}", f"--format={args.format}", f"--seed={values.pop('master_seed', 0)}"]
    argv += [] if out is None else [f"--out={out}"]
    argv += ["preset", values.pop("preset")] if "preset" in values else ["scan"]
    argv += [f"{_CONFIG_OPTIONS[key]}={value}" for key, value in values.items()]
    try:
        config = build_parser().parse_args(argv)
    except CliError as e:
        raise CliError(f"{path}: invalid config: {e}") from None
    config.command = args.command
    return config.fn(config)


# --- entry point ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ddgraphs", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for row commands")
    p.add_argument("--out", type=Path, default=None, help="output directory (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="draw one graph and print its edge list")
    s.add_argument("--seq", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--model", default="line")
    s.add_argument("--stream", type=int, default=0)
    s.set_defaults(fn=cmd_sample)

    s = sub.add_parser("eval", help="evaluate a sequence or its statistics")
    s.add_argument("--seq", required=True)
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--i", default=None, help="comma-separated indices (default: support up to n)")
    s.add_argument("--stat", choices=("C2", "C3_SUM", "C5"), default=None)
    s.set_defaults(fn=cmd_eval)

    for name, rows, grid, fn in (("estimate", "one row", ("--n", int), cmd_estimate),
                                 ("scan", "one row per n", ("--n-list", str), cmd_scan)):
        s = sub.add_parser(name, help=f"{rows}: Monte Carlo, or exact with --trials 0")
        s.add_argument("--seq", required=True)
        s.add_argument(grid[0], type=grid[1], required=True)
        s.add_argument("--target", required=True)
        s.add_argument("--model", default="line")
        s.add_argument("--trials", type=int, default=1000)
        s.set_defaults(fn=fn)

    s = sub.add_parser("oracle", help="exact probability: closed form, lineage or brute force")
    s.add_argument("--kind", choices=("path2", "triangle_circle", "brute"), required=True)
    s.add_argument("--seq", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--target", default="triangle", help="target for brute force")
    s.add_argument("--model", default="line")
    s.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("efgame", help="depth-k equivalence of two edge-list files")
    s.add_argument("file1")
    s.add_argument("file2")
    s.add_argument("--vocab", default="L", choices=[v.value for v in Vocab])
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(fn=cmd_efgame)

    s = sub.add_parser("preset", help="run a named experiment preset")
    s.add_argument("name", nargs="?")
    s.add_argument("--list", action="store_true")
    s.add_argument("--all", action="store_true", help="run every preset")
    s.add_argument("--fast", action="store_true", help="trimmed trial counts (FAST_TRIALS)")
    s.add_argument("--trials", type=int, default=None)
    s.set_defaults(fn=cmd_preset)

    s = sub.add_parser("run", help="run a key = value config file")
    s.add_argument("config")
    s.set_defaults(fn=cmd_run)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (CliError, BudgetError, ValueError, OSError) as e:
        # sequence/graph/logic/estimator/preset and JSON errors are ValueError subclasses
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
