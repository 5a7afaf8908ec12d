"""Command-line front end.

Subcommands: sample, eval, estimate, scan, efgame, preset, oracle.
Global flags: --seed, --jobs, --out, --format.  Exit status: 0 on success,
2 when a preset's in-file acceptance threshold fails, 1 on operational
errors.  All randomness flows from --seed through derived per-(n, trial)
streams, so outputs are byte-identical across reruns and --jobs settings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import estimator, probseq
from .efgame import GameBudgetError, th_k_equal_detailed
from .estimator import (
    LineageBudgetError,
    brute_force_probability,
    exact_probability,
    exact_result,
    exact_triangle_circle,
    mc_probability,
    results_to_csv,
)
from .graph import from_edgelist_text, to_edgelist_text
from .logic import CheckerBudgetError, LabeledModel, Vocab, library
from .presets import (
    FAST_TRIALS,
    NAMED_SEQUENCES,
    PRESETS,
    PresetError,
    has_triangle_predicate,
    kcopies_predicate,
    psi_r_predicate,
    run_preset,
)
from .rng import RngStream
from .sampler import CIRCLE, LINE, sample


class CliError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One config-driven run: either a preset name or an explicit setup."""

    preset: str | None = None
    sequence: dict | None = None
    target: str | None = None
    model_kind: str = LINE
    n_list: tuple[int, ...] = ()
    trials: int | None = None  # unset: the preset's default, or 1000 for an explicit setup
    master_seed: int = 0
    out: str | None = None

    def validate(self):
        if (self.preset is None) == (self.sequence is None):
            raise CliError("config needs exactly one of 'preset' or 'sequence'")
        if self.sequence is not None:
            if self.target is None or not self.n_list:
                raise CliError("explicit config needs 'target' and 'n_list'")


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


def resolve_target(text: str):
    """Target names: library sentences, or native predicates
    has_triangle / psi_r:<f_r> / copies:<l>:<min>."""
    if text == "has_triangle":
        return has_triangle_predicate()
    if text.startswith("psi_r:"):
        return psi_r_predicate(int(text.split(":")[1]))
    if text.startswith("copies:"):
        _, l, c = text.split(":")
        return kcopies_predicate(int(l), int(c))
    if text.startswith("extension_Ak:"):
        return library("extension_Ak", k=int(text.split(":")[1]))
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
    seq = resolve_sequence(args.seq)
    result = mc_probability(
        seq, args.n, resolve_target(args.target), _model_kind(args.model), args.trials, args.seed
    )
    _write(args.out, "estimate.csv", _results_payload([result], args.format))
    return 0


def _scan_one(payload):
    seq_json, target_text, kind, n, trials, seed = payload
    seq = probseq.from_json(seq_json)
    return mc_probability(seq, n, resolve_target(target_text), kind, trials, seed)


def cmd_scan(args) -> int:
    seq = resolve_sequence(args.seq)
    kind = _model_kind(args.model)
    ns = [int(x) for x in args.n_list.split(",")]
    if args.jobs > 1:
        payloads = [(seq.to_json(), args.target, kind, n, args.trials, args.seed) for n in ns]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_scan_one, payloads))
    else:
        results = estimator.scan(seq, resolve_target(args.target), kind, ns, args.trials, args.seed)
    _write(args.out, "scan.csv", _results_payload(results, args.format))
    return 0


def _exact_row(seq, n: int, target: str, model_kind: str, master_seed: int):
    """The exact row ``{target}_exact`` for ``target`` on ``model_kind``: the
    triangle on the circle by its closed form, any other target by
    ``exact_probability`` (an error for a target with no lineage)."""
    name = "triangle" if target == "has_triangle" else target
    if name == "triangle" and model_kind == CIRCLE:
        value = exact_triangle_circle(seq, n)
    else:
        value = exact_probability(seq, n, resolve_target(target), model_kind)
    return exact_result(value, n, f"{name}_exact", model_kind, master_seed)


def cmd_oracle(args) -> int:
    seq = resolve_sequence(args.seq)
    if args.kind == "path2":
        result = _exact_row(seq, args.n, "path2", _model_kind(args.model), args.seed)
    elif args.kind == "triangle_circle":
        result = _exact_row(seq, args.n, "triangle", CIRCLE, args.seed)
    else:
        kind = _model_kind(args.model)
        value = brute_force_probability(seq, args.n, resolve_target(args.target), kind)
        result = exact_result(value, args.n, f"brute_{args.target}", kind, args.seed)
    _write(args.out, "oracle.csv", _results_payload([result], args.format))
    return 0


def cmd_efgame(args) -> int:
    g1 = from_edgelist_text(Path(args.file1).read_text())
    g2 = from_edgelist_text(Path(args.file2).read_text())
    vocab = Vocab(args.vocab)
    try:
        equal, stats = th_k_equal_detailed(
            LabeledModel(g1, vocab), LabeledModel(g2, vocab), args.k, node_budget=args.budget
        )
    except GameBudgetError as e:
        raise CliError(str(e)) from None
    sys.stdout.write("EQUAL\n" if equal else "NOT_EQUAL\n")
    sys.stdout.write(
        f"positions {stats.positions} memo_hits {stats.memo_hits} memo_size {stats.memo_size}\n"
    )
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


def parse_config(path: Path) -> ExperimentConfig:
    """Flat key = value lines; '#' comments; sequence JSON inline."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    try:
        cfg = ExperimentConfig(
            preset=values.get("preset"),
            sequence=json.loads(values["sequence"]) if "sequence" in values else None,
            target=values.get("target"),
            model_kind=_model_kind(values.get("model_kind", "line")),
            n_list=tuple(int(x) for x in values.get("n_list", "").split(",") if x.strip()),
            trials=int(values["trials"]) if "trials" in values else None,
            master_seed=int(values.get("master_seed", "0")),
            out=values.get("out"),
        )
    except (ValueError, KeyError) as e:
        raise CliError(f"{path}: invalid config: {e}") from None
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = parse_config(Path(args.config))
    out = Path(cfg.out) if cfg.out else args.out
    if cfg.preset is not None:
        outcome = run_preset(cfg.preset, seed=cfg.master_seed, trials=cfg.trials or None)
        outcome.write(out or Path("out"))
        return 0 if outcome.passed else 2
    seq = probseq.from_json_dict(cfg.sequence)
    trials = 1000 if cfg.trials is None else cfg.trials
    if trials == 0:
        results = [
            _exact_row(seq, n, cfg.target, cfg.model_kind, cfg.master_seed)
            for n in cfg.n_list
        ]
    else:
        results = estimator.scan(
            seq, resolve_target(cfg.target), cfg.model_kind, list(cfg.n_list), trials, cfg.master_seed
        )
    _write(out, "run.csv", _results_payload(results, args.format))
    return 0


# --- entry point ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ddgraphs", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for scans")
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

    s = sub.add_parser("estimate", help="Monte Carlo estimate at one n")
    s.add_argument("--seq", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--model", default="line")
    s.add_argument("--trials", type=int, default=1000)
    s.set_defaults(fn=cmd_estimate)

    s = sub.add_parser("scan", help="Monte Carlo estimates over an n grid")
    s.add_argument("--seq", required=True)
    s.add_argument("--n-list", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--model", default="line")
    s.add_argument("--trials", type=int, default=1000)
    s.set_defaults(fn=cmd_scan)

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
    s.add_argument("--budget", type=int, default=10**9,
                   help="bound on the (n1 n2)^k position estimate of the count of the statistics")
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
    except (CliError, PresetError, CheckerBudgetError, LineageBudgetError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as e:
        # sequence/graph/logic/estimator errors are ValueError subclasses
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
