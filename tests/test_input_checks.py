"""Each argument check refuses its bad input with its own error type."""

from pathlib import Path

import numpy as np
import pytest

from ddgraphs import cli, efgame
from ddgraphs.cli import CliError
from ddgraphs.estimator import EstimatorError, exact_probability, wilson_ci
from ddgraphs.graph import (GraphError, Subgraph, complete_graph, copy_counts, edgeless_graph,
                            is_flat, make_graph)
from ddgraphs.logic import LabeledModel, Vocab, library
from ddgraphs.presets import kcopies_predicate, psi_r_predicate
from ddgraphs.probseq import (Band, IndexBudgetError, ProbSeq, SequenceError,
                              condition_statistic, log_partial_product, make_constant,
                              make_diluted, make_example2, make_support, make_thm1, make_thm2,
                              make_thm3, make_thm6, support_upto)
from ddgraphs.sampler import LINE, PairBatch, sample_batch

HALF = make_constant(0.5)
# native targets with too few, too many or non-integer arguments
MALFORMED_TARGETS = ["copies:2", "copies:2:1:5", "psi_r:", "extension_Ak:x"]
SEQ = '{"kind":"constant","params":{"p":0.5}}'


def command(*argv):
    """Run a subcommand without ``main``'s error handling."""
    args = cli.build_parser().parse_args(list(argv))
    return args.fn(args)


def config(text: str) -> str:
    """A config file holding ``text``, written to the working directory."""
    Path("exp.cfg").write_text(text)
    return "exp.cfg"


CHECKS = {
    "config without target": (
        lambda: command("run", config(f"sequence = {SEQ}\nn_list = 4\n")), CliError),
    "unknown target": (
        lambda: command("estimate", "--seq", SEQ, "--n", "4", "--target", "nonesuch"), CliError),
    **{f"target {target}": (lambda target=target: cli.resolve_target(target), CliError)
       for target in MALFORMED_TARGETS},
    "unknown model": (
        lambda: command("sample", "--seq", SEQ, "--n", "4", "--model", "torus"), CliError),
    "preset without name": (lambda: command("preset"), CliError),
    "unparsable config value": (lambda: command("run", config("preset = fig\ntrials = x\n")),
                                CliError),
    "picks of unequal length": (
        lambda: efgame.partial_iso(*[LabeledModel(edgeless_graph(2), Vocab.L)] * 2, (1,), ()),
        ValueError),
    "unknown fact4 mode": (
        lambda: efgame.fact4_search([edgeless_graph(1)], [], 1, mode="PRODUCT"), ValueError),
    "successes above trials": (lambda: wilson_ci(11, 10), EstimatorError),
    "exact probability on no vertex": (
        lambda: exact_probability(HALF, 0, library("path2"), LINE), EstimatorError),
    "make_graph on no vertex": (lambda: make_graph(0, []), GraphError),
    "complete graph on no vertex": (lambda: complete_graph(0), GraphError),
    "edgeless graph on no vertex": (lambda: edgeless_graph(0), GraphError),
    "window past n": (lambda: copy_counts(np.ones((1, 0), bool), [], [], 3, 1, 2, 4), GraphError),
    "copies of K_0": (lambda: kcopies_predicate(0, 1), GraphError),
    "psi_r with f_r < 1": (lambda: psi_r_predicate(0), GraphError),
    "repeated position": (lambda: Subgraph(6, (1, 1)), GraphError),
    "position past host": (lambda: Subgraph(6, (1, 7)), GraphError),
    "edge out of order": (lambda: Subgraph(6, (1, 2), frozenset({(2, 1)})), GraphError),
    "unknown flatness variant": (lambda: is_flat(HALF, 6, Subgraph(6, (1, 2)), "LC_MINUS"),
                                 GraphError),
    "rule value above 1": (
        lambda: ProbSeq(bands=(Band(1, 3, lambda i: 1.5),)).eval(2), SequenceError),
    "support index 0": (lambda: make_support({0: 0.5}), SequenceError),
    "support value above 1": (lambda: make_support({1: 1.5}), SequenceError),
    "thm1 with k = 0": (lambda: make_thm1(0, [8]), SequenceError),
    "thm1 with no b": (lambda: make_thm1(1, []), SequenceError),
    "thm2 with no f": (lambda: make_thm2([]), SequenceError),
    # f(2) = ceil(3 / a(3)) = 3e30 while its log bound, ln 8 - ln(1/2), passes
    "thm3 eq5 term past 2^63": (lambda: make_thm3([0.5, 0.5, 1e-30], "eq5"), IndexBudgetError),
    "thm3 unknown f mode": (lambda: make_thm3([0.5], "eq6"), SequenceError),
    "thm3 f out of order": (lambda: make_thm3([0.5, 0.5], [3, 2]), SequenceError),
    "thm3 f past 2^63": (lambda: make_thm3([0.5], [2**63]), IndexBudgetError),
    "thm3 f index 0": (lambda: make_thm3([0.5, 0.25], [0, 5]), SequenceError),
    "example2 f index below 1": (lambda: make_example2([2, 4], [-3, 0, 7]), SequenceError),
    "thm6 a outside (0, 1)": (lambda: make_thm6([1.0]), SequenceError),
    "diluted lengths differ": (lambda: make_diluted([0.5], [1, 2]), SequenceError),
    "diluted a above 1": (lambda: make_diluted([1.5], [0]), SequenceError),
    "diluted position past 2^63": (lambda: make_diluted([0.5], [2**63]), IndexBudgetError),
    "support_upto n = 0": (lambda: support_upto(HALF, 0), ValueError),
    "log partial product n = 0": (lambda: log_partial_product(HALF, 0), ValueError),
    "C3_SUM n = 0": (lambda: condition_statistic(HALF, 0, "C3_SUM"), ValueError),
    "unknown model kind": (lambda: PairBatch(HALF, 4, "TORUS"), ValueError),
    "sample_batch n = 0": (lambda: sample_batch(HALF, 0, 0, [0]), ValueError),
}


@pytest.mark.parametrize("call,error", CHECKS.values(), ids=CHECKS.keys())
def test_bad_input_refused(call, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("target", MALFORMED_TARGETS)
def test_malformed_target_is_named(target):
    with pytest.raises(CliError, match=f"'{target}'"):
        cli.resolve_target(target)
