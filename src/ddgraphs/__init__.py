"""Distance-dependent random graphs: sequences, sampling, first-order model
checking, Ehrenfeucht games, and probability estimation."""

from .efgame import (
    GameBudgetError,
    fact4_search,
    partial_iso,
    pointed_equiv,
    th_k_equal,
    type_id,
)
from .estimator import (
    EstimateResult,
    LineageBudgetError,
    brute_force_probability,
    exact_path2,
    exact_probability,
    exact_triangle_circle,
    mc_probability,
    scan,
    wilson_ci,
)
from .graph import (
    Graph,
    Subgraph,
    complete_graph,
    count_triangles,
    disjoint_sum,
    edgeless_graph,
    is_exact_copy_at,
    is_flat,
    make_graph,
    max_disjoint_exact_copies,
    psi_r_holds,
)
from .logic import (
    CheckerBudgetError,
    Formula,
    LabeledModel,
    Vocab,
    holds,
    library,
    parse,
    to_text,
)
from .probseq import (
    ProbSeq,
    condition_statistic,
    log_partial_product,
    make_constant,
    make_diluted,
    make_example2,
    make_ones_powers,
    make_random_binary,
    make_support,
    make_thm1,
    make_thm2,
    make_thm3,
    make_thm6,
    support_upto,
)
from .rng import RngStream
from .sampler import CIRCLE, LINE, is_admissible, markov_step, sample_line

__version__ = "0.1.0"
