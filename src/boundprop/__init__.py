"""Anytime interval bounds on belief-network marginals.

Propagates interval-valued messages over an incrementally growing
active subset of a network, so every iteration yields bounds that are
guaranteed to contain the exact posterior marginal of the query node,
and the bounds tighten as more of the network is brought in.
"""

from .intervals import (
    COHERENCE_TOL,
    CoherenceError,
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    iv_mul,
    normalize,
    simplex_dot,
    vacuous,
)
from .network import (
    BeliefNetwork,
    Evidence,
    LoopCluster,
    NetworkFormatError,
    Node,
    d_separated,
    find_loop_clusters,
    is_polytree,
    parse_network,
    relevant_set,
    serialize_network,
)
from .engine import (
    ActiveSet,
    DelayedLoops,
    QueryResult,
    StopCriterion,
    answer_query,
    bel_hat,
    lambda_hat,
    lambda_msg,
    pi_hat,
    pi_msg,
)
from .loops import (
    CutsetOverflowError,
    propagate,
    select_loop_cutset,
)
from .oracle import enumerate_marginal, polytree_exact

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "BeliefNetwork",
    "COHERENCE_TOL",
    "CoherenceError",
    "ConflictingEvidenceError",
    "CutsetOverflowError",
    "DelayedLoops",
    "Evidence",
    "Interval",
    "IntervalVector",
    "LoopCluster",
    "NetworkFormatError",
    "Node",
    "QueryResult",
    "StopCriterion",
    "answer_query",
    "bel_hat",
    "d_separated",
    "enumerate_marginal",
    "find_loop_clusters",
    "is_polytree",
    "iv_mul",
    "lambda_hat",
    "lambda_msg",
    "normalize",
    "parse_network",
    "pi_hat",
    "pi_msg",
    "polytree_exact",
    "propagate",
    "relevant_set",
    "select_loop_cutset",
    "serialize_network",
    "simplex_dot",
    "vacuous",
]
