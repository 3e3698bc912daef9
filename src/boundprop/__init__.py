"""Anytime interval bounds on belief-network marginals.

Propagates interval-valued messages over an incrementally growing
active subset of a network, so every iteration yields bounds that are
guaranteed to contain the exact posterior marginal of the query node,
and the bounds tighten as more of the network is brought in.
"""

from .intervals import (
    CoherenceError,
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    iv_mul,
    simplex_dot,
    vacuous,
)
from .network import (
    BeliefNetwork,
    LoopCluster,
    NetworkFormatError,
    Node,
    find_loop_clusters,
    is_polytree,
    parse_network,
    relevant_set,
    serialize_network,
)
from .engine import (
    ActiveSet,
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
    "CoherenceError",
    "ConflictingEvidenceError",
    "CutsetOverflowError",
    "Interval",
    "IntervalVector",
    "LoopCluster",
    "NetworkFormatError",
    "Node",
    "QueryResult",
    "StopCriterion",
    "answer_query",
    "bel_hat",
    "enumerate_marginal",
    "find_loop_clusters",
    "is_polytree",
    "iv_mul",
    "lambda_hat",
    "lambda_msg",
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
