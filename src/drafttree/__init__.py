"""Budgeted draft-tree speculative decoding simulator.

Builds optimal draft trees from one-pass per-position token marginals,
verifies them with an ancestor-only tree walk carrying a bonus token, and
runs desk-scale decoding episodes over exact synthetic targets.
"""

__version__ = "0.1.0"

from .distributions import (
    MarginalBlock,
    log_prefix_mass,
    prefix_mass,
    sample_continuations,
    validate_block,
)
from .treebuild import (
    DraftTree,
    TreeNode,
    build_tree,
    chain_tree,
    node_prefixes,
    top_k_per_depth,
    tree_from_prefixes,
)
from .oracle import (
    ExhaustiveTable,
    enumerate_prefixes,
    expected_acceptance_exact,
    optimal_tree_exhaustive,
    random_valid_tree,
)
from .verify import (
    FlattenedTree,
    RoundOutcome,
    compaction_plan,
    duplicate_child_guard,
    flatten,
    verifier_walk,
)
from .models import (
    DrafterConfig,
    NgramModel,
    deterministic_model,
    drafter_marginals,
    exact_marginals,
    random_model,
    target_next,
)
from .engine import (
    CostModel,
    EpisodeConfig,
    EpisodeResult,
    EpisodeStats,
    budget_sweep,
    estimate_speedup,
    run_episode,
    run_episodes,
)

__all__ = [
    "__version__",
    "MarginalBlock",
    "validate_block",
    "prefix_mass",
    "log_prefix_mass",
    "sample_continuations",
    "DraftTree",
    "TreeNode",
    "top_k_per_depth",
    "build_tree",
    "chain_tree",
    "node_prefixes",
    "tree_from_prefixes",
    "ExhaustiveTable",
    "enumerate_prefixes",
    "optimal_tree_exhaustive",
    "expected_acceptance_exact",
    "random_valid_tree",
    "FlattenedTree",
    "RoundOutcome",
    "flatten",
    "verifier_walk",
    "compaction_plan",
    "duplicate_child_guard",
    "NgramModel",
    "DrafterConfig",
    "random_model",
    "deterministic_model",
    "target_next",
    "exact_marginals",
    "drafter_marginals",
    "CostModel",
    "EpisodeConfig",
    "EpisodeStats",
    "EpisodeResult",
    "estimate_speedup",
    "run_episode",
    "run_episodes",
    "budget_sweep",
]
