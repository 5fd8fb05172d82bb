"""Fill-reducing sparse matrix reordering toolkit.

Symbolic-factorization environment over elimination graphs, a learned
actor-critic ordering policy with multi-hop graph convolutions, classical
baseline orderings, Delaunay training-data generation, and a fill-in-ratio
benchmark harness.
"""

from .sparsity import (Ordering, OrderingError, PatternError, SparsityPattern,
                       load_matrix_market, load_ordering, nnz_sym,
                       write_matrix_market, write_ordering)
from .symbolic import (EliminationError, EliminationGraph, EliminationTrace,
                       count_fill, fill_path_oracle, symbolic_factorize)
from .features import NodeFeatures, compute_features, normalize_features
from .policy_net import (NetConfig, NetworkError, PolicyValueNet, TowerStack,
                         build_propagation, backward, evaluate, forward,
                         load_checkpoint, save_checkpoint)
from .trainer import (TrainerConfig, adaptive_saturation_return, losses,
                      raw_return, rollout, train)
from .orderings import min_degree_order, natural_order, random_order
from .datagen import (delaunay_triangles, generate_delaunay, generate_training_set,
                      load_training_set, write_training_set)
from .evaluation import (EvalReport, EvalRow, compute_ordering, fill_in_ratio,
                         gpo_order, run_benchmark)

__version__ = "0.1.0"

__all__ = [
    "Ordering", "OrderingError", "PatternError", "SparsityPattern",
    "load_matrix_market", "load_ordering", "nnz_sym", "write_matrix_market",
    "write_ordering",
    "EliminationError", "EliminationGraph", "EliminationTrace",
    "count_fill", "fill_path_oracle", "symbolic_factorize",
    "NodeFeatures", "compute_features", "normalize_features",
    "NetConfig", "NetworkError", "PolicyValueNet", "TowerStack", "build_propagation",
    "backward", "evaluate", "forward", "load_checkpoint", "save_checkpoint",
    "TrainerConfig", "adaptive_saturation_return", "losses", "raw_return",
    "rollout", "train",
    "min_degree_order", "natural_order", "random_order",
    "delaunay_triangles", "generate_delaunay",
    "generate_training_set", "load_training_set", "write_training_set",
    "EvalReport", "EvalRow", "compute_ordering", "fill_in_ratio", "gpo_order",
    "run_benchmark",
    "__version__",
]
