"""Bidirectional next-location prediction over check-in trajectories.

Two recurrent predictors — next place for a user, next visitor for a place —
are each adjusted through a similarity matrix over their own kind (cross-user,
cross-place) and fused into a single candidate ranking.
"""

from .association import (adjust_poi_scores, adjust_user_scores, poi_similarity,
                          user_similarity)
from .autodiff import NumericsError, Tape, Tensor, gradient_check
from .data import (CheckIn, DataError, Dataset, SyntheticSpec, VisitEvent,
                   build_dataset, discretize_time, filter_inactive_users,
                   generate_synthetic, load_dataset, parse_checkin_file,
                   save_dataset)
from .evaluate import (EvalReport, FusionStrategy, acc_at_k, evaluate_variants,
                       evaluate_with_nets, fuse, motivation_stats, mrr, rank_top_k,
                       run_battery)
from .poi_net import PoiNet
from .user_net import UserNet, decay_weight, haversine_km

__version__ = "0.1.0"

__all__ = [
    "CheckIn", "DataError", "Dataset", "EvalReport", "FusionStrategy",
    "NumericsError", "PoiNet", "SyntheticSpec", "Tape", "Tensor", "UserNet",
    "VisitEvent", "acc_at_k", "adjust_poi_scores", "adjust_user_scores",
    "build_dataset", "decay_weight", "discretize_time", "evaluate_variants",
    "evaluate_with_nets",
    "filter_inactive_users", "fuse", "generate_synthetic", "gradient_check",
    "haversine_km", "load_dataset", "motivation_stats", "mrr",
    "parse_checkin_file", "poi_similarity", "rank_top_k", "run_battery",
    "save_dataset", "user_similarity",
]
