"""Structured pruning of small CNNs by incremental per-group regularization.

Weight groups (filter rows, kernel columns, or channel column blocks of the
lowered conv matrices) receive individually scheduled quadratic penalties
driven by their L1-importance rank. Groups whose penalty drives them to zero
are pruned permanently, the survivors are compacted into smaller dense
matrices, and the resulting speedup is measured, not estimated.

The names below are the pipeline the ``increg`` commands run (see README's
"Library use") and the errors those commands map to exit codes 2, 3 and 4.
"""

from .checkpoint import CheckpointError
from .compact import PlanError, build_plan, count_gflops
from .config import ConfigError, parse_config
from .data import DatasetError, load_dataset
from .network import TrainingDiverged, build_network, evaluate, train_network
from .report import ReportError
from .scheduler import PruneDidNotConverge, ScheduleError, retrain_network, run_pruning
from .tensor import GeometryError, ShapeError

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DatasetError",
    "GeometryError",
    "PlanError",
    "PruneDidNotConverge",
    "ReportError",
    "ScheduleError",
    "ShapeError",
    "TrainingDiverged",
    "build_network",
    "build_plan",
    "count_gflops",
    "evaluate",
    "load_dataset",
    "parse_config",
    "retrain_network",
    "run_pruning",
    "train_network",
]
