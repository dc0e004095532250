"""tilecast: scalable tile codestream + bandwidth-budgeted hybrid annotation.

A resolution-scalable tile codec (reversible 5/3 wavelet pyramid with a
byte-separable container), a constant-rate channel model, detector and
human-annotator simulations, and the baseline / streamlined annotation
pipelines with their comparison metrics.
"""

from .annotate import (
    AnnotationSet,
    DetectionBox,
    DetectorModel,
    FileDetector,
    OracleDetector,
    file_detect,
    human_annotate,
    oracle_detect,
    save_detections,
)
from .channel import ChannelSpec, TransferRecord, bandwidth_budget, transmit
from .codestream import (
    Codestream,
    CodestreamError,
    CodestreamTable,
    decode,
    encode,
    extract,
    measure,
    parse_codestream,
    size_of,
    write_codestream,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .metrics import (
    ComparisonRow,
    TimelineEvent,
    TimelineReport,
    human_time,
    iou,
    recall,
    recall_difference,
    response_ratio,
)
from .pipeline import (
    BudgetPlan,
    RunResult,
    compute_budget,
    plan_budget,
    run_baseline,
    run_streamlined,
    select_tiles_for_human,
)
from .raster import (
    GroundTruthBox,
    Image,
    ImageIOError,
    TileGrid,
    generate_scene,
    load_ground_truth,
    load_image,
    save_ground_truth,
    save_image,
    tile_bounds,
)
from .scenario import GridCell, GridReport, run_grid
from .wavelet import CoefficientPyramid, forward_53, inverse_53, reconstruct_at

__version__ = "0.1.0"

__all__ = [
    "AnnotationSet", "DetectionBox", "DetectorModel", "FileDetector",
    "OracleDetector", "file_detect", "human_annotate", "oracle_detect",
    "save_detections",
    "ChannelSpec", "TransferRecord", "bandwidth_budget", "transmit",
    "Codestream", "CodestreamError", "CodestreamTable", "decode", "encode",
    "extract", "measure", "parse_codestream", "size_of", "write_codestream",
    "ConfigError", "ScenarioConfig", "parse_config",
    "ComparisonRow", "TimelineEvent", "TimelineReport", "human_time",
    "iou", "recall", "recall_difference", "response_ratio",
    "BudgetPlan", "RunResult", "compute_budget", "plan_budget",
    "run_baseline", "run_streamlined", "select_tiles_for_human",
    "GroundTruthBox", "Image", "ImageIOError", "TileGrid",
    "generate_scene", "load_ground_truth", "load_image",
    "save_ground_truth", "save_image", "tile_bounds",
    "GridCell", "GridReport", "run_grid",
    "CoefficientPyramid", "forward_53", "inverse_53", "reconstruct_at",
]
