"""Group activity detection from bounding-box tracks.

Pipeline: pairwise activity correlation via asynchronous two-stream models,
seed-centered clustering into symmetric groups, group-representative
selection, and hierarchical detection of relations between groups, with
frame-level evaluation metrics and a synthetic scenario generator.
"""

from .clustering import (
    ClusterSeed,
    GroupAssignment,
    Partition,
    assign_remaining,
    detect_seeds,
    merge_seeds,
)
from .features import ObservationUnavailable
from .gmm import GaussianMixture, fit_em
from .grad import (
    FrameDetection,
    PairLabel,
    PipelineConfig,
    majority_vote_intergroup,
    read_detections,
    recognize_intergroup,
    recognize_symmetric,
    run_pipeline,
    write_detections,
)
from .grouprep import GroupRepresentative, p_gr, sv_gr, v_gr
from .metrics import EvalReport, partition_match, score, truth_frame
from .simgen import AgentSpec, EventSpec, ScenarioSpec, generate
from .seqmodel import (
    ActivityModel,
    ActivityModelBank,
    CorrelationEngine,
    DataError,
    TrainConfig,
    hmm_group_likelihood,
    train_activity_model,
    train_bank,
)
from .trackio import (
    AnnotationRecord,
    AnnotationSet,
    MbbSample,
    ModelFormatError,
    ParseError,
    TrackSet,
    load_model,
    parse_annotations,
    parse_tracks,
    save_model,
)

__version__ = "0.1.0"
