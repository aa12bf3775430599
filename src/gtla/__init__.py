"""Long-tail temporal action segmentation with group-wise temporal logit adjustment.

The package covers the full pipeline: synthetic long-tailed corpora and
Breakfast-format I/O (:mod:`gtla.data`), group construction by activity or
clustering (:mod:`gtla.grouping`), class and ordering priors
(:mod:`gtla.priors`), a small dilated temporal convolution backbone with
exact gradients (:mod:`gtla.model`), adjusted training losses
(:mod:`gtla.losses`, :mod:`gtla.training`), group-aware decoding
(:mod:`gtla.inference`), and the balanced metric suite (:mod:`gtla.metrics`).
"""

from .data import (
    ClassVocab,
    Corpus,
    FeatureMatrix,
    FrameSeq,
    Segment,
    SynthConfig,
    load_corpus,
    longtail_benchmark_config,
    segments_from_frames,
    synth_generate,
    write_corpus,
)
from .grouping import (
    ByActivity,
    ByClustering,
    GroupSpec,
    action_frequency,
    build_group_spec,
    hierarchical_cluster,
    relabel_for_group,
    symmetric_kl,
)
from .inference import Prediction, predict_corpus
from .losses import TrainConfig, ce_loss, gtla_adjust, gtla_loss, la_loss, smoothing_loss, total_loss
from .metrics import (
    HeadTailSplit,
    MetricsReport,
    compute_report,
    edit_score,
    fp_taxonomy,
    group_id_accuracy,
    head_tail_split,
)
from .model import AdamState, BackboneConfig, ModelParams, adam_step, backward, forward, init_params
from .priors import GroupPrior, TemporalPrior, class_prior, extract_priors, extract_temporal_sets
from .training import TrainState, train_model

__version__ = "0.1.0"
