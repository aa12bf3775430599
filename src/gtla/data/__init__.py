"""Corpus types, Breakfast-format I/O, and the synthetic corpus generator."""

from .io import (
    ClassVocab,
    Corpus,
    FeatureMatrix,
    FrameSeq,
    Segment,
    load_corpus,
    load_features,
    load_label_file,
    load_mapping,
    segment_labels,
    segments_from_frames,
    write_corpus,
    write_features,
    write_label_file,
    write_mapping,
)
from .synth import (
    ActivityGrammar,
    DurationModel,
    OptionalAction,
    SynthConfig,
    longtail_benchmark_config,
    synth_generate,
)
