"""Deterministic generator for synthetic long-tailed procedural corpora.

Each activity is a small grammar: an ordered list of mandatory actions plus
optional actions that may be inserted at declared gaps. Frame counts become
long-tailed through a mix of rare (optional) actions and short durations.
Features are per-class mean vectors plus Gaussian noise, smoothed along time
so that neighbouring frames are correlated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .io import ClassVocab, Corpus, FeatureMatrix, FrameSeq


@dataclass(frozen=True)
class OptionalAction:
    """An action included with probability ``prob`` at one of the given gaps.

    Gap ``i`` sits before the i-th mandatory action; the gap after the last
    mandatory action has index ``len(mandatory)``.
    """

    name: str
    prob: float
    gaps: tuple[int, ...]


@dataclass(frozen=True)
class ActivityGrammar:
    mandatory: tuple[str, ...]
    optionals: tuple[OptionalAction, ...] = ()


@dataclass(frozen=True)
class DurationModel:
    """Log-normal segment duration: round(median * exp(sigma * z)) frames."""

    median: float
    sigma: float = 0.0


@dataclass(frozen=True)
class SynthConfig:
    activities: dict[str, ActivityGrammar]
    durations: dict[str, DurationModel]
    feature_dim: int = 8
    mean_scale: float = 1.0
    noise_sigma: float = 1.0
    # Families of classes from different activities whose mean vectors are
    # drawn around a shared base (similar-looking actions); spread scales
    # the per-member offset relative to mean_scale.
    similar_classes: tuple[tuple[str, ...], ...] = ()
    similar_spread: float = 0.3
    train_per_activity: int = 20
    test_per_activity: int = 10
    seed: int = 0

    def class_names(self) -> tuple[str, ...]:
        """All class names, in first-occurrence order across the grammars."""
        names: list[str] = []
        for grammar in self.activities.values():
            for name in grammar.mandatory:
                if name not in names:
                    names.append(name)
            for opt in grammar.optionals:
                if opt.name not in names:
                    names.append(opt.name)
        return tuple(names)

    def __post_init__(self):
        if not self.activities:
            raise ConfigError("no activities configured")
        for name, low in (("feature_dim", 1), ("train_per_activity", 1),
                          ("test_per_activity", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name!r} must be >= {low}, got {getattr(self, name)!r}")
        for activity, grammar in self.activities.items():
            if not grammar.mandatory:
                raise ConfigError(f"activity {activity!r} has no mandatory actions")
            mandatory = set(grammar.mandatory)
            for opt in grammar.optionals:
                if not 0.0 < opt.prob < 1.0:
                    raise ConfigError(f"optional {opt.name!r}: probability must be in (0,1)")
                if not opt.gaps:
                    raise ConfigError(f"optional {opt.name!r}: no insertion gaps declared")
                if any(g < 0 or g > len(grammar.mandatory) for g in opt.gaps):
                    raise ConfigError(f"optional {opt.name!r}: gap outside the grammar")
                if opt.name in mandatory:
                    # An action both mandatory and optional has no single
                    # position in the partial order.
                    raise ConfigError(f"action {opt.name!r} is both mandatory and "
                                      f"optional in {activity!r}: contradictory order")
        for name in self.class_names():
            if name not in self.durations:
                raise ConfigError(f"no duration model for class {name!r}")
            duration = self.durations[name]
            if not 1 <= duration.median < np.inf:  # NaN fails too
                raise ConfigError(f"class {name!r}: 'median' must be finite and >= 1 frame")
            if not np.isfinite(duration.sigma):
                raise ConfigError(f"class {name!r}: 'sigma' must be finite")
        known = set(self.class_names())
        for family in self.similar_classes:
            for name in family:
                if name not in known:
                    raise ConfigError(f"similar_classes names unknown class {name!r}")


def _sample_order(grammar: ActivityGrammar, rng: np.random.Generator) -> list[str]:
    inserts: dict[int, list[str]] = {}
    for opt in grammar.optionals:
        if rng.random() < opt.prob:
            gap = int(opt.gaps[rng.integers(len(opt.gaps))]) if len(opt.gaps) > 1 \
                else opt.gaps[0]
            inserts.setdefault(gap, []).append(opt.name)
    order: list[str] = []
    for i, action in enumerate(grammar.mandatory):
        order.extend(inserts.get(i, ()))
        order.append(action)
    order.extend(inserts.get(len(grammar.mandatory), ()))
    return order


def _sample_duration(model: DurationModel, rng: np.random.Generator) -> int:
    frames = model.median * np.exp(model.sigma * rng.standard_normal())
    return max(1, int(round(frames)))


def _smooth(values: np.ndarray) -> np.ndarray:
    """Width-3 moving average along time, window clipped at the edges."""
    if values.shape[1] < 3:
        return values.copy()
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, :-2] + values[:, 1:-1] + values[:, 2:]) / 3.0
    out[:, 0] = (values[:, 0] + values[:, 1]) / 2.0
    out[:, -1] = (values[:, -2] + values[:, -1]) / 2.0
    return out


def _generate_split(cfg: SynthConfig, vocab: ClassVocab, means: np.ndarray,
                    per_activity: int, rng: np.random.Generator,
                    id_prefix: str) -> Corpus:
    sequences, features = [], []
    for activity, grammar in cfg.activities.items():
        for i in range(per_activity):
            order = _sample_order(grammar, rng)
            durations = [_sample_duration(cfg.durations[a], rng) for a in order]
            labels = np.concatenate([
                np.full(d, vocab.id_of(a), dtype=np.int64)
                for a, d in zip(order, durations)
            ])
            noise = cfg.noise_sigma * rng.standard_normal((cfg.feature_dim, labels.size))
            raw = means[:, labels] + noise
            seq_id = f"{id_prefix}_{activity}_{i:03d}"
            sequences.append(FrameSeq(labels, activity=activity, id=seq_id))
            features.append(FeatureMatrix(_smooth(raw)))
    return Corpus(vocab, sequences, features)


def synth_generate(cfg: SynthConfig) -> tuple[Corpus, Corpus]:
    """Generate (train, test) corpora of float32 features, bitwise reproducible from cfg.seed.

    Class mean vectors are shared between the splits; sequence sampling uses
    disjoint seed streams so the splits contain different sequences drawn
    from the same class-conditional feature distribution.
    """
    vocab = ClassVocab(cfg.class_names())
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    mean_rng = np.random.default_rng(seeds[0])
    means = cfg.mean_scale * mean_rng.standard_normal((cfg.feature_dim, len(vocab)))
    for family in cfg.similar_classes:
        base = cfg.mean_scale * mean_rng.standard_normal(cfg.feature_dim)
        for name in family:
            c = vocab.id_of(name)
            means[:, c] = base + cfg.similar_spread * means[:, c]
    train = _generate_split(cfg, vocab, means, cfg.train_per_activity,
                            np.random.default_rng(seeds[1]), "train")
    test = _generate_split(cfg, vocab, means, cfg.test_per_activity,
                           np.random.default_rng(seeds[2]), "test")
    return train, test


def longtail_benchmark_config(seed: int = 0, *,
                              train_per_activity: int = SynthConfig.train_per_activity,
                              test_per_activity: int = SynthConfig.test_per_activity,
                              ) -> SynthConfig:
    """Canonical 3-activity, 12-class long-tailed benchmark.

    Four classes (the shared bookend plus one long work phase per activity)
    dominate the frame counts; the eight remaining classes are short and
    partly optional, giving a frame imbalance well above 50x. Every optional
    action has a declared slot, so ordering priors are non-trivial, and the
    per-activity tweak actions look alike so that activity-blind training
    confuses them across activities.
    """
    dur = {
        "idle": DurationModel(16, 0.25),
        "work_a": DurationModel(60, 0.25),
        "work_b": DurationModel(60, 0.25),
        "work_c": DurationModel(60, 0.25),
        "fetch_a": DurationModel(5, 0.4),
        "tweak_a": DurationModel(5, 0.4),
        "fetch_b": DurationModel(5, 0.4),
        "tweak_b": DurationModel(5, 0.4),
        "fetch_c": DurationModel(5, 0.4),
        "tweak_c": DurationModel(5, 0.4),
        "polish_c": DurationModel(5, 0.4),
        "inspect": DurationModel(5, 0.4),
    }
    activities = {
        "alpha": ActivityGrammar(
            mandatory=("idle", "work_a", "fetch_a", "inspect", "work_a", "idle"),
            optionals=(OptionalAction("tweak_a", 0.5, (3,)),),
        ),
        "beta": ActivityGrammar(
            mandatory=("idle", "work_b", "inspect", "fetch_b", "work_b", "idle"),
            optionals=(OptionalAction("tweak_b", 0.5, (4,)),),
        ),
        "gamma": ActivityGrammar(
            mandatory=("idle", "work_c", "fetch_c", "work_c", "idle"),
            optionals=(OptionalAction("tweak_c", 0.5, (3,)),
                       OptionalAction("polish_c", 0.4, (4,))),
        ),
    }
    return SynthConfig(activities=activities, durations=dur, feature_dim=8,
                       mean_scale=0.8, noise_sigma=2.0,
                       similar_classes=(("tweak_a", "tweak_b", "tweak_c"),),
                       similar_spread=0.3,
                       train_per_activity=train_per_activity,
                       test_per_activity=test_per_activity, seed=seed)
