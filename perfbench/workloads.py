"""The benchmark's workloads: how each corpus is generated and trained.

Every workload is the synthetic long-tailed procedural benchmark of
:func:`gtla.longtail_benchmark_config` (three activities, twelve classes),
varied in the properties a layer's cost depends on: sequence length and
feature width (convolution vs per-step costs), corpus size and grouping
mode (clustering cost). The corpus comes from the workload seed only; the
pipeline under test receives the written files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Classes with fewer training frames form the tail, as in the acceptance suite.
HEAD_THRESHOLD = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    train_per_activity: int
    test_per_activity: int
    epochs: int
    clusters: int = 0             # 0 groups by activity tag, n > 0 clusters into n
    duration_scale: int = 1       # multiplies every class's median duration
    feature_dim: int = 8
    min_group_id_acc: float | None = None

    def synth_config(self, seed: int):
        import gtla
        from gtla.data import DurationModel

        cfg = gtla.longtail_benchmark_config(
            seed=seed, train_per_activity=self.train_per_activity,
            test_per_activity=self.test_per_activity)
        durations = {name: DurationModel(model.median * self.duration_scale, model.sigma)
                     for name, model in cfg.durations.items()}
        return replace(cfg, durations=durations, feature_dim=self.feature_dim)

    def grouping_mode(self):
        import gtla

        if self.clusters:
            return gtla.ByClustering(n=self.clusters, linkage="average")
        return gtla.ByActivity()

    def smoke(self) -> "Workload":
        """A tiny configuration of the same workload, for testing the benchmark."""
        return replace(self, train_per_activity=3, test_per_activity=2,
                       epochs=min(self.epochs, 2), min_group_id_acc=None)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # Short sequences, so fixed per-step costs (Adam, loss, relabelling) are
    # a large share of training. The test split is enlarged to time eval.
    Workload(
        name="canonical",
        train_per_activity=20, test_per_activity=100, epochs=50,
        min_group_id_acc=95.0,
    ),
    # About 1.3k frames per sequence and 128-dim features: convolution
    # forward/backward dominate training, and the tape's memory is largest.
    Workload(
        name="long_video",
        train_per_activity=4, test_per_activity=20, epochs=20,
        duration_scale=8, feature_dim=128,
    ),
    # 120 sequences grouped by clustering: the O(n^3) agglomeration dominates
    # set-up. The other two workloads group by activity and skip it.
    Workload(
        name="cluster_scale",
        train_per_activity=40, test_per_activity=100, epochs=8, clusters=3,
    ),
)}
