"""Generate a synthetic long-tailed procedural corpus and inspect it.

The built-in benchmark has three activities over twelve action classes.
Four classes (a shared idle bookend plus one long work phase per activity)
hold almost all frames; the other eight are short and partly optional, so
the frame distribution has a long tail just like real procedural video
datasets.
"""

import numpy as np

import gtla

cfg = gtla.longtail_benchmark_config(seed=0)
train, test = gtla.synth_generate(cfg)

print(f"{len(train)} training and {len(test)} test sequences, "
      f"{len(train.vocab)} classes, feature dim {train.feature_dim}")

counts = np.zeros(len(train.vocab), dtype=int)
for seq in train.sequences:
    counts += np.bincount(seq.labels, minlength=len(train.vocab))

print("\ntraining frames per class (sorted):")
for c in np.argsort(-counts):
    bar = "#" * max(1, int(50 * counts[c] / counts.max()))
    print(f"  {train.vocab.name_of(c):>10} {counts[c]:>6}  {bar}")
print(f"\nimbalance ratio (most / least frequent): {counts.max() / counts.min():.0f}")

split = gtla.head_tail_split(train, 1000)
print(f"head classes (>= 1000 frames): {list(split.head)}")
print(f"tail classes: {list(split.tail)}")

seq = train.sequences[0]
print(f"\nsequence {seq.id!r} ({seq.activity}, {seq.num_frames} frames):")
for segment in gtla.segments_from_frames(seq):
    print(f"  [{segment.start:>4}, {segment.end:>4})  "
          f"{train.vocab.name_of(segment.label)}")

# Everything is reproducible: the same seed gives a bit-identical corpus.
train2, _ = gtla.synth_generate(cfg)
same = all(np.array_equal(a.labels, b.labels)
           for a, b in zip(train.sequences, train2.sequences))
print(f"\nsame seed regenerates identical labels: {same}")
