"""Mine action-ordering priors and evaluate temporal bounds.

For every class the training data yields the set of actions that always
occur before it and the set that always occurs after it. On a concrete
sequence those sets turn into a frame window: inside it the class's logit
adjustment applies in full, outside it is rescaled to match the true
label's own adjustment so no ordering-violating bias is introduced.
"""

import gtla
from gtla.priors import bounds_matrix, temporal_factor_matrix

# A tiny hand-made example first: two orderings of the last two actions.
corpus = [["prep", "cook", "plate", "serve"], ["prep", "cook", "serve", "plate"]]
before, after = gtla.extract_temporal_sets(corpus, "cook")
print(f"'cook' must be preceded by {sorted(before)} and followed by {sorted(after)}")

train, _ = gtla.synth_generate(gtla.longtail_benchmark_config(seed=0))
spec = gtla.build_group_spec(train, gtla.ByActivity())
prior = gtla.extract_priors(train, spec)

k = 0
group_names = [train.vocab.name_of(c) for c in spec.classes_of_group[k]]
print(f"\ngroup {k} classes: {group_names}")
group = prior.groups[k]
for c, name in enumerate(group_names):
    precede = sorted(group_names[x] for x in group.must_precede[c])
    follow = sorted(group_names[x] for x in group.must_follow[c])
    print(f"  {name:>10}: p={group.prior[c]:.3f}  "
          f"precede={precede}  follow={follow}")

# Temporal bounds of every class on one training sequence of this group.
seq = next(s for s in train.sequences if spec.group_of(s) == k)
local = gtla.relabel_for_group(seq, spec, k)
lo, hi = bounds_matrix(local, group)
print(f"\nbounds on {seq.id!r} (T={seq.num_frames}):")
for c, name in enumerate(group_names):
    print(f"  {name:>10}: adjustment window [{lo[c]}, {hi[c]}]")

# The temporal factor is 1 inside the window; outside it equals the ratio
# of log priors, which makes the adjustment match the true label's own.
factors = temporal_factor_matrix(local, group)
c = group_names.index("tweak_a")
inside_t, outside_t = (lo[c] + hi[c]) // 2, 0
for t in (inside_t, outside_t):
    where = "inside" if lo[c] <= t <= hi[c] else "outside"
    print(f"factor for tweak_a at t={t} ({where}): {factors[c, t]:.3f}")
