import json

import numpy as np
import pytest

import gtla


def finite_difference(loss_fn, params, eps=1e-4):
    """Central finite differences of loss_fn over every parameter tensor."""
    grads = {}
    for name, value in params.values.items():
        grad = np.zeros_like(value)
        flat = value.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            flat_grad[i] = (hi - lo) / (2.0 * eps)
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric):
    """Max elementwise |a - n| / max(1, |a|, |n|) over all tensors."""
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def tiny_problem(rng, max_dim=4, max_frames=12, max_hidden=8, max_layers=2,
                 max_groups=2):
    """Random tiny two-activity corpus plus spec/priors/model for grad checks."""
    num_groups = int(rng.integers(1, max_groups + 1))
    num_classes = int(rng.integers(2 * num_groups, 3 * num_groups + 1))
    names = tuple(f"c{i}" for i in range(num_classes))
    vocab = gtla.ClassVocab(names)
    dim = int(rng.integers(2, max_dim + 1))

    # Random class subsets per activity, sharing allowed, every class used.
    class_ids = rng.permutation(num_classes)
    chunks = np.array_split(class_ids, num_groups)
    sequences, features = [], []
    for k, chunk in enumerate(chunks):
        pool = list(chunk)
        if num_groups > 1 and rng.random() < 0.5:
            other = chunks[(k + 1) % num_groups]
            pool.append(int(other[0]))  # shared class
        for s in range(2):
            frames = int(rng.integers(4, max_frames + 1))
            order = [pool[i] for i in rng.integers(0, len(pool), size=3)]
            labels = np.array([order[int(t * len(order) / frames)] for t in range(frames)])
            sequences.append(gtla.FrameSeq(labels, activity=f"act{k}", id=f"s{k}_{s}"))
            features.append(gtla.FeatureMatrix(rng.standard_normal((dim, frames))))
    corpus = gtla.Corpus(vocab, sequences, features)
    spec = gtla.build_group_spec(corpus, gtla.ByActivity())
    prior = gtla.extract_priors(corpus, spec)
    backbone = gtla.BackboneConfig(
        in_dim=dim,
        hidden=int(rng.integers(2, max_hidden + 1)),
        num_layers=int(rng.integers(1, max_layers + 1)),
        dropout=0.0,
        head_sizes=spec.head_sizes(),
        seed=int(rng.integers(0, 2 ** 31)),
    )
    params = gtla.init_params(backbone, dtype=np.float64)
    return corpus, spec, prior, params


def edit_checkpoint(path, edit):
    """Apply edit(members) to the dict of a checkpoint's ``.npz`` members in
    place, then write the members back to ``path``."""
    with np.load(path) as npz:
        members = dict(npz)
    edit(members)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def edit_checkpoint_header(path, edit):
    """Apply edit(header) to a checkpoint's parsed JSON header in place."""
    def apply(members):
        header = json.loads(members["header"].item())
        edit(header)
        members["header"] = np.array(json.dumps(header).encode())
    edit_checkpoint(path, apply)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
