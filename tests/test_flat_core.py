"""Bit-identity of the flat-buffer training core against per-tensor references.

The references below are the straightforward implementations the flat core
replaced: a per-tensor Adam loop, a dilated convolution that pads its input
with ``np.pad`` in forward and again in backward, and per-class temporal
bounds (the scalar oracle kept in ``test_priors``). The flat core keeps every floating-point operation in the same
order, and the references compute in the parameters' dtype as it does, so
results must be equal bit for bit, not merely close.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gtla
from gtla import losses, model, priors, training
from gtla.errors import FormatError

from conftest import edit_checkpoint, tiny_problem
from test_priors import oracle_temporal_bounds


def ref_dilated_conv(x, w, b, d):
    num_frames = x.shape[1]
    padded = np.pad(x, ((0, 0), (d, d)))
    out = (w[:, :, 0] @ padded[:, :num_frames]
           + w[:, :, 1] @ padded[:, d:d + num_frames]
           + w[:, :, 2] @ padded[:, 2 * d:2 * d + num_frames])
    return out + b[:, None]


def ref_dilated_conv_backward(x, w, d_out, d):
    num_frames = x.shape[1]
    padded = np.pad(x, ((0, 0), (d, d)))
    d_w = np.empty_like(w)
    d_w[:, :, 0] = d_out @ padded[:, :num_frames].T
    d_w[:, :, 1] = d_out @ padded[:, d:d + num_frames].T
    d_w[:, :, 2] = d_out @ padded[:, 2 * d:2 * d + num_frames].T
    d_b = d_out.sum(axis=1)
    d_padded = np.zeros_like(padded)
    d_padded[:, :num_frames] += w[:, :, 0].T @ d_out
    d_padded[:, d:d + num_frames] += w[:, :, 1].T @ d_out
    d_padded[:, 2 * d:2 * d + num_frames] += w[:, :, 2].T @ d_out
    return d_w, d_b, d_padded[:, d:d + num_frames]


def ref_dropout_masks(cfg, rng, num_frames, dtype=np.float32):
    """Dropout masks drawn in float64 layer by layer, or None without dropout."""
    if cfg.dropout == 0.0:
        return None
    keep = 1.0 - cfg.dropout
    return [((rng.random((cfg.hidden, num_frames)) < keep) / keep).astype(dtype)
            for _ in range(cfg.num_layers)]


def ref_forward(features, params, masks=None):
    """Per-tensor forward in the parameters' dtype, each branch scaled by its entry of
    ``masks`` if given; the tape is a dict of unpadded layer inputs."""
    x = features.values if isinstance(features, gtla.FeatureMatrix) else np.asarray(features)
    x = x.astype(params.values.flat.dtype, copy=False)
    cfg, p = params.cfg, params.values
    z = p["in.w"] @ x + p["in.b"][:, None]
    tape = {"params": params, "x": x, "inputs": [], "pre": [], "masks": []}
    for layer in range(cfg.num_layers):
        d = 2 ** layer
        tape["inputs"].append(z)
        pre = ref_dilated_conv(z, p[f"layer{layer}.dilated.w"], p[f"layer{layer}.dilated.b"], d)
        tape["pre"].append(pre)
        branch = p[f"layer{layer}.proj.w"] @ np.maximum(pre, 0.0) \
            + p[f"layer{layer}.proj.b"][:, None]
        mask = None if masks is None else masks[layer]
        if mask is not None:
            branch = branch * mask
        tape["masks"].append(mask)
        z = z + branch
    tape["z"] = z
    logits = [p[f"head{i}.w"].T @ z + p[f"head{i}.b"][:, None]
              for i in range(len(cfg.head_sizes))]
    return model.Forward(logits, tape)


def ref_backward(tape, d_logits, out=None, worker=None):
    """Per-tensor backward into fresh arrays; ``out`` (the reusable buffer) and ``worker``
    are ignored."""
    cfg, p = tape["params"].cfg, tape["params"].values
    grads = {}
    d_z = np.zeros_like(tape["z"])
    for i, d_l in enumerate(d_logits):
        grads[f"head{i}.w"] = tape["z"] @ d_l.T
        grads[f"head{i}.b"] = d_l.sum(axis=1)
        d_z += p[f"head{i}.w"] @ d_l
    for layer in reversed(range(cfg.num_layers)):
        mask = tape["masks"][layer]
        d_branch = d_z if mask is None else d_z * mask
        relu_out = np.maximum(tape["pre"][layer], 0.0)
        grads[f"layer{layer}.proj.w"] = d_branch @ relu_out.T
        grads[f"layer{layer}.proj.b"] = d_branch.sum(axis=1)
        d_pre = (p[f"layer{layer}.proj.w"].T @ d_branch) * (tape["pre"][layer] > 0.0)
        d_w, d_b, d_in = ref_dilated_conv_backward(
            tape["inputs"][layer], p[f"layer{layer}.dilated.w"], d_pre, 2 ** layer)
        grads[f"layer{layer}.dilated.w"] = d_w
        grads[f"layer{layer}.dilated.b"] = d_b
        d_z = d_z + d_in
    grads["in.w"] = d_z @ tape["x"].T
    grads["in.b"] = d_z.sum(axis=1)
    return grads


def ref_adam_step(params, grads, state, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam over any state with dict-like ``m``/``v`` (rebinds their names)."""
    state.t += 1
    for name, value in params.values.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1 ** state.t)
        v_hat = state.v[name] / (1.0 - beta2 ** state.t)
        value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def ref_temporal_factor_matrix(labels, prior):
    labels = np.asarray(labels)
    bounds = [oracle_temporal_bounds(c, labels, prior) for c in range(prior.num_classes)]
    lo, hi = (np.array(side)[:, None] for side in zip(*bounds))
    t = np.arange(labels.size)[None, :]
    log_p = prior.clamped_log_prior()
    return np.where((t >= lo) & (t <= hi), 1.0, log_p[labels][None, :] / log_p[:, None])


def assert_tensors_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def backbone(dropout, seed=7):
    return gtla.BackboneConfig(in_dim=5, hidden=6, num_layers=3, dropout=dropout,
                               head_sizes=(4, 3), seed=seed)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("frames", [1, 2, 4, 5, 8, 9, 40])
def test_forward_and_backward_match_padding_reference(dropout, frames):
    # With num_layers=3 the largest dilation d is 4: frames 4, 5 and 8 are T = d,
    # T = d + 1 and T = 2d, the edges of backward's shifted d_in adds.
    params = gtla.init_params(backbone(dropout), dtype=np.float64)
    data = np.random.default_rng(frames)
    x = data.standard_normal((5, frames))
    out = gtla.forward(x, params, masks=model.dropout_masks(
        params.cfg, np.random.default_rng(1), frames, np.float64))
    ref = ref_forward(x, params, masks=ref_dropout_masks(
        params.cfg, np.random.default_rng(1), frames, np.float64))
    assert np.array_equal(out.tape.z, ref.tape["z"])
    for got, want in zip(out.logits, ref.logits):
        assert np.array_equal(got, want)
    d_logits = [data.standard_normal(l.shape) for l in out.logits]
    assert_tensors_equal(gtla.backward(out.tape, d_logits), ref_backward(ref.tape, d_logits))


@pytest.mark.parametrize("method", losses.METHODS)
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_a_training_step_changes_none_of_its_inputs(mode, method):
    """forward, total_loss and backward compute in place only over their own
    temporaries: features, parameters, logits and upstream gradients keep their
    bytes, and a second backward over the same tape gives the same gradients."""
    corpus, spec, prior, params = tiny_problem(np.random.default_rng(5), max_frames=40,
                                               max_layers=3, max_groups=3)
    params = gtla.init_params(replace(params.cfg, dropout=0.3))
    cfg = losses.TrainConfig(method=method)
    for seq, feats in zip(corpus.sequences, corpus.features):
        k = spec.group_of(seq)
        local = gtla.relabel_for_group(seq, spec, k)
        features, weights = feats.values.tobytes(), params.values.flat.tobytes()
        out = gtla.forward(feats, params,
                           masks=model.dropout_masks(params.cfg, np.random.default_rng(0),
                                                     seq.num_frames) if mode == "train" else None)
        logits = [s.tobytes() for s in out.logits]
        _, d_logits, _ = gtla.total_loss(out.logits, local, k, spec, prior, cfg)
        upstream = [g.tobytes() for g in d_logits]
        first = gtla.backward(out.tape, d_logits).flat.tobytes()
        assert gtla.backward(out.tape, d_logits).flat.tobytes() == first
        assert feats.values.tobytes() == features
        assert params.values.flat.tobytes() == weights
        assert [s.tobytes() for s in out.logits] == logits
        assert [g.tobytes() for g in d_logits] == upstream


def test_gradients_are_views_into_one_flat_buffer(rng):
    params = gtla.init_params(backbone(0.0))
    out = gtla.forward(rng.standard_normal((5, 8)), params)
    grads = gtla.backward(out.tape, [np.ones_like(l) for l in out.logits])
    for tensors in (params.values, grads):
        assert tensors.flat.flags.c_contiguous
        assert tensors.flat.size == sum(arr.size for arr in tensors.values())
        assert all(np.shares_memory(arr, tensors.flat) for arr in tensors.values())
    params.values["head1.b"][0] = 123.0
    assert 123.0 in params.values.flat


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_backward_into_one_buffer_matches_fresh_buffers(dropout, rng):
    # Two steps of different lengths through one NaN-filled buffer: every
    # tensor must be overwritten on each step, none keeps a stale value.
    params = gtla.init_params(backbone(dropout))
    grads = model.FlatTensors(params.cfg)
    grads.flat[...] = np.nan
    for frames in (9, 2):
        out = gtla.forward(rng.standard_normal((5, frames)), params,
                           masks=model.dropout_masks(params.cfg, np.random.default_rng(frames),
                                                     frames))
        d_logits = [rng.standard_normal(l.shape) for l in out.logits]
        assert gtla.backward(out.tape, d_logits, out=grads) is grads
        assert_tensors_equal(grads, gtla.backward(out.tape, d_logits))
        params.values.flat += 0.01 * grads.flat


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_backward_on_a_worker_matches_and_raises_in_the_caller(dropout, rng):
    params = gtla.init_params(backbone(dropout))
    out = gtla.forward(rng.standard_normal((5, 40)), params,
                       masks=model.dropout_masks(params.cfg, rng, 40))
    d_logits = [rng.standard_normal(l.shape) for l in out.logits]
    wrong = model.FlatTensors(replace(params.cfg, head_sizes=(5, 3)))  # head0.w: 5 columns, not 4
    with ThreadPoolExecutor(1) as worker:
        assert_tensors_equal(gtla.backward(out.tape, d_logits, worker=worker),
                             gtla.backward(out.tape, d_logits))
        for pool in (None, worker):  # the head's block fails inline, then on the worker
            with pytest.raises(ValueError, match="size 5 is different from 4") as info:
                gtla.backward(out.tape, d_logits, out=wrong, worker=pool)
            assert type(info.value) is ValueError


class LateWorker:
    """An executor whose blocks each start late on ``pool``; counts blocks submitted and ended."""

    def __init__(self, pool):
        self.pool, self.submitted, self.ended = pool, 0, 0

    def submit(self, fn, *args):
        def late():
            time.sleep(0.02)
            try:
                return fn(*args)
            finally:
                self.ended += 1
        self.submitted += 1
        return self.pool.submit(late)


@pytest.mark.parametrize("failing", ["block", "caller"])
def test_backward_raises_only_after_every_block_has_ended(failing, rng):
    """A failed block, or the caller's own failure, leaves no block writing into ``out``."""
    params = gtla.init_params(backbone(0.3))
    out = gtla.forward(rng.standard_normal((5, 40)), params,
                       masks=model.dropout_masks(params.cfg, rng, 40))
    d_logits = [rng.standard_normal(l.shape) for l in out.logits]
    grads = model.FlatTensors(params.cfg)
    if failing == "block":  # head0's block fails first; the layers' blocks follow it
        grads = model.FlatTensors(replace(params.cfg, head_sizes=(5, 3)))
    else:  # head1's upstream gradient is a frame short: the caller's d_z update fails
        d_logits[1] = d_logits[1][:, 1:]
    with ThreadPoolExecutor(1) as pool:
        worker = LateWorker(pool)
        with pytest.raises(ValueError):
            gtla.backward(out.tape, d_logits, out=grads, worker=worker)
        assert worker.submitted >= 2 and worker.ended == worker.submitted


def ref_state(state):
    """Per-tensor copy of an AdamState for ``ref_adam_step``."""
    return SimpleNamespace(m={n: a.copy() for n, a in state.m.items()},
                           v={n: a.copy() for n, a in state.v.items()}, t=state.t)


def random_grads(params, rng, scale=1.0):
    grads = model.FlatTensors(params.cfg, dtype=params.values.flat.dtype)
    grads.flat[...] = rng.standard_normal(grads.flat.size) * scale
    return grads


def test_adam_matches_per_tensor_reference_over_five_steps(rng):
    params = gtla.init_params(backbone(0.0))
    ref_params = gtla.ModelParams(params.cfg, params.values)
    state = gtla.AdamState(params.cfg)
    ref = ref_state(state)
    for step in range(5):
        grads = random_grads(params, rng, 10.0 ** (step - 2))
        gtla.adam_step(params, grads, state, lr=1e-3)
        ref_adam_step(ref_params, grads, ref, lr=1e-3)
    assert state.t == ref.t == 5
    assert_tensors_equal(params.values, ref_params.values)
    assert_tensors_equal(state.m, ref.m)
    assert_tensors_equal(state.v, ref.v)


def test_adam_adopts_moments_loaded_from_a_checkpoint(tmp_path, rng):
    """A float32 state saved and loaded is the same state: the reference continues
    from the loaded moments in float32 and the loaded state keeps its buffers."""
    params = gtla.init_params(backbone(0.0))
    state = gtla.AdamState(params.cfg)
    steps = [random_grads(params, rng) for _ in range(3)]
    gtla.adam_step(params, steps[0], state, lr=5e-4)
    model.save_checkpoint(tmp_path / "c.ckpt", params, step=1, adam=state)
    loaded, adam, _ = model.load_checkpoint(tmp_path / "c.ckpt")
    assert adam.t == 1
    for saved, moment in ((params.values, loaded.values), (state.m, adam.m), (state.v, adam.v)):
        assert isinstance(moment, model.FlatTensors) and moment.flat.dtype == np.float32
        assert_tensors_equal(moment, saved)
    ref_params, ref = gtla.ModelParams(loaded.cfg, loaded.values), ref_state(adam)
    buffers = (adam.m.flat, adam.v.flat)
    for grads in steps[1:]:
        gtla.adam_step(loaded, grads, adam, lr=5e-4)
        ref_adam_step(ref_params, grads, ref)
    # Updated in place: every named moment is still a view of the same buffer.
    for moment, flat in zip((adam.m, adam.v), buffers):
        assert moment.flat is flat
        assert all(np.shares_memory(arr, flat) for arr in moment.values())
    assert adam.t == 3
    assert_tensors_equal(loaded.values, ref_params.values)
    assert_tensors_equal(adam.m, ref.m)
    assert_tensors_equal(adam.v, ref.v)


def test_checkpoint_missing_a_moment_tensor_raises_format_error(tmp_path, rng):
    params = gtla.init_params(backbone(0.0))
    state = gtla.AdamState(params.cfg)
    gtla.adam_step(params, random_grads(params, rng), state, lr=5e-4)
    path = tmp_path / "c.ckpt"
    model.save_checkpoint(path, params, step=1, adam=state)
    edit_checkpoint(path, lambda members: members.pop("v"))
    with pytest.raises(FormatError, match="KeyError: 'v is not a file"):
        model.load_checkpoint(path)


def test_two_epochs_of_training_match_the_reference_path(monkeypatch):
    corpus, spec, prior, params = tiny_problem(np.random.default_rng(4))
    net = replace(params.cfg, dropout=0.25)
    cfg = losses.TrainConfig(method="gtla", epochs=2, seed=3)
    state = gtla.train_model(corpus, spec, prior, net, cfg)

    monkeypatch.setattr(training, "dropout_masks", ref_dropout_masks)
    monkeypatch.setattr(training, "forward", ref_forward)
    monkeypatch.setattr(training, "backward", ref_backward)
    monkeypatch.setattr(training, "adam_step", ref_adam_step)
    monkeypatch.setattr(losses, "temporal_factor_matrix", ref_temporal_factor_matrix)
    ref = gtla.train_model(corpus, spec, prior, net, cfg)

    assert state.history == ref.history
    assert state.adam.t == ref.adam.t == 2 * len(corpus.sequences)
    assert_tensors_equal(state.params.values, ref.params.values)
    assert_tensors_equal(state.adam.m, ref.adam.m)
    assert_tensors_equal(state.adam.v, ref.adam.v)


def random_group_prior(rng, num):
    """Random disjoint must-precede/must-follow sets; some left empty."""
    precede, follow = [], []
    for c in range(num):
        others = [x for x in range(num) if x != c]
        side = rng.integers(0, 3, size=len(others))  # 0: neither, 1: precede, 2: follow
        if rng.random() < 0.3:
            side[:] = 0
        precede.append(frozenset(x for x, s in zip(others, side) if s == 1))
        follow.append(frozenset(x for x, s in zip(others, side) if s == 2))
    return gtla.GroupPrior(np.full(num, 1.0 / num), tuple(precede), tuple(follow))


def test_bounds_matrix_matches_scalar_bounds_by_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(300):
        num = int(rng.integers(1, 7))
        prior = random_group_prior(rng, num)
        # Draw labels from a subset, so some ordering classes are absent; in
        # every other trial add the ``others`` id (num), which bounds nothing.
        present = rng.choice(num, size=int(rng.integers(1, num + 1)), replace=False)
        if trial % 2:
            present = np.append(present, num)
        labels = rng.choice(present, size=int(rng.integers(0, 25)))
        lo, hi = priors.bounds_matrix(labels, prior)
        for c in range(num):
            assert (lo[c], hi[c]) == oracle_temporal_bounds(c, labels, prior), (trial, c)


def test_factor_matrix_matches_reference_with_empty_ordering_sets():
    prior = gtla.GroupPrior(np.array([0.5, 0.3, 0.2]), (frozenset(),) * 3, (frozenset(),) * 3)
    labels = np.array([0, 0, 2, 1, 1])
    assert np.array_equal(priors.temporal_factor_matrix(labels, prior),
                          ref_temporal_factor_matrix(labels, prior))
    assert np.all(priors.temporal_factor_matrix(labels, prior) == 1.0)


def test_truncated_checkpoints_raise_format_error(tmp_path, rng):
    params = gtla.init_params(backbone(0.0))
    state = gtla.AdamState(params.cfg)
    gtla.adam_step(params, random_grads(params, rng), state, lr=5e-4)
    path = tmp_path / "full.ckpt"
    model.save_checkpoint(path, params, step=1, adam=state)
    blob = path.read_bytes()
    # The zip directory sits at the end, so every cut loses it.
    for size in (0, 10, 40, len(blob) // 2, len(blob) - 6):
        cut = tmp_path / f"cut{size}.ckpt"
        cut.write_bytes(blob[:size])
        with pytest.raises(FormatError, match=f"{cut}: .*BadZipFile"):
            model.load_checkpoint(cut)
