import json

import numpy as np
import pytest

import gtla
from gtla import data, grouping, losses, model, priors
from gtla.errors import FormatError, TrainingError

from conftest import finite_difference, max_relative_error, tiny_problem


def small_config(groups=(4, 3), hidden=8, layers=2, dim=4, dropout=0.0, seed=3):
    return gtla.BackboneConfig(in_dim=dim, hidden=hidden, num_layers=layers,
                               dropout=dropout, head_sizes=tuple(groups), seed=seed)


def test_zero_weights_give_zero_logits():
    cfg = small_config()
    params = gtla.init_params(cfg)
    for value in params.values.values():
        value[:] = 0.0
    out = gtla.forward(np.ones((4, 7)), params)
    for logits in out.logits:
        assert np.all(logits == 0.0)


def test_identity_weights_on_constant_input_give_constant_logits():
    # Center-tap-only kernels are shift invariant, so a constant signal
    # stays constant regardless of padding.
    cfg = gtla.BackboneConfig(in_dim=1, hidden=1, num_layers=1, dropout=0.0,
                              head_sizes=(2,), seed=0)
    params = gtla.init_params(cfg)
    params.values["in.w"][:] = 1.0
    params.values["in.b"][:] = 0.0
    params.values["layer0.dilated.w"][:] = 0.0
    params.values["layer0.dilated.w"][0, 0, 1] = 1.0  # center tap only
    params.values["layer0.dilated.b"][:] = 0.0
    params.values["layer0.proj.w"][:] = 1.0
    params.values["layer0.proj.b"][:] = 0.0
    params.values["head0.w"][:] = np.array([[1.0, -1.0]])
    params.values["head0.b"][:] = 0.0
    out = gtla.forward(np.full((1, 9), 0.7), params)
    assert np.allclose(out.logits[0], out.logits[0][:, :1])
    # residual + relu on a positive constant: z = x + relu(x) = 1.4
    assert np.allclose(out.logits[0][0], 1.4)


def test_forward_is_length_preserving():
    cfg = small_config(layers=3)
    params = gtla.init_params(cfg)
    for frames in (1, 2, 5, 33):
        out = gtla.forward(np.random.default_rng(1).standard_normal((4, frames)), params)
        assert all(l.shape == (h, frames) for l, h in zip(out.logits, cfg.head_sizes))


def test_eval_mode_deterministic_and_matches_zero_dropout_train(rng):
    cfg = small_config(dropout=0.0)
    params = gtla.init_params(cfg)
    x = rng.standard_normal((4, 11))
    a = gtla.forward(x, params, mode="eval")
    b = gtla.forward(x, params, mode="eval")
    c = gtla.forward(x, params, mode="train")
    for la_, lb, lc in zip(a.logits, b.logits, c.logits):
        assert np.array_equal(la_, lb)
        assert np.array_equal(la_, lc)


def test_dropout_requires_rng_and_changes_output(rng):
    cfg = small_config(dropout=0.5)
    params = gtla.init_params(cfg)
    x = rng.standard_normal((4, 11))
    with pytest.raises(ValueError):
        gtla.forward(x, params, mode="train")
    a = gtla.forward(x, params, mode="train", dropout_rng=np.random.default_rng(0))
    b = gtla.forward(x, params, mode="eval")
    assert not np.allclose(a.logits[0], b.logits[0])


def test_zero_upstream_gradient_gives_zero_param_gradients(rng):
    cfg = small_config()
    params = gtla.init_params(cfg)
    out = gtla.forward(rng.standard_normal((4, 6)), params)
    grads = gtla.backward(out.tape, [np.zeros_like(l) for l in out.logits])
    assert all(np.all(g == 0.0) for g in grads.values())


def test_single_logit_bias_gradient_is_one(rng):
    cfg = small_config()
    params = gtla.init_params(cfg)
    out = gtla.forward(rng.standard_normal((4, 6)), params)
    d_logits = [np.zeros_like(l) for l in out.logits]
    d_logits[1][2, 3] = 1.0
    grads = gtla.backward(out.tape, d_logits)
    assert grads["head1.b"][2] == 1.0
    assert np.all(grads["head0.b"] == 0.0)


def test_backward_matches_finite_differences_on_ce(rng):
    cfg = small_config(groups=(3, 4), hidden=6, layers=2, dim=3, seed=11)
    params = gtla.init_params(cfg)
    x = rng.standard_normal((3, 10))
    labels = rng.integers(0, 3, size=10)

    def loss_fn():
        out = gtla.forward(x, params)
        return losses.ce_loss(out.logits[0], labels)[0]

    out = gtla.forward(x, params)
    _, grad = losses.ce_loss(out.logits[0], labels)
    analytic = gtla.backward(out.tape, [grad, np.zeros_like(out.logits[1])])
    numeric = finite_difference(loss_fn, params)
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_backward_matches_finite_differences_on_total_loss(rng):
    corpus, spec, prior, params = tiny_problem(rng)
    cfg = losses.TrainConfig(method="gtla", tau=0.5, eta=0.5, smooth_weight=0.15)
    seq, feats = corpus.sequences[0], corpus.features[0]
    k = spec.group_of(seq)
    local = gtla.relabel_for_group(seq, spec, k)

    def loss_fn():
        out = gtla.forward(feats, params)
        return losses.total_loss(out.logits, local, k, spec, prior, cfg)[0]

    out = gtla.forward(feats, params)
    _, d_logits, _ = losses.total_loss(out.logits, local, k, spec, prior, cfg)
    analytic = gtla.backward(out.tape, d_logits)
    numeric = finite_difference(loss_fn, params)
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_adam_zero_gradient_is_noop():
    cfg = small_config()
    params = gtla.init_params(cfg)
    before = params.copy()
    gtla.adam_step(params, model.FlatTensors(cfg), gtla.AdamState(cfg))
    for name in params.values:
        assert np.array_equal(params.values[name], before.values[name])


def test_adam_first_step_magnitude_is_lr_signed(rng):
    cfg = small_config()
    params = gtla.init_params(cfg)
    before = params.copy()
    grads = model.FlatTensors(cfg, {n: rng.standard_normal(v.shape)
                                    for n, v in params.values.items()})
    gtla.adam_step(params, grads, gtla.AdamState(cfg), lr=5e-4)
    for name in params.values:
        delta = params.values[name] - before.values[name]
        big = np.abs(grads[name]) > 1e-3
        assert np.allclose(delta[big], -5e-4 * np.sign(grads[name][big]), atol=1e-7)


def test_adam_rejects_non_finite_gradients():
    cfg = small_config()
    params = gtla.init_params(cfg)
    grads = model.FlatTensors(cfg)
    grads["in.w"][0, 0] = np.nan
    with pytest.raises(TrainingError, match="in.w"):
        gtla.adam_step(params, grads, gtla.AdamState(cfg))


def test_adam_trajectory_is_deterministic(rng):
    cfg = small_config(seed=5)

    def run():
        params = gtla.init_params(cfg)
        state = gtla.AdamState(cfg)
        step_rng = np.random.default_rng(9)
        for _ in range(4):
            grads = model.FlatTensors(cfg)
            grads.flat[...] = step_rng.standard_normal(grads.flat.size)
            gtla.adam_step(params, grads, state)
        return params

    a, b = run(), run()
    for name in a.values:
        assert np.array_equal(a.values[name], b.values[name])


def test_checkpoint_roundtrip(tmp_path, rng):
    cfg = small_config(seed=8)
    params = gtla.init_params(cfg)
    state = gtla.AdamState(cfg)
    grads = model.FlatTensors(cfg)
    grads.flat[...] = rng.standard_normal(grads.flat.size)
    gtla.adam_step(params, grads, state)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, step=1, adam=state, extra={"note": "x"})
    loaded, adam, extra = model.load_checkpoint(path)
    assert loaded.cfg == cfg
    assert adam.t == 1
    assert extra["note"] == "x"
    assert extra["step"] == 1
    for name in params.values:
        # float32 storage: exact after one float32 round trip
        assert np.array_equal(loaded.values[name],
                              params.values[name].astype(np.float32).astype(np.float64))


def test_checkpoint_rejects_garbage(tmp_path):
    from gtla.errors import FormatError

    (tmp_path / "bad.ckpt").write_bytes(b"NOTACKPT" + b"\0" * 32)
    with pytest.raises(FormatError, match="not a checkpoint"):
        model.load_checkpoint(tmp_path / "bad.ckpt")


def _rewrite_header(path, edit):
    """Replace a checkpoint's header bytes with edit(header bytes)."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    head = edit(blob[12:12 + n])
    path.write_bytes(blob[:8] + len(head).to_bytes(4, "little") + head + blob[12 + n:])


def _drop_config(head):
    header = json.loads(head)
    del header["config"]
    return json.dumps(header).encode()


def _edit_json(path, **values):
    """Overwrite top-level keys of a JSON file."""
    path.write_text(json.dumps({**json.loads(path.read_text()), **values}))


def _edit_payload(path, edit):
    """Apply edit(payload) to a JSON file's parsed payload in place."""
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _retype_feature_dim(path, kind):
    """Keep the manifest's feature_dim value but give it another JSON type."""
    _edit_json(path, feature_dim=kind(json.loads(path.read_text())["feature_dim"]))


def _zero_hidden(head):
    header = json.loads(head)
    header["config"]["hidden"] = 0
    return json.dumps(header).encode()


@pytest.mark.parametrize("kind, corrupt", [
    ("checkpoint", lambda p: _rewrite_header(p, lambda h: b"x" + h[1:])),
    ("checkpoint", lambda p: _rewrite_header(p, _drop_config)),
    ("checkpoint", lambda p: _rewrite_header(p, _zero_hidden)),
    ("spec", lambda p: p.write_text('{"n": 2,')),
    ("spec", lambda p: p.write_text("[1, 2]")),
    ("priors", lambda p: p.write_text('{"groups": [')),
    ("priors", lambda p: p.write_bytes(b"\xff\xfe")),
    ("spec", lambda p: _edit_json(p, classes_of_group=3)),
    ("spec", lambda p: _edit_json(p, group_of_activity=[])),
    ("spec", lambda p: _edit_payload(p, lambda d: d.update(n=d["n"] - 1))),
    ("spec", lambda p: _edit_payload(p, lambda d: d["group_weights"].append(1.0))),
    ("spec", lambda p: _edit_payload(p, lambda d: d["group_of_activity"].update(act0=7))),
    ("spec", lambda p: _edit_payload(p, lambda d: d.update(centroids=[[1.0]] * (d["n"] + 1)))),
    ("priors", lambda p: p.write_text('{"groups": 5}')),
    ("priors", lambda p: _edit_json(p, groups=[{"prior": 1}])),
    ("priors", lambda p: _edit_json(p, groups=[])),
    ("manifest", lambda p: _retype_feature_dim(p / "manifest.json", str)),
    ("manifest", lambda p: _retype_feature_dim(p / "manifest.json", float)),
    ("manifest", lambda p: _edit_json(p / "manifest.json", sequences=[{"id": "s"}])),
    ("manifest", lambda p: _edit_json(p / "manifest.json", sequences=[3])),
    ("manifest", lambda p: _edit_json(p / "manifest.json",
                                      sequences=[{"id": "s", "labels": 5, "features": "f"}])),
    ("manifest", lambda p: _edit_json(p / "manifest.json", sequences=5)),
    ("manifest", lambda p: _edit_json(p / "manifest.json", mapping=5)),
], ids=["ckpt-bad-json", "ckpt-no-config", "ckpt-bad-config", "spec-bad-json",
        "spec-not-object", "priors-bad-json", "priors-bad-utf8", "spec-wrong-type",
        "spec-wrong-container", "spec-n-not-group-count", "spec-extra-weight",
        "spec-group-id-out-of-range", "spec-bad-centroids", "priors-wrong-type", "priors-wrong-entry",
        "priors-too-few-groups", "manifest-dim-str", "manifest-dim-float",
        "manifest-entry-keys", "manifest-entry-not-object", "manifest-entry-not-string",
        "manifest-sequences-not-array", "manifest-mapping-not-string"])
def test_loaders_raise_format_error(tmp_path, rng, kind, corrupt):
    corpus, spec, prior, params = tiny_problem(rng)
    path = tmp_path / kind
    save, load = {
        "checkpoint": (lambda: model.save_checkpoint(path, params),
                       lambda: model.load_checkpoint(path)),
        "spec": (lambda: grouping.save_group_spec(path, spec, corpus.vocab),
                 lambda: grouping.load_group_spec(path, corpus.vocab)),
        "priors": (lambda: priors.save_temporal_prior(path, prior, spec, corpus.vocab),
                   lambda: priors.load_temporal_prior(path, spec, corpus.vocab)),
        "manifest": (lambda: data.write_corpus(corpus, path),
                     lambda: data.load_corpus(path / "manifest.json")),
    }[kind]
    save()
    load()  # the intact file loads
    corrupt(path)
    with pytest.raises(FormatError, match=str(path)):
        load()
