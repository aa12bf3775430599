import json
import zipfile

import numpy as np
import pytest

import gtla
from gtla import data, grouping, losses, model, priors
from gtla.errors import FormatError, TrainingError

from conftest import (edit_checkpoint, edit_checkpoint_header, finite_difference,
                      max_relative_error, tiny_problem)


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
    a = gtla.forward(x, params)
    b = gtla.forward(x, params)
    c = gtla.forward(x, params, dropout_rng=np.random.default_rng(0))
    for la_, lb, lc in zip(a.logits, b.logits, c.logits):
        assert np.array_equal(la_, lb)
        assert np.array_equal(la_, lc)


def test_dropout_requires_rng_and_changes_output(rng):
    cfg = small_config(dropout=0.5)
    params = gtla.init_params(cfg)
    x = rng.standard_normal((4, 11))
    a = gtla.forward(x, params, dropout_rng=np.random.default_rng(0))
    b = gtla.forward(x, params)
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
    before = gtla.ModelParams(params.cfg, params.values)
    gtla.adam_step(params, model.FlatTensors(cfg), gtla.AdamState(cfg))
    for name in params.values:
        assert np.array_equal(params.values[name], before.values[name])


def test_adam_first_step_magnitude_is_lr_signed(rng):
    cfg = small_config()
    params = gtla.init_params(cfg)
    before = gtla.ModelParams(params.cfg, params.values)
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


def _stepped_checkpoint(path, rng):
    """Save a small model after one Adam step; returns its params and state."""
    cfg = small_config(seed=8)
    params, state = gtla.init_params(cfg), gtla.AdamState(cfg)
    grads = model.FlatTensors(cfg)
    grads.flat[...] = rng.standard_normal(grads.flat.size)
    gtla.adam_step(params, grads, state)
    model.save_checkpoint(path, params, step=1, adam=state)
    return params, state


def test_checkpoint_is_an_uncompressed_npz_of_the_flat_buffers(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    params, state = _stepped_checkpoint(path, rng)
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    assert [info.filename for info in infos] == ["header.npy", "params.npy", "m.npy", "v.npy"]
    assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(npz["header"].item())
        assert (header["version"], header["step"], header["adam_t"]) == (2, 1, 1)
        for name, flat in (("params", params.values.flat), ("m", state.m.flat),
                           ("v", state.v.flat)):
            assert npz[name].dtype == np.float32
            assert np.array_equal(npz[name], flat.astype(np.float32))
    # No timestamp or other state: the same inputs give the same bytes.
    model.save_checkpoint(tmp_path / "again.ckpt", params, step=1, adam=state)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_without_adam_state_loads_zero_moments(tmp_path):
    params = gtla.init_params(small_config())
    model.save_checkpoint(tmp_path / "c.ckpt", params)
    loaded, adam, extra = model.load_checkpoint(tmp_path / "c.ckpt")
    assert np.array_equal(loaded.values.flat, params.values.flat.astype(np.float32))
    assert adam.t == 0 and not adam.m.flat.any() and not adam.v.flat.any()
    assert extra == {"step": 0}


@pytest.mark.parametrize("member, shape", [
    ("params", lambda n: (1,)), ("params", lambda n: (n - 1,)), ("params", lambda n: (n + 1,)),
    ("params", lambda n: (n, 1)), ("params", lambda n: ()), ("m", lambda n: (1,)),
    ("v", lambda n: (n - 1,)),
], ids=["params-1", "params-short", "params-long", "params-2d", "params-0d", "m-1", "v-short"])
def test_checkpoint_member_of_wrong_shape_raises_format_error(tmp_path, rng, member, shape):
    path = tmp_path / "model.ckpt"
    params, _ = _stepped_checkpoint(path, rng)
    wrong = shape(params.values.flat.size)
    edit_checkpoint(path, lambda members: members.update({member: np.ones(wrong, np.float32)}))
    with pytest.raises(FormatError, match=f"{path}.*member '{member}' has shape"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 3, "2", None])
def test_checkpoint_header_of_other_version_raises_format_error(tmp_path, rng, version):
    path = tmp_path / "model.ckpt"
    _stepped_checkpoint(path, rng)
    edit_checkpoint_header(path, lambda header: header.update(version=version))
    with pytest.raises(FormatError, match=f"{path}.*header version {version!r}, not 2"):
        model.load_checkpoint(path)


def test_checkpoint_header_with_nan_raises_format_error(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    _stepped_checkpoint(path, rng)
    edit_checkpoint_header(path, lambda header: header["extra"].update(x=float("nan")))
    with pytest.raises(FormatError, match=f"{path}.*non-finite number NaN"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("extra", [{"x": float("nan")}, {"history": [1.0, float("inf")]}],
                         ids=["nan", "inf-in-list"])
def test_save_checkpoint_refuses_a_non_finite_header_value_before_writing(tmp_path, extra):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="not JSON compliant"):
        model.save_checkpoint(path, gtla.init_params(small_config()), extra=extra)
    assert not path.exists()


@pytest.mark.parametrize("member, value", [("params", np.inf), ("m", 1e39), ("v", np.nan)])
def test_save_checkpoint_refuses_a_buffer_not_finite_in_float32(tmp_path, member, value):
    cfg = small_config()
    params, adam = gtla.init_params(cfg), gtla.AdamState(cfg)
    {"params": params.values, "m": adam.m, "v": adam.v}[member].flat[3] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(TrainingError, match=f"'{member}' has values that are not finite"):
        model.save_checkpoint(path, params, adam=adam)
    assert not path.exists()


def test_flipped_zip_directory_bits_raise_format_error_or_load_intact(tmp_path):
    # The zip directory has no checksum. Each of its bits, flipped, must give
    # one FormatError (zipfile raises BadZipFile, KeyError, OSError,
    # NotImplementedError or RuntimeError underneath) or the intact values.
    path = tmp_path / "model.ckpt"
    params = gtla.init_params(small_config())
    model.save_checkpoint(path, params)
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        start = archive.start_dir  # central directory, then the end record
    errors = 0
    for bit in range(8 * start, 8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(flipped)
        try:
            loaded, _, _ = model.load_checkpoint(path)
        except FormatError:
            errors += 1
            continue
        assert np.array_equal(loaded.values.flat, params.values.flat.astype(np.float32)), bit
    assert errors > 0


def _rewrite_header(path, edit):
    """Replace a checkpoint's header member with edit(header bytes)."""
    edit_checkpoint(path, lambda members: members.update(
        header=np.array(edit(members["header"].item()))))


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
