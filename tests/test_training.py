from dataclasses import replace

import numpy as np
import pytest

import gtla
from gtla import losses, model, training
from gtla.errors import FormatError


def small_setup(seed=0, epochs=2):
    cfg = gtla.longtail_benchmark_config(seed=3, train_per_activity=3,
                                         test_per_activity=1)
    train, test = gtla.synth_generate(cfg)
    spec = gtla.build_group_spec(train, gtla.ByActivity())
    prior = gtla.extract_priors(train, spec)
    backbone = gtla.BackboneConfig(in_dim=train.feature_dim, hidden=8,
                                   num_layers=2, dropout=0.25,
                                   head_sizes=spec.head_sizes(), seed=seed)
    train_cfg = losses.TrainConfig(method="gtla", epochs=epochs, seed=seed)
    return train, test, spec, prior, backbone, train_cfg


def test_training_is_deterministic():
    outputs = []
    for _ in range(2):
        train, _, spec, prior, backbone, cfg = small_setup(seed=5)
        state = gtla.train_model(train, spec, prior, backbone, cfg)
        outputs.append(state)
    assert outputs[0].history == outputs[1].history
    for name in outputs[0].params.values:
        assert np.array_equal(outputs[0].params.values[name],
                              outputs[1].params.values[name])


def test_loss_decreases_over_first_epochs():
    train, _, spec, prior, backbone, _ = small_setup()
    cfg = losses.TrainConfig(method="gtla", epochs=5, seed=1)
    state = gtla.train_model(train, spec, prior, backbone, cfg)
    assert state.history[-1] < state.history[0]


def test_methods_produce_different_checkpoints():
    train, _, spec, prior, backbone, _ = small_setup()
    states = {}
    for method in ("ce", "gtla"):
        cfg = losses.TrainConfig(method=method, epochs=1, seed=2)
        states[method] = gtla.train_model(train, spec, prior, backbone, cfg)
    diffs = [not np.allclose(states["ce"].params.values[n],
                             states["gtla"].params.values[n])
             for n in states["ce"].params.values]
    assert any(diffs)


def test_resume_from_checkpoint_is_deterministic(tmp_path):
    train, _, spec, prior, backbone, _ = small_setup()
    cfg2 = losses.TrainConfig(method="gtla", epochs=2, seed=4)
    state = gtla.train_model(train, spec, prior, backbone, cfg2)
    ckpt = tmp_path / "chk.ckpt"
    model.save_checkpoint(ckpt, state.params, step=state.adam.t, adam=state.adam,
                          extra={"train_state": state.rng_payload()})

    def resume():
        params, adam, extra = model.load_checkpoint(ckpt)
        restored = training.TrainState.restore(params, adam, extra["train_state"])
        cfg3 = losses.TrainConfig(method="gtla", epochs=3, seed=4)
        return gtla.train_model(train, spec, prior, backbone, cfg3, restored)

    a, b = resume(), resume()
    assert a.epoch == b.epoch == 3
    for name in a.params.values:
        assert np.array_equal(a.params.values[name], b.params.values[name])
    assert not np.array_equal(a.params.values["in.w"], state.params.values["in.w"])


@pytest.mark.parametrize("method", ["ce", "la", "gtla"])
def test_resume_equals_float32_rounding_in_process(tmp_path, method):
    """Save after epoch 2, load, restore and train to epoch 4: bit for bit the
    run that rounds params and both moments to float32 in place at epoch 2
    and continues in process (checkpoints store float32)."""
    train, _, spec, prior, backbone, _ = small_setup(seed=3)
    first = losses.TrainConfig(method=method, epochs=2, seed=3)
    full = replace(first, epochs=4)
    state = gtla.train_model(train, spec, prior, backbone, first)
    ckpt = tmp_path / "c.ckpt"
    model.save_checkpoint(ckpt, state.params, step=state.adam.t, adam=state.adam,
                          extra={"train_state": state.rng_payload()})
    for flat in (state.params.values.flat, state.adam.m.flat, state.adam.v.flat):
        flat[...] = flat.astype(np.float32)
    gtla.train_model(train, spec, prior, backbone, full, state)

    params, adam, extra = model.load_checkpoint(ckpt)
    resumed = gtla.train_model(train, spec, prior, backbone, full,
                               training.TrainState.restore(params, adam, extra["train_state"]))
    assert np.array_equal(resumed.params.values.flat, state.params.values.flat)
    assert np.array_equal(resumed.adam.m.flat, state.adam.m.flat)
    assert np.array_equal(resumed.adam.v.flat, state.adam.v.flat)
    assert resumed.adam.t == state.adam.t == 4 * len(train.sequences)
    assert resumed.history == state.history and len(state.history) == 4
    assert resumed.epoch == state.epoch == 4
    assert resumed.dropout_rng.bit_generator.state == state.dropout_rng.bit_generator.state
    assert resumed.order_rng.bit_generator.state == state.order_rng.bit_generator.state


def test_seed_streams_are_independent():
    # Same seed, different dropout draws should not change the shuffle order.
    train, _, spec, prior, backbone, cfg = small_setup(seed=6)
    s1 = training.init_train_state(cfg, backbone)
    s2 = training.init_train_state(cfg, backbone)
    s2.dropout_rng.random(1000)  # advance dropout stream only
    assert np.array_equal(s1.order_rng.permutation(10), s2.order_rng.permutation(10))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_restore_rejects_a_non_finite_history(value):
    _, _, _, _, backbone, cfg = small_setup()
    state = training.init_train_state(cfg, backbone)
    payload = {**state.rng_payload(), "history": [1.5, value]}
    with pytest.raises(FormatError, match="finite numbers as .history."):
        training.TrainState.restore(state.params, state.adam, payload)
