import json
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gtla
from gtla import data, inference, losses, model, priors, training
from gtla.data.io import from_json, parse_json, read_json, to_json
from gtla.errors import FormatError, TrainingError


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
def test_resume_equals_the_uninterrupted_run(tmp_path, method):
    """Save after epoch 2, load, restore and train to epoch 4: bit for bit the
    run that trains to epoch 4 without stopping. Training state is float32,
    which is what a checkpoint stores, so saving loses nothing."""
    train, _, spec, prior, backbone, _ = small_setup(seed=3)
    first = losses.TrainConfig(method=method, epochs=2, seed=3)
    full = replace(first, epochs=4)
    halted = gtla.train_model(train, spec, prior, backbone, first)
    ckpt = tmp_path / "c.ckpt"
    model.save_checkpoint(ckpt, halted.params, step=halted.adam.t, adam=halted.adam,
                          extra={"train_state": halted.rng_payload()})
    state = gtla.train_model(train, spec, prior, backbone, full)

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


def test_to_json_is_the_inverse_of_from_json(tmp_path):
    """Each schema object gtla writes reads back equal from its JSON text (the text,
    because a tuple is read back only from an array)."""
    train, test, spec, prior, backbone, cfg = small_setup(epochs=1)
    state = gtla.train_model(train, spec, prior, backbone, cfg)
    manifest = read_json(data.write_corpus(train, tmp_path / "corpus"))
    priors.save_temporal_prior(tmp_path / "priors.json", prior, spec, train.vocab)
    predictions = [inference.predict_sequence(f, state.params, spec, s.id) for s, f in test]
    report = gtla.compute_report(predictions, test, spec, prior, gtla.head_tail_split(train, 300),
                                 [spec.group_of(s) for s in test.sequences])
    saved = training.SavedState(state.dropout_rng.bit_generator.state,
                                state.order_rng.bit_generator.state, state.epoch,
                                tuple(state.history))
    written = from_json(data.io.Manifest, manifest, "manifest")
    for obj in (cfg, backbone, written, saved,
                from_json(priors._PriorsFile, read_json(tmp_path / "priors.json"), "priors"),
                report):
        text = json.dumps(to_json(obj))
        assert from_json(type(obj), parse_json(text), type(obj).__name__) == obj
    assert json.loads(json.dumps(to_json(written))) == manifest  # the file is what to_json writes
    assert {"lambda", "delta"} <= to_json(cfg).keys() and "layers" in to_json(backbone)
    assert {"global", "fp_taxonomy", "head_tail"} <= to_json(report).keys()


@pytest.fixture
def overlapped(monkeypatch):
    """Every training step shares its work with the worker thread, whatever the CPU count.
    Returns the list that records, per mask draw, whether the main thread made it."""
    draws, draw = [], training.dropout_masks
    monkeypatch.setattr(training, "OVERLAP_MIN_FRAMES", 0)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    for var in training.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(training, "dropout_masks", lambda *args: draws.append(
        threading.current_thread() is threading.main_thread()) or draw(*args))
    return draws


@pytest.mark.parametrize("dropout", [0.25, 0.0])
@pytest.mark.parametrize("method", ["ce", "la", "gtla"])
def test_overlapped_training_is_bit_identical_to_serial(monkeypatch, overlapped, method, dropout):
    """With the rule's threshold at the median length, long and short steps alternate, so
    the worker and the main thread take turns drawing masks; without dropout, backward
    reads a copy of d_z rather than the array it goes on to update."""
    train, _, spec, prior, backbone, _ = small_setup()
    backbone = replace(backbone, dropout=dropout)
    cfg = losses.TrainConfig(method=method, epochs=2, seed=6)
    frames = sorted(seq.num_frames for seq in train.sequences)
    states = []
    for threshold in (2 ** 62, frames[len(frames) // 2]):
        monkeypatch.setattr(training, "OVERLAP_MIN_FRAMES", threshold)
        overlapped.clear()
        states.append(gtla.train_model(train, spec, prior, backbone, cfg))
    assert set(overlapped) == {True, False}
    serial, overlap = states
    assert serial.history == overlap.history
    for a, b in ((serial.params.values, overlap.params.values), (serial.adam.m, overlap.adam.m),
                 (serial.adam.v, overlap.adam.v)):
        assert a.flat.tobytes() == b.flat.tobytes()
    assert serial.rng_payload() == overlap.rng_payload()


@pytest.mark.parametrize("var, value", [("OPENBLAS_NUM_THREADS", None), ("OMP_NUM_THREADS", "2"),
                                        ("MKL_NUM_THREADS", "4")])
def test_training_stays_serial_unless_blas_is_pinned_to_one_thread(monkeypatch, overlapped, var,
                                                                   value):
    """A multi-threaded BLAS already uses the second CPU: with any of its thread variables
    unset or above 1, the main thread makes every draw and no step reaches the worker."""
    if value is None:
        monkeypatch.delenv(var)
    else:
        monkeypatch.setenv(var, value)
    train, _, spec, prior, backbone, cfg = small_setup()
    gtla.train_model(train, spec, prior, backbone, cfg)
    assert overlapped and all(overlapped)


def test_training_leaves_no_thread_behind(overlapped):
    train, test, spec, prior, backbone, cfg = small_setup()
    start = threading.active_count()
    state = gtla.train_model(train, spec, prior, backbone, cfg)
    assert False in overlapped  # the worker drew masks
    assert threading.active_count() == start
    # One process per CPU predicts; Python 3.12 warns when a fork copies a live thread.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert len(gtla.predict_corpus(state.params, test, spec)) == len(test)


def test_a_failed_epoch_leaves_no_thread_behind(overlapped):
    train, _, spec, prior, backbone, cfg = small_setup()
    spec = replace(spec, group_weights=(1e300,) * spec.n)  # overflows the float32 gradient
    start = threading.active_count()
    with pytest.raises(TrainingError, match="non-finite gradient"):
        gtla.train_model(train, spec, prior, backbone, cfg)
    assert False in overlapped  # the worker had started
    assert threading.active_count() == start
