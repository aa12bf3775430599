import numpy as np
import pytest

import gtla
from gtla import losses
from gtla.errors import ConfigError

from conftest import tiny_problem


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat, flat_grad = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        flat_grad[i] = (hi - lo) / (2 * eps)
    return grad


class TestCeLoss:
    def test_uniform_logits(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3, 0])
        loss, _ = gtla.ce_loss(logits, labels)
        assert loss == pytest.approx(np.log(4))

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((3, 2))
        labels = np.array([1, 1])
        logits[1] = 50.0
        loss, _ = gtla.ce_loss(logits, labels)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_sums_to_zero_per_frame(self, rng):
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 5, size=7)
        _, grad = gtla.ce_loss(logits, labels)
        assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 4, size=6)
        _, grad = gtla.ce_loss(logits, labels)
        numeric = numeric_grad(lambda: gtla.ce_loss(logits, labels)[0], logits)
        assert np.allclose(grad, numeric, atol=1e-8)


class TestSmoothingLoss:
    def test_constant_probabilities_zero(self):
        log_p = np.tile(np.log([0.2, 0.3, 0.5])[:, None], (1, 8))
        loss, grad = gtla.smoothing_loss(log_p, clip=4.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_clipped_term_contributes_clip_squared(self):
        # one |difference| = 10 > clip 4 among N terms: 16/N, zero gradient there
        log_p = np.zeros((2, 3))
        log_p[0, 1] = -10.0
        loss, grad = gtla.smoothing_loss(log_p, clip=4.0)
        count = 2 * 2
        assert loss == pytest.approx((16.0 + 16.0) / count)  # both diffs of row 0 clip
        assert np.all(grad[0] == 0.0)

    def test_single_term_value_and_gradient(self):
        # T=2, L=1, |difference| = 2 <= clip: loss 4, d loss / d diff = 4
        log_p = np.array([[0.0, 2.0]])
        loss, grad = gtla.smoothing_loss(log_p, clip=4.0)
        assert loss == pytest.approx(4.0)
        assert grad[0, 1] == pytest.approx(4.0)
        assert grad[0, 0] == pytest.approx(-4.0)
        numeric = numeric_grad(lambda: gtla.smoothing_loss(log_p, 4.0)[0], log_p)
        assert np.allclose(grad, numeric, atol=1e-8)

    def test_gradient_matches_finite_differences(self, rng):
        log_p = rng.standard_normal((3, 9)) * 3
        _, grad = gtla.smoothing_loss(log_p, clip=4.0)
        numeric = numeric_grad(lambda: gtla.smoothing_loss(log_p, 4.0)[0], log_p)
        assert np.allclose(grad, numeric, atol=1e-6)

    def test_single_frame_is_zero(self):
        loss, grad = gtla.smoothing_loss(np.zeros((3, 1)), clip=4.0)
        assert loss == 0.0 and grad.shape == (3, 1)


class TestLaLoss:
    def test_tau_zero_equals_ce(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 4, size=6)
        prior = rng.dirichlet(np.ones(4))
        la, la_grad = gtla.la_loss(logits, labels, prior, tau=0.0)
        ce, ce_grad = gtla.ce_loss(logits, labels)
        assert la == pytest.approx(ce, abs=1e-12)
        assert np.allclose(la_grad, ce_grad, atol=1e-12)

    def test_uniform_prior_equals_ce(self, rng):
        logits = rng.standard_normal((5, 8))
        labels = rng.integers(0, 5, size=8)
        prior = np.full(5, 0.2)
        la, la_grad = gtla.la_loss(logits, labels, prior, tau=0.7)
        ce, ce_grad = gtla.ce_loss(logits, labels)
        assert la == pytest.approx(ce, abs=1e-12)
        assert np.allclose(la_grad, ce_grad, atol=1e-12)

    def test_known_value(self):
        # zero logits, prior (0.9, 0.1), tau 1, true class is the rare one:
        # the adjusted softmax equals the prior, so the loss is -log 0.1
        loss, _ = gtla.la_loss(np.zeros((2, 1)), np.array([1]),
                               np.array([0.9, 0.1]), tau=1.0)
        assert loss == pytest.approx(np.log(10.0), abs=1e-9)

    def test_rare_class_gets_larger_push(self):
        # Equal logits on a two-class frame: the gradient pushes the rare
        # class's logit up harder than the frequent one's.
        logits = np.zeros((2, 1))
        labels_rare = np.array([1])
        prior = np.array([0.9, 0.1])
        _, grad_rare = gtla.la_loss(logits, labels_rare, prior, tau=1.0)
        _, grad_freq = gtla.la_loss(logits, np.array([0]), prior, tau=1.0)
        # grad < 0 raises a logit under gradient descent
        assert grad_rare[1, 0] < grad_freq[0, 0] < 0


def test_loss_helpers_keep_float32(rng):
    """Training computes in float32: no helper hands float64 back to backward."""
    logits = rng.standard_normal((4, 9)).astype(np.float32)
    labels = np.array([0, 0, 1, 1, 1, 2, 2, 0, 1])
    prior = gtla.GroupPrior(np.full(3, 1 / 3), (frozenset(),) * 3, (frozenset(),) * 3)
    assert gtla.ce_loss(logits, labels)[1].dtype == np.float32
    assert gtla.la_loss(logits, labels, np.full(4, 0.25), tau=0.5)[1].dtype == np.float32
    assert gtla.smoothing_loss(logits, clip=4.0)[1].dtype == np.float32
    assert gtla.gtla_adjust(logits, labels, prior, tau=0.5).dtype == np.float32


def open_prior(probs):
    n = len(probs)
    return gtla.GroupPrior(np.asarray(probs, dtype=float),
                           tuple(frozenset() for _ in range(n)),
                           tuple(frozenset() for _ in range(n)))


class TestGtlaAdjust:
    def test_tau_zero_identity(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 3, size=5)
        out = gtla.gtla_adjust(logits, labels, open_prior([0.5, 0.3, 0.2]), tau=0.0)
        assert np.array_equal(out, logits)

    def test_open_bounds_equal_priors_keep_real_posterior(self, rng):
        # Uniform shift of the real rows: the decoded (real-class) posterior
        # is unchanged, and real-class logit gaps are untouched.
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 3, size=6)
        prior = open_prior([1 / 3] * 3)
        out = gtla.gtla_adjust(logits, labels, prior, tau=0.8)
        before = losses.softmax(logits[:3])
        after_all = losses.softmax(out)
        after = after_all[:3] / after_all[:3].sum(axis=0, keepdims=True)
        before = before / before.sum(axis=0, keepdims=True)
        assert np.allclose(after, before, atol=1e-12)
        assert np.allclose(np.diff(out[:3], axis=0), np.diff(logits[:3], axis=0),
                           atol=1e-12)

    def test_others_row_never_adjusted(self, rng):
        logits = rng.standard_normal((3, 5))
        labels = rng.integers(0, 2, size=5)
        out = gtla.gtla_adjust(logits, labels, open_prior([0.8, 0.2]), tau=1.0)
        assert np.array_equal(out[2], logits[2])
        assert not np.array_equal(out[:2], logits[:2])

    def test_out_of_bounds_matches_true_class_adjustment(self):
        # Out-of-bounds frames: the adjustment equals tau * log p(y_t), so
        # class c and the true label shift identically there.
        prior = gtla.GroupPrior(np.array([0.6, 0.3, 0.1]),
                                (frozenset(), frozenset(), frozenset({0})),
                                (frozenset(), frozenset(), frozenset()))
        labels = np.array([0, 0, 1, 1])  # class 2's precede-anchor 0 last at t=1
        logits = np.zeros((4, 4))
        out = gtla.gtla_adjust(logits, labels, prior, tau=1.0)
        log_p = prior.clamped_log_prior()
        # inside bounds for class 2: t <= 1? bounds lo=1, hi=4 -> t in {1,2,3}
        assert out[2, 0] == pytest.approx(log_p[labels[0]])  # outside: true-label adj
        assert out[2, 1] == pytest.approx(log_p[2])          # inside: own adj

    def test_without_temporal_factor_is_plain_offset(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 2, size=4)
        prior = open_prior([0.7, 0.3])
        out = gtla.gtla_adjust(logits, labels, prior, tau=0.5, temporal_factor=False)
        expected = logits.copy()
        expected[:2] += 0.5 * prior.clamped_log_prior()[:, None]
        assert np.allclose(out, expected)


class TestGtlaLoss:
    def build(self, rng, num_groups=2):
        corpus, spec, prior, params = tiny_problem(rng, max_groups=num_groups)
        seq = corpus.sequences[0]
        k = spec.group_of(seq)
        local = gtla.relabel_for_group(seq, spec, k)
        logits = [rng.standard_normal((h, seq.num_frames)) for h in spec.head_sizes()]
        return spec, prior, logits, local, k

    def test_eta_zero_keeps_target_term_only(self, rng):
        spec, prior, logits, local, k = self.build(rng)
        cfg = losses.TrainConfig(method="gtla", tau=0.5, eta=0.0)
        loss, grads = gtla.gtla_loss(logits, local, k, spec, prior, cfg)
        for i, g in enumerate(grads):
            if i != k:
                assert np.all(g == 0.0)
        adjusted = gtla.gtla_adjust(logits[k], local, prior.groups[k], 0.5)
        expected, _ = gtla.ce_loss(adjusted, local)
        assert loss == pytest.approx(spec.group_weights[k] * expected)

    def test_single_group_tau_zero_equals_ce(self, rng):
        corpus, spec, prior, _ = tiny_problem(rng, max_groups=1)
        assert spec.n == 1
        seq = corpus.sequences[0]
        local = gtla.relabel_for_group(seq, spec, 0)
        logits = [rng.standard_normal((spec.head_sizes()[0], seq.num_frames))]
        cfg = losses.TrainConfig(method="gtla", tau=0.0, eta=0.7)
        loss, grads = gtla.gtla_loss(logits, local, 0, spec, prior, cfg)
        ce, ce_grad = gtla.ce_loss(logits[0], local)
        assert loss == pytest.approx(ce, abs=1e-12)
        assert np.allclose(grads[0], ce_grad, atol=1e-12)

    def test_single_group_open_bounds_equals_la(self, rng):
        # One group, every ordering set empty: the loss is plain logit
        # adjustment with the group prior (others row unadjusted).
        vocab = gtla.ClassVocab(("a", "b"))
        labels = np.array([0, 0, 0, 1])
        corpus = gtla.Corpus(vocab,
                             [gtla.FrameSeq(labels, activity="x", id="s0")],
                             [gtla.FeatureMatrix(np.zeros((2, 4)))])
        spec = gtla.build_group_spec(corpus, gtla.ByActivity())
        prior = gtla.extract_priors(corpus, spec)
        # both classes occur before and after each other? no: make sets open
        prior = gtla.TemporalPrior((open_prior(prior.groups[0].prior),))
        logits = [rng.standard_normal((3, 4))]
        cfg = losses.TrainConfig(method="gtla", tau=0.5, eta=0.3)
        loss, _ = gtla.gtla_loss(logits, labels, 0, spec, prior, cfg)
        manual = logits[0].copy()
        manual[:2] += 0.5 * np.log(prior.groups[0].prior)[:, None]
        expected, _ = gtla.ce_loss(manual, labels)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_confident_predictions_drive_loss_to_zero(self, rng):
        spec, prior, logits, local, k = self.build(rng, num_groups=2)
        if spec.n < 2:
            pytest.skip("needs two groups")
        for i in range(spec.n):
            logits[i][:] = 0.0
            if i == k:
                logits[i][local, np.arange(local.size)] = 80.0
            else:
                logits[i][spec.others_id(i)] = 80.0
        cfg = losses.TrainConfig(method="gtla", tau=0.5, eta=0.5)
        loss, _ = gtla.gtla_loss(logits, local, k, spec, prior, cfg)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradients_sum_to_zero_per_frame_per_group(self, rng):
        spec, prior, logits, local, k = self.build(rng)
        cfg = losses.TrainConfig(method="gtla", tau=0.5, eta=0.5)
        _, grads = gtla.gtla_loss(logits, local, k, spec, prior, cfg)
        for g in grads:
            assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)


class TestTotalLoss:
    def test_smooth_weight_zero_is_classification_only(self, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        seq, feats = corpus.sequences[0], corpus.features[0]
        k = spec.group_of(seq)
        local = gtla.relabel_for_group(seq, spec, k)
        out = gtla.forward(feats, params)
        cfg0 = losses.TrainConfig(method="gtla", smooth_weight=0.0)
        cfg1 = losses.TrainConfig(method="gtla", smooth_weight=0.15)
        loss0, grads0, parts0 = gtla.total_loss(out.logits, local, k, spec, prior, cfg0)
        cls_loss, cls_grads = gtla.gtla_loss(out.logits, local, k, spec, prior, cfg0)
        assert loss0 == pytest.approx(cls_loss)
        assert parts0["smoothing"] == 0.0
        loss1, _, parts1 = gtla.total_loss(out.logits, local, k, spec, prior, cfg1)
        assert loss1 == pytest.approx(parts1["classification"]
                                      + 0.15 * parts1["smoothing"])

    def test_time_constant_logits_have_zero_smoothing(self, rng):
        corpus, spec, prior, _ = tiny_problem(rng, max_groups=1)
        seq = corpus.sequences[0]
        local = gtla.relabel_for_group(seq, spec, 0)
        logits = [np.tile(rng.standard_normal((spec.head_sizes()[0], 1)),
                          (1, seq.num_frames))]
        cfg = losses.TrainConfig(method="gtla")
        _, _, parts = gtla.total_loss(logits, local, 0, spec, prior, cfg)
        assert parts["smoothing"] == pytest.approx(0.0, abs=1e-15)

    def test_method_dispatch(self, rng):
        corpus, spec, prior, params = tiny_problem(rng)
        seq, feats = corpus.sequences[0], corpus.features[0]
        k = spec.group_of(seq)
        local = gtla.relabel_for_group(seq, spec, k)
        out = gtla.forward(feats, params)
        values = {}
        for method in losses.METHODS:
            cfg = losses.TrainConfig(method=method, tau=0.5, eta=0.5)
            values[method], _, _ = gtla.total_loss(out.logits, local, k, spec,
                                                   prior, cfg)
        # different methods produce different objectives on non-trivial input
        assert values["ce"] != pytest.approx(values["la"])

    @pytest.mark.parametrize("changes", [
        {"method": "banana"}, {"tau": -0.1}, {"smooth_clip": 0.0}, {"lr": -0.5}, {"lr": 0.0},
        {"seed": -1},
        *({name: value} for name in ("tau", "eta", "smooth_weight", "smooth_clip", "lr")
          for value in (np.inf, -np.inf, np.nan)),
    ], ids=lambda changes: ",".join(f"{k}={v}" for k, v in changes.items()))
    def test_invalid_config_rejected(self, changes):
        with pytest.raises(ConfigError):
            losses.TrainConfig(**changes)


# The two-pass objective the single pass replaced, kept verbatim as an oracle:
# every head's cross-entropy and its smoothing term each take their own
# log-softmax, and the classification loss is its own function.

def oracle_ce_loss(logits, labels):
    labels = np.asarray(labels)
    num_frames = labels.size
    log_p = losses.log_softmax(logits)
    loss = -log_p[labels, np.arange(num_frames)].mean()
    grad = np.exp(log_p)
    grad[labels, np.arange(num_frames)] -= 1.0
    return float(loss), grad / num_frames


def oracle_gtla_adjust(logits, labels, prior, tau, temporal_factor=True):
    labels = np.asarray(labels)
    num_real = prior.num_classes
    out = logits.astype(np.float64).copy()
    if tau == 0.0:
        return out
    if temporal_factor:
        adjust = (gtla.priors.temporal_factor_matrix(labels, prior)
                  * prior.clamped_log_prior()[:, None])
    else:
        adjust = np.broadcast_to(prior.clamped_log_prior()[:, None],
                                 (num_real, labels.size))
    out[:num_real] += tau * adjust
    return out


def oracle_gtla_loss(logits, labels, k, spec, prior, cfg):
    labels = np.asarray(labels)
    group_prior = prior.groups[k]
    if cfg.method == "ce":
        target = logits[k]
    else:
        target = oracle_gtla_adjust(logits[k], labels, group_prior, cfg.tau,
                                    temporal_factor=cfg.method == "gtla")
    alpha = spec.group_weights[k]
    loss, grad_k = oracle_ce_loss(target, labels)
    loss *= alpha
    grads = [np.zeros_like(l) for l in logits]
    grads[k] = alpha * grad_k
    for i in range(spec.n):
        if i == k:
            continue
        others = np.full(labels.size, spec.others_id(i), dtype=np.int64)
        li, gi = oracle_ce_loss(logits[i], others)
        loss += cfg.eta * li
        grads[i] = cfg.eta * gi
    return float(loss), grads


def oracle_total_loss(logits, labels, k, spec, prior, cfg):
    loss, grads = oracle_gtla_loss(logits, labels, k, spec, prior, cfg)
    parts = {"classification": loss, "smoothing": 0.0}
    if cfg.smooth_weight > 0.0:
        smooth_total = 0.0
        for i, s in enumerate(logits):
            log_p = losses.log_softmax(s)
            sm, d_log_p = losses.smoothing_loss(log_p, cfg.smooth_clip)
            smooth_total += sm
            scale = cfg.smooth_weight / spec.n
            p = np.exp(log_p)
            grads[i] += scale * (d_log_p - p * d_log_p.sum(axis=0, keepdims=True))
        parts["smoothing"] = smooth_total / spec.n
        loss += cfg.smooth_weight * parts["smoothing"]
    return float(loss), grads, parts


def random_loss_cases(rng, num_problems=40):
    """Random problems with 1-4 groups; every group k of each, every method,
    smoothing off and on, random tau (sometimes 0), eta and clip."""
    for _ in range(num_problems):
        corpus, spec, prior, _ = tiny_problem(rng, max_frames=16, max_groups=4)
        for k in range(spec.n):
            seq = next(s for s in corpus.sequences if spec.group_of(s) == k)
            local = gtla.relabel_for_group(seq, spec, k)
            logits = [rng.standard_normal((h, seq.num_frames)) * 3.0
                      for h in spec.head_sizes()]
            for method in losses.METHODS:
                for smooth_weight in (0.0, float(rng.uniform(0.05, 1.0))):
                    cfg = losses.TrainConfig(
                        method=method, tau=float(rng.choice([0.0, rng.uniform(0.1, 1.5)])),
                        eta=float(rng.uniform(0.0, 1.0)), smooth_weight=smooth_weight,
                        smooth_clip=float(rng.uniform(0.5, 4.0)))
                    yield logits, local, k, spec, prior, cfg


class TestSinglePass:
    def test_matches_two_pass_oracle_bit_for_bit(self):
        seen = set()
        cases = 0
        for logits, local, k, spec, prior, cfg in random_loss_cases(np.random.default_rng(6)):
            loss, grads, parts = gtla.total_loss(logits, local, k, spec, prior, cfg)
            o_loss, o_grads, o_parts = oracle_total_loss(logits, local, k, spec, prior, cfg)
            assert np.array_equal(loss, o_loss) and parts == o_parts
            assert all(np.array_equal(g, o) for g, o in zip(grads, o_grads, strict=True))
            c_loss, c_grads = gtla.gtla_loss(logits, local, k, spec, prior, cfg)
            o_loss, o_grads = oracle_gtla_loss(logits, local, k, spec, prior, cfg)
            assert np.array_equal(c_loss, o_loss)
            assert all(np.array_equal(g, o) for g, o in zip(c_grads, o_grads, strict=True))
            seen.add((spec.n, k, cfg.method, cfg.smooth_weight > 0))
            cases += 1
        assert cases >= 100
        for n in (3, 4):
            assert {(n, k, m, s) for k in range(n) for m in losses.METHODS
                    for s in (False, True)} <= seen

    @pytest.mark.parametrize("method", losses.METHODS)
    def test_log_softmax_runs_at_most_once_per_head_plus_target(self, monkeypatch, method):
        calls = []
        original = losses.log_softmax

        def counted(logits):
            calls.append(logits.shape)
            return original(logits)

        monkeypatch.setattr(losses, "log_softmax", counted)
        rng = np.random.default_rng(3)
        for logits, local, k, spec, prior, cfg in random_loss_cases(rng, num_problems=6):
            if cfg.method != method:
                continue
            calls.clear()
            gtla.total_loss(logits, local, k, spec, prior, cfg)
            assert len(calls) <= spec.n + 1
            if method == "ce":
                assert len(calls) == spec.n
