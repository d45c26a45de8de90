import math
from dataclasses import replace
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import model
from fedmesh.aggregation import SparseVector
from fedmesh.errors import ConfigError
from fedmesh.model import (
    EmptyShardError,
    EncodedBatch,
    Metrics,
    NUM_CLASSES,
    TAGS,
    TaggedSentence,
    TrainConfig,
    decode_entities,
    encode_sentences,
    evaluate,
    local_train,
    loss_and_grad,
    repair_tags,
    token_count,
    zero_params,
)
from fedmesh.runner import Seeds, run_centralized
from fedmesh.seeding import derive_seed

DATA = Path(__file__).parent / "data"

SMALL = TrainConfig(feature_dim=1 << 10, learning_rate=0.5, batch_size=8, seed=3)


def sentence(tokens, tags):
    return TaggedSentence(tuple(tokens), tuple(tags))


def featurize(sent, feature_dim, hash_seed=0):
    """Each token's feature indices, read off encode_sentences' CSR packing."""
    tokens = sent.tokens if isinstance(sent, TaggedSentence) else tuple(sent)
    batch = encode_sentences(
        [TaggedSentence(tokens, ("O",) * len(tokens))], feature_dim, hash_seed
    )
    return [batch.feats[a:b] for a, b in zip(batch.token_ptr[:-1], batch.token_ptr[1:])]


def predict_tags(params, sent, cfg):
    """Per-token argmax tags, scored the way evaluate scores them."""
    batch = encode_sentences([sent], cfg.feature_dim, cfg.hash_seed)
    weights = params.reshape(NUM_CLASSES, cfg.feature_dim)
    return [TAGS[i] for i in model._token_scores(weights, batch).argmax(axis=0)]


def trained_params(start, shard, cfg):
    """The whole trained vector: *start* with local_train's columns replaced."""
    cols, _, after = local_train(start, shard, cfg)
    out = start.copy()
    out[cols] = after
    return out


def random_corpus(rng, n_sentences=6, vocab=("flu", "cough", "mild", "acute", "x1", "zz")):
    out = []
    for _ in range(n_sentences):
        n = rng.integers(1, 6)
        toks = [vocab[rng.integers(0, len(vocab))] for _ in range(n)]
        tags = []
        prev = "O"
        for _ in range(n):
            tag = ("O", "B", "I")[rng.integers(0, 3)]
            if tag == "I" and prev == "O":
                tag = "B"
            tags.append(tag)
            prev = tag
        out.append(sentence(toks, tags))
    return out


class TestFeaturize:
    def test_deterministic(self):
        s = sentence(["Flu", "shot"], ["B", "O"])
        a = featurize(s, 1 << 10, hash_seed=0)
        b = featurize(s, 1 << 10, hash_seed=0)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_modulo_bound(self):
        for arr in featurize(sentence(["x"], ["O"]), 1 << 10):
            assert (arr < 1024).all() and (arr >= 0).all()

    def test_seed_changes_indices(self):
        s = sentence(["hepatitis"], ["B"])
        a = featurize(s, 1 << 18, hash_seed=0)[0]
        b = featurize(s, 1 << 18, hash_seed=1)[0]
        assert not (len(a) == len(b) and (a == b).all())

    def test_golden_indices(self):
        # Frozen from an independently written FNV-1a reduce-based hasher.
        tokens = ("Chronic", "hepatitis", "screening", "at", "follow-up")
        frozen = [
            [int(v) for v in line.split()]
            for line in (DATA / "golden_features.txt").read_text().strip().splitlines()
        ]
        got = featurize(tokens, 1 << 10, hash_seed=0)
        assert [list(arr) for arr in got] == frozen

    def test_empty_sentence(self):
        assert featurize((), 1 << 10) == []

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            featurize(sentence(["a"], ["O"]), 1000)


# The per-feature-string encoder the per-word memo replaced, kept verbatim as
# the bit-identity reference.
def _reference_feature_strings(tokens, position):
    token = tokens[position].lower()
    prev_tok = tokens[position - 1].lower() if position > 0 else "<s>"
    next_tok = tokens[position + 1].lower() if position + 1 < len(tokens) else "</s>"
    feats = [f"w={token}", f"p={prev_tok}", f"n={next_tok}"]
    padded = f"^{token}$"
    for i in range(len(padded) - 2):
        feats.append(f"g={padded[i:i + 3]}")
    return feats


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a over the seed's 8 little-endian bytes then *data*."""
    h = 0xCBF29CE484222325
    for byte in seed.to_bytes(8, "little") + data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _reference_featurize(sentence, feature_dim, hash_seed=0):
    if feature_dim < 2 or feature_dim & (feature_dim - 1):
        raise ConfigError("feature_dim must be a power of two")
    tokens = sentence.tokens if isinstance(sentence, TaggedSentence) else tuple(sentence)
    mask = feature_dim - 1
    out = []
    for pos in range(len(tokens)):
        idx = {
            fnv1a64(feat.encode("utf-8"), hash_seed) & mask
            for feat in _reference_feature_strings(tokens, pos)
        }
        out.append(np.array(sorted(idx), dtype=np.int64))
    return out


def _reference_encode_sentences(sentences, feature_dim, hash_seed=0):
    feat_runs = []
    token_counts = []
    labels = []
    sent_lengths = []
    for sentence in sentences:
        per_token = _reference_featurize(sentence, feature_dim, hash_seed)
        for arr in per_token:
            feat_runs.append(arr)
            token_counts.append(len(arr))
        labels.extend(model._TAG_INDEX[tag] for tag in sentence.tags)
        sent_lengths.append(len(sentence))
    token_ptr = np.zeros(len(token_counts) + 1, dtype=np.int64)
    np.cumsum(token_counts, out=token_ptr[1:])
    sent_ptr = np.zeros(len(sent_lengths) + 1, dtype=np.int64)
    np.cumsum(sent_lengths, out=sent_ptr[1:])
    feats = np.concatenate(feat_runs) if feat_runs else np.zeros(0, dtype=np.int64)
    return EncodedBatch(feats, token_ptr, np.array(labels, dtype=np.int64), sent_ptr)


def _reference_sentence_slice(batch, order):
    feat_runs = []
    label_runs = []
    token_counts = []
    tok_lengths = np.diff(batch.token_ptr)
    for s in order:
        t0, t1 = batch.sent_ptr[s], batch.sent_ptr[s + 1]
        f0, f1 = batch.token_ptr[t0], batch.token_ptr[t1]
        feat_runs.append(batch.feats[f0:f1])
        label_runs.append(batch.labels[t0:t1])
        token_counts.append(tok_lengths[t0:t1])
    counts = np.concatenate(token_counts)
    token_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=token_ptr[1:])
    labels = np.concatenate(label_runs)
    sent_lengths = np.array([len(run) for run in label_runs], dtype=np.int64)
    sent_ptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(sent_lengths, out=sent_ptr[1:])
    return EncodedBatch(np.concatenate(feat_runs), token_ptr, labels, sent_ptr)


def assert_same_batch(got, want):
    for name in ("feats", "token_ptr", "labels", "sent_ptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


# Words that stress lower-casing and UTF-8 hashing: mixed case, non-ASCII
# (some change length when lower-cased), the edge markers themselves, and
# words too short to have a 3-gram.
_WORD = st.one_of(
    st.sampled_from([
        "<s>", "</s>", "<S>", "</S>", "", "a", "Flu", "FLU", "flu", "İstanbul",
        "Straße", "ΣΊΣΥΦΟΣ", "naïve", "日本", "😷", "x\u0307", "follow-up",
    ]),
    st.text(min_size=0, max_size=8),
)


@st.composite
def _sentences(draw, max_tokens=6):
    tokens = draw(st.lists(_WORD, min_size=0, max_size=max_tokens))
    tags = draw(st.lists(st.sampled_from(("O", "B", "I")),
                         min_size=len(tokens), max_size=len(tokens)))
    return TaggedSentence(tuple(tokens), tuple(tags))


class TestEncoderBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        corpus=st.lists(_sentences(), min_size=0, max_size=6),
        feature_dim=st.sampled_from([1 << 10, 1 << 18]),
        hash_seed=st.sampled_from([0, 7]),
        chunk=st.sampled_from([1, 3, model._KEY_CHUNK_TOKENS]),
    )
    def test_encode_sentences_matches_per_string_encoder(
        self, corpus, feature_dim, hash_seed, chunk
    ):
        with mock.patch.object(model, "_KEY_CHUNK_TOKENS", chunk):
            got = encode_sentences(corpus, feature_dim, hash_seed)
        assert_same_batch(got, _reference_encode_sentences(corpus, feature_dim, hash_seed))

    @settings(max_examples=150, deadline=None)
    @given(
        sent=_sentences(max_tokens=8),
        feature_dim=st.sampled_from([1 << 10, 1 << 18]),
        hash_seed=st.sampled_from([0, 7]),
    )
    def test_featurize_matches_per_string_encoder(self, sent, feature_dim, hash_seed):
        got = featurize(sent, feature_dim, hash_seed)
        want = _reference_featurize(sent, feature_dim, hash_seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_synthetic_corpus_matches_per_string_encoder(self):
        from fedmesh.data import synthetic_corpus

        corpus = synthetic_corpus(300, seed=5).sentences
        for feature_dim in (1 << 10, 1 << 18):
            assert_same_batch(
                encode_sentences(corpus, feature_dim, 3),
                _reference_encode_sentences(corpus, feature_dim, 3),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(_sentences(), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_sentence_slice_matches_loop(self, corpus, data):
        batch = encode_sentences(corpus, 1 << 10)
        order = np.array(data.draw(st.lists(
            st.integers(0, len(corpus) - 1), min_size=1, max_size=12
        )), dtype=np.int64)
        assert_same_batch(batch.sentence_slice(order), _reference_sentence_slice(batch, order))

    def test_sentence_slice_of_permutation_matches_loop(self):
        from fedmesh.data import synthetic_corpus

        batch = encode_sentences(synthetic_corpus(200, seed=6).sentences, 1 << 12)
        order = np.random.default_rng(0).permutation(batch.n_sentences)
        for lo in range(0, len(order), 32):
            part = order[lo:lo + 32]
            assert_same_batch(batch.sentence_slice(part), _reference_sentence_slice(batch, part))


class TestLossAndGrad:
    def test_uniform_zero_params_loss_is_ln3(self):
        batch = [sentence(["flu", "is", "bad"], ["B", "O", "O"])]
        loss, _ = loss_and_grad(zero_params(SMALL), batch, SMALL)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_mu_zero_matches_plain_gradient(self):
        rng = np.random.default_rng(0)
        batch = random_corpus(rng)
        params = rng.normal(size=SMALL.dims) * 0.1
        _, g_plain = loss_and_grad(params, batch, SMALL)
        cfg0 = replace(SMALL, fedprox_mu=0.0)
        _, g_mu0 = loss_and_grad(params, batch, cfg0, global_reference=params * 0.5)
        assert (g_plain == g_mu0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            loss_and_grad(np.zeros(7), [sentence(["a"], ["O"])], SMALL)

    @pytest.mark.parametrize("case", range(20))
    def test_gradient_against_finite_differences(self, case):
        rng = np.random.default_rng(1000 + case)
        cfg = TrainConfig(feature_dim=1 << 10, fedprox_mu=0.1 if case % 4 == 0 else 0.0)
        batch = random_corpus(rng)
        params = rng.normal(size=cfg.dims) * 0.2
        reference = rng.normal(size=cfg.dims) * 0.1
        _, grad = loss_and_grad(params, batch, cfg, global_reference=reference)

        encoded = encode_sentences(batch, cfg.feature_dim, cfg.hash_seed)
        touched = np.unique(encoded.feats)
        coords = [c * cfg.feature_dim + int(f)
                  for c in range(3) for f in touched[:: max(1, len(touched) // 10)]]
        h = 1e-6
        for coord in coords[:30]:
            bumped = params.copy()
            bumped[coord] += h
            up, _ = loss_and_grad(bumped, batch, cfg, global_reference=reference)
            bumped[coord] -= 2 * h
            down, _ = loss_and_grad(bumped, batch, cfg, global_reference=reference)
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grad[coord]))
            if scale > 1e-6:
                assert abs(fd - grad[coord]) / scale < 1e-4
            else:
                assert abs(fd - grad[coord]) < 1e-8

    def test_loss_monotone_under_full_batch_gd(self):
        # Separable toy task: disease tokens never appear as context.
        corpus = [
            sentence(["nephritis", "was", "noted"], ["B", "O", "O"]),
            sentence(["stable", "fibroma", "seen"], ["O", "B", "O"]),
            sentence(["no", "change", "today"], ["O", "O", "O"]),
            sentence(["acute", "myelosis"], ["B", "I"]),
        ] * 5
        cfg = TrainConfig(feature_dim=1 << 10, learning_rate=0.2, batch_size=100)
        params = zero_params(cfg)
        losses = []
        for _ in range(50):
            loss, grad = loss_and_grad(params, corpus, cfg)
            losses.append(loss)
            params = params - cfg.learning_rate * grad
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _sentence_key(batch, j):
    """Sentence j of *batch* as bytes: its feature ids and labels."""
    t0, t1 = batch.sent_ptr[j], batch.sent_ptr[j + 1]
    f0, f1 = batch.token_ptr[t0], batch.token_ptr[t1]
    return batch.feats[f0:f1].tobytes() + batch.labels[t0:t1].tobytes()


def _spied_steps(start, shard, cfg):
    """local_train's result and, per SGD step, its batch and whether it
    sorted the batch's columns."""
    steps = []
    real = model._sgd_step
    with mock.patch.object(model.np, "unique", wraps=np.unique) as unique:
        def spy(weights, batch, *rest):
            calls = unique.call_count
            real(weights, batch, *rest)
            steps.append((batch, unique.call_count > calls))

        with mock.patch.object(model, "_sgd_step", spy):
            out = local_train(start, shard, cfg)
    return out, steps


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["learning_rate", "fedprox_mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    def test_negative_zero_learning_rate_accepted(self):
        assert np.signbit(TrainConfig(learning_rate=-0.0).learning_rate)


class TestLocalTrain:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(5)
        params = rng.normal(size=SMALL.dims)
        cfg = replace(SMALL, learning_rate=0.0)
        out = trained_params(params, random_corpus(rng), cfg)
        assert (out == params).all()

    def test_single_full_batch_step_equals_gd_step(self):
        rng = np.random.default_rng(6)
        shard = random_corpus(rng)
        params = rng.normal(size=SMALL.dims) * 0.1
        cfg = replace(SMALL, local_epochs=1, batch_size=1000, learning_rate=0.3)
        trained = trained_params(params, shard, cfg)
        _, grad = loss_and_grad(params, shard, cfg)
        expected = params - cfg.learning_rate * grad
        # The epoch shuffle reorders the token sum, so agreement is to
        # floating-point reassociation, not bit-exact.
        np.testing.assert_allclose(trained, expected, rtol=0, atol=1e-14)

    def test_examples_seen(self):
        # Each epoch visits every one of the n sentences once, batch_size at a
        # time: read off the batches the SGD steps receive.
        shard = encode_sentences(
            [sentence([f"s{i}"] * (1 + i % 3), ["O"] * (1 + i % 3)) for i in range(9)],
            SMALL.feature_dim,
        )
        _, local = shard.compact
        signature = {_sentence_key(local, i): i for i in range(9)}
        assert len(signature) == 9  # every sentence is recognisable by its bytes
        cfg = replace(SMALL, local_epochs=3, batch_size=4)
        _, steps = _spied_steps(zero_params(cfg), shard, cfg)
        batches = [batch for batch, _ in steps]
        assert [b.n_sentences for b in batches] == [4, 4, 1] * 3
        seen = [signature[_sentence_key(b, j)] for b in batches for j in range(b.n_sentences)]
        for epoch in np.reshape(seen, (3, 9)):
            assert sorted(epoch) == list(range(9))

    def test_batches_are_the_per_batch_slices(self):
        # A step's batch has the arrays sentence_slice gives for its sentences.
        rng = np.random.default_rng(7)
        shard = encode_sentences(random_corpus(rng, n_sentences=11), SMALL.feature_dim)
        cfg = replace(SMALL, local_epochs=2, batch_size=3)
        _, steps = _spied_steps(zero_params(cfg), shard, cfg)
        order_rng = np.random.Generator(np.random.PCG64(cfg.seed))
        _, local = shard.compact
        want = []
        for _ in range(cfg.local_epochs):
            order = order_rng.permutation(11)
            want += [local.sentence_slice(order[lo:lo + 3]) for lo in range(0, 11, 3)]
        assert len(steps) == len(want)
        for (got, _), expected in zip(steps, want):
            assert_same_batch(got, expected)

    def test_negative_zero_learning_rate_keeps_untouched_negative_zeros(self):
        # These batches are below the size switch, but lr = -0.0 must not
        # turn the -0.0 weights of columns a batch does not touch into +0.0.
        rng = np.random.default_rng(14)
        shard = random_corpus(rng, n_sentences=12)
        cfg = replace(SMALL, learning_rate=-0.0, batch_size=2, local_epochs=2)
        start = np.full(cfg.dims, -0.0)
        _, steps = _spied_steps(start, shard, replace(cfg, learning_rate=0.0))
        assert not any(sorted_ for _, sorted_ in steps)
        cols, _, after = local_train(start, shard, cfg)
        trained, _ = _reference_local_train(start, shard, cfg)
        assert after.tobytes() == trained[cols].tobytes()
        # Touched words do become +0.0, in the reference as here; the rest stay.
        assert 0 < np.signbit(after).sum() < len(after)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(8)
        shard = random_corpus(rng, n_sentences=12)
        start = rng.normal(size=SMALL.dims) * 0.1
        cfg = replace(SMALL, local_epochs=2, batch_size=3)
        a = trained_params(start, shard, cfg)
        b = trained_params(start, shard, cfg)
        assert (a == b).all()

    def test_seed_changes_batch_order_result(self):
        rng = np.random.default_rng(9)
        shard = random_corpus(rng, n_sentences=12)
        start = rng.normal(size=SMALL.dims) * 0.1
        cfg = replace(SMALL, local_epochs=2, batch_size=3)
        a = trained_params(start, shard, cfg)
        b = trained_params(start, shard, replace(cfg, seed=cfg.seed + 1))
        assert not (a == b).all()

    def test_empty_shard_refused(self):
        with pytest.raises(EmptyShardError):
            local_train(zero_params(SMALL), [], SMALL)

    def test_shard_without_tokens_refused(self):
        with pytest.raises(EmptyShardError):
            local_train(zero_params(SMALL), [TaggedSentence((), ())] * 3, SMALL)

    def test_token_less_batches_are_skipped(self):
        rng = np.random.default_rng(12)
        empty = TaggedSentence((), ())
        corpus = random_corpus(rng, n_sentences=5)
        shard = [empty, *corpus[:2], empty, empty, *corpus[2:]]
        cfg = replace(SMALL, local_epochs=3, batch_size=1)
        start = rng.normal(size=SMALL.dims) * 0.1
        got = trained_params(start, shard, cfg)
        # The same one-sentence steps in the same order; a token-less
        # sentence is no step at all.
        want = start.copy()
        order_rng = np.random.Generator(np.random.PCG64(cfg.seed))
        one_step = replace(cfg, local_epochs=1)
        for _ in range(cfg.local_epochs):
            for i in order_rng.permutation(len(shard)):
                if len(shard[i]):
                    want = trained_params(want, [shard[i]], one_step)
        assert got.tobytes() == want.tobytes()

    def test_fedprox_pulls_toward_reference(self):
        rng = np.random.default_rng(10)
        shard = random_corpus(rng, n_sentences=10)
        start = rng.normal(size=SMALL.dims)
        plain_cfg = replace(SMALL, local_epochs=2)
        prox_cfg = replace(plain_cfg, fedprox_mu=1.0)
        plain = trained_params(start, shard, plain_cfg)
        prox = trained_params(start, shard, prox_cfg)
        assert np.linalg.norm(prox - start) < np.linalg.norm(plain - start)


def _reference_sgd_step(weights, batch, lr, mu, reference):
    """_sparse_sgd_step as it was before training on the shard's own columns, verbatim."""
    prox = None
    if mu > 0 and reference is not None:
        prox = mu * (weights.reshape(-1) - reference)
    probs = model._softmax(model._token_scores(weights, batch))
    err = probs
    err[batch.labels, np.arange(batch.n_tokens)] -= 1.0
    counts = np.diff(batch.token_ptr)
    uniq, inv = np.unique(batch.feats, return_inverse=True)
    for cls in range(weights.shape[0]):
        per_feat = np.repeat(err[cls], counts)
        sums = np.bincount(inv, weights=per_feat, minlength=len(uniq))
        sums /= batch.n_tokens
        weights[cls, uniq] -= lr * sums
    if prox is not None:
        flat = weights.reshape(-1)
        flat -= lr * prox


def _reference_local_train(start, shard, config, global_reference=None):
    """local_train as it was before training on the shard's own columns,
    verbatim but for its argument checks."""
    if not isinstance(shard, EncodedBatch):
        shard = encode_sentences(shard, config.feature_dim, config.hash_seed)
    mu = config.fedprox_mu
    reference = None
    if mu > 0:
        reference = global_reference if global_reference is not None else start.copy()
    weights = start.reshape(NUM_CLASSES, config.feature_dim).copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = shard.n_sentences
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            batch = shard.sentence_slice(order[lo:lo + config.batch_size])
            _reference_sgd_step(weights, batch, config.learning_rate, mu, reference)
    return weights.reshape(-1), n * config.local_epochs


@st.composite
def _training_cases(draw):
    """(start, its dense form, shard, config): starts with +-0.0 words and, at
    random, given as a SparseVector that also stores some +0.0 words."""
    # No empty sentences: an SGD step on a batch with no tokens raises.  A
    # wide shard in small batches lands above local_train's size switch
    # (columns > 8x a batch's feature ids), a whole-shard batch below it.
    wide = draw(st.booleans())
    shard = draw(st.lists(_sentences().filter(len), min_size=1, max_size=40 if wide else 8))
    cfg = replace(
        SMALL,
        learning_rate=draw(st.sampled_from([0.0, -0.0, 0.3, 0.5])),
        local_epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 2) if wide else st.integers(1, len(shard) + 2)),
        fedprox_mu=draw(st.sampled_from([0.0, 0.3, 1.0])),
        seed=draw(st.integers(0, 2**32)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    dense = rng.normal(size=cfg.dims) * rng.choice([1e-3, 1.0], size=cfg.dims)
    dense[rng.random(cfg.dims) < draw(st.sampled_from([0.0, 0.5, 0.99]))] = 0.0
    dense[rng.random(cfg.dims) < 0.2] *= -0.0
    if not draw(st.booleans()):
        return dense, dense, shard, cfg
    (indices,) = np.nonzero((dense.view(np.uint64) != 0) | (rng.random(cfg.dims) < 0.1))
    return SparseVector(cfg.dims, indices, dense[indices]), dense, shard, cfg


class TestCompactTrainingBitIdentity:
    """The sparse delta over the shard's columns has the bytes of the dense
    ``trained - start`` that training the whole vector gave."""

    def test_delta_matches_dense_training(self):
        # Whether each step with a sign-clear learning rate sorted its columns;
        # the draws must reach both sides of the size switch.
        paths = set()

        @settings(max_examples=300, deadline=None)
        @given(case=_training_cases())
        def check(case):
            start, dense, shard, cfg = case
            (cols, before, after), steps = _spied_steps(start, shard, cfg)
            got = SparseVector(cfg.dims, cols, after - before).to_dense()
            trained, _ = _reference_local_train(dense, shard, cfg, global_reference=dense)
            assert got.tobytes() == (trained - dense).tobytes()
            # The delta cannot tell -0.0 from +0.0; the trained words can.
            assert after.tobytes() == trained[cols].tobytes()
            sorted_steps = [sorted_ for _, sorted_ in steps]
            if np.signbit(cfg.learning_rate):
                assert all(sorted_steps)
            else:
                paths.update(sorted_steps)

        check()
        assert paths == {False, True}

    def test_run_centralized_params_match_dense_training(self):
        rng = np.random.default_rng(12)
        shard = random_corpus(rng, n_sentences=30)
        cfg = replace(SMALL, local_epochs=2, fedprox_mu=0.1)
        seeds = Seeds(model=5)
        params = zero_params(cfg)
        for round_no in range(1, 5):
            round_cfg = replace(
                cfg, seed=derive_seed(seeds.model, "shuffle", "centralized", round_no)
            )
            params, _ = _reference_local_train(params, shard, round_cfg,
                                               global_reference=params)
        assert run_centralized(shard, cfg, 4, seeds).tobytes() == params.tobytes()

    def test_compact_remap_is_cached(self):
        shard = encode_sentences(random_corpus(np.random.default_rng(13)), SMALL.feature_dim)
        with mock.patch.object(model.np, "unique", wraps=np.unique) as unique:
            local_train(zero_params(SMALL), shard, SMALL)
            calls = unique.call_count
            local_train(zero_params(SMALL), shard, SMALL)
        # The first call sorts once, for the remap; the second not at all.
        assert (calls, unique.call_count) == (1, 1)


class TestDecode:
    def test_basic_spans(self):
        assert decode_entities(["O", "B", "I", "O", "B"]) == {(1, 2), (4, 4)}

    def test_all_outside(self):
        assert decode_entities(["O", "O", "O"]) == set()

    def test_repair_rule_promotes_leading_inside(self):
        assert decode_entities(["I", "I", "O"]) == {(0, 1)}
        assert repair_tags(["O", "I"]) == ["O", "B"]

    def test_adjacent_entities(self):
        assert decode_entities(["B", "B", "I"]) == {(0, 0), (1, 2)}

    def test_trailing_entity(self):
        assert decode_entities(["O", "B", "I"]) == {(1, 2)}


def _force_predictions(corpus, desired_tags, cfg):
    """Build params whose argmax prediction is *desired_tags* per sentence."""
    weights = np.zeros((3, cfg.feature_dim))
    tag_index = {"O": 0, "B": 1, "I": 2}
    for sent, tags in zip(corpus, desired_tags):
        feats = featurize(sent, cfg.feature_dim, cfg.hash_seed)
        for arr, tag in zip(feats, tags):
            weights[tag_index[tag], arr] += 10.0
    params = weights.reshape(-1)
    for sent, tags in zip(corpus, desired_tags):
        assert predict_tags(params, sent, cfg) == list(tags)
    return params


class TestEvaluate:
    def test_span_counting(self):
        # gold {(1,2),(5,6)}, predicted {(1,2)} -> P=1, R=0.5, F1=2/3
        gold = ["O", "B", "I", "O", "O", "B", "I"]
        pred = ["O", "B", "I", "O", "O", "O", "O"]
        toks = ["t0", "flu", "shot", "t3", "t4", "bone", "ache"]
        corpus = [sentence(toks, gold)]
        cfg = TrainConfig(feature_dim=1 << 12)
        params = _force_predictions(corpus, [pred], cfg)
        ent, tok = evaluate(params, corpus, cfg)
        assert (ent.tp, ent.fp, ent.fn) == (1, 0, 1)
        assert ent.precision == 1.0
        assert ent.recall == 0.5
        assert ent.f1 == pytest.approx(2 / 3)
        assert tok.level == "token"

    def test_perfect_prediction(self):
        corpus = [sentence(["flu", "is", "here"], ["B", "O", "O"])]
        cfg = TrainConfig(feature_dim=1 << 12)
        params = _force_predictions(corpus, [["B", "O", "O"]], cfg)
        ent, tok = evaluate(params, corpus, cfg)
        assert ent.precision == ent.recall == ent.f1 == 1.0
        assert tok.precision == tok.recall == tok.f1 == 1.0

    def test_empty_corpus(self):
        ent, tok = evaluate(zero_params(SMALL), [], SMALL)
        assert (ent.tp, ent.fp, ent.fn) == (0, 0, 0)
        assert ent.f1 == 0.0 and tok.f1 == 0.0


class TestMetrics:
    def test_zero_over_zero_conventions(self):
        m = Metrics.from_counts(0, 0, 0, "token")
        assert m.precision == m.recall == m.f1 == 0.0

    @pytest.mark.parametrize("tp,fp,fn", [(3, 1, 2), (0, 5, 0), (7, 0, 0), (1, 1, 1)])
    def test_f1_is_harmonic_mean(self, tp, fp, fn):
        m = Metrics.from_counts(tp, fp, fn, "entity-strict")
        if m.precision + m.recall:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall)
            )
        else:
            assert m.f1 == 0.0


def test_token_count():
    assert token_count([sentence(["a", "b"], ["O", "O"]), sentence(["c"], ["O"])]) == 3
