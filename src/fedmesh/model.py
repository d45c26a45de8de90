"""Hashed-feature multinomial logistic token tagger.

The model is deliberately small: one weight per (class, hashed feature),
trained with plain SGD (optionally with a proximal pull toward a reference
vector).  Features are FNV-1a hashes of the lowercase token, its character
3-grams, and the neighbouring tokens, folded into a power-of-two table.
Everything here is a pure function of its inputs; parameter vectors are
flat float64 numpy arrays of length ``NUM_CLASSES * feature_dim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .aggregation import SparseVector, Vector, take
from .errors import ConfigError

TAGS = ("O", "B", "I")
NUM_CLASSES = len(TAGS)
_TAG_INDEX = {tag: i for i, tag in enumerate(TAGS)}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


class EmptyShardError(ValueError):
    """Raised when a client is asked to train on no data."""


@dataclass(frozen=True)
class TaggedSentence:
    """A tokenized sentence with one BIO tag per token."""

    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )
        for tag in self.tags:
            if tag not in _TAG_INDEX:
                raise ValueError(f"unknown tag {tag!r}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    local_epochs: int = 1
    batch_size: int = 32
    fedprox_mu: float = 0.0
    seed: int = 0
    feature_dim: int = 1 << 18
    hash_seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "fedprox_mu"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("local_epochs and batch_size must be >= 1")
        if self.fedprox_mu < 0:
            raise ConfigError("fedprox_mu must be >= 0")
        if self.feature_dim < (1 << 10) or self.feature_dim & (self.feature_dim - 1):
            raise ConfigError("feature_dim must be a power of two >= 2^10")

    @property
    def dims(self) -> int:
        return NUM_CLASSES * self.feature_dim


@dataclass(frozen=True)
class Metrics:
    """Precision/recall/F1 with raw counts; 0/0 ratios are defined as 0."""

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    level: str

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, level: str) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(precision, recall, f1, tp, fp, fn, level)

    def fields(self, prefix: str) -> dict[str, float | int]:
        """``{prefix}_precision`` ... ``{prefix}_fn``, as rows and reports carry them."""
        return {f"{prefix}_{name}": getattr(self, name) for name in _METRIC_FIELDS}

    @classmethod
    def from_fields(cls, doc: dict, prefix: str, level: str) -> "Metrics":
        """Inverse of ``fields``."""
        values = [doc[f"{prefix}_{name}"] for name in _METRIC_FIELDS]
        return cls(*map(float, values[:3]), *map(int, values[3:]), level)


_METRIC_FIELDS = ("precision", "recall", "f1", "tp", "fp", "fn")


def _fnv1a64_extend(h: int, data: bytes) -> int:
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


@lru_cache(maxsize=1 << 15)
def _word_features(word: str, mask: int, hash_seed: int) -> tuple[np.ndarray, int, int]:
    """One lower-cased word's hashed features: (own indices, p= index, n= index).

    The own indices are the word's ``w=`` feature and the ``g=`` character
    3-grams of ``^word$``, sorted and deduplicated; the ``p=``/``n=`` indices
    are what the word contributes as a left/right neighbour.
    """
    seeded = _fnv1a64_extend(_FNV_OFFSET, hash_seed.to_bytes(8, "little"))

    def index(feature: str) -> int:
        return _fnv1a64_extend(seeded, feature.encode("utf-8")) & mask

    padded = f"^{word}$"
    own = {index(f"w={word}")}
    own.update(index(f"g={padded[i:i + 3]}") for i in range(len(padded) - 2))
    own_arr = np.array(sorted(own), dtype=np.int64)
    own_arr.setflags(write=False)
    return own_arr, index(f"p={word}"), index(f"n={word}")


def _ranges(starts: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + len_i)`` for the run
    lengths ``len_i = ptr[i + 1] - ptr[i]`` packed in *ptr*."""
    return np.repeat(starts - ptr[:-1], np.diff(ptr)) + np.arange(ptr[-1], dtype=np.int64)


# Tokens whose (position << log2(feature_dim) | index) keys are sorted in one
# call.  Keeps the keys inside int64 and each chunk's temporaries (~15 keys a
# token) cache-sized: on a 5000-sentence corpus 2^11 encodes in 35 ms where
# one 2^16 chunk takes 55 ms.
_KEY_CHUNK_TOKENS = 1 << 11


def _encode_tokens(
    token_lists: list[tuple[str, ...]], feature_dim: int, hash_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every token's sorted, deduplicated feature indices, CSR-packed.

    A token's features are its lower-cased word's own indices plus the
    ``p=`` index of its left neighbour and the ``n=`` index of its right
    one (``<s>``/``</s>`` at the sentence edges).  Returns (feats, token_ptr).
    """
    if feature_dim < 2 or feature_dim & (feature_dim - 1):
        raise ConfigError("feature_dim must be a power of two")
    mask = feature_dim - 1
    shift = feature_dim.bit_length() - 1
    vocab: dict[str, int] = {}
    ids = np.fromiter(
        (vocab.setdefault(tok.lower(), len(vocab)) for toks in token_lists for tok in toks),
        dtype=np.int64,
    )
    n = len(ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    entries = [_word_features(word, mask, hash_seed) for word in vocab]
    own_len = np.array([len(e[0]) for e in entries], dtype=np.int64)
    own_flat = np.concatenate([e[0] for e in entries])
    own_start = np.cumsum(own_len) - own_len
    as_prev = np.array([e[1] for e in entries], dtype=np.int64)
    as_next = np.array([e[2] for e in entries], dtype=np.int64)

    lengths = np.array([len(toks) for toks in token_lists], dtype=np.int64)
    ends = np.cumsum(lengths)
    live = lengths > 0
    prev_idx = np.empty(n, dtype=np.int64)
    prev_idx[1:] = as_prev[ids[:-1]]
    prev_idx[(ends - lengths)[live]] = _word_features("<s>", mask, hash_seed)[1]
    next_idx = np.empty(n, dtype=np.int64)
    next_idx[:-1] = as_next[ids[1:]]
    next_idx[ends[live] - 1] = _word_features("</s>", mask, hash_seed)[2]

    counts = own_len[ids]
    own_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=own_ptr[1:])
    own_idx = own_flat[_ranges(own_start[ids], own_ptr)]

    feat_runs: list[np.ndarray] = []
    token_counts: list[np.ndarray] = []
    chunk = min(_KEY_CHUNK_TOKENS, 1 << max(0, 62 - shift))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        pos = np.arange(hi - lo, dtype=np.int64) << shift
        # Three ascending runs (own, p=, n=): the stable sort (timsort) merges
        # them, far cheaper than np.unique's general path.
        keys = np.sort(np.concatenate((
            np.repeat(pos, counts[lo:hi]) | own_idx[own_ptr[lo]:own_ptr[hi]],
            pos | prev_idx[lo:hi],
            pos | next_idx[lo:hi],
        )), kind="stable")
        fresh = np.empty(len(keys), dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        feat_runs.append(keys & mask)
        token_counts.append(np.bincount(keys >> shift, minlength=hi - lo))
    token_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(token_counts), out=token_ptr[1:])
    return np.concatenate(feat_runs), token_ptr


@dataclass
class EncodedBatch:
    """CSR-style encoding of a batch of sentences for vectorized training.

    feats holds every token's feature indices back to back; token_ptr[i]
    slices token i's features; sent_ptr slices tokens per sentence.
    """

    feats: np.ndarray
    token_ptr: np.ndarray
    labels: np.ndarray
    sent_ptr: np.ndarray

    @property
    def n_tokens(self) -> int:
        return len(self.labels)

    @property
    def n_sentences(self) -> int:
        return len(self.sent_ptr) - 1

    @cached_property
    def compact(self) -> tuple[np.ndarray, "EncodedBatch"]:
        """(vocab, batch): the sorted feature ids in use, and this batch with
        each feature replaced by its position in vocab."""
        vocab, local = np.unique(self.feats, return_inverse=True)
        return vocab, EncodedBatch(local, self.token_ptr, self.labels, self.sent_ptr)

    def sentence_slice(self, order: np.ndarray) -> "EncodedBatch":
        """Reassemble a batch containing the given sentences, in order."""
        order = np.asarray(order, dtype=np.int64)
        sent_ptr = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(self.sent_ptr[order + 1] - self.sent_ptr[order], out=sent_ptr[1:])
        tokens = _ranges(self.sent_ptr[order], sent_ptr)
        counts = self.token_ptr[tokens + 1] - self.token_ptr[tokens]
        token_ptr = np.zeros(len(tokens) + 1, dtype=np.int64)
        np.cumsum(counts, out=token_ptr[1:])
        feats = self.feats[_ranges(self.token_ptr[tokens], token_ptr)]
        return EncodedBatch(feats, token_ptr, self.labels[tokens], sent_ptr)


def encode_sentences(
    sentences: list[TaggedSentence],
    feature_dim: int,
    hash_seed: int = 0,
) -> EncodedBatch:
    """Featurize and pack sentences once so epochs can reuse the arrays."""
    feats, token_ptr = _encode_tokens([s.tokens for s in sentences], feature_dim, hash_seed)
    labels = np.fromiter(
        (_TAG_INDEX[tag] for s in sentences for tag in s.tags), dtype=np.int64
    )
    sent_ptr = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((len(s) for s in sentences), dtype=np.int64, count=len(sentences)),
        out=sent_ptr[1:],
    )
    return EncodedBatch(feats, token_ptr, labels, sent_ptr)


def zero_params(config: TrainConfig) -> np.ndarray:
    return np.zeros(config.dims, dtype=np.float64)


def _check_params(params: Vector, config: TrainConfig) -> None:
    shape = (params.dims,) if isinstance(params, SparseVector) else params.shape
    if shape != (config.dims,):
        raise ConfigError(
            f"parameter vector has {shape} but config implies dims={config.dims}"
        )


def _token_scores(weights: np.ndarray, batch: EncodedBatch) -> np.ndarray:
    """Per-token class scores: sum of each class row over the token's features."""
    gathered = weights[:, batch.feats]
    return np.add.reduceat(gathered, batch.token_ptr[:-1], axis=1)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=0, keepdims=True)


def loss_and_grad(
    params: np.ndarray,
    batch: list[TaggedSentence] | EncodedBatch,
    config: TrainConfig,
    global_reference: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Token-mean softmax cross-entropy and its dense gradient.

    With fedprox_mu > 0 the proximal penalty mu/2 * ||w - w_ref||^2 is added
    (the reference defaults to zero when not supplied, matching a cold start).
    """
    _check_params(params, config)
    if not isinstance(batch, EncodedBatch):
        batch = encode_sentences(batch, config.feature_dim, config.hash_seed)
    if batch.n_tokens == 0:
        raise EmptyShardError("batch contains no tokens")
    weights = params.reshape(NUM_CLASSES, config.feature_dim)
    probs = _softmax(_token_scores(weights, batch))
    n = batch.n_tokens
    token_idx = np.arange(n)
    loss = float(-np.log(probs[batch.labels, token_idx]).mean())

    err = probs.copy()
    err[batch.labels, token_idx] -= 1.0
    counts = np.diff(batch.token_ptr)
    grad = np.zeros_like(weights)
    for cls in range(NUM_CLASSES):
        per_feat = np.repeat(err[cls], counts)
        grad[cls] = np.bincount(
            batch.feats, weights=per_feat, minlength=config.feature_dim
        )
    grad /= n

    mu = config.fedprox_mu
    if mu > 0:
        reference = global_reference if global_reference is not None else np.zeros_like(params)
        diff = params - reference
        loss += 0.5 * mu * float(np.add.reduce(diff * diff))
        grad = grad.reshape(-1) + mu * diff
        return loss, grad
    return loss, grad.reshape(-1)


def _sgd_step(
    weights: np.ndarray, batch: EncodedBatch, lr: float, mu: float, reference: np.ndarray
) -> None:
    """One SGD step on C-contiguous ``(classes, V)`` weights of the batch's feature ids.

    Per-feature error sums accumulate in input order and are scaled with the
    same operation order as loss_and_grad, so a full-batch step is bit-equal
    to ``start - lr * grad(start)`` when mu = 0.  The proximal pull toward the
    flat *reference* writes through ``weights.reshape(-1)``, so it needs a view.

    The sums are one ``bincount`` over all V columns, subtracted from the
    whole row.  A column the batch does not touch sums to +0.0; ``lr * +0.0``
    is +0.0 for a finite ``lr >= +0.0`` (TrainConfig refuses a non-finite
    one); and ``w - +0.0`` is *w* for every *w*, -0.0 included.  So only the
    touched columns move, by the same input-order sums a step over the
    batch's sorted columns (``np.unique``) gives.  That sorted-column step is
    still taken where it is the cheaper one, when V exceeds 8 times the
    batch's feature ids (the measured crossover is 8-12x), and for lr = -0.0,
    whose ``-0.0 * +0.0`` would turn an untouched -0.0 weight into +0.0.
    """
    prox = mu * (weights.reshape(-1) - reference) if mu > 0 else None
    probs = _softmax(_token_scores(weights, batch))
    err = probs
    err[batch.labels, np.arange(batch.n_tokens)] -= 1.0
    counts = np.diff(batch.token_ptr)
    cols, feats, minlength = slice(None), batch.feats, weights.shape[1]
    if np.signbit(lr) or minlength > 8 * len(feats):
        (cols, feats), minlength = np.unique(feats, return_inverse=True), 0
    for cls in range(weights.shape[0]):
        per_feat = np.repeat(err[cls], counts)
        sums = np.bincount(feats, weights=per_feat, minlength=minlength)
        sums /= batch.n_tokens
        weights[cls, cols] -= lr * sums
    if prox is not None:
        flat = weights.reshape(-1)
        flat -= lr * prox


def local_train(
    start: Vector,
    shard: list[TaggedSentence] | EncodedBatch,
    config: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run local SGD epochs over a shard, on the shard's own columns only.

    Returns (cols, before, after): the ascending flat indices of every class's
    weights at the shard's features, *start* there, and the trained values
    there; every other word of the trained vector is *start*'s.

    Deterministic for a fixed config.seed: sentence order is reshuffled each
    epoch from one seeded generator.  With fedprox_mu > 0 the proximal pull
    is toward *start*.  Each epoch packs its shuffled sentences once; a batch
    is a contiguous view of that packing, the arrays ``sentence_slice`` gives
    for the batch's sentences, so every step sees the bits it would see on a
    per-batch slice and the trained words are bit-equal to training the whole
    dense vector (see ``_sgd_step`` for the +-0.0 words).
    """
    _check_params(start, config)
    if not isinstance(shard, EncodedBatch):
        shard = encode_sentences(shard, config.feature_dim, config.hash_seed)
    if shard.n_tokens == 0:
        raise EmptyShardError("client shard has no tokens; report 'no data' instead")
    vocab, local = shard.compact
    cols = (np.arange(NUM_CLASSES)[:, None] * config.feature_dim + vocab).reshape(-1)
    before = take(start, cols)
    weights = before.reshape(NUM_CLASSES, len(vocab)).copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = shard.n_sentences
    for _ in range(config.local_epochs):
        epoch = local.sentence_slice(rng.permutation(n))
        for lo in range(0, n, config.batch_size):
            sent = epoch.sent_ptr[lo:lo + config.batch_size + 1]
            tok = epoch.token_ptr[sent[0]:sent[-1] + 1]
            batch = EncodedBatch(epoch.feats[tok[0]:tok[-1]], tok - tok[0],
                                 epoch.labels[sent[0]:sent[-1]], sent - sent[0])
            if batch.n_tokens:  # a batch of token-less sentences has no gradient
                _sgd_step(weights, batch, config.learning_rate, config.fedprox_mu, before)
    return cols, before, weights.reshape(-1)


def repair_tags(tags: list[str] | tuple[str, ...]) -> list[str]:
    """Promote I tags with no live entity to the left (start / after O) to B."""
    repaired: list[str] = []
    prev = "O"
    for tag in tags:
        if tag == "I" and prev == "O":
            tag = "B"
        repaired.append(tag)
        prev = tag
    return repaired


def decode_entities(tags: list[str] | tuple[str, ...]) -> set[tuple[int, int]]:
    """BIO tags -> set of (start, end) inclusive spans, after the repair rule."""
    spans: set[tuple[int, int]] = set()
    start = None
    for i, tag in enumerate(repair_tags(tags)):
        if tag == "B":
            if start is not None:
                spans.add((start, i - 1))
            start = i
        elif tag == "O":
            if start is not None:
                spans.add((start, i - 1))
                start = None
    if start is not None:
        spans.add((start, len(tags) - 1))
    return spans


def evaluate(
    params: np.ndarray,
    corpus: list[TaggedSentence] | EncodedBatch,
    config: TrainConfig,
) -> tuple[Metrics, Metrics]:
    """Score predictions at entity-strict and token level.

    Entity-strict counts exact (start, end) span matches after BIO repair;
    token level counts non-O tags (a correct non-O tag is a TP, a wrong
    non-O prediction an FP, a missed non-O gold tag an FN).
    """
    _check_params(params, config)
    if not isinstance(corpus, EncodedBatch):
        corpus = encode_sentences(corpus, config.feature_dim, config.hash_seed)
    if corpus.n_tokens == 0:
        zero = Metrics.from_counts(0, 0, 0, "entity-strict")
        return zero, Metrics.from_counts(0, 0, 0, "token")
    weights = params.reshape(NUM_CLASSES, config.feature_dim)
    pred_idx = _token_scores(weights, corpus).argmax(axis=0)
    gold_idx = corpus.labels

    hit = (pred_idx == gold_idx) & (gold_idx != 0)
    tok_tp = int(hit.sum())
    tok_fp = int(((pred_idx != 0) & ~hit).sum())
    tok_fn = int(((gold_idx != 0) & ~hit).sum())

    ent_tp = ent_fp = ent_fn = 0
    for s in range(corpus.n_sentences):
        t0, t1 = corpus.sent_ptr[s], corpus.sent_ptr[s + 1]
        pred_spans = decode_entities([TAGS[i] for i in pred_idx[t0:t1]])
        gold_spans = decode_entities([TAGS[i] for i in gold_idx[t0:t1]])
        ent_tp += len(pred_spans & gold_spans)
        ent_fp += len(pred_spans - gold_spans)
        ent_fn += len(gold_spans - pred_spans)
    return (
        Metrics.from_counts(ent_tp, ent_fp, ent_fn, "entity-strict"),
        Metrics.from_counts(tok_tp, tok_fp, tok_fn, "token"),
    )


def token_count(sentences: list[TaggedSentence]) -> int:
    """Total supervised examples (tokens) in a shard; used as FedAvg weight."""
    return sum(len(s) for s in sentences)
