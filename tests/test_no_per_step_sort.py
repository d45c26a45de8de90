"""Local SGD must not re-sort or re-pack a batch on every step.

An epoch packs its shuffled sentences once (one ``EncodedBatch.sentence_slice``
call) and takes each batch as a view of that packing; a step on a shard whose
columns are few next to a batch's feature ids updates the whole ``(3, V)``
row with one ``bincount`` and sorts nothing.  A per-step ``np.unique`` or
``sentence_slice`` once cost a third of ``local_train``'s time on shards of
1.2k-1.5k columns; these counters keep it from coming back.
"""

from dataclasses import replace
from unittest import mock

import numpy as np

from fedmesh import model
from fedmesh.data import synthetic_corpus
from fedmesh.model import EncodedBatch, TrainConfig, encode_sentences, local_train


def test_below_the_switch_sorts_nothing_and_slices_once_per_epoch():
    cfg = replace(TrainConfig(), local_epochs=3, batch_size=8)
    shard = encode_sentences(synthetic_corpus(96, seed=3).sentences, cfg.feature_dim)
    vocab, _ = shard.compact  # the once-per-shard remap, made before counting
    # Even the eight sentences with the fewest feature ids hold at least an
    # eighth as many ids as the shard has columns: every batch is below the
    # size switch.
    per_sentence = np.diff(shard.token_ptr[shard.sent_ptr])
    assert len(vocab) <= 8 * np.sort(per_sentence)[:8].sum()
    real_slice = EncodedBatch.sentence_slice
    slices = []

    def counting_slice(batch, order):
        slices.append(len(order))
        return real_slice(batch, order)

    with mock.patch.object(model.np, "unique", wraps=np.unique) as unique, \
            mock.patch.object(EncodedBatch, "sentence_slice", counting_slice):
        local_train(np.zeros(cfg.dims), shard, cfg)
    assert unique.call_count == 0
    assert slices == [96] * cfg.local_epochs
