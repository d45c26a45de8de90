"""Combine client update deltas into one global delta.

All aggregators canonicalize update order (sort by client id) before any
floating-point work, so the result is invariant to arrival order.  The
coordinator applies the result as ``global = add_vectors(global,
aggregate(deltas))``.  A SparseVector delta gives exactly the bytes its dense
form would, and FedAvg over sparse deltas is itself a SparseVector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

STRATEGY_KINDS = ("fedavg", "coord-median", "geo-median", "fedavg-trust")

# Weiszfeld iterates this close to an input point snap to it (the update
# rule divides by the distance, which is singular at the point itself).
_WEISZFELD_SNAP = 1e-12

# Weiszfeld sweeps a vector in blocks of at most this many words, so that a
# block of every row it touches stays in a core's 2 MB L2 cache.
_SWEEP_WORDS = 1 << 16


@dataclass(frozen=True)
class SparseVector:
    """A float64 vector: *values* at strictly increasing *indices*, +0.0 elsewhere."""

    dims: int
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.dims

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dims, dtype=np.float64)
        dense[self.indices] = self.values
        return dense


Vector = np.ndarray | SparseVector


def sparse_fits(stored: int, dims: int) -> bool:
    """The one density rule: a vector of *dims* words stays sparse, in memory
    and on the wire, while fewer than a third of its words are stored."""
    return 3 * stored < dims


def as_dense(vector: Vector) -> np.ndarray:
    """Norms and dot products run on this, so a sparse vector rounds as its dense form."""
    return vector.to_dense() if isinstance(vector, SparseVector) else vector


def l2_norm(vector: Vector) -> float:
    """``sqrt(add.reduce(w * w))`` over the dense form: pairwise-summed, never
    BLAS, so the same bits on any thread count.  A dense vector's squares go
    to a new array.  A SparseVector's norm evaluates numpy's pairwise tree
    over its live words only (``_sparse_square_sum``), to the same bits."""
    if isinstance(vector, SparseVector):
        return float(np.sqrt(_sparse_square_sum(vector)))
    return float(np.sqrt(np.add.reduce(np.multiply(vector, vector))))


@lru_cache(maxsize=64)
def tree_spans(n: int, width: int = _SWEEP_WORDS) -> tuple[np.ndarray, tuple[np.ndarray | None, ...]]:
    """Cut ``range(n)`` at the nodes of numpy's pairwise-sum tree no longer
    than *width* (at least 128, numpy's unsplit leaf): numpy splits a run of
    m > 128 words at ``m // 2 - (m // 2) % 8``.  Returns the spans, left to
    right, as ``(start, end)`` rows of a read-only array, and the tree above
    them level by level from the spans up: where each node's children start
    in the level below (a node carried up a level is its own single child),
    or None where every node has two.  So ``tree_sum`` of each span's
    ``np.add.reduce`` is ``np.add.reduce`` of the whole, bit for bit."""
    starts, lengths = np.zeros(1, dtype=np.intp), np.array([n], dtype=np.intp)
    levels = []
    while (split := lengths > width).any():
        half = lengths[split] // 2
        half -= half % 8
        counts = 1 + split
        first = np.cumsum(counts) - counts
        starts, lengths = np.repeat(starts, counts), np.repeat(lengths, counts)
        left = first[split]
        lengths[left] = half
        starts[left + 1] += half
        lengths[left + 1] -= half
        first.flags.writeable = False
        levels.append(None if split.all() else first)
    spans = np.stack([starts, starts + lengths], axis=1)
    spans.flags.writeable = False
    return spans, tuple(levels[::-1])


def tree_sum(levels: tuple[np.ndarray | None, ...], partials) -> np.ndarray | np.float64:
    """Add per-span sums (``partials[i]``: a float, or a row of them summed
    word by word) up ``tree_spans``' *levels*, each node its left plus its right."""
    sums = np.asarray(partials)
    for first in levels:
        sums = sums[0::2] + sums[1::2] if first is None else np.add.reduceat(sums, first, axis=0)
    return sums[0]


@lru_cache(maxsize=8)
def _lane_shift(dims: int) -> np.ndarray:
    """Per 8-word block of ``range(dims)``, how far its words sit past their
    lane in a row of 8 lanes per leaf of numpy's pairwise-sum tree: word w
    sums in lane ``w - shift[w >> 3]``.  Every leaf starts at a multiple of 8."""
    spans, _ = tree_spans(dims, 128)
    blocks = -(-(spans[:, 1] - spans[:, 0]) // 8)
    shift = 8 * (np.arange(blocks.sum()) - np.repeat(np.arange(len(spans)), blocks))
    shift.flags.writeable = False
    return shift


def _sparse_square_sum(vector: SparseVector) -> np.float64:
    """``np.add.reduce`` of the dense form's squares, from the live words alone.

    A leaf of numpy's pairwise-sum tree (``tree_spans(dims, 128)``) of 8 to
    128 words sums in 8 lanes (lane j holds the words at j mod 8, added in
    index order), combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``; its
    last ``m % 8`` words then add one at a time, as all words of a leaf under
    8 words do.  Squares are never negative, so every +0.0 word these adds
    meet is an exact identity: the lanes are in-order ``bincount`` sums of
    the live squares, and untouched leaves and nodes hold +0.0.  Only the
    last leaf has such a tail, the last ``dims % 8`` words.
    """
    spans, levels = tree_spans(vector.dims, 128)
    shift = _lane_shift(vector.dims)
    squares = np.multiply(vector.values, vector.values)
    cut = int(np.searchsorted(vector.indices, vector.dims - vector.dims % 8))
    head = vector.indices[:cut]
    # An empty bincount is integer zeros.
    r = np.bincount(head - shift[head >> 3], weights=squares[:cut], minlength=8 * len(spans))
    r = r.astype(np.float64, copy=False).reshape(len(spans), 8)
    r = r[:, 0::2] + r[:, 1::2]
    r = r[:, 0::2] + r[:, 1::2]
    sums = r[:, 0] + r[:, 1]
    for square in squares[cut:]:
        sums[-1] += square
    return tree_sum(levels, sums)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``, by a sort and a drop of adjacent duplicates: the
    path ``np.unique`` itself takes when asked for indices, several times
    faster on index arrays than the hash path numpy 2.4 takes otherwise, and
    without that path's lazy import of ``numpy.ma``."""
    keys = np.sort(keys, axis=None)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def take(vector: Vector, cols: np.ndarray) -> np.ndarray:
    """``as_dense(vector)[cols]``, without densifying a sparse vector."""
    if not isinstance(vector, SparseVector):
        return vector[cols]
    indices = np.append(vector.indices, vector.dims)  # a sentinel no column matches
    pos = np.searchsorted(indices, cols)
    return np.where(indices[pos] == cols, np.append(vector.values, 0.0)[pos], 0.0)


def add_scaled(acc: np.ndarray, vector: Vector, weight: float) -> None:
    """``acc += vector * weight``, adding a sparse vector at its live words only:
    exact, as a sum from +0.0 never turns -0.0 under round-to-nearest."""
    if isinstance(vector, SparseVector):
        acc[vector.indices] += vector.values * weight
    else:
        acc += vector * weight


@dataclass(frozen=True)
class ClientUpdate:
    """One client's contribution to a round: a weighted parameter delta."""

    client_id: str
    round: int
    weight: float
    delta: Vector

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError(f"update weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class AggregationStrategy:
    kind: str = "fedavg"
    normalize_to: float | None = None
    geo_tol: float = 1e-8
    geo_max_iter: int = 200

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown aggregation kind {self.kind!r}")
        if self.normalize_to is not None and self.normalize_to <= 0:
            raise ConfigError("normalize_to must be positive")
        if self.geo_tol <= 0 or self.geo_max_iter < 1:
            raise ConfigError("geo_tol must be > 0 and geo_max_iter >= 1")


def _sorted_updates(updates: list[ClientUpdate]) -> list[ClientUpdate]:
    if not updates:
        raise ValueError("cannot aggregate zero updates")
    updates = sorted(updates, key=lambda u: u.client_id)
    dims = len(updates[0].delta)
    rnd = updates[0].round
    for u in updates:
        if len(u.delta) != dims:
            raise ConfigError("updates disagree on parameter dims")
        if u.round != rnd:
            raise ConfigError("updates disagree on round")
    return updates


def add_vectors(base: Vector, delta: Vector) -> Vector:
    """``as_dense(base) + as_dense(delta)``, bit for bit.  Two sparse sides add
    on the union of their stored words, where the other side reads +0.0 as its
    dense form does, and stay sparse while that union ``sparse_fits``; every
    other case returns a dense array."""
    if isinstance(base, SparseVector) and isinstance(delta, SparseVector):
        cols = sorted_unique(np.concatenate((base.indices, delta.indices)))
        if sparse_fits(len(cols), base.dims):
            return SparseVector(base.dims, cols, take(base, cols) + take(delta, cols))
    return as_dense(base) + as_dense(delta)


def fedavg(updates: list[ClientUpdate]) -> Vector:
    """Weight-averaged delta, summed in client-id order.

    When every row is sparse, the sum runs on the union of their indices and
    the result is a SparseVector over it: the same per-word adds from +0.0
    and the same division, so its dense form is the dense path's bytes.
    """
    updates = _sorted_updates(updates)
    rows = [u.delta for u in updates]
    cols = None
    if all(isinstance(r, SparseVector) for r in rows):
        cols = sorted_unique(np.concatenate([r.indices for r in rows]))
        rows = [SparseVector(len(cols), np.searchsorted(cols, r.indices), r.values) for r in rows]
    total = np.zeros(len(rows[0]))
    weight_sum = 0.0
    for u, row in zip(updates, rows):
        add_scaled(total, row, u.weight)
        weight_sum += u.weight
    total = total / weight_sum
    return total if cols is None else SparseVector(len(updates[0].delta), cols, total)


def coordinate_median(updates: list[ClientUpdate]) -> np.ndarray:
    """Per-coordinate median; even counts use the mean of the middle pair.

    With a majority of sparse rows, only columns that a sparse row stores or
    a dense row holds as +-0.0 or NaN can differ from +0.0, so only they run.
    Those are the words that * inf makes NaN, found in cache-sized blocks.
    """
    rows = [u.delta for u in _sorted_updates(updates)]
    sparse = [r for r in rows if isinstance(r, SparseVector)]
    if len(sparse) <= len(rows) // 2:
        return np.median(np.stack([as_dense(r) for r in rows]), axis=0)
    with np.errstate(invalid="ignore"):
        cols = sorted_unique(np.concatenate([r.indices for r in sparse] + [
            np.flatnonzero(np.isnan(r[s:s + _SWEEP_WORDS] * np.inf)) + s
            for r in rows if not isinstance(r, SparseVector)
            for s in range(0, len(r), _SWEEP_WORDS)
        ]))
    out = np.zeros(len(rows[0]))
    out[cols] = np.median(np.stack([
        SparseVector(len(cols), np.searchsorted(cols, r.indices), r.values).to_dense()
        if isinstance(r, SparseVector) else r[cols] for r in rows
    ]), axis=0)
    return out


def geometric_median(
    updates: list[ClientUpdate],
    tol: float = 1e-8,
    max_iter: int = 200,
) -> np.ndarray:
    """Weiszfeld iteration for the point minimizing the sum of L2 distances.

    Starts from the coordinate-wise median; stops when the step length drops
    below *tol* or after *max_iter* iterations.  The update is singular at
    the input points themselves, so an iterate landing within the snap
    radius of one gets the Vardi-Zhang treatment: the point is returned if
    it passes the optimality test (residual pull <= multiplicity), otherwise
    the iteration steps off it in the residual direction.

    The result is bit for bit the dense formula: a row's distance is
    ``sqrt(add.reduce((p - x) ** 2))``, the per-row reduction
    ``np.linalg.norm(points - x, axis=1)`` runs, and the weighted sum adds
    the rows ``p * w`` in order onto zeros, exactly as ``(points * w[:,
    None]).sum(axis=0)`` reduces axis 0 (so an all ``-0.0`` coordinate still
    sums to ``+0.0``).  A sparse row adds at its live words only; its
    squared-distance row is the shared ``x * x`` with them swapped in.

    Each iteration is one sweep over the ``tree_spans`` blocks, each a node
    of numpy's pairwise-sum tree: a block makes its part of the weighted
    sum, moves the iterate there in place, and reduces its part of the step
    and of every row's next distance while the block is in cache.  The
    blocks' sums combine in the tree's order (``tree_sum``), so each norm is
    the whole-vector ``np.add.reduce``.  Scratch is block-sized.  The sweep
    stays on one thread: splitting the tree's halves over two threads saved
    about 4%, on a second core that is not always there.  BLAS products or
    Gram-matrix distances would round differently, by thread count, and
    must not replace these loops.
    """
    rows = [u.delta for u in _sorted_updates(updates)]
    if not all(np.isfinite(r.values if isinstance(r, SparseVector) else r).all() for r in rows):
        raise ValueError("geometric median requires finite inputs")
    spans, levels = tree_spans(len(rows[0]))
    # A sparse row's live words per block: (offsets in the block, values).
    live = []
    for p in rows:
        if isinstance(p, SparseVector):
            ends = np.searchsorted(p.indices, [b for _, b in spans])
            live.append([(p.indices[lo:hi] - a, p.values[lo:hi])
                         for (a, _), lo, hi in zip(spans, [0, *ends[:-1]], ends)])
        else:
            live.append(None)
    width = max(b - a for a, b in spans)
    acc, diff, squares = np.empty(width), np.empty(width), np.empty(width)
    partials = np.zeros((len(spans), len(rows) + 1))

    def sweep(x: np.ndarray, inv: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """With weights *inv*, move *x* in place to the weighted sum over
        ``inv.sum()``; return the step's length and each row's distance to *x*."""
        if inv is not None:
            total = inv.sum()
        for k, (a, b) in enumerate(spans):
            xb, tmp, sq = x[a:b], diff[:b - a], squares[:b - a]
            if inv is not None:
                new = acc[:b - a]
                new.fill(0.0)
                for p, w, cut in zip(rows, inv, live):
                    if cut is None:
                        new += np.multiply(p[a:b], w, out=tmp)
                    else:
                        offsets, values = cut[k]
                        new[offsets] += values * w
                new /= total
                np.subtract(new, xb, out=tmp)
                partials[k, 0] = np.add.reduce(np.square(tmp, out=tmp))
                xb[:] = new
            np.square(xb, out=sq)
            for i, (p, cut) in enumerate(zip(rows, live), 1):
                if cut is None:
                    np.subtract(p[a:b], xb, out=tmp)
                    partials[k, i] = np.add.reduce(np.square(tmp, out=tmp))
                else:
                    offsets, values = cut[k]
                    kept = sq[offsets]
                    sq[offsets] = np.square(values - xb[offsets])
                    partials[k, i] = np.add.reduce(sq)
                    sq[offsets] = kept
        sums = np.sqrt(tree_sum(levels, partials))
        return float(sums[0]), sums[1:]

    x = coordinate_median(updates)  # a fresh array, so the sweep may move it
    _, dist = sweep(x)
    for _ in range(max_iter):
        coincident = dist < _WEISZFELD_SNAP
        if coincident.any():
            rest = np.array([as_dense(p) for p, c in zip(rows, coincident) if not c])
            if rest.size == 0:
                return x
            d = np.linalg.norm(rest - x, axis=1)
            inv = 1.0 / d
            pull = ((rest - x) * inv[:, None]).sum(axis=0)
            r = l2_norm(pull)
            eta = float(coincident.sum())
            if r <= eta:
                return x
            weiszfeld = (rest * inv[:, None]).sum(axis=0) / inv.sum()
            beta = eta / r
            new_x = (1.0 - beta) * weiszfeld + beta * x
            step = l2_norm(new_x - x)
            x = new_x
            _, dist = sweep(x)
        else:
            step, dist = sweep(x, 1.0 / dist)
        if step < tol:
            break
    return x


def trust_weights(
    updates: list[ClientUpdate], server_reference: np.ndarray
) -> dict[str, float]:
    """ReLU-clipped cosine similarity of each delta against a reference.

    A zero-norm delta scores 0.  When every score is 0 the weights fall back
    to uniform (all 1.0) so the aggregate stays defined.
    """
    ref_norm = l2_norm(server_reference)
    if ref_norm == 0.0:
        raise ConfigError("trust reference must be non-zero")
    updates = _sorted_updates(updates)
    scores: dict[str, float] = {}
    for u in updates:
        delta = as_dense(u.delta)
        norm = l2_norm(delta)
        if norm == 0.0:
            scores[u.client_id] = 0.0
        else:
            cos = float(np.add.reduce(delta * server_reference)) / (norm * ref_norm)
            scores[u.client_id] = max(0.0, cos)
    if all(v == 0.0 for v in scores.values()):
        return {cid: 1.0 for cid in scores}
    return scores


def clip_to_norm(delta: Vector, target_norm: float) -> Vector:
    """Rescale to exactly target_norm when larger; otherwise unchanged."""
    norm = l2_norm(delta)
    if norm <= target_norm:
        return delta
    if isinstance(delta, SparseVector):
        return SparseVector(delta.dims, delta.indices, delta.values * (target_norm / norm))
    return delta * (target_norm / norm)


def normalize_updates(
    updates: list[ClientUpdate], target_norm: float
) -> list[ClientUpdate]:
    """Clip every delta's L2 norm to at most target_norm."""
    return [
        ClientUpdate(u.client_id, u.round, u.weight, clip_to_norm(u.delta, target_norm))
        for u in updates
    ]


def aggregate(
    updates: list[ClientUpdate],
    strategy: AggregationStrategy,
    trust_reference: np.ndarray | None = None,
) -> Vector:
    """Dispatch on strategy kind; normalization (when configured) runs first.

    fedavg-trust weights deltas by ReLU-clipped cosine against
    *trust_reference*; without a reference yet (first round) it degrades to
    plain fedavg.
    """
    if strategy.normalize_to is not None:
        updates = normalize_updates(updates, strategy.normalize_to)
    if strategy.kind == "fedavg":
        return fedavg(updates)
    if strategy.kind == "coord-median":
        return coordinate_median(updates)
    if strategy.kind == "geo-median":
        return geometric_median(updates, strategy.geo_tol, strategy.geo_max_iter)
    if strategy.kind == "fedavg-trust":
        if trust_reference is None or not np.any(trust_reference):
            return fedavg(updates)
        trust = trust_weights(updates, trust_reference)
        reweighted = [
            ClientUpdate(u.client_id, u.round, max(trust[u.client_id], 1e-12), u.delta)
            for u in _sorted_updates(updates)
        ]
        return fedavg(reweighted)
    raise ConfigError(f"unknown aggregation kind {strategy.kind!r}")
