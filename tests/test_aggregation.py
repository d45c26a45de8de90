import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmesh.aggregation import (
    AggregationStrategy,
    ClientUpdate,
    SparseVector,
    add_vectors,
    aggregate,
    as_dense,
    clip_to_norm,
    coordinate_median,
    fedavg,
    geometric_median,
    l2_norm,
    normalize_updates,
    sorted_unique,
    sparse_fits,
    take,
    tree_spans,
    tree_sum,
    trust_weights,
)
from fedmesh.aggregation import STRATEGY_KINDS, _SWEEP_WORDS, _WEISZFELD_SNAP, _sorted_updates
from fedmesh.errors import ConfigError


def distance_sum(x: np.ndarray, updates: list[ClientUpdate]) -> float:
    """The geometric-median objective at *x*."""
    return float(sum(l2_norm(as_dense(u.delta) - x) for u in updates))


def updates_from(deltas, weights=None, round_no=1):
    weights = weights or [1.0] * len(deltas)
    return [
        ClientUpdate(f"site-{i}", round_no, w,
                     d if isinstance(d, SparseVector) else np.asarray(d, dtype=np.float64))
        for i, (d, w) in enumerate(zip(deltas, weights))
    ]


class TestFedavg:
    def test_weighted_mean(self):
        out = fedavg(updates_from([[1.0, 1.0], [5.0, 5.0]], weights=[1.0, 3.0]))
        np.testing.assert_array_equal(out, [4.0, 4.0])

    def test_single_update_identity(self):
        delta = np.array([0.5, -2.0, 3.0])
        np.testing.assert_array_equal(fedavg(updates_from([delta])), delta)

    def test_equal_weights_match_naive_mean_oracle(self):
        rng = np.random.default_rng(0)
        deltas = [rng.normal(size=50) for _ in range(7)]
        out = fedavg(updates_from(deltas, weights=[2.5] * 7))
        naive = sum(deltas) / 7  # brute-force unweighted mean
        np.testing.assert_allclose(out, naive, atol=1e-12, rtol=0)

    def test_identical_deltas_any_weights(self):
        d = np.array([1.0, -1.0, 2.0])
        out = fedavg(updates_from([d, d, d], weights=[0.1, 5.0, 2.0]))
        np.testing.assert_allclose(out, d, atol=1e-15)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            ClientUpdate("a", 1, 0.0, np.zeros(2))

    def test_round_mismatch_rejected(self):
        ups = updates_from([[1.0], [2.0]])
        bad = ClientUpdate("z", 9, 1.0, np.array([1.0]))
        with pytest.raises(ConfigError):
            fedavg(ups + [bad])


class TestCoordinateMedian:
    def test_per_coordinate(self):
        out = coordinate_median(updates_from([[0.0, 10.0], [1.0, 1.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_two_updates_mean_of_middle_pair(self):
        out = coordinate_median(updates_from([[0.0, 4.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_outlier_bounded_by_honest_range(self):
        rng = np.random.default_rng(1)
        honest = [rng.normal(size=20) * 0.1 for _ in range(5)]
        evil = np.full(20, 1e9)
        out = coordinate_median(updates_from(honest + [evil]))
        lo = np.min(np.stack(honest), axis=0)
        hi = np.max(np.stack(honest), axis=0)
        assert (out >= lo).all() and (out <= hi).all()


class TestGeometricMedian:
    def test_1d_is_median(self):
        out = geometric_median(updates_from([[0.0], [0.0], [10.0]]), tol=1e-10)
        assert out[0] == pytest.approx(0.0, abs=1e-8)

    def test_equilateral_triangle_centroid(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]
        out = geometric_median(updates_from(pts), tol=1e-12, max_iter=500)
        centroid = np.mean(np.asarray(pts), axis=0)
        np.testing.assert_allclose(out, centroid, atol=1e-6)

    def test_snaps_to_coincident_point(self):
        pts = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [5.0, -3.0]]
        out = geometric_median(updates_from(pts))
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            geometric_median(updates_from([[np.inf, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("case", range(10))
    def test_against_scipy_minimizer_oracle(self, case):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(100 + case)
        ups = updates_from([rng.normal(size=3) for _ in range(5)])
        ours = geometric_median(ups, tol=1e-12, max_iter=2000)

        objective = lambda x: distance_sum(x, ups)
        best = min(
            (
                scipy_opt.minimize(objective, u.delta, method="Nelder-Mead",
                                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
                for u in ups
            ),
            key=lambda r: r.fun,
        )
        assert objective(ours) <= best.fun + 1e-3

    def test_weiszfeld_descent(self):
        rng = np.random.default_rng(7)
        ups = updates_from([rng.normal(size=4) for _ in range(6)])
        points = np.stack([u.delta for u in ups])
        x = np.median(points, axis=0)
        prev_obj = distance_sum(x, ups)
        for _ in range(60):
            dist = np.linalg.norm(points - x, axis=1)
            if (dist < 1e-12).any():
                break
            inv = 1.0 / dist
            x = (points * inv[:, None]).sum(axis=0) / inv.sum()
            obj = distance_sum(x, ups)
            assert obj <= prev_obj + 1e-9
            prev_obj = obj


def _reference_geometric_median(updates, tol=1e-8, max_iter=200):
    """The dense Weiszfeld formula the streamed implementation replaced, kept
    as the bit-identity reference; its 1-D norms are pairwise sums, not BLAS."""
    updates = _sorted_updates(updates)
    points = np.stack([u.delta for u in updates])
    if not np.all(np.isfinite(points)):
        raise ValueError("geometric median requires finite inputs")
    x = np.median(points, axis=0)
    for _ in range(max_iter):
        dist = np.linalg.norm(points - x, axis=1)
        coincident = dist < _WEISZFELD_SNAP
        if coincident.any():
            rest = points[~coincident]
            if rest.size == 0:
                return x
            d = np.linalg.norm(rest - x, axis=1)
            inv = 1.0 / d
            pull = ((rest - x) * inv[:, None]).sum(axis=0)
            r = float(np.sqrt(np.add.reduce(pull * pull)))
            eta = float(coincident.sum())
            if r <= eta:
                return x
            weiszfeld = (rest * inv[:, None]).sum(axis=0) / inv.sum()
            beta = eta / r
            new_x = (1.0 - beta) * weiszfeld + beta * x
        else:
            inv = 1.0 / dist
            new_x = (points * inv[:, None]).sum(axis=0) / inv.sum()
        step = float(np.sqrt(np.add.reduce((new_x - x) ** 2)))
        x = new_x
        if step < tol:
            break
    return x


_COORD = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-300, -5e-324, 1e100, -1e100]),
)


@st.composite
def _point_sets(draw):
    n = draw(st.integers(1, 9))
    dims = draw(st.integers(1, 40))
    points = draw(hnp.arrays(np.float64, (n, dims), elements=_COORD, fill=st.nothing()))
    if draw(st.booleans()):
        # Sparse rows: about half the coordinates become exact zeros.
        points[draw(hnp.arrays(np.bool_, (n, dims), fill=st.nothing()))] = 0.0
    # Put the first row on the start point, so the coincident (Vardi-Zhang)
    # branch runs: a repeated row can be the coordinate median, and with an
    # odd count the median of the other rows is always the overall median.
    mode = draw(st.sampled_from(["as drawn", "repeated", "at median"]))
    if mode == "repeated":
        points[1:1 + draw(st.integers(1, 3))] = points[0]
    elif mode == "at median" and n % 2 == 1 and n > 1:
        points[0] = np.median(points[1:], axis=0)
    return points


class TestGeometricMedianBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(points=_point_sets(), tol=st.sampled_from([1e-8, 1e-12]))
    def test_matches_dense_formula_bytes(self, points, tol):
        ups = updates_from(list(points))
        got = geometric_median(ups, tol=tol)
        want = _reference_geometric_median(ups, tol=tol)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_all_negative_zero_coordinate_matches_dense_sum(self):
        # numpy's axis-0 sum starts from +0.0, so an all -0.0 column sums to
        # +0.0; the streamed sum must start there too, not from the first row.
        ups = updates_from([[-0.0, 1.0], [-0.0, 2.0], [-0.0, 7.0], [-0.0, 10.0]])
        for max_iter in (1, 200):
            got = geometric_median(ups, max_iter=max_iter)
            want = _reference_geometric_median(ups, max_iter=max_iter)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,dims", [(1, 5), (3, 20_001), (8, 65_536), (9, 100_003)])
    def test_long_rows_match_dense_formula_bytes(self, n, dims):
        # Rows long enough for numpy's pairwise summation blocks and its
        # buffered iteration to matter.
        rng = np.random.default_rng(dims)
        deltas = rng.normal(size=(n, dims)) * rng.choice([1e-4, 1.0, 1e3], size=(n, dims))
        deltas[rng.random(size=(n, dims)) < 0.5] = 0.0
        ups = updates_from(list(deltas))
        assert geometric_median(ups).tobytes() == _reference_geometric_median(ups).tobytes()

    def test_coincident_branch_matches_dense_formula_bytes(self):
        pts = [[1.0, 1.0], [1.0, 1.0], [5.0, -3.0], [0.5, 2.0], [9.0, 9.0]]
        ups = updates_from(pts)
        assert geometric_median(ups).tobytes() == _reference_geometric_median(ups).tobytes()


def _reference_fedavg(updates):
    """Dense FedAvg as it was before sparse rows, verbatim."""
    updates = _sorted_updates(updates)
    total = np.zeros_like(updates[0].delta)
    weight_sum = 0.0
    for u in updates:
        total += u.weight * u.delta
        weight_sum += u.weight
    return total / weight_sum


def _reference_coordinate_median(updates):
    """Dense coordinate median as it was before sparse rows, verbatim."""
    updates = _sorted_updates(updates)
    stacked = np.stack([u.delta for u in updates])
    return np.median(stacked, axis=0)


def _sparse_form(row, extra_zeros):
    """*row* as a SparseVector of its nonzero-bit words plus stored +0.0 words."""
    (indices,) = np.nonzero((row.view(np.uint64) != 0) | extra_zeros)
    return SparseVector(len(row), indices, row[indices])


@st.composite
def _mixed_rows(draw):
    """(dense points, weights, the same rows with some given as SparseVector)."""
    points = draw(_point_sets())
    n, dims = points.shape
    chosen = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    if chosen and draw(st.booleans()):
        # Columns dead in every sparse row, so the median skips them.
        dead = draw(hnp.arrays(np.bool_, dims, fill=st.nothing()))
        points[np.ix_(sorted(chosen), np.flatnonzero(dead))] = 0.0
    rows = []
    for i, row in enumerate(points):
        if i in chosen:
            # Released zeros: +0.0 words an SVT release may store.
            rows.append(_sparse_form(
                row, draw(hnp.arrays(np.bool_, dims, fill=st.nothing()))))
        else:
            rows.append(row.copy())
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return points, weights, rows


class TestSparseRowsBitIdentity:
    """Sparse rows give the bytes the dense code gives for their dense form."""

    @settings(max_examples=300, deadline=None)
    @given(case=_mixed_rows())
    def test_fedavg(self, case):
        points, weights, rows = case
        got = fedavg(updates_from(rows, weights))
        want = _reference_fedavg(updates_from(list(points), weights))
        # All-sparse rows give a SparseVector; any dense row, the dense path.
        assert isinstance(got, SparseVector) == all(isinstance(r, SparseVector) for r in rows)
        got = as_dense(got)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=_mixed_rows())
    def test_coordinate_median(self, case):
        points, weights, rows = case
        got = coordinate_median(updates_from(rows, weights))
        want = _reference_coordinate_median(updates_from(list(points), weights))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=_mixed_rows(), tol=st.sampled_from([1e-8, 1e-12]))
    def test_geometric_median(self, case, tol):
        points, _, rows = case
        got = geometric_median(updates_from(rows), tol=tol)
        want = _reference_geometric_median(updates_from(list(points)), tol=tol)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=_mixed_rows(), kind=st.sampled_from(STRATEGY_KINDS),
           normalize_to=st.sampled_from([None, 1e-3, 1.0, 1e6]))
    def test_aggregate_with_normalization_and_trust(self, case, kind, normalize_to):
        points, weights, rows = case
        strategy = AggregationStrategy(kind, normalize_to=normalize_to)
        reference = points.sum(axis=0) + 1.0
        got = aggregate(updates_from(rows, weights), strategy, reference)
        want = aggregate(updates_from(list(points), weights), strategy, reference)
        assert as_dense(got).tobytes() == want.tobytes()

    def test_clip_and_trust_use_the_dense_norm(self):
        # Pairwise summation groups its partial sums by position, so the norm
        # of a sparse row's compacted values can differ from its dense norm;
        # clipping and trust weights must use the dense one.
        dims, nnz = 65_536, 600
        differs = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            indices = np.sort(rng.choice(dims, nnz, replace=False))
            sparse = SparseVector(dims, indices, rng.normal(size=nnz))
            dense = sparse.to_dense()
            differs += l2_norm(sparse.values) != l2_norm(dense)
            assert clip_to_norm(sparse, 0.5).to_dense().tobytes() == \
                clip_to_norm(dense, 0.5).tobytes()
            ref = rng.normal(size=dims)
            assert trust_weights(updates_from([sparse]), ref) == \
                trust_weights(updates_from([dense]), ref)
        assert differs  # the trap is real; otherwise the test is vacuous

    @pytest.mark.parametrize("n_sparse", [3, 4, 5, 8])
    def test_long_rows(self, n_sparse):
        # Rows long enough for numpy's pairwise summation blocks, with fewer
        # than and at least n // 2 + 1 sparse rows among 8.
        n, dims = 8, 65_536
        rng = np.random.default_rng(n_sparse)
        points = rng.normal(size=(n, dims)) * 1e-3
        points[:n_sparse][rng.random(size=(n_sparse, dims)) < 0.99] = 0.0
        points[n_sparse:, :50] = 0.0
        points[n_sparse:, 50:60] = -0.0
        points[0, 7] = -0.0
        rows = [_sparse_form(p, np.zeros(dims, bool)) if i < n_sparse else p
                for i, p in enumerate(points)]
        weights = list(rng.uniform(1, 100, size=n))
        dense_ups = updates_from(list(points), weights)
        ups = updates_from(rows, weights)
        assert as_dense(fedavg(ups)).tobytes() == _reference_fedavg(dense_ups).tobytes()
        assert coordinate_median(ups).tobytes() == \
            _reference_coordinate_median(dense_ups).tobytes()
        assert geometric_median(ups).tobytes() == \
            _reference_geometric_median(dense_ups).tobytes()

    def test_coordinate_median_keeps_a_dense_nan_column(self):
        # np.median yields NaN for any column holding one, even where the
        # sparse majority is +0.0 there.
        pts = np.array([[np.nan, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        rows = [pts[0], _sparse_form(pts[1], np.zeros(3, bool)),
                _sparse_form(pts[2], np.zeros(3, bool))]
        got = coordinate_median(updates_from(rows))
        want = _reference_coordinate_median(updates_from(list(pts)))
        assert np.isnan(got[0]) and got.tobytes() == want.tobytes()

    def test_coordinate_median_finds_blank_words_in_every_block(self):
        # Dense rows longer than one scan block, with +-0.0 and NaN on both
        # sides of each block edge, next to inf and a subnormal that are live.
        dims = 2 * _SWEEP_WORDS + 5
        rng = np.random.default_rng(4)
        points = rng.normal(size=(5, dims))
        points[:3] = 0.0
        points[0, [1, _SWEEP_WORDS + 2]] = [2.0, -3.0]
        for i, col in enumerate((0, _SWEEP_WORDS - 1, _SWEEP_WORDS, 2 * _SWEEP_WORDS, dims - 1)):
            points[3, col] = (0.0, -0.0, np.nan, np.inf, 5e-324)[i]
            points[4, col] = (np.nan, 0.0, -0.0, -np.inf, -0.0)[i]
        rows = [_sparse_form(p, np.zeros(dims, bool)) for p in points[:3]] + list(points[3:])
        got = coordinate_median(updates_from(rows))
        want = _reference_coordinate_median(updates_from(list(points)))
        assert got.tobytes() == want.tobytes()

    def test_coincident_branch(self):
        pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, -3.0, 0.0],
                        [0.0, 2.0, 0.0], [9.0, 0.0, 0.0]])
        rows = [_sparse_form(p, np.zeros(3, bool)) for p in pts]
        got = geometric_median(updates_from(rows))
        assert got.tobytes() == _reference_geometric_median(updates_from(list(pts))).tobytes()
        assert got.tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()


def _benchmark_rows(dims, seed):
    """Eight rows laid out as a robust benchmark round's: two DP sites' and a
    Byzantine site's dense rows around five sparse rows of about 4,000 live
    words, some of them stored as -0.0."""
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=dims) * 0.05 for _ in range(2)]
    for _ in range(5):
        indices = np.sort(rng.choice(dims, 4000, replace=False))
        values = rng.normal(size=4000) * 0.1
        values[rng.random(4000) < 0.05] = -0.0
        rows.append(SparseVector(dims, indices, values))
    rows.append(rng.normal(size=dims) * 1000.0)
    return rows


class TestBlockedSweep:
    """Lengths past the 2**16-word sweep blocks, where the norms are cut at
    pairwise-tree nodes and their block sums added back in the tree's order."""

    @pytest.mark.parametrize("dims", [3 * 2**18, 196_613])
    def test_benchmark_layout_matches_dense_formula_bytes(self, dims):
        rows = _benchmark_rows(dims, seed=dims)
        got = geometric_median(updates_from(rows))
        want = _reference_geometric_median(updates_from([as_dense(r) for r in rows]))
        assert got.tobytes() == want.tobytes()

    def test_coincident_branch_past_one_block(self):
        # Row 0 is the median of the others, so it is the start point too.
        dims = 131_073
        rows = _benchmark_rows(dims, seed=3)[3:7]
        rows.insert(0, np.median(np.stack([as_dense(r) for r in rows]), axis=0))
        ups = updates_from(rows)
        assert coordinate_median(ups).tobytes() == rows[0].tobytes()
        got = geometric_median(ups)
        want = _reference_geometric_median(updates_from([as_dense(r) for r in rows]))
        assert got.tobytes() == want.tobytes() and got.tobytes() != rows[0].tobytes()

    def test_scratch_is_block_sized(self):
        # The iterate moves in place and the sweep's scratch is three blocks,
        # so one call holds about 1.5 vectors; a fresh vector per iteration
        # (or n x dims temporaries) would pass 2.
        rows = _benchmark_rows(3 * 2**18, seed=1)
        ups = updates_from(rows)
        tracemalloc.start()
        try:
            geometric_median(ups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * rows[0].nbytes, peak / rows[0].nbytes


@st.composite
def _addends(draw):
    """Two vectors of one length, each dense or sparse (with stored +0.0 and
    -0.0 words), their stored counts on both sides of the one-third rule."""
    dims = draw(st.integers(1, 30))
    out = []
    for _ in range(2):
        row = draw(hnp.arrays(np.float64, dims, elements=_COORD, fill=st.nothing()))
        row[draw(hnp.arrays(np.bool_, dims, fill=st.nothing()))] = 0.0
        extra = draw(hnp.arrays(np.bool_, dims, fill=st.nothing()))
        out.append(_sparse_form(row, extra) if draw(st.booleans()) else row)
    return out


class TestAddVectors:
    @settings(max_examples=500, deadline=None)
    @given(pair=_addends())
    def test_is_the_dense_sum_bytes(self, pair):
        base, delta = pair
        got = add_vectors(base, delta)
        want = as_dense(base) + as_dense(delta)
        assert as_dense(got).dtype == want.dtype and as_dense(got).tobytes() == want.tobytes()
        both = isinstance(base, SparseVector) and isinstance(delta, SparseVector)
        stored = len(np.union1d(base.indices, delta.indices)) if both else None
        assert isinstance(got, SparseVector) == (both and sparse_fits(stored, len(want)))

    def test_switches_to_dense_at_a_third(self):
        def sv(indices, values):
            return SparseVector(9, np.array(indices), np.array(values))
        # -0.0 + +0.0 is +0.0 on every dense word, stored or not.
        below = add_vectors(sv([1], [-0.0]), sv([4], [2.0]))
        assert isinstance(below, SparseVector) and list(below.indices) == [1, 4]
        assert below.to_dense().tobytes() == np.array([0, 0, 0, 0, 2.0, 0, 0, 0, 0]).tobytes()
        at = add_vectors(sv([1, 4], [-0.0, 1.0]), sv([4, 7], [2.0, -3.0]))
        assert type(at) is np.ndarray
        assert at.tobytes() == np.array([0, 0, 0, 0, 3.0, 0, 0, -3.0, 0]).tobytes()

    def test_dense_base_turns_negative_zero_as_the_dense_sum_does(self):
        base = np.array([-0.0, -0.0, 1.0])
        got = add_vectors(base, SparseVector(3, np.array([1]), np.array([-0.0])))
        assert got.tobytes() == np.array([0.0, -0.0, 1.0]).tobytes()


_NORM_COORD = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.sampled_from([5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


# numpy's pairwise sum unrolls by 8 words, sums a run of up to 128 in one
# leaf and halves longer runs; the sweep cuts at 2**16 words; the model has
# 3 * 2**18.
_TREE_LENGTHS = sorted({max(0, m + d) for m in [8, 1 << 16, 3 * 2**18, *(128 << k for k in range(13))]
                        for d in (-1, 0, 1)})
_SUM_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-100, -1e-100, 1e100, -1e100])


class TestTreeSpans:
    @settings(max_examples=100, deadline=None)
    @given(n=st.one_of(st.sampled_from(_TREE_LENGTHS), st.integers(0, 3000)),
           width=st.sampled_from([128, 1024, 1 << 16]), edges=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_span_sums_add_up_to_the_pairwise_sum(self, n, width, edges, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        pick = rng.random(n) < edges
        x[pick] = rng.choice(_SUM_EDGES, size=int(pick.sum()))
        spans, levels = tree_spans(n, width)
        assert [a for a, _ in spans] == [0, *(b for _, b in spans[:-1])] and spans[-1][1] == n
        assert all(b - a <= width for a, b in spans)
        got = tree_sum(levels, [np.add.reduce(x[a:b]) for a, b in spans])
        assert _bits(got) == _bits(np.add.reduce(x)), \
            f"numpy {np.__version__} no longer sums {n} words in tree_spans' order"

    def test_the_bits_pin_the_split(self):
        # Moving the one split by 8 words changes the sum's bits, so the test
        # above fails if numpy's tree and tree_spans disagree.
        x = np.random.default_rng(0).normal(size=1 << 17)
        assert tree_spans(len(x), 1 << 16)[0].tolist() == [[0, 1 << 16], [1 << 16, 1 << 17]]
        moved = np.add.reduce(x[:(1 << 16) - 8]) + np.add.reduce(x[(1 << 16) - 8:])
        assert _bits(moved) != _bits(np.add.reduce(x))


class TestL2Norm:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dims=st.integers(1, 400))
    def test_sparse_norm_is_the_dense_norm_bytes(self, data, dims):
        # Stored values include +0.0, -0.0 and subnormals.
        live = np.flatnonzero(data.draw(hnp.arrays(np.bool_, dims, fill=st.nothing())))
        values = data.draw(hnp.arrays(np.float64, len(live), elements=_NORM_COORD,
                                      fill=st.nothing()))
        sparse = SparseVector(dims, live, values.copy())
        assert _bits(l2_norm(sparse)) == _bits(l2_norm(sparse.to_dense()))
        assert sparse.values.tobytes() == values.tobytes()  # squares a copy

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(0, 400), elements=_NORM_COORD,
                        fill=st.nothing()))
    def test_is_the_pairwise_sum(self, x):
        want = _bits(np.sqrt(np.add.reduce(x * x)))
        got = l2_norm(x)
        assert type(got) is float and _bits(got) == want

    @pytest.mark.parametrize("zero", [np.zeros(5), np.full(5, -0.0),
                                      SparseVector(5, np.array([2]), np.array([-0.0]))])
    def test_zero_vector(self, zero):
        assert _bits(l2_norm(zero)) == _bits(0.0)
        assert clip_to_norm(zero, 1.0) is zero
        tw = trust_weights(updates_from([zero, np.ones(5)]), np.ones(5))
        assert tw["site-0"] == 0.0 and tw["site-1"] == pytest.approx(1.0)


# Norm lengths around numpy's 8-word unroll and 128-word leaf, 8 * k,
# 128 * 2**k and the model's 3 * 2**18, on and off multiples of 8.
_NORM_DIMS = sorted({
    *range(1, 8), *(8 * k for k in (1, 2, 3, 9, 16)), *(8 * k + d for k in (2, 16, 17) for d in (1, 5, 7)),
    *(128 << k for k in range(8)), *((128 << k) + d for k in (0, 1, 5) for d in (-3, 1, 9)),
    1000, 4099, 65539, 3 * 2**18,
})
_NORM_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e150, -1e154, 1e160, 3e-170])


class TestSparseL2Norm:
    """A SparseVector's norm sums only its live squares, in numpy's order."""

    @settings(max_examples=300, deadline=None)
    @given(dims=st.one_of(st.sampled_from(_NORM_DIMS), st.integers(0, 3000)),
           live=st.sampled_from(["none", "all", "some", "few"]),
           spread=st.integers(0, 2), edges=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_is_the_dense_norm_bytes(self, dims, live, spread, edges, seed):
        rng = np.random.default_rng(seed)
        share = {"none": 0.0, "all": 1.0, "some": 0.3, "few": 0.01}[live]
        indices = np.flatnonzero(rng.random(dims) < share)
        values = rng.normal(size=len(indices)) * 10.0 ** rng.integers(-spread, spread + 1,
                                                                       size=len(indices))
        pick = rng.random(len(indices)) < edges  # stored +-0.0, subnormal and huge words
        values[pick] = rng.choice(_NORM_EDGES, size=int(pick.sum()))
        sparse = SparseVector(dims, indices, values)
        dense = sparse.to_dense()
        with np.errstate(over="ignore"):
            want = np.sqrt(np.add.reduce(dense * dense))
            got = l2_norm(sparse)
        assert _bits(got) == _bits(want), \
            f"numpy {np.__version__} no longer sums {dims} squares in _sparse_square_sum's order"

    @pytest.mark.parametrize("dims", [7, 15, 127])
    def test_tail_words_add_one_at_a_time(self, dims):
        # One leaf: 1 + 2**-54 rounds back to 1 on each add, while the tail's
        # squares summed first would carry 1 up by an ulp.
        tail = np.arange(max(1, dims - dims % 8), dims)
        sparse = SparseVector(dims, np.append(0, tail), np.append(1.0, np.full(len(tail), 2.0**-27)))
        assert _bits(l2_norm(sparse)) == _bits(l2_norm(sparse.to_dense())) == _bits(1.0)

    def test_huge_words_overflow_as_the_dense_sum_does(self):
        sparse = SparseVector(300, np.array([3, 150, 299]), np.array([1e154, 1e154, 1e-300]))
        with np.errstate(over="ignore"):
            assert l2_norm(sparse) == l2_norm(sparse.to_dense()) == np.inf

    def test_does_not_densify(self):
        dims = 3 * 2**18
        rng = np.random.default_rng(0)
        sparse = SparseVector(dims, np.sort(rng.choice(dims, 15_000, replace=False)),
                              rng.normal(size=15_000))
        l2_norm(sparse)  # the tree's layout is built once per length
        tracemalloc.start()
        try:
            l2_norm(sparse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dims * 8 // 4, peak


class TestSortedUnique:
    @settings(max_examples=300, deadline=None)
    @given(keys=hnp.arrays(st.sampled_from([np.int64, np.int32]), st.integers(0, 200),
                           elements=st.integers(-50, 50), fill=st.nothing()))
    @example(keys=np.array([], dtype=np.int64))
    @example(keys=np.array([7]))
    @example(keys=np.array([3, 3, 3]))
    @example(keys=np.array([-2, 5, -2, 0, 5, -9]))
    def test_is_np_unique(self, keys):
        got, want = sorted_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTake:
    @settings(max_examples=200, deadline=None)
    @given(
        row=hnp.arrays(np.float64, st.integers(1, 40),
                       elements=st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324])),
        data=st.data(),
    )
    def test_take_gathers_what_the_dense_form_holds(self, row, data):
        sparse = _sparse_form(row, data.draw(hnp.arrays(np.bool_, len(row))))
        cols = np.array(sorted(data.draw(st.sets(st.integers(0, len(row) - 1)))), dtype=np.int64)
        assert take(sparse, cols).tobytes() == row[cols].tobytes()
        assert take(row, cols).tobytes() == row[cols].tobytes()


class TestTrustWeights:
    def test_aligned_scores_one(self):
        ref = np.array([1.0, 2.0, 3.0])
        tw = trust_weights(updates_from([ref]), ref)
        assert tw == {"site-0": pytest.approx(1.0)}

    def test_opposed_clipped_to_zero(self):
        ref = np.array([1.0, 2.0, 3.0])
        tw = trust_weights(updates_from([-ref, ref]), ref)
        assert tw["site-0"] == 0.0

    def test_orthogonal_scores_zero(self):
        ref = np.array([1.0, 0.0])
        tw = trust_weights(updates_from([[0.0, 1.0], [1.0, 0.0]]), ref)
        assert tw["site-0"] == 0.0

    def test_zero_norm_delta_scores_zero(self):
        ref = np.array([1.0, 0.0])
        tw = trust_weights(updates_from([[0.0, 0.0], [1.0, 0.0]]), ref)
        assert tw["site-0"] == 0.0

    def test_all_zero_falls_back_to_uniform(self):
        ref = np.array([1.0, 0.0])
        tw = trust_weights(updates_from([[-1.0, 0.0], [0.0, 1.0]]), ref)
        assert tw == {"site-0": 1.0, "site-1": 1.0}

    def test_zero_reference_rejected(self):
        with pytest.raises(ConfigError):
            trust_weights(updates_from([[1.0]]), np.zeros(1))


class TestNormalize:
    def test_rescales_large(self):
        d = np.array([6.0, 8.0])  # norm 10
        out = clip_to_norm(d, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        np.testing.assert_allclose(out, d / 10)

    def test_leaves_small_unchanged(self):
        d = np.array([0.3, 0.4])
        np.testing.assert_array_equal(clip_to_norm(d, 1.0), d)

    def test_zero_vector_passes_through(self):
        np.testing.assert_array_equal(clip_to_norm(np.zeros(3), 1.0), np.zeros(3))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_norm_bound_postcondition(self, values, target):
        ups = normalize_updates(updates_from([values]), target)
        assert np.linalg.norm(ups[0].delta) <= target + 1e-9


ALL_KINDS = ["fedavg", "coord-median", "geo-median"]


class TestAggregateProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(3)
        ups = updates_from([rng.normal(size=6) for _ in range(5)],
                           weights=[1, 2, 3, 4, 5])
        strategy = AggregationStrategy(kind)
        forward = aggregate(list(ups), strategy)
        backward = aggregate(list(reversed(ups)), strategy)
        np.testing.assert_array_equal(forward, backward)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scale_equivariance(self, kind):
        rng = np.random.default_rng(4)
        deltas = [rng.normal(size=5) for _ in range(5)]
        strategy = AggregationStrategy(kind, geo_tol=1e-12, geo_max_iter=2000)
        base = aggregate(updates_from(deltas), strategy)
        scaled = aggregate(updates_from([3.0 * d for d in deltas]), strategy)
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-6)

    def test_byzantine_bound_medians_hold_fedavg_breaks(self):
        rng = np.random.default_rng(5)
        honest = [rng.normal(size=12) * 0.1 for _ in range(5)]
        evil = np.full(12, 1e9)
        ups = updates_from(honest + [evil])
        honest_mean = np.mean(np.stack(honest), axis=0)
        max_pairwise = max(
            np.linalg.norm(a - b) for a in honest for b in honest
        )
        for kind in ("coord-median", "geo-median"):
            agg = aggregate(ups, AggregationStrategy(kind, geo_tol=1e-6))
            assert np.linalg.norm(agg - honest_mean) <= max_pairwise
        fedavg_out = aggregate(ups, AggregationStrategy("fedavg"))
        assert np.linalg.norm(fedavg_out - honest_mean) > max_pairwise

    def test_trust_strategy_downweights_opposed_update(self):
        ref = np.array([1.0, 1.0, 0.0])
        good = np.array([1.0, 0.9, 0.0])
        bad = -5.0 * ref
        ups = updates_from([good, bad])
        out = aggregate(ups, AggregationStrategy("fedavg-trust"), trust_reference=ref)
        np.testing.assert_allclose(out, good, atol=1e-6)

    def test_trust_strategy_without_reference_is_fedavg(self):
        ups = updates_from([[2.0], [4.0]], weights=[1.0, 1.0])
        out = aggregate(ups, AggregationStrategy("fedavg-trust"), trust_reference=None)
        np.testing.assert_array_equal(out, [3.0])

    def test_normalize_to_applies_before_aggregation(self):
        ups = updates_from([[10.0, 0.0], [0.0, 10.0]])
        out = aggregate(ups, AggregationStrategy("fedavg", normalize_to=1.0))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)
