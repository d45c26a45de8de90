import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.aggregation import SparseVector, as_dense, clip_to_norm
from fedmesh.errors import ConfigError
from fedmesh.kvdoc import parse_doc
from fedmesh.privacy import (
    DpParams,
    MaskPairing,
    SitePolicy,
    SvtParams,
    apply_policy,
    decode_fixed,
    encode_fixed,
    gaussian_mechanism,
    gaussian_sigma,
    _pair_words,
    make_masks,
    make_pairing,
    mask_update,
    policy_from_doc,
    policy_to_doc,
    sum_masked,
    svt_filter,
)


class TestGaussianMechanism:
    def test_sigma_formula_against_independent_evaluation(self):
        # sigma = C * sqrt(2 ln(1.25/delta)) / eps, evaluated via log10 here.
        independent = math.sqrt(2.0 * (math.log(1.25) + 5.0 * math.log(10.0)))
        assert gaussian_sigma(1.0, 1.0, 1e-5) == pytest.approx(independent, abs=1e-12)
        assert gaussian_sigma(1.0, 1.0, 1e-5) == pytest.approx(4.8447, abs=2e-4)

    def test_sigma_scales_with_clip_and_epsilon(self):
        assert gaussian_sigma(2.0, 1.0, 1e-5) == pytest.approx(
            2 * gaussian_sigma(1.0, 1.0, 1e-5)
        )
        assert gaussian_sigma(1.0, 4.0, 1e-5) == pytest.approx(
            gaussian_sigma(1.0, 1.0, 1e-5) / 4
        )

    def test_empirical_std_within_one_percent(self):
        rng = np.random.default_rng(42)
        sigma = gaussian_sigma(1.0, 1.0, 1e-5)
        zeros = np.zeros(1_000_000)
        noisy = gaussian_mechanism(zeros, 1.0, 1.0, 1e-5, rng)
        assert np.std(noisy) == pytest.approx(sigma, rel=0.01)

    def test_mean_bias_bound(self):
        rng = np.random.default_rng(43)
        n = 1_000_000
        sigma = gaussian_sigma(1.0, 1.0, 1e-5)
        noisy = gaussian_mechanism(np.zeros(n), 1.0, 1.0, 1e-5, rng)
        assert abs(noisy.mean()) < 3 * sigma / math.sqrt(n)

    def test_huge_epsilon_degenerates_to_identity(self):
        rng = np.random.default_rng(44)
        delta = np.linspace(-0.5, 0.5, 1000)
        noisy = gaussian_mechanism(delta, 1.0, 1e9, 1e-5, rng)
        assert np.max(np.abs(noisy - delta)) < 1e-6

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            gaussian_mechanism(np.zeros(2), 1.0, -1.0, 1e-5, rng)
        with pytest.raises(ConfigError):
            gaussian_mechanism(np.zeros(2), 1.0, 1.0, 1.5, rng)
        with pytest.raises(ConfigError):
            DpParams(epsilon=1.0, delta=0.0)


class TestSvt:
    def test_first_exceeder_with_unit_budget(self):
        # quantile(0.25) of |[0.5, 2.0, 1.5]| is exactly 1.0
        rng = np.random.default_rng(0)
        out = svt_filter(np.array([0.5, 2.0, 1.5]), 0.25, 1, math.inf, rng)
        assert list(out.indices) == [1]
        assert list(out.values) == [2.0]
        dense = out.to_dense()
        np.testing.assert_array_equal(dense, [0.0, 2.0, 0.0])

    def test_large_budget_releases_all_exceeders(self):
        rng = np.random.default_rng(0)
        out = svt_filter(np.array([0.5, 2.0, 1.5]), 0.25, 10, math.inf, rng)
        assert list(out.indices) == [1, 2]

    def test_budget_respected_over_random_trials(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            delta = rng.normal(size=40)
            c = int(rng.integers(1, 6))
            out = svt_filter(delta, 0.8, c, 0.5, rng)
            assert len(out.indices) <= c

    def test_released_values_are_true_values(self):
        rng = np.random.default_rng(8)
        delta = rng.normal(size=30)
        out = svt_filter(delta, 0.5, 5, 2.0, rng)
        np.testing.assert_array_equal(out.values, delta[out.indices])

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            svt_filter(np.zeros(3), 0.5, 0, 1.0, rng)
        with pytest.raises(ConfigError):
            svt_filter(np.zeros(3), 1.5, 1, 1.0, rng)
        with pytest.raises(ConfigError):
            SvtParams(threshold_fraction=0.5, budget_c=2, epsilon=-1.0)


class TestFixedPoint:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        delta = rng.normal(size=100)
        back = decode_fixed(encode_fixed(delta))
        assert np.max(np.abs(back - delta)) <= 2.0 ** -32

    def test_range_guard(self):
        with pytest.raises(ConfigError):
            encode_fixed(np.array([1e12]))

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_small_cohorts_keep_the_2_28_bound(self, n):
        below = np.nextafter(2.0 ** 28, 0.0)
        encode_fixed(np.array([below, -below]), cohort_size=n)
        for edge in (2.0 ** 28, -(2.0 ** 28)):
            with pytest.raises(ConfigError):
                encode_fixed(np.array([edge]), cohort_size=n)

    def test_a_cohort_at_exactly_the_bound_is_refused(self):
        # Eight clients at +2^28 sum to 2^63 on the fixed-point grid, which
        # wraps to -2^63 and decodes to -2^31; the bound is strict.
        cohort = [f"site-{i}" for i in range(8)]
        pairing = make_pairing(cohort, round_no=1, root_seed=4)
        with pytest.raises(ConfigError):
            mask_update(np.full(2, 2.0 ** 28), pairing, "site-0")
        below = np.nextafter(2.0 ** 28, 0.0)
        total = sum_masked([mask_update(np.full(2, below), pairing, c) for c in cohort])
        np.testing.assert_array_equal(total, np.full(2, 8 * below))

    def test_large_cohort_bound_keeps_the_masked_sum_unwrapped(self):
        # Nine clients at 0.99 * 2^28 sum past 2^63 on the fixed-point grid,
        # which wraps and decodes to about -1.9e9; the bound is 2^31 / 9.
        cohort = [f"site-{i}" for i in range(9)]
        pairing = make_pairing(cohort, round_no=1, root_seed=4)
        with pytest.raises(ConfigError):
            mask_update(np.full(3, 0.99 * 2.0 ** 28), pairing, "site-0")
        value = 0.99 * 2.0 ** 31 / 9
        total = sum_masked([mask_update(np.full(3, value), pairing, cid) for cid in cohort])
        np.testing.assert_allclose(total, 9 * value, rtol=1e-12)


class TestPairWords:
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 17, 2**64 - 1])
    @pytest.mark.parametrize("dims", [0, 1, 786_432])
    def test_raw_words_match_full_range_integers(self, seed, dims):
        gen = np.random.Generator(np.random.PCG64(seed))
        want = gen.integers(0, 2**64 - 1, size=dims, dtype=np.uint64, endpoint=True)
        got = _pair_words(seed, dims)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()


class TestMasks:
    def test_two_clients_cancel_exactly(self):
        pairing = make_pairing(["a", "b"], round_no=1, root_seed=99)
        mask_a = make_masks(pairing, "a", 64)
        mask_b = make_masks(pairing, "b", 64)
        assert ((mask_a + mask_b) == 0).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cohort_masks_sum_to_zero(self, n):
        cohort = [f"site-{i}" for i in range(n)]
        pairing = make_pairing(cohort, round_no=3, root_seed=5)
        total = np.zeros(32, dtype=np.uint64)
        for cid in cohort:
            total += make_masks(pairing, cid, 32)
        assert (total == 0).all()

    def test_masked_sum_equals_encoded_sum_bit_exact(self):
        rng = np.random.default_rng(2)
        cohort = ["a", "b", "c", "d"]
        pairing = make_pairing(cohort, round_no=1, root_seed=11)
        deltas = {cid: rng.normal(size=50) for cid in cohort}
        masked = [mask_update(deltas[cid], pairing, cid) for cid in sorted(cohort)]
        got = sum_masked(masked)
        expected_words = np.zeros(50, dtype=np.uint64)
        for cid in sorted(cohort):
            expected_words += encode_fixed(deltas[cid])
        expected = decode_fixed(expected_words)
        np.testing.assert_array_equal(got, expected)

    def test_missing_client_corrupts_sum(self):
        cohort = ["a", "b", "c"]
        pairing = make_pairing(cohort, round_no=1, root_seed=3)
        deltas = {cid: np.zeros(20) for cid in cohort}
        masked = [mask_update(deltas[cid], pairing, cid) for cid in ["a", "b"]]
        corrupted = sum_masked(masked)
        assert np.max(np.abs(corrupted)) > 1.0

    def test_missing_pair_seed_is_error(self):
        pairing = MaskPairing(round=1, pair_seeds={("a", "b"): 7})
        with pytest.raises(KeyError):
            make_masks(pairing, "z", 8)
        with pytest.raises(KeyError):
            pairing.seed_for("a", "c")

    def test_pairing_is_round_and_pair_specific(self):
        a = make_pairing(["x", "y"], 1, 5).pair_seeds[("x", "y")]
        b = make_pairing(["x", "y"], 2, 5).pair_seeds[("x", "y")]
        assert a != b


def _zero_start_mask_update(dense, pairing, client_id):
    """The earlier masking path, verbatim: encode_fixed of the whole dense
    delta plus a mask summed onto a zero vector."""
    cohort = pairing.cohort()
    bound = min(float(1 << 28), float(1 << 31) / max(len(cohort), 1))
    if np.any(np.abs(dense) >= bound):
        raise ConfigError("out of bound")
    words = np.rint(dense * float(1 << 32)).astype(np.int64).view(np.uint64).copy()
    mask = np.zeros(len(dense), dtype=np.uint64)
    for peer in cohort:
        if peer == client_id:
            continue
        pair = _pair_words(pairing.seed_for(client_id, peer), len(dense))
        if client_id < peer:
            mask += pair
        else:
            mask -= pair
    return words + mask


@st.composite
def weighted_deltas(draw):
    """(dims, live indices, values, weight): values hold +-0.0 and stored +0.0
    entries, and now and then one past the masking bound."""
    dims = draw(st.integers(0, 40))
    indices = sorted(draw(st.sets(st.integers(0, max(dims - 1, 0)), max_size=dims)))
    values = draw(st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, 2.0**-33, 2.0**-32])
        | st.floats(-1e4, 1e4)
        | st.just(3e5),
        min_size=len(indices), max_size=len(indices),
    ))
    weight = draw(st.sampled_from([1.0, 0.5, 3.0, 1234.0]))
    return dims, np.array(indices, dtype=np.intp), np.array(values, dtype=np.float64), weight


class TestFusedMasking:
    @given(weighted_deltas(), st.integers(2, 5), st.integers(0, 2**63))
    @settings(max_examples=300, deadline=None)
    def test_mask_update_equals_the_zero_start_path(self, delta, n, root):
        dims, indices, values, weight = delta
        sparse = SparseVector(dims, indices, values)
        dense = sparse.to_dense()
        cohort = [f"site-{i}" for i in range(n)]
        pairing = make_pairing(cohort, round_no=4, root_seed=root)
        for cid in cohort:  # both sides of every pair
            try:
                want = _zero_start_mask_update(weight * dense, pairing, cid)
            except ConfigError:
                for vector in (sparse, dense):
                    with pytest.raises(ConfigError):
                        mask_update(vector, pairing, cid, weight)
                continue
            assert mask_update(sparse, pairing, cid, weight).tobytes() == want.tobytes()
            assert mask_update(dense, pairing, cid, weight).tobytes() == want.tobytes()

    @given(st.integers(2, 5), st.integers(0, 40), st.integers(0, 2**63))
    @settings(max_examples=50, deadline=None)
    def test_sum_masked_equals_the_zero_start_sum(self, n, dims, root):
        cohort = [f"site-{i}" for i in range(n)]
        pairing = make_pairing(cohort, round_no=2, root_seed=root)
        rng = np.random.default_rng(root % 2**32)
        masked = [mask_update(rng.normal(size=dims), pairing, cid) for cid in cohort]
        total = np.zeros(dims, dtype=np.uint64)
        for words in masked:
            total += words
        want = total.view(np.int64).astype(np.float64) / float(1 << 32)
        assert sum_masked(masked).tobytes() == want.tobytes()

    def test_sum_masked_leaves_its_inputs_alone(self):
        pairing = make_pairing(["a", "b"], round_no=1, root_seed=8)
        masked = [mask_update(np.full(6, 0.25), pairing, cid) for cid in ("a", "b")]
        before = [words.copy() for words in masked]
        sum_masked(masked)
        assert all((a == b).all() for a, b in zip(masked, before))


class TestPolicy:
    def test_at_most_one_noise_filter(self):
        with pytest.raises(ConfigError):
            SitePolicy(
                site_id="s",
                clip_norm=1.0,
                dp=DpParams(1.0, 1e-5),
                svt=SvtParams(0.5, 2, 1.0),
            )

    def test_dp_requires_clip(self):
        with pytest.raises(ConfigError):
            SitePolicy(site_id="s", dp=DpParams(1.0, 1e-5))

    def test_doc_round_trip(self):
        policy = SitePolicy(
            site_id="site-1",
            clip_norm=2.0,
            svt=SvtParams(threshold_fraction=0.9, budget_c=4, epsilon=0.5),
            masking_enabled=True,
        )
        again = policy_from_doc("site-1", policy_to_doc(policy))
        assert again == policy

    def test_policy_file_text(self):
        text = (
            "site_id = site-2\n"
            "clip_norm = 1.5\n"
            "dp.epsilon = 2.0\n"
            "dp.delta = 1e-6\n"
            "masking_enabled = false\n"
        )
        policy = policy_from_doc("site-2", parse_doc(text))
        assert policy.clip_norm == 1.5
        assert policy.dp == DpParams(2.0, 1e-6)
        assert not policy.masking_enabled

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            policy_from_doc("s", {"site_id": "s", "bogus": 1})

    def test_wrong_site_rejected(self):
        with pytest.raises(ConfigError):
            policy_from_doc("s", {"site_id": "other"})

    def test_pipeline_equals_composition(self):
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        delta = np.linspace(-3, 3, 200)
        policy = SitePolicy(site_id="s", clip_norm=1.0, dp=DpParams(1.0, 1e-5))
        piped = apply_policy(delta, policy, rng_a)
        composed = gaussian_mechanism(clip_to_norm(delta, 1.0), 1.0, 1.0, 1e-5, rng_b)
        np.testing.assert_array_equal(piped, composed)

    def test_svt_pipeline_uses_clip_as_scale(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        delta = np.linspace(-3, 3, 50)
        policy = SitePolicy(
            site_id="s", clip_norm=2.0, svt=SvtParams(0.5, 3, 1.0)
        )
        piped = apply_policy(delta, policy, rng_a)
        composed = svt_filter(clip_to_norm(delta, 2.0), 0.5, 3, 1.0, rng_b, scale_unit=2.0)
        np.testing.assert_array_equal(piped.to_dense(), composed.to_dense())

    @pytest.mark.parametrize("policy", [
        SitePolicy(site_id="s"),
        SitePolicy(site_id="s", clip_norm=0.5),
        SitePolicy(site_id="s", clip_norm=50.0),
        SitePolicy(site_id="s", clip_norm=0.5, dp=DpParams(1.0, 1e-5)),
        SitePolicy(site_id="s", clip_norm=0.5, svt=SvtParams(0.9, 4, 1.0)),
        SitePolicy(site_id="s", svt=SvtParams(0.5, 40, math.inf)),
    ], ids=["none", "clip", "no-clip", "dp", "svt", "svt-noiseless"])
    def test_sparse_delta_gives_the_dense_result(self, policy):
        dense = np.zeros(300)
        dense[::7] = np.linspace(-3.0, 3.0, 43)
        dense[14] = -0.0
        (indices,) = np.nonzero(dense.view(np.uint64) != 0)
        sparse = SparseVector(300, indices, dense[indices])
        got = apply_policy(sparse, policy, np.random.default_rng(4))
        want = apply_policy(dense, policy, np.random.default_rng(4))
        assert as_dense(got).tobytes() == as_dense(want).tobytes()

    def test_empty_policy_is_identity(self):
        delta = np.linspace(-1, 1, 10)
        out = apply_policy(delta, SitePolicy(site_id="s"), np.random.default_rng(0))
        np.testing.assert_array_equal(out, delta)
