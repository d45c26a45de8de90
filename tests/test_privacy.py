import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import privacy
from fedmesh.aggregation import SparseVector, as_dense, clip_to_norm
from fedmesh.config import policy_from_doc, policy_to_doc
from fedmesh.errors import ConfigError
from fedmesh.kvdoc import parse_doc
from fedmesh.privacy import (
    DpParams,
    SitePolicy,
    SvtParams,
    apply_policy,
    decode_fixed,
    encode_fixed,
    gaussian_mechanism,
    gaussian_sigma,
    _pair_words,
    make_masks,
    mask_update,
    sum_masked,
    svt_filter,
)
from fedmesh.seeding import derive_seed


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
        # The mechanism's parameters are checked once, where DpParams is built.
        with pytest.raises(ConfigError):
            DpParams(epsilon=-1.0, delta=1e-5)
        with pytest.raises(ConfigError):
            DpParams(epsilon=1.0, delta=1.5)
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
        # The filter's parameters are checked once, where SvtParams is built.
        with pytest.raises(ConfigError):
            SvtParams(threshold_fraction=0.5, budget_c=0, epsilon=1.0)
        with pytest.raises(ConfigError):
            SvtParams(threshold_fraction=1.5, budget_c=1, epsilon=1.0)
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
        with pytest.raises(ConfigError):
            mask_update(np.full(2, 2.0 ** 28), "site-0", cohort, 1, _root(4))
        below = np.nextafter(2.0 ** 28, 0.0)
        total = sum_masked([mask_update(np.full(2, below), c, cohort, 1, _root(4)) for c in cohort])
        np.testing.assert_array_equal(total, np.full(2, 8 * below))

    def test_large_cohort_bound_keeps_the_masked_sum_unwrapped(self):
        # Nine clients at 0.99 * 2^28 sum past 2^63 on the fixed-point grid,
        # which wraps and decodes to about -1.9e9; the bound is 2^31 / 9.
        cohort = [f"site-{i}" for i in range(9)]
        with pytest.raises(ConfigError):
            mask_update(np.full(3, 0.99 * 2.0 ** 28), "site-0", cohort, 1, _root(4))
        value = 0.99 * 2.0 ** 31 / 9
        total = sum_masked([mask_update(np.full(3, value), c, cohort, 1, _root(4)) for c in cohort])
        np.testing.assert_allclose(total, 9 * value, rtol=1e-12)


class TestPairWords:
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 17, 2**64 - 1])
    @pytest.mark.parametrize("dims", [0, 1, 786_432])
    def test_raw_words_match_full_range_integers(self, seed, dims):
        gen = np.random.Generator(np.random.PCG64(seed))
        want = gen.integers(0, 2**64 - 1, size=dims, dtype=np.uint64, endpoint=True)
        got = _pair_words(seed, dims)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()


def _root(seed: int) -> bytes:
    """A 32-byte mask root whose first 8 bytes, all that masking reads, are *seed*."""
    return seed.to_bytes(8, "big") + bytes(24)


# SHA-256 of _golden_masks(n).  Masks cancel whatever the pair seeds are, so
# only this pins the derivation; retake it only when the seeds are meant to move.
GOLDEN_MASK_WORDS = {
    2: "fc023d869d9a087a4212f46492f1028906e32977e242fb8e24645bcef82e114f",
    3: "27bee6f2277b6206d92bb5cdfe8f5d7318f0cde8b1b74e7b6c446c39a69e6cb2",
    4: "09ddb0bbe81b81417019d6122db6ae36cf1bbcb0780d523db60e7a0bdb643624",
    5: "5e6fba153819e166561d70859fd6c0eb9e47c31a7ccb4ba89dfb62982e6833e8",
    6: "343e185ad72c7d74e7184b40036eeef77bb505e01a640227f1a06280bed19e23",
}


def _golden_masks(n: int) -> str:
    """Every member's masked dense and sparse deltas in two rounds, hashed."""
    cohort = [f"site-{i}" for i in reversed(range(n))]
    root = hashlib.sha256(f"mask root {n}".encode()).digest()
    digest = hashlib.sha256()
    for round_no in (1, 2):
        rng = np.random.default_rng([n, round_no])
        for cid in cohort:
            dense = rng.normal(size=40)
            idx = np.sort(rng.choice(40, size=6, replace=False))
            for delta in (dense, SparseVector(40, idx, dense[idx])):
                digest.update(mask_update(delta, cid, cohort, round_no, root, 0.75).tobytes())
    return digest.hexdigest()


class TestMasks:
    @pytest.mark.parametrize("n", sorted(GOLDEN_MASK_WORDS))
    def test_masked_words_match_the_golden_digest(self, n):
        assert _golden_masks(n) == GOLDEN_MASK_WORDS[n]

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_a_client_derives_only_its_own_pair_seeds(self, n, monkeypatch):
        labels = []
        derive = privacy.derive_seed
        monkeypatch.setattr(
            privacy, "derive_seed", lambda *parts: labels.append(parts[1]) or derive(*parts)
        )
        mask_update(np.ones(4), "site-1", [f"site-{i}" for i in range(n)], 1, _root(2))
        assert labels == ["mask"] * (n - 1)

    def test_two_clients_cancel_exactly(self):
        mask_a = make_masks("a", ["a", "b"], 1, _root(99), 64)
        mask_b = make_masks("b", ["a", "b"], 1, _root(99), 64)
        assert ((mask_a + mask_b) == 0).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cohort_masks_sum_to_zero(self, n):
        cohort = [f"site-{i}" for i in range(n)]
        total = np.zeros(32, dtype=np.uint64)
        for cid in cohort:
            total += make_masks(cid, cohort, 3, _root(5), 32)
        assert (total == 0).all()

    def test_masked_sum_equals_encoded_sum_bit_exact(self):
        rng = np.random.default_rng(2)
        cohort = ["a", "b", "c", "d"]
        deltas = {cid: rng.normal(size=50) for cid in cohort}
        masked = [mask_update(deltas[cid], cid, cohort, 1, _root(11)) for cid in sorted(cohort)]
        got = sum_masked(masked)
        expected_words = np.zeros(50, dtype=np.uint64)
        for cid in sorted(cohort):
            expected_words += encode_fixed(deltas[cid])
        expected = decode_fixed(expected_words)
        np.testing.assert_array_equal(got, expected)

    def test_missing_client_corrupts_sum(self):
        cohort = ["a", "b", "c"]
        masked = [mask_update(np.zeros(20), cid, cohort, 1, _root(3)) for cid in ["a", "b"]]
        corrupted = sum_masked(masked)
        assert np.max(np.abs(corrupted)) > 1.0

    @pytest.mark.parametrize("cohort,reason", [
        (["a", "b"], "'z' not in the masked cohort"),
        ([], "'z' not in the masked cohort"),
        (["z"], "'z' has no peer in the masked cohort"),
    ])
    def test_a_cohort_without_the_client_or_a_peer_is_refused(self, cohort, reason):
        with pytest.raises(ConfigError, match=reason):
            make_masks("z", cohort, 1, _root(7), 8)
        with pytest.raises(ConfigError, match=reason):
            mask_update(np.zeros(8), "z", cohort, 1, _root(7))

    def test_refusals_are_checked_root_then_bound_then_cohort(self):
        past = np.full(2, 2.0 ** 28)
        with pytest.raises(ConfigError, match="no mask root in kit"):
            mask_update(past, "z", ["a", "b"], 1, None)
        with pytest.raises(ConfigError, match="supports"):
            mask_update(past, "z", ["a", "b"], 1, _root(7))

    def test_masks_are_round_specific(self):
        a = make_masks("x", ["x", "y"], 1, _root(5), 8)
        b = make_masks("x", ["x", "y"], 2, _root(5), 8)
        assert a.tobytes() != b.tobytes()


def _zero_start_mask_update(dense, client_id, cohort, round_no, root_seed):
    """The earlier masking path, verbatim but for where the seeds come from:
    encode_fixed of the whole dense delta plus a mask summed onto a zero vector."""
    bound = min(float(1 << 28), float(1 << 31) / max(len(cohort), 1))
    if np.any(np.abs(dense) >= bound):
        raise ConfigError("out of bound")
    words = np.rint(dense * float(1 << 32)).astype(np.int64).view(np.uint64).copy()
    mask = np.zeros(len(dense), dtype=np.uint64)
    for peer in cohort:
        if peer == client_id:
            continue
        a, b = sorted((client_id, peer))
        pair = _pair_words(derive_seed(root_seed, "mask", round_no, a, b), len(dense))
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
        for cid in cohort:  # both sides of every pair
            try:
                want = _zero_start_mask_update(weight * dense, cid, cohort, 4, root)
            except ConfigError:
                for vector in (sparse, dense):
                    with pytest.raises(ConfigError):
                        mask_update(vector, cid, cohort, 4, _root(root), weight)
                continue
            for vector in (sparse, dense):
                got = mask_update(vector, cid, cohort, 4, _root(root), weight)
                assert got.tobytes() == want.tobytes()

    @given(st.integers(2, 5), st.integers(0, 40), st.integers(0, 2**63))
    @settings(max_examples=50, deadline=None)
    def test_sum_masked_equals_the_zero_start_sum(self, n, dims, root):
        cohort = [f"site-{i}" for i in range(n)]
        rng = np.random.default_rng(root % 2**32)
        masked = [mask_update(rng.normal(size=dims), c, cohort, 2, _root(root)) for c in cohort]
        total = np.zeros(dims, dtype=np.uint64)
        for words in masked:
            total += words
        want = total.view(np.int64).astype(np.float64) / float(1 << 32)
        assert sum_masked(masked).tobytes() == want.tobytes()

    def test_sum_masked_decodes_words_past_2_53_as_decode_fixed_does(self):
        # Such int64 sums round when cast to float64, so a decode in place must
        # make decode_fixed's cast before its division.
        rng = np.random.default_rng(9)
        masked = [rng.integers(0, 2**64, size=1000, dtype=np.uint64) for _ in range(3)]
        for words in masked[1:]:
            words[:4] = 0
        masked[0][:4] = [2**53 + 1, 2**63 - 1, 2**63, 2**64 - 2**53 - 3]
        total = masked[0] + masked[1] + masked[2]  # wraps mod 2^64
        assert sum_masked(masked).tobytes() == decode_fixed(total).tobytes()

    def test_sum_masked_leaves_its_inputs_alone(self):
        masked = [mask_update(np.full(6, 0.25), c, ["a", "b"], 1, _root(8)) for c in "ab"]
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
