"""Client-side privacy filters and pairwise-mask secure summation.

Filters run in a fixed order: L2 clip, then at most one of the Gaussian
mechanism or the sparse-vector (SVT) release, then masking.

Masking operates on a fixed-point view of the delta: coordinates are scaled
by 2**FIXED_POINT_BITS and rounded to 64-bit words, masks are uniform random
words, and all arithmetic wraps mod 2**64.  Pairwise masks therefore cancel
exactly in the summed aggregate, independent of summation order, and the
coordinator only ever sees masked words.  The price is that a masked round
recovers the *sum* of updates (FedAvg only) and requires every masked client
to respond; a missing client leaves an uncancelled mask, so the round must
be aborted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import SparseVector, Vector, as_dense, clip_to_norm
from .errors import ConfigError
from .seeding import derive_seed

FIXED_POINT_BITS = 32
_FIXED_SCALE = float(1 << FIXED_POINT_BITS)
# Keep |value| * 2^32 inside int64, and a cohort's sum too (see encode_fixed).
_FIXED_MAX_ABS = float(1 << 28)


@dataclass(frozen=True)
class DpParams:
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError("dp epsilon must be > 0")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("dp delta must be in (0, 1)")


@dataclass(frozen=True)
class SvtParams:
    threshold_fraction: float
    budget_c: int
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.threshold_fraction <= 1.0):
            raise ConfigError("svt threshold_fraction must be in (0, 1]")
        if self.budget_c < 1:
            raise ConfigError("svt budget_c must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("svt epsilon must be > 0")


@dataclass(frozen=True)
class SitePolicy:
    """Per-site privacy policy; filters apply clip -> (dp | svt) -> mask."""

    site_id: str
    clip_norm: float | None = None
    dp: DpParams | None = None
    svt: SvtParams | None = None
    masking_enabled: bool = False

    def __post_init__(self):
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")
        if self.dp is not None and self.svt is not None:
            raise ConfigError("at most one of dp and svt may be active")
        if self.dp is not None and self.clip_norm is None:
            raise ConfigError("dp requires clip_norm (bounded sensitivity)")


def policy_from_doc(site_id: str, doc: dict) -> SitePolicy:
    """Build a SitePolicy from a parsed key/value document."""
    known = {"site_id", "clip_norm", "dp", "svt", "masking_enabled"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"policy for {site_id}: unknown fields {sorted(unknown)}")
    doc_site = doc.get("site_id", site_id)
    if doc_site != site_id:
        raise ConfigError(f"policy file names site {doc_site!r}, expected {site_id!r}")
    dp = None
    if "dp" in doc:
        dp = DpParams(epsilon=float(doc["dp"]["epsilon"]), delta=float(doc["dp"]["delta"]))
    svt = None
    if "svt" in doc:
        svt = SvtParams(
            threshold_fraction=float(doc["svt"]["threshold_fraction"]),
            budget_c=int(doc["svt"]["budget_c"]),
            epsilon=float(doc["svt"]["epsilon"]),
        )
    clip = doc.get("clip_norm")
    return SitePolicy(
        site_id=site_id,
        clip_norm=float(clip) if clip is not None else None,
        dp=dp,
        svt=svt,
        masking_enabled=bool(doc.get("masking_enabled", False)),
    )


def policy_to_doc(policy: SitePolicy) -> dict:
    doc: dict = {"site_id": policy.site_id, "masking_enabled": policy.masking_enabled}
    if policy.clip_norm is not None:
        doc["clip_norm"] = policy.clip_norm
    if policy.dp is not None:
        doc["dp"] = {"epsilon": policy.dp.epsilon, "delta": policy.dp.delta}
    if policy.svt is not None:
        doc["svt"] = {
            "threshold_fraction": policy.svt.threshold_fraction,
            "budget_c": policy.svt.budget_c,
            "epsilon": policy.svt.epsilon,
        }
    return doc


def gaussian_sigma(clip_norm: float, epsilon: float, delta_dp: float) -> float:
    """Classic Gaussian-mechanism calibration for (epsilon, delta)-DP."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be > 0")
    if not (0.0 < delta_dp < 1.0):
        raise ConfigError("delta must be in (0, 1)")
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta_dp)) / epsilon


def gaussian_mechanism(
    delta: np.ndarray,
    clip_norm: float,
    epsilon: float,
    delta_dp: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add i.i.d. N(0, sigma^2) noise; the input must already be clipped."""
    sigma = gaussian_sigma(clip_norm, epsilon, delta_dp)
    return delta + rng.normal(0.0, sigma, size=delta.shape)


def svt_filter(
    delta: np.ndarray,
    threshold_fraction: float,
    budget_c: int,
    epsilon: float,
    rng: np.random.Generator,
    scale_unit: float = 1.0,
) -> SparseVector:
    """Sparse-vector release of at most budget_c large-magnitude coordinates.

    The threshold is the given quantile of |delta| plus Laplace(2/epsilon)
    noise; each coordinate is compared with fresh Laplace(4/epsilon) noise in
    index order until the budget is spent.  Both noise draws are scaled by
    *scale_unit* (the clip norm, as the sensitivity proxy).  epsilon=inf
    disables the noise, which is how tests pin the selection logic.
    """
    if not (0.0 < threshold_fraction <= 1.0):
        raise ConfigError("svt threshold_fraction must be in (0, 1]")
    if budget_c < 1:
        raise ConfigError("svt budget_c must be >= 1")
    if epsilon <= 0:
        raise ConfigError("svt epsilon must be > 0")
    magnitude = np.abs(delta)
    threshold = float(np.quantile(magnitude, threshold_fraction))
    if math.isfinite(epsilon):
        threshold += float(rng.laplace(0.0, 2.0 / epsilon)) * scale_unit
        noise = rng.laplace(0.0, 4.0 / epsilon, size=delta.shape) * scale_unit
    else:
        noise = np.zeros_like(delta)
    passing = np.flatnonzero(magnitude + noise >= threshold)
    released = passing[:budget_c]
    return SparseVector(dims=len(delta), indices=released, values=delta[released])


# --- pairwise masking -------------------------------------------------------


@dataclass(frozen=True)
class MaskPairing:
    """Seeds for every unordered client pair in one round's masked cohort."""

    round: int
    pair_seeds: dict[tuple[str, str], int] = field(default_factory=dict)

    @staticmethod
    def key(a: str, b: str) -> tuple[str, str]:
        if a == b:
            raise ConfigError("a client does not pair with itself")
        return (a, b) if a < b else (b, a)

    def seed_for(self, a: str, b: str) -> int:
        key = self.key(a, b)
        if key not in self.pair_seeds:
            raise KeyError(f"no mask seed for pair {key} in round {self.round}")
        return self.pair_seeds[key]

    def cohort(self) -> list[str]:
        return sorted({c for pair in self.pair_seeds for c in pair})


def make_pairing(cohort: list[str], round_no: int, root_seed: int) -> MaskPairing:
    """Derive one seed per unordered pair of cohort members."""
    ordered = sorted(cohort)
    seeds = {}
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            seeds[(a, b)] = derive_seed(root_seed, "mask", round_no, a, b)
    return MaskPairing(round=round_no, pair_seeds=seeds)


def _pair_words(seed: int, dims: int) -> np.ndarray:
    # Word for word what Generator.integers draws over the full u64 range.
    return np.random.PCG64(seed).random_raw(dims)


def make_masks(pairing: MaskPairing, client_id: str, dims: int) -> np.ndarray:
    """This client's additive mask: sum over peers of +-PRG(pair seed).

    The sign is +1 toward lexicographically larger peers and -1 toward
    smaller ones, so summing all cohort members' masks cancels to zero
    word-for-word.  The first peer's words become the mask, and every other
    peer's are added or subtracted in place (mod 2^64, in any order).
    """
    cohort = pairing.cohort()
    if client_id not in cohort:
        raise KeyError(f"{client_id!r} not in the masked cohort")
    first, *rest = [peer for peer in cohort if peer != client_id]
    mask = _pair_words(pairing.seed_for(client_id, first), dims)
    if client_id > first:
        np.negative(mask, out=mask)
    for peer in rest:
        words = _pair_words(pairing.seed_for(client_id, peer), dims)
        if client_id < peer:
            mask += words
        else:
            mask -= words
    return mask


def encode_fixed(delta: np.ndarray, cohort_size: int = 1) -> np.ndarray:
    """Round to the 2^-32 grid and reinterpret as mod-2^64 words; |value| <
    min(2^28, 2^31 / cohort_size) keeps a cohort's summed words inside +-2^63."""
    bound = min(_FIXED_MAX_ABS, float(1 << 31) / max(cohort_size, 1))
    if np.any(np.abs(delta) >= bound):
        raise ConfigError(
            f"masking {cohort_size} clients supports |value| < {bound}; clip updates first"
        )
    scaled = np.multiply(delta, _FIXED_SCALE)
    return np.rint(scaled, out=scaled).astype(np.int64).view(np.uint64)


def decode_fixed(words: np.ndarray) -> np.ndarray:
    """Inverse of encode_fixed, after any number of mod-2^64 additions."""
    values = words.view(np.int64).astype(np.float64)
    values /= _FIXED_SCALE
    return values


def mask_update(
    delta: Vector, pairing: MaskPairing, client_id: str, weight: float = 1.0
) -> np.ndarray:
    """Fixed-point encode weight * delta, then add it into this client's mask
    (mod 2^64).

    A sparse delta's words are added at its indices only: every other word
    encodes weight * +-0.0, which is word 0.
    """
    sparse = isinstance(delta, SparseVector)
    words = encode_fixed(weight * (delta.values if sparse else delta), len(pairing.cohort()))
    mask = make_masks(pairing, client_id, len(delta))
    if sparse:
        mask[delta.indices] += words
    else:
        mask += words
    return mask


def sum_masked(masked_words: list[np.ndarray]) -> np.ndarray:
    """Sum the full masked cohort's words; masks cancel, leaving sum(deltas).

    Exact up to the 2^-32 encoding grid; only valid when every cohort member
    contributed, otherwise an uncancelled mask corrupts every coordinate.
    """
    if not masked_words:
        raise ValueError("cannot sum zero masked updates")
    total = masked_words[0].copy()
    for words in masked_words[1:]:
        total += words
    return decode_fixed(total)


def apply_policy(
    delta: Vector,
    policy: SitePolicy,
    rng: np.random.Generator,
) -> Vector:
    """Run the clip -> (dp | svt) part of the policy pipeline on one delta.

    A DP site densifies a sparse delta once, as noise fills it; others keep
    it sparse.  Masking is applied at submit time: it needs the round's pairing.
    """
    out = as_dense(delta) if policy.dp is not None else delta
    if policy.clip_norm is not None:
        out = clip_to_norm(out, policy.clip_norm)
    if policy.dp is not None:
        out = gaussian_mechanism(out, policy.clip_norm, policy.dp.epsilon, policy.dp.delta, rng)
    elif policy.svt is not None:
        scale = policy.clip_norm if policy.clip_norm is not None else 1.0
        out = svt_filter(
            as_dense(out),
            policy.svt.threshold_fraction,
            policy.svt.budget_c,
            policy.svt.epsilon,
            rng,
            scale_unit=scale,
        )
    return out
