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

Each masked site derives only its own pairs' seeds (make_masks), from the
first 8 bytes of its kit's 32-byte mask root; every client kit holds the
same root, so masking hides an update from the coordinator, not from a site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection

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
        if not self.epsilon >= 1e-6:
            raise ConfigError("dp epsilon must be >= 1e-6")
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
        if not self.epsilon >= 1e-6:
            raise ConfigError("svt epsilon must be >= 1e-6")


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


def gaussian_sigma(clip_norm: float, epsilon: float, delta_dp: float) -> float:
    """Classic Gaussian-mechanism calibration for (epsilon, delta)-DP."""
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


def _pair_words(seed: int, dims: int) -> np.ndarray:
    # Word for word what Generator.integers draws over the full u64 range.
    return np.random.PCG64(seed).random_raw(dims)


def make_masks(
    client_id: str, cohort: Collection[str], round_no: int, root: bytes, dims: int
) -> np.ndarray:
    """This client's additive mask: the sum over its peers of +-PRG(pair seed).

    Only this client's n-1 pair seeds are derived, derive_seed(first 8 bytes
    of *root*, "mask", round_no, a, b) for the pair a < b.  The sign is +1
    toward larger peers and -1 toward smaller ones, so the cohort's masks
    cancel word for word; the first peer's words become the mask and every
    other peer's are added or subtracted in place (mod 2^64, in any order).
    """
    if client_id not in cohort:
        raise ConfigError(f"{client_id!r} not in the masked cohort")
    peers = sorted(set(cohort) - {client_id})
    if not peers:
        raise ConfigError(f"{client_id!r} has no peer in the masked cohort")
    root_seed = int.from_bytes(root[:8], "big")
    mask = None
    for peer in peers:
        a, b = sorted((client_id, peer))
        words = _pair_words(derive_seed(root_seed, "mask", round_no, a, b), dims)
        if mask is None:
            mask = words if client_id < peer else np.negative(words, out=words)
        elif client_id < peer:
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
    delta: Vector, client_id: str, cohort: Collection[str], round_no: int,
    root: bytes | None, weight: float = 1.0,
) -> np.ndarray:
    """Fixed-point encode weight * delta, then add it into this client's mask
    (mod 2^64).

    A sparse delta's words are added at its indices only: every other word
    encodes weight * +-0.0, which is word 0.  ConfigError when there is no
    root, a value past encode_fixed's bound, or no such client or peer.
    """
    if root is None:
        raise ConfigError("no mask root in kit")
    cohort = set(cohort)
    sparse = isinstance(delta, SparseVector)
    words = encode_fixed(weight * (delta.values if sparse else delta), len(cohort))
    mask = make_masks(client_id, cohort, round_no, root, len(delta))
    if sparse:
        mask[delta.indices] += words
    else:
        mask += words
    return mask


def sum_masked(masked_words: list[np.ndarray]) -> np.ndarray:
    """Sum the full masked cohort's words; masks cancel, leaving sum(deltas).

    Exact up to the 2^-32 encoding grid; only valid when every cohort member
    contributed, otherwise an uncancelled mask corrupts every coordinate.
    The sum is the one new vector, decoded in place as decode_fixed decodes
    (copyto casts in place, where np.divide would copy its int64 view first).
    """
    if not masked_words:
        raise ValueError("cannot sum zero masked updates")
    total = masked_words[0].copy()
    for words in masked_words[1:]:
        total += words
    values = total.view(np.float64)
    np.copyto(values, total.view(np.int64), casting="unsafe")
    return np.divide(values, _FIXED_SCALE, out=values)


def apply_policy(
    delta: Vector,
    policy: SitePolicy,
    rng: np.random.Generator,
) -> Vector:
    """Run the clip -> (dp | svt) part of the policy pipeline on one delta.

    A DP site densifies a sparse delta once, as noise fills it; others keep
    it sparse.  Masking is applied at submit time: it needs the round's cohort.
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
