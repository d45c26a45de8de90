"""Provisioning, signatures, the hash-chained audit log, and job vetting.

Sites authenticate with Ed25519 keys handed out as per-site startup kits.
Messages and models are signed over SHA-256 digests of their canonical
byte serialization.  The audit log is an append-only hash chain: each
entry's hash covers the previous entry's hash, so any mutation of a stored
entry is detectable by a linear re-verification.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from . import kvdoc
from .aggregation import STRATEGY_KINDS
from .errors import ConfigError

GENESIS_HASH = "0" * 64

ROLES = ("server", "client")

AUDIT_EVENT_TYPES = (
    "Register",
    "TaskAssign",
    "UpdateAccepted",
    "UpdateLate",
    "UpdateRejected",
    "RoundAborted",
    "ModelSigned",
    "PolicyApplied",
    "ComponentRejected",
    "EvalReportRejected",
)


class UnsafeComponentError(Exception):
    """A job names an unknown component kind or a parameter out of its bounds."""

    def __init__(self, component: str, reason: str):
        self.component = component
        self.reason = reason
        super().__init__(f"unsafe component {component!r}: {reason}")


# --- identities and kits -----------------------------------------------------


@dataclass(frozen=True)
class Identity:
    site_id: str
    public_key: bytes
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ConfigError(f"unknown role {self.role!r}")


@dataclass
class StartupKit:
    """One site's credentials: its key pair plus everyone's public identity.

    Client kits additionally carry the shared mask root used to derive
    pairwise mask seeds; the coordinator's kit never includes it, so the
    coordinator cannot reconstruct any individual mask.
    """

    site_id: str
    role: str
    private_seed: bytes
    roster: list[Identity]
    server_address: str
    mask_root: bytes | None = None

    def identity(self) -> Identity:
        return Identity(self.site_id, _public_bytes(self.private_seed), self.role)

    def private_key(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.private_seed)


def _public_bytes(private_seed: bytes) -> bytes:
    key = Ed25519PrivateKey.from_private_bytes(private_seed)
    return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def provision(
    roster_spec: list[tuple[str, str]],
    server_address: str = "127.0.0.1:7761",
    key_seed: int | None = None,
) -> dict[str, StartupKit]:
    """Generate one startup kit per (site_id, role) entry.

    With *key_seed* set, private keys derive deterministically from
    (seed, site_id); this is for tests and repeatable demos only.
    """
    ids = [site for site, _ in roster_spec]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate site_id in roster")
    seeds: dict[str, bytes] = {}
    for site_id in ids:
        if key_seed is None:
            seeds[site_id] = Ed25519PrivateKey.generate().private_bytes(
                Encoding.Raw, PrivateFormat.Raw, NoEncryption()
            )
        else:
            material = f"{key_seed}:{site_id}".encode("utf-8")
            seeds[site_id] = hashlib.sha256(material).digest()
    if key_seed is None:
        import os

        mask_root = os.urandom(32)
    else:
        mask_root = hashlib.sha256(f"{key_seed}:mask-root".encode("utf-8")).digest()
    roster = [
        Identity(site_id, _public_bytes(seeds[site_id]), role)
        for site_id, role in roster_spec
    ]
    return {
        site_id: StartupKit(
            site_id,
            role,
            seeds[site_id],
            list(roster),
            server_address,
            mask_root=mask_root if role == "client" else None,
        )
        for site_id, role in roster_spec
    }


def write_kits(kits: dict[str, StartupKit], out_dir: str | Path) -> None:
    """Write kits/<site>/{key.priv,key.pub,roster,server.addr}."""
    base = Path(out_dir)
    for site_id, kit in kits.items():
        kit_dir = base / "kits" / site_id
        kit_dir.mkdir(parents=True, exist_ok=True)
        (kit_dir / "key.priv").write_text(kit.private_seed.hex() + "\n")
        (kit_dir / "key.pub").write_text(_public_bytes(kit.private_seed).hex() + "\n")
        roster_lines = [
            f"{ident.site_id} {ident.role} {ident.public_key.hex()}"
            for ident in kit.roster
        ]
        (kit_dir / "roster").write_text("\n".join(roster_lines) + "\n")
        (kit_dir / "server.addr").write_text(kit.server_address + "\n")
        if kit.mask_root is not None:
            (kit_dir / "mask.secret").write_text(kit.mask_root.hex() + "\n")


def load_kit(kit_dir: str | Path) -> StartupKit:
    kit_dir = Path(kit_dir)
    private_seed = bytes.fromhex((kit_dir / "key.priv").read_text().strip())
    roster: list[Identity] = []
    for line in (kit_dir / "roster").read_text().splitlines():
        if not line.strip():
            continue
        site_id, role, pub_hex = line.split()
        roster.append(Identity(site_id, bytes.fromhex(pub_hex), role))
    site_id = kit_dir.name
    role = next(ident.role for ident in roster if ident.site_id == site_id)
    mask_path = kit_dir / "mask.secret"
    mask_root = bytes.fromhex(mask_path.read_text().strip()) if mask_path.exists() else None
    return StartupKit(
        site_id=site_id,
        role=role,
        private_seed=private_seed,
        roster=roster,
        server_address=(kit_dir / "server.addr").read_text().strip(),
        mask_root=mask_root,
    )


# --- signatures ---------------------------------------------------------------


def _canonical_parts(params: np.ndarray) -> tuple[bytes, memoryview]:
    """The 4-byte count prefix and the little-endian float64 body; the body is
    the array's own buffer when the array already is contiguous ``<f8``."""
    return len(params).to_bytes(4, "big"), np.ascontiguousarray(params, dtype="<f8").data


def canonical_param_bytes(params: np.ndarray) -> bytes:
    """Count-prefixed little-endian float64 serialization used for signing."""
    return b"".join(_canonical_parts(params))


def model_digest(params: np.ndarray) -> bytes:
    """``sha256(canonical_param_bytes(params))``, hashed part by part, in place."""
    digest = hashlib.sha256()
    for part in _canonical_parts(params):
        digest.update(part)
    return digest.digest()


def write_params(path: str | Path, params: np.ndarray) -> None:
    """Write ``canonical_param_bytes(params)`` part by part, with no joined copy."""
    with open(path, "wb") as fh:
        fh.writelines(_canonical_parts(params))


def sign_digest(digest: bytes, private_key: Ed25519PrivateKey) -> bytes:
    return private_key.sign(digest)


def verify_digest(digest: bytes, signature: bytes, public_key: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify_model(params: np.ndarray, signature: bytes, identity: Identity) -> bool:
    return verify_digest(model_digest(params), signature, identity.public_key)


# --- audit log ----------------------------------------------------------------


def _rfc3339(ms: float) -> str:
    """*ms* milliseconds after the Unix epoch, as an RFC 3339 UTC stamp to the microsecond."""
    seconds, frac = divmod(int(round(ms * 1000)), 1_000_000)
    stamp = datetime.fromtimestamp(seconds, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%S") + f".{frac:06d}Z"


@dataclass(frozen=True)
class AuditEntry:
    seq: int
    timestamp: str
    event_type: str
    payload_hash: str
    prev_hash: str
    entry_hash: str
    payload: str = ""


def _entry_hash(seq: int, timestamp: str, event_type: str, payload_hash: str, prev_hash: str) -> str:
    material = f"{prev_hash}{seq}{timestamp}{event_type}{payload_hash}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class AuditLog:
    """Append-only hash chain, each entry stamped at *now_ms()* (ms since the
    epoch, wall time by default); optionally mirrored to a file, one entry per line."""

    def __init__(self, now_ms: Callable[[], float] | None = None, path: str | Path | None = None):
        self._now_ms = now_ms or (lambda: time.time() * 1000.0)
        self.entries: list[AuditEntry] = []
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_text("")

    def append(self, event_type: str, payload: str) -> AuditEntry:
        if event_type not in AUDIT_EVENT_TYPES:
            raise ConfigError(f"unknown audit event type {event_type!r}")
        seq = len(self.entries)
        prev_hash = self.entries[-1].entry_hash if self.entries else GENESIS_HASH
        timestamp = _rfc3339(self._now_ms())
        payload_hash = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        entry = AuditEntry(
            seq=seq,
            timestamp=timestamp,
            event_type=event_type,
            payload_hash=payload_hash,
            prev_hash=prev_hash,
            entry_hash=_entry_hash(seq, timestamp, event_type, payload_hash, prev_hash),
            payload=payload,
        )
        self.entries.append(entry)
        if self._path is not None:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(format_entry(entry) + "\n")
        return entry


def format_entry(entry: AuditEntry) -> str:
    quoted = kvdoc.emit_scalar(entry.payload)
    return (
        f"seq={entry.seq} timestamp={entry.timestamp} event_type={entry.event_type} "
        f"payload_hash={entry.payload_hash} prev_hash={entry.prev_hash} "
        f"entry_hash={entry.entry_hash} payload={quoted}"
    )


def parse_audit_line(line: str) -> AuditEntry:
    fields: dict[str, str] = {}
    # payload is last and quoted; split the fixed-position fields first.
    head, _, payload_part = line.partition(" payload=")
    for token in head.split():
        key, _, value = token.partition("=")
        fields[key] = value
    payload = kvdoc.parse_scalar(payload_part, 0) if payload_part else ""
    return AuditEntry(
        seq=int(fields["seq"]),
        timestamp=fields["timestamp"],
        event_type=fields["event_type"],
        payload_hash=fields["payload_hash"],
        prev_hash=fields["prev_hash"],
        entry_hash=fields["entry_hash"],
        payload=str(payload),
    )


def load_audit_log(path: str | Path) -> list[AuditEntry]:
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            entries.append(parse_audit_line(line))
    return entries


def audit_verify(entries: list[AuditEntry]) -> int | None:
    """Recompute the whole chain; None when intact, else the first bad seq."""
    prev_hash = GENESIS_HASH
    for i, entry in enumerate(entries):
        ok = (
            entry.seq == i
            and entry.prev_hash == prev_hash
            and entry.entry_hash
            == _entry_hash(entry.seq, entry.timestamp, entry.event_type, entry.payload_hash, prev_hash)
        )
        if ok and entry.payload:
            ok = hashlib.sha256(entry.payload.encode("utf-8")).hexdigest() == entry.payload_hash
        if not ok:
            return entry.seq if entry.seq == i else i
        prev_hash = entry.entry_hash
    return None


# --- component vetting ---------------------------------------------------------


# Every component kind the runtime can run, with the bounds that no config
# type enforces: parameter name -> (min, max), both inclusive, either None for
# open.  Every other range is checked when the config is parsed.
COMPONENT_BOUNDS: dict[str, dict[str, tuple[float | None, float | None]]] = {
    **{kind: {} for kind in STRATEGY_KINDS},
    "clip": {},
    "dp-gaussian": {"epsilon": (1e-6, None)},
    "svt": {"epsilon": (1e-6, None)},
    "masking": {},
    "sgd": {
        "learning_rate": (None, 100.0),
        "local_epochs": (None, 1000.0),
        "fedprox_mu": (None, 100.0),
    },
}


def check_components(job_components: dict[str, dict[str, float]]) -> None:
    """Vet a job's components against COMPONENT_BOUNDS before any round starts.

    *job_components* maps component kind -> numeric parameters.  Raises
    UnsafeComponentError on the first unknown kind or out-of-bounds value.
    """
    for kind in sorted(job_components):
        if kind not in COMPONENT_BOUNDS:
            raise UnsafeComponentError(kind, "component kind not in allowlist")
        for name, value in sorted(job_components[kind].items()):
            lo, hi = COMPONENT_BOUNDS[kind].get(name, (None, None))
            if lo is not None and value < lo:
                raise UnsafeComponentError(kind, f"{name}={value} below bound {lo}")
            if hi is not None and value > hi:
                raise UnsafeComponentError(kind, f"{name}={value} above bound {hi}")
