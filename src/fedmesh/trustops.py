"""Provisioning, signatures, and the hash-chained audit log.

Sites authenticate with Ed25519 keys handed out as per-site startup kits.
Messages and models are signed over SHA-256 digests of their canonical
byte serialization.  The audit log is an append-only hash chain: each
entry's hash covers the previous entry's hash, so any mutation of a stored
entry is detectable by a linear re-verification.
"""

from __future__ import annotations

import hashlib
import re
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
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
from .aggregation import SparseVector, Vector
from .errors import ConfigError

GENESIS_HASH = "0" * 64

# A sparse model is serialized this many words at a time (512 KiB).
_BLOCK_WORDS = 1 << 16

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
    "ConfigRejected",
    "EvalReportRejected",
)


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
        return self._private_key

    @cached_property
    def _private_key(self) -> Ed25519PrivateKey:  # built once, not once per signature
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


def _key(text: str) -> bytes:
    """A 32-byte key or secret, written as 64 hex digits."""
    if not re.fullmatch(r"[0-9a-fA-F]{64}", text):
        raise ConfigError(f"expected 32 bytes in hex, got {text!r}")
    return bytes.fromhex(text)


def _roster_entry(line: str) -> Identity:
    fields = line.split()
    if len(fields) != 3:
        raise ConfigError(f"expected 'site_id role public_key', got {line!r}")
    return Identity(fields[0], _key(fields[2]), fields[1])


def load_kit(kit_dir: str | Path) -> StartupKit:
    """The kit in *kit_dir*; a malformed file is refused naming that file."""
    kit_dir = Path(kit_dir)
    site_id, path = kit_dir.name, kit_dir / "key.priv"
    try:
        private_seed = _key(path.read_text().strip())
        path = kit_dir / "roster"
        roster = [_roster_entry(line) for line in path.read_text().splitlines() if line.strip()]
        role = next((ident.role for ident in roster if ident.site_id == site_id), None)
        if role is None:
            raise ConfigError(f"site {site_id!r} is not on its own roster")
        path = kit_dir / "mask.secret"
        mask_root = _key(path.read_text().strip()) if path.exists() else None
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    server_address = (kit_dir / "server.addr").read_text().strip()
    return StartupKit(site_id, role, private_seed, roster, server_address, mask_root)


# --- signatures ---------------------------------------------------------------


def _canonical_parts(params: Vector) -> Iterator[bytes | memoryview]:
    """The 4-byte count prefix, then the little-endian float64 body: a dense
    array's own buffer when it is contiguous ``<f8``, or a SparseVector's dense
    form block by block in one scratch buffer, so read each part before the next."""
    yield len(params).to_bytes(4, "big")
    if not isinstance(params, SparseVector):
        yield np.ascontiguousarray(params, dtype="<f8").data
        return
    scratch = np.empty(min(params.dims, _BLOCK_WORDS), dtype="<f8")
    starts = range(0, params.dims, _BLOCK_WORDS)
    cuts = np.searchsorted(params.indices, [*starts, params.dims])
    for start, lo, hi in zip(starts, cuts, cuts[1:]):
        block = scratch[:params.dims - start]
        block.fill(0.0)
        block[params.indices[lo:hi] - start] = params.values[lo:hi]
        yield block.data


def canonical_param_bytes(params: Vector) -> bytes:
    """Count-prefixed little-endian float64 serialization used for signing."""
    return b"".join(map(bytes, _canonical_parts(params)))  # each part copied as drawn


def model_digest(params: Vector) -> bytes:
    """``sha256(canonical_param_bytes(params))``, hashed part by part, in place."""
    digest = hashlib.sha256()
    for part in _canonical_parts(params):
        digest.update(part)
    return digest.digest()


def write_params(path: str | Path, params: Vector) -> None:
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


def verify_model(params: Vector, signature: bytes, identity: Identity) -> bool:
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


# AuditEntry's fields before the payload, in order.
_AUDIT_FIELDS = ("seq", "timestamp", "event_type", "payload_hash", "prev_hash", "entry_hash")


def parse_audit_line(line: str, lineno: int | None = None) -> AuditEntry:
    """One line exactly as format_entry writes it; any other line raises a
    kvdoc.DocError labelled *lineno*."""
    # payload is last and quoted; split the fixed-position fields first.
    head, _, payload_part = line.partition(" payload=")
    fields = dict(token.partition("=")[::2] for token in head.split())
    missing = [key for key in _AUDIT_FIELDS if key not in fields]
    if missing:
        raise kvdoc.DocError(f"no {missing[0]}= field", lineno)
    if not (fields["seq"].isascii() and fields["seq"].isdigit()):
        raise kvdoc.DocError(f"seq={fields['seq']} is not a sequence number", lineno)
    payload = kvdoc.parse_scalar(payload_part, lineno) if payload_part else ""
    entry = AuditEntry(int(fields["seq"]), *(fields[key] for key in _AUDIT_FIELDS[1:]),
                       payload=str(payload))
    if format_entry(entry) != line:  # the hash covers values, so a rewrite must not parse
        raise kvdoc.DocError("not a line the audit log writes", lineno)
    return entry


def load_audit_log(path: str | Path) -> list[AuditEntry]:
    """Every entry of the log at *path*; a malformed line is refused as a
    ConfigError naming the file and the line."""
    entries = []
    try:
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if line.strip():
                entries.append(parse_audit_line(line, lineno))
    except (kvdoc.DocError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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
