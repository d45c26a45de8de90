import hashlib
import itertools
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.aggregation import SparseVector
from fedmesh.config import parse_experiment
from fedmesh.errors import ConfigError
from fedmesh.trustops import (
    _BLOCK_WORDS,
    AuditLog,
    GENESIS_HASH,
    audit_verify,
    canonical_param_bytes,
    format_entry,
    load_audit_log,
    load_kit,
    model_digest,
    parse_audit_line,
    provision,
    sign_digest,
    verify_model,
    write_kits,
    write_params,
)

SIX_SITES = [("server", "server")] + [(f"site-{i}", "client") for i in range(1, 7)]


@st.composite
def sparse_models(draw) -> SparseVector:
    """A SparseVector of dims below, at or across the serialization block,
    with stored +0.0 and -0.0 words and words on the blocks' edges."""
    dims = draw(st.sampled_from([0, 1, _BLOCK_WORDS - 1, _BLOCK_WORDS, _BLOCK_WORDS + 1,
                                 2 * _BLOCK_WORDS + 5]) | st.integers(0, 3 * _BLOCK_WORDS))
    edges = [i for cut in range(0, dims + 1, _BLOCK_WORDS) for i in (cut - 1, cut) if 0 <= i < dims]
    indices = sorted(draw(st.sets(st.sampled_from(edges) | st.integers(0, dims - 1),
                                  max_size=40))) if dims else []
    values = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(),
                           min_size=len(indices), max_size=len(indices)))
    return SparseVector(dims, np.array(indices, dtype=np.intp), np.array(values, dtype=np.float64))


class TestProvision:
    def test_six_site_roster_yields_seven_kits(self):
        kits = provision(SIX_SITES, key_seed=1)
        assert len(kits) == 7
        assert kits["server"].role == "server"
        assert sum(1 for k in kits.values() if k.role == "client") == 6

    def test_rosters_have_all_public_keys_and_no_private(self):
        kits = provision(SIX_SITES, key_seed=1)
        for kit in kits.values():
            assert {i.site_id for i in kit.roster} == {s for s, _ in SIX_SITES}
            for ident in kit.roster:
                assert len(ident.public_key) == 32
                # private seeds never cross kits
                if ident.site_id != kit.site_id:
                    assert ident.public_key != kits[ident.site_id].private_seed

    def test_mask_root_only_in_client_kits(self):
        kits = provision(SIX_SITES, key_seed=1)
        assert kits["server"].mask_root is None
        roots = {kits[f"site-{i}"].mask_root for i in range(1, 7)}
        assert len(roots) == 1 and None not in roots

    def test_fixed_key_seed_reproduces_kits(self):
        a = provision(SIX_SITES, key_seed=7)
        b = provision(SIX_SITES, key_seed=7)
        assert {k: v.private_seed for k, v in a.items()} == {
            k: v.private_seed for k, v in b.items()
        }

    def test_random_kits_differ(self):
        a = provision(SIX_SITES)
        b = provision(SIX_SITES)
        assert a["site-1"].private_seed != b["site-1"].private_seed

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            provision([("a", "client"), ("a", "client")])

    def test_kit_directory_round_trip(self, tmp_path):
        kits = provision(SIX_SITES, key_seed=3, server_address="10.0.0.1:7761")
        write_kits(kits, tmp_path)
        for site_id, kit in kits.items():
            loaded = load_kit(tmp_path / "kits" / site_id)
            assert loaded.private_seed == kit.private_seed
            assert loaded.roster == kit.roster
            assert loaded.server_address == "10.0.0.1:7761"
            assert loaded.mask_root == kit.mask_root

    def test_admin_role_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            provision([("server", "server"), ("boss", "admin")], key_seed=1)
        write_kits(provision(SIX_SITES, key_seed=3), tmp_path)
        roster = tmp_path / "kits" / "site-1" / "roster"
        roster.write_text(roster.read_text() + f"boss admin {'00' * 32}\n")
        with pytest.raises(ConfigError):
            load_kit(tmp_path / "kits" / "site-1")

    @pytest.mark.parametrize("name, text, reason", [
        ("key.priv", "zz" * 32, "expected 32 bytes in hex"),
        ("key.priv", "abcd", "expected 32 bytes in hex, got 'abcd'"),
        ("mask.secret", "00" * 31, "expected 32 bytes in hex"),
        ("roster", "site-1 client\n", "expected 'site_id role public_key'"),
        ("roster", f"site-1 client {'0' * 63}\n", "expected 32 bytes in hex"),
        ("roster", f"server server {'00' * 32}\n", "site 'site-1' is not on its own roster"),
    ], ids=["non-hex-key", "2-byte-key", "short-mask-root", "short-roster-line",
            "odd-hex-public-key", "site-not-on-roster"])
    def test_a_malformed_kit_is_refused_naming_the_file(self, tmp_path, name, text, reason):
        write_kits(provision(SIX_SITES, key_seed=3), tmp_path)
        kit_dir = tmp_path / "kits" / "site-1"
        (kit_dir / name).write_text(text)
        with pytest.raises(ConfigError) as err:
            load_kit(kit_dir)
        assert str(err.value).startswith(f"{kit_dir / name}: ")
        assert reason in str(err.value)


class TestModelSignatures:
    def test_sign_then_verify(self):
        kits = provision(SIX_SITES, key_seed=2)
        params = np.linspace(-1, 1, 64)
        sig = sign_digest(model_digest(params), kits["server"].private_key())
        assert verify_model(params, sig, kits["server"].identity())

    def test_a_kit_builds_its_private_key_once(self):
        # Every signature a node makes uses this one key object.
        kit = provision(SIX_SITES, key_seed=2)["server"]
        assert kit.private_key() is kit.private_key()

    def test_single_bit_flip_fails(self):
        kits = provision(SIX_SITES, key_seed=2)
        params = np.linspace(-1, 1, 8)
        sig = sign_digest(model_digest(params), kits["server"].private_key())
        raw = bytearray(params.tobytes())
        for byte_idx in range(len(raw)):
            for bit in range(8):
                mutated = bytearray(raw)
                mutated[byte_idx] ^= 1 << bit
                tampered = np.frombuffer(bytes(mutated), dtype=np.float64)
                assert not verify_model(tampered, sig, kits["server"].identity())

    def test_wrong_identity_fails(self):
        kits = provision(SIX_SITES, key_seed=2)
        params = np.ones(4)
        sig = sign_digest(model_digest(params), kits["server"].private_key())
        assert not verify_model(params, sig, kits["site-1"].identity())

    @pytest.mark.parametrize("layout", ["contiguous", "sliced", "big-endian", "empty"])
    def test_in_place_digest_and_write_are_the_canonical_bytes(self, layout, tmp_path):
        base = np.random.default_rng(3).normal(size=2001)
        base[[4, 9]] = -0.0, np.nan
        params = {"contiguous": base, "sliced": base[::3], "empty": base[:0],
                  "big-endian": base.astype(">f8")}[layout]
        canonical = canonical_param_bytes(params)
        assert canonical[:4] == len(params).to_bytes(4, "big")
        assert canonical[4:] == np.asarray(params, dtype="<f8").tobytes()
        assert model_digest(params) == hashlib.sha256(canonical).digest()
        write_params(tmp_path / "model.params", params)
        assert (tmp_path / "model.params").read_bytes() == canonical

    @settings(max_examples=60, deadline=None)
    @given(model=sparse_models())
    def test_a_sparse_model_serializes_as_its_dense_form(self, model, tmp_path_factory):
        # No golden config reaches a sparse final model (each has a DP site,
        # whose noise makes the model dense), so this pins the streamed blocks.
        kit = provision([("server", "server")], key_seed=2)["server"]
        dense = model.to_dense()
        assert canonical_param_bytes(model) == canonical_param_bytes(dense)
        assert model_digest(model) == model_digest(dense)
        out = tmp_path_factory.mktemp("params")
        write_params(out / "sparse.params", model)
        write_params(out / "dense.params", dense)
        assert (out / "sparse.params").read_bytes() == (out / "dense.params").read_bytes()
        signature = sign_digest(model_digest(dense), kit.private_key())
        assert verify_model(model, signature, kit.identity())
        assert not verify_model(model, bytes(64), kit.identity())

    def test_garbage_signature_returns_false(self):
        kits = provision(SIX_SITES, key_seed=2)
        assert not verify_model(np.ones(4), b"junk", kits["server"].identity())


def fixed_clock():
    """Whole seconds from 2024-01-01T00:00:01Z, one more at each call."""
    ticks = itertools.count(1_704_067_201_000, 1000)
    return lambda: next(ticks)


def build_log(n=10):
    log = AuditLog(now_ms=fixed_clock())
    for i in range(n):
        log.append("UpdateAccepted", f"client = site-{i % 3}\nround = {i}\n")
    return log


class TestAuditChain:
    def test_genesis_prev_hash(self):
        log = build_log(1)
        assert log.entries[0].prev_hash == GENESIS_HASH == "0" * 64

    def test_entries_are_stamped_in_rfc3339_utc_to_the_microsecond(self):
        assert build_log(2).entries[1].timestamp == "2024-01-01T00:00:02.000000Z"
        stamp = AuditLog(now_ms=lambda: 1500.25).append("Register", "").timestamp
        assert stamp == "1970-01-01T00:00:01.500250Z"

    def test_default_stamp_is_wall_time(self):
        before = datetime.now(timezone.utc)
        stamp = AuditLog().append("Register", "").timestamp
        after = datetime.now(timezone.utc)
        when = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%S.%fZ").replace(tzinfo=timezone.utc)
        assert before - timedelta(milliseconds=1) <= when <= after + timedelta(milliseconds=1)

    def test_empty_log_verifies(self):
        assert audit_verify([]) is None

    def test_intact_chain_verifies(self):
        assert audit_verify(build_log(10).entries) is None

    def test_tampered_payload_hash_detected_at_seq_3(self):
        from dataclasses import replace

        entries = list(build_log(10).entries)
        entries[3] = replace(entries[3], payload_hash="f" * 64)
        assert audit_verify(entries) == 3

    def test_any_single_entry_mutation_detected(self):
        from dataclasses import replace

        base = build_log(6).entries
        mutations = [
            ("seq", 9),
            ("timestamp", "1999-01-01T00:00:00.000000Z"),
            ("event_type", "Register"),
            ("payload_hash", "a" * 64),
            ("prev_hash", "b" * 64),
            ("entry_hash", "c" * 64),
            ("payload", "client = evil\n"),
        ]
        for idx in range(6):
            for field_name, value in mutations:
                entries = list(base)
                entries[idx] = replace(entries[idx], **{field_name: value})
                bad = audit_verify(entries)
                assert bad is not None and bad <= idx + 1

    def test_gap_in_seq_detected(self):
        entries = list(build_log(5).entries)
        del entries[2]
        assert audit_verify(entries) == 2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "audit.log"
        log = AuditLog(now_ms=fixed_clock(), path=path)
        for i in range(5):
            log.append("TaskAssign", f"round = {i}\n")
        loaded = load_audit_log(path)
        assert loaded == log.entries
        assert audit_verify(loaded) is None

    @pytest.mark.parametrize("edit, reason", [
        (lambda line: line.replace("seq=2 ", ""), "line 3: no seq= field"),
        (lambda line: line.replace("seq=2 ", "seq=x "), "line 3: seq=x is not a sequence number"),
        (lambda line: line.replace(" entry_hash=", " entry="), "line 3: no entry_hash= field"),
        (lambda line: line[:-1], "line 3: unterminated string"),
        (lambda line: line.replace("seq=2 ", "seq=002 "), "line 3: not a line the audit log writes"),
        (lambda line: line.replace(" ", "  ", 1), "line 3: not a line the audit log writes"),
    ], ids=["no-seq", "non-numeric-seq", "no-entry-hash", "unterminated-payload",
            "zero-padded-seq", "doubled-space"])
    def test_a_malformed_line_is_refused_naming_it(self, tmp_path, edit, reason):
        path = tmp_path / "audit.log"
        log = AuditLog(now_ms=fixed_clock(), path=path)
        for i in range(4):
            log.append("TaskAssign", f"round = {i}\n")
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as err:
            load_audit_log(path)
        assert str(err.value) == f"{path}: {reason}"

    def test_line_format_round_trip(self):
        entry = build_log(3).entries[2]
        assert parse_audit_line(format_entry(entry)) == entry

    def test_unknown_event_type_rejected(self):
        log = AuditLog(now_ms=fixed_clock())
        with pytest.raises(ConfigError):
            log.append("NotAnEvent", "")


class TestConfigBoundsAtParse:
    # Each bound is accepted at its edge, and the value just past it is
    # refused at parse with the section's dotted path and the key.
    @pytest.mark.parametrize("setting, at_bound, past_bound, message", [
        ("policy.site-1.clip_norm = 1.0\npolicy.site-1.dp.delta = 1e-5\n"
         "policy.site-1.dp.epsilon = {}", "1e-6", "9.9e-7",
         "policy.site-1.dp: dp epsilon must be >= 1e-6"),
        ("policy.site-1.svt.threshold_fraction = 0.5\npolicy.site-1.svt.budget_c = 2\n"
         "policy.site-1.svt.epsilon = {}", "1e-6", "9.9e-7",
         "policy.site-1.svt: svt epsilon must be >= 1e-6"),
        ("train.learning_rate = {}", "100.0", "100.5", "train: learning_rate must be in [0, 100]"),
        ("train.learning_rate = {}", "0.0", "-1e-9", "train: learning_rate must be in [0, 100]"),
        ("train.local_epochs = {}", "1000", "1001", "train: local_epochs must be in [1, 1000]"),
        ("train.local_epochs = {}", "1", "0", "train: local_epochs must be in [1, 1000]"),
        ("train.fedprox_mu = {}", "100.0", "100.5", "train: fedprox_mu must be in [0, 100]"),
        ("train.fedprox_mu = {}", "0.0", "-1e-9", "train: fedprox_mu must be in [0, 100]"),
    ])
    def test_bounds_at_their_edges(self, setting, at_bound, past_bound, message):
        def config(value):
            return parse_experiment(
                'corpus.train = "a"\ncorpus.test = "b"\nrounds = 1\nclients = 2\n'
                + setting.format(value) + "\n"
            )

        config(at_bound)
        with pytest.raises(ConfigError) as err:
            config(past_bound)
        assert str(err.value) == message
