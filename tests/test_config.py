import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import kvdoc
from fedmesh.cli import main
from fedmesh.config import (
    experiment_to_doc, load_experiment, load_roster, parse_experiment, with_seeds,
)
from fedmesh.errors import ConfigError

MINIMAL = """
corpus.train = "train.conll"
corpus.test = "test.conll"
rounds = 20
clients = 6
"""


class TestKvdoc:
    def test_scalar_types(self):
        doc = kvdoc.parse_doc(
            'a = 1\nb = 2.5\nc = true\nd = false\ne = word\nf = "two words"\ng = 1e-5\n'
        )
        assert doc == {
            "a": 1, "b": 2.5, "c": True, "d": False,
            "e": "word", "f": "two words", "g": 1e-5,
        }

    def test_nested_paths_and_lists(self):
        doc = kvdoc.parse_doc("x.y.z = [1, 2, 3]\nx.w = [a, b]\nempty = []\n")
        assert doc == {"x": {"y": {"z": [1, 2, 3]}, "w": ["a", "b"]}, "empty": []}

    def test_comments_and_blanks(self):
        assert kvdoc.parse_doc("# note\n\na = 1\n  # indented comment\n") == {"a": 1}

    def test_errors_carry_line_numbers(self):
        with pytest.raises(kvdoc.DocError) as err:
            kvdoc.parse_doc("a = 1\nbroken line\n")
        assert err.value.line == 2

    def test_conflicting_section_and_value(self):
        with pytest.raises(kvdoc.DocError):
            kvdoc.parse_doc("a = 1\na.b = 2\n")

    @pytest.mark.parametrize("text", ["a = 1\na = 3\n", "x.y = 1\nz = 2\nx.y = 1\n"])
    def test_a_key_set_twice_is_refused(self, text):
        with pytest.raises(kvdoc.DocError, match=r"key '(a|x\.y)' is set twice") as err:
            kvdoc.parse_doc(text)
        assert err.value.line == len(text.splitlines())

    def test_string_escapes(self):
        doc = kvdoc.parse_doc('s = "tab\\there \\"quoted\\" \\\\ end"\n')
        assert doc["s"] == 'tab\there "quoted" \\ end'

    def test_parse_emit_parse_identity_on_examples(self):
        texts = [
            MINIMAL,
            'a = -3\nb = 0.25\nc = [x, "y z", 4]\nd.e = true\n',
            's = "90/10"\nt = 90/10\n',
        ]
        for text in texts:
            once = kvdoc.parse_doc(text)
            again = kvdoc.parse_doc(kvdoc.emit_doc(once))
            assert once == again

    @given(
        st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_-]{0,6}", fullmatch=True),
            st.one_of(
                st.integers(-10**9, 10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.booleans(),
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs", "Cc"),
                    ),
                    max_size=12,
                ),
                st.lists(st.integers(-100, 100), max_size=4),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_emit_parse_round_trip_random_docs(self, doc):
        assert kvdoc.parse_doc(kvdoc.emit_doc(doc)) == doc


class TestExperimentConfig:
    def test_minimal_defaults(self):
        config = parse_experiment(MINIMAL)
        assert config.rounds == 20
        assert config.clients == config.k == config.m == 6
        assert config.strategy.kind == "fedavg"
        assert config.seeds.data == 1
        assert config.experiment_kind == "single"

    def test_missing_required_field_names_path(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment("corpus.train = \"x\"\nrounds = 1\nclients = 2\n")
        assert "corpus.test" in str(err.value)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment(MINIMAL + "bogus = 1\n")
        assert "bogus" in str(err.value)

    def test_type_errors_name_path(self):
        with pytest.raises(ConfigError) as err:
            parse_experiment(MINIMAL.replace("rounds = 20", 'rounds = "x"'))
        assert "rounds" in str(err.value)

    def test_quorum_validation(self):
        bad = MINIMAL + "quorum.k = 4\nquorum.m = 5\n"
        with pytest.raises(ConfigError):
            parse_experiment(bad)

    def test_ratio_modes(self):
        text = MINIMAL.replace("clients = 6", "clients = 2") + (
            "partition.ratios = \"90/10\"\n"
        )
        config = parse_experiment(text)
        assert config.ratios == (90, 10)
        text_list = MINIMAL.replace("clients = 6", "clients = 2") + (
            "partition.ratios = [75, 25]\n"
        )
        assert parse_experiment(text_list).ratios == (75, 25)
        assert parse_experiment(text_list).plan().mode == "ratio"
        assert parse_experiment(MINIMAL).plan().mode == "equal-n"

    def test_bad_ratio_string(self):
        text = MINIMAL + "experiment.kind = imbalance-sweep\nexperiment.ratios = [\"60/50\"]\n"
        with pytest.raises(ConfigError):
            parse_experiment(text)

    def test_sweeps(self):
        text = MINIMAL + "experiment.kind = client-sweep\nexperiment.client_counts = [2, 4, 6]\n"
        assert parse_experiment(text).client_counts == (2, 4, 6)
        text = MINIMAL + (
            "experiment.kind = imbalance-sweep\n"
            'experiment.ratios = ["50/50", "75/25", "90/10"]\n'
        )
        assert parse_experiment(text).sweep_ratios == ((50, 50), (75, 25), (90, 10))

    def test_inline_policies(self):
        text = MINIMAL + (
            "policy.site-1.clip_norm = 1.0\n"
            "policy.site-1.dp.epsilon = 2.0\n"
            "policy.site-1.dp.delta = 1e-5\n"
            "policy.site-2.masking_enabled = true\n"
        )
        config = parse_experiment(text)
        assert config.policies["site-1"].dp.epsilon == 2.0
        assert config.policies["site-2"].masking_enabled

    def test_policy_dir(self, tmp_path):
        (tmp_path / "train.conll").write_text("a O\n")
        (tmp_path / "test.conll").write_text("a O\n")
        pdir = tmp_path / "policies"
        pdir.mkdir()
        (pdir / "site-1.policy").write_text("site_id = site-1\nclip_norm = 0.5\n")
        (tmp_path / "exp.cfg").write_text(MINIMAL + 'policy_dir = "policies"\n')
        config = load_experiment(tmp_path / "exp.cfg")
        assert config.policies["site-1"].clip_norm == 0.5

    def test_missing_corpus_file_rejected(self, tmp_path):
        (tmp_path / "exp.cfg").write_text(MINIMAL)
        with pytest.raises(ConfigError) as err:
            load_experiment(tmp_path / "exp.cfg")
        assert "corpus.train" in str(err.value)

    def test_adversary_block(self):
        text = MINIMAL + "adversary.client = site-3\nadversary.magnitude = 1e6\n"
        config = parse_experiment(text)
        assert config.adversary.client_id == "site-3"
        assert config.adversary.magnitude == 1e6

    def test_echo_round_trip(self):
        text = MINIMAL + (
            "experiment.kind = client-sweep\n"
            "experiment.client_counts = [2, 4, 6]\n"
            "policy.site-1.clip_norm = 1.0\n"
            "train.learning_rate = 0.25\n"
            "strategy.kind = geo-median\n"
        )
        config = parse_experiment(text)
        echoed = kvdoc.emit_doc(experiment_to_doc(config))
        again = parse_experiment(echoed)
        assert again == config

    @pytest.mark.parametrize("lines,key", [
        ("train.learnin_rate = 0.1", "train.learnin_rate"),
        ("quorum.kk = 3", "quorum.kk"),
        ("transport.drop = 0.5", "transport.drop"),
        ("seeds.dat = 5", "seeds.dat"),
        ("strategy.kinds = fedavg", "strategy.kinds"),
        ("experiment.knd = single", "experiment.knd"),
        ("adversary.client = site-1\nadversary.magnitude = 5.0\nadversary.clinet = site-2",
         "adversary.clinet"),
        ("policy.site-1.clip_norm = 1.0\npolicy.site-1.dp.epsilon = 1.0\n"
         "policy.site-1.dp.delta = 1e-5\npolicy.site-1.dp.delt = 3", "policy.site-1.dp.delt"),
        ("policy.site-1.svt.epsilon = 1.0\npolicy.site-1.svt.budget_c = 2\n"
         "policy.site-1.svt.threshold_fraction = 0.5\npolicy.site-1.svt.budget = 3",
         "policy.site-1.svt.budget"),
        ("policy.site-1.clip = 1.0", "policy.site-1.clip"),
        ("strategy.normalize_to = abc", "strategy.normalize_to"),
        ("policy.site-1.clip_norm = 1.0\npolicy.site-1.dp.epsilon = 1.0", "policy.site-1.dp.delta"),
        ("policy.site-1.svt.epsilon = 1.0", "policy.site-1.svt.threshold_fraction"),
        ("policy.site-1.clip_norm = true", "policy.site-1.clip_norm"),
        ("policy.site-1.masking_enabled = 1", "policy.site-1.masking_enabled"),
        ("policy.site-1.svt.epsilon = 1.0\npolicy.site-1.svt.budget_c = 2.5\n"
         "policy.site-1.svt.threshold_fraction = 0.5", "policy.site-1.svt.budget_c"),
        ("policy.site-1 = 3", "policy.site-1"),
        ("experiment.kind = client-sweep\nexperiment.client_counts = 4",
         "experiment.client_counts"),
        ("partition.ratios = [50, 50, 0, 0, 0, 0]", "partition.ratios"),
        # Ratio mode follows from partition.ratios alone.
        ("partition.mode = ratio", "partition.mode: unknown key"),
        ("experiment.client_counts = [4, 8]", "experiment.client_counts"),
        ('experiment.ratios = ["50/50"]', "experiment.ratios"),
        ('experiment.kind = client-sweep\nexperiment.client_counts = [2]\n'
         'experiment.ratios = ["50/50"]', "experiment.ratios"),
        ('experiment.kind = imbalance-sweep\nexperiment.ratios = ["50/50"]\n'
         "experiment.client_counts = [2]", "experiment.client_counts"),
        # A range a section's own type checks is prefixed with the section's path.
        ("strategy.kind = shell-exec", "strategy: unknown aggregation kind 'shell-exec'"),
        ("transport.drop_prob = 1.0", "transport: drop_prob must be in [0, 1)"),
        ("transport.latency_min_ms = 9.0", "transport: latency_ms must satisfy"),
        ("policy.site-1.clip_norm = -1.0", "policy.site-1: clip_norm must be positive"),
        ('bind = "127.0.0.1:abc"', "bind: expected host:port with a port in 0-65535"),
        ('bind = "127.0.0.1:65536"', "bind: expected host:port with a port in 0-65535"),
    ])
    def test_refused_naming_the_key(self, lines, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_experiment(MINIMAL + lines + "\n")

    def test_policy_dir_typo_refused_naming_the_key(self, tmp_path):
        pdir = tmp_path / "policies"
        pdir.mkdir()
        (pdir / "site-1.policy").write_text("clip_norm = 1.0\ndp.epsilon = 1.0\ndp.delt = 3\n")
        with pytest.raises(ConfigError, match=r"policy\.site-1\.dp\.delt"):
            parse_experiment(MINIMAL + 'policy_dir = "policies"\n', base_dir=tmp_path)

    def test_policy_file_range_error_names_its_section(self, tmp_path):
        pdir = tmp_path / "policies"
        pdir.mkdir()
        (pdir / "site-1.policy").write_text("clip_norm = 1.0\ndp.epsilon = 0.0\ndp.delta = 1e-5\n")
        with pytest.raises(ConfigError, match=r"^policy\.site-1\.dp: dp epsilon must be >= 1e-6$"):
            parse_experiment(MINIMAL + 'policy_dir = "policies"\n', base_dir=tmp_path)

    @pytest.mark.parametrize("text,key", [
        ("sites = [site-1]\nsevrer = hub\n", "sevrer"),
        ("sites = site-1\n", "sites"),
        ("sites = []\n", "sites"),
        ("server = hub\n", "sites"),
        ('sites = [site-1]\naddress = "127.0.0.1:port"\n', "address"),
    ])
    def test_roster_refused_naming_the_key(self, tmp_path, text, key):
        roster = tmp_path / "roster.cfg"
        roster.write_text(text)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            load_roster(roster)

    def test_provision_with_scalar_sites_writes_no_kits(self, tmp_path, capsys):
        roster = tmp_path / "roster.cfg"
        roster.write_text("sites = site-1\n")
        assert main(["provision", "--roster", str(roster), "--out", str(tmp_path)]) == 1
        assert "sites" in capsys.readouterr().err
        assert not (tmp_path / "kits").exists()

    def test_roster_defaults(self, tmp_path):
        roster = tmp_path / "roster.cfg"
        roster.write_text("sites = [site-1, site-2]\n")
        assert load_roster(roster) == (("site-1", "site-2"), "server", "127.0.0.1:7761")

    def test_a_key_set_twice_is_refused_in_every_config_document(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^experiment: line 6: key 'clients' is set twice"):
            parse_experiment(MINIMAL + "clients = 3\n")
        pdir = tmp_path / "policies"
        pdir.mkdir()
        (pdir / "site-1.policy").write_text("clip_norm = 1.0\nclip_norm = 2.0\n")
        with pytest.raises(ConfigError, match=r"site-1\.policy: line 2: key 'clip_norm'"):
            parse_experiment(MINIMAL + 'policy_dir = "policies"\n', base_dir=tmp_path)
        roster = tmp_path / "roster.cfg"
        roster.write_text("sites = [site-1]\nserver = hub\nserver = hub\n")
        with pytest.raises(ConfigError, match=r"roster\.cfg: line 3: key 'server'"):
            load_roster(roster)

    def test_with_seeds_updates_sim_seed(self):
        config = parse_experiment(MINIMAL)
        updated = with_seeds(config, net=99)
        assert updated.seeds.net == 99
        assert updated.sim.seed == 99
        assert updated.seeds.data == config.seeds.data
