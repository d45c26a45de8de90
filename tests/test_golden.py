"""Golden digests: a tiny ``simulate`` run must reproduce recorded bytes.

The constants below were recorded before the sparse wire path existed, so
any change that is meant to be pure speed (wire format, signing, framing,
caching) proves here that ``report.rows`` and every final model stay byte
for byte what they were.  A change that is meant to alter results must
re-record them and say why.

The config covers both vector wire kinds a float64 update can take (sparse
plain updates and dense DP-noised ones), a masked u64 cohort, clipping and a
lossy network with retransmits.  A second config covers the Byzantine-robust
path: a two-cell client sweep under geo-median (Weiszfeld) aggregation with
an adversarial site, a DP site and loss; its constants were recorded the
same way, before the aggregation and featurization kernels were streamed.

Two more configs pin the aggregation paths the benchmark does not run, and
were recorded before aggregation learned to keep sparse rows sparse: a
coordinate median over server-normalized updates with an SVT site (a sparse
row) and a DP site (a dense row), and trust-weighted FedAvg with a DP site
and an adversarial site.
"""

import hashlib

from fedmesh.cli import main
from fedmesh.data import save_conll, synthetic_corpus

GOLDEN_CONFIG = """
corpus.train = "train.conll"
corpus.test = "test.conll"
rounds = 3
clients = 4
train.feature_dim = 8192
seeds.data = 21
seeds.model = 22
seeds.net = 23
transport.drop_prob = 0.05
policy.site-1.clip_norm = 5.0
policy.site-1.dp.epsilon = 8.0
policy.site-1.dp.delta = 0.00001
policy.site-2.clip_norm = 5.0
policy.site-2.masking_enabled = true
policy.site-3.masking_enabled = true
"""

GOLDEN_ROWS_SHA256 = "37bafcef915bc4e330b0f2539d8568c1055499ca428a34bb7fd381e1a762b89d"
GOLDEN_PARAMS_SHA256 = "7c9f9485216968b7d0cf53deb35548962445bdd74c571fb5b941ba238e796e6d"

GEO_CONFIG = """
corpus.train = "train.conll"
corpus.test = "test.conll"
rounds = 3
clients = 5
train.feature_dim = 8192
experiment.kind = client-sweep
experiment.client_counts = [3, 5]
strategy.kind = geo-median
adversary.client = "site-3"
adversary.magnitude = 1000.0
seeds.data = 41
seeds.model = 42
seeds.net = 43
transport.drop_prob = 0.05
policy.site-1.clip_norm = 5.0
policy.site-1.dp.epsilon = 8.0
policy.site-1.dp.delta = 0.00001
policy.site-2.clip_norm = 5.0
"""

GEO_ROWS_SHA256 = "c8bb55eb7ca11d337eb45b58b69321e7d7bb49cd7caf9fcad75ae42fe8986f45"
GEO_PARAMS_SHA256 = "d4499f8434a8a20a19eee5aa9a2a6325325b918944614564d7d2386335995669"

COORD_CONFIG = """
corpus.train = "train.conll"
corpus.test = "test.conll"
rounds = 3
clients = 4
train.feature_dim = 8192
strategy.kind = coord-median
strategy.normalize_to = 1.0
seeds.data = 61
seeds.model = 62
seeds.net = 63
transport.drop_prob = 0.05
policy.site-1.clip_norm = 5.0
policy.site-1.dp.epsilon = 8.0
policy.site-1.dp.delta = 0.00001
policy.site-2.clip_norm = 5.0
policy.site-2.svt.threshold_fraction = 0.9
policy.site-2.svt.budget_c = 300
policy.site-2.svt.epsilon = 4.0
"""

COORD_ROWS_SHA256 = "5db0a158ca66fd7a0e1d674c563cbad1168a18705df59aa7795642802d9e2675"
COORD_PARAMS_SHA256 = "257b1a9ac067091ba5fd0966c481b59fdec8b38fff7a4ee175cdb9918b11506d"

TRUST_CONFIG = """
corpus.train = "train.conll"
corpus.test = "test.conll"
rounds = 3
clients = 4
train.feature_dim = 8192
strategy.kind = fedavg-trust
adversary.client = "site-4"
adversary.magnitude = 50.0
seeds.data = 71
seeds.model = 72
seeds.net = 73
transport.drop_prob = 0.05
policy.site-1.clip_norm = 5.0
policy.site-1.dp.epsilon = 8.0
policy.site-1.dp.delta = 0.00001
"""

TRUST_ROWS_SHA256 = "2b3aa871a74a69e478b024c0a4fc0cdacaa0104808badaa8413a0533e6e1b75c"
TRUST_PARAMS_SHA256 = "8ded52beabee7d9f3665b9fac52c96e60608dd8c848350f13d757c0a7f8aaf58"


def _run_golden(tmp_path, config_text=GOLDEN_CONFIG, corpus_seeds=(31, 32)):
    save_conll(synthetic_corpus(160, seed=corpus_seeds[0]), tmp_path / "train.conll")
    save_conll(synthetic_corpus(60, seed=corpus_seeds[1]), tmp_path / "test.conll")
    config = tmp_path / "experiment.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = hashlib.sha256((out / "report.rows").read_bytes()).hexdigest()
    params = hashlib.sha256()
    models = sorted(out.glob("model-*.params"))
    assert models
    for path in models:
        params.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return rows, params.hexdigest()


def test_simulate_digests_match_recorded_constants(tmp_path):
    rows, params = _run_golden(tmp_path)
    assert rows == GOLDEN_ROWS_SHA256
    assert params == GOLDEN_PARAMS_SHA256


def test_geo_median_simulate_digests_match_recorded_constants(tmp_path):
    rows, params = _run_golden(tmp_path, GEO_CONFIG, corpus_seeds=(51, 52))
    assert rows == GEO_ROWS_SHA256
    assert params == GEO_PARAMS_SHA256


def test_coord_median_simulate_digests_match_recorded_constants(tmp_path):
    rows, params = _run_golden(tmp_path, COORD_CONFIG, corpus_seeds=(81, 82))
    assert rows == COORD_ROWS_SHA256
    assert params == COORD_PARAMS_SHA256


def test_trust_simulate_digests_match_recorded_constants(tmp_path):
    rows, params = _run_golden(tmp_path, TRUST_CONFIG, corpus_seeds=(91, 92))
    assert rows == TRUST_ROWS_SHA256
    assert params == TRUST_PARAMS_SHA256
