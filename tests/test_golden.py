"""Golden digests: a tiny ``simulate`` run must reproduce recorded bytes.

The constants below were recorded before the sparse wire path existed, so
any change that is meant to be pure speed (wire format, signing, framing,
caching) proves here that ``report.rows`` and every final model stay byte
for byte what they were.  A change that is meant to alter results must
re-record them and say why.

The config covers both vector wire kinds a float64 update can take (sparse
plain updates and dense DP-noised ones), a masked u64 cohort, clipping and a
lossy network with retransmits.
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


def _run_golden(tmp_path):
    save_conll(synthetic_corpus(160, seed=31), tmp_path / "train.conll")
    save_conll(synthetic_corpus(60, seed=32), tmp_path / "test.conll")
    config = tmp_path / "experiment.cfg"
    config.write_text(GOLDEN_CONFIG, encoding="utf-8")
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
