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

The geo-median, coordinate-median and trust constants were re-recorded when
every 1-D norm and dot product moved from BLAS to numpy's pairwise sum: BLAS
split its sums by thread, so those bits depended on OpenBLAS's thread count.
Every config is also run in a subprocess under other thread counts, which
must give the same constants.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedmesh
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
# The one cell's audit-n4.log: its entries' payloads, hash chain and
# virtual-time stamps, recorded before audit stamps moved from clock
# objects to one function of the simulator's virtual milliseconds.
GOLDEN_AUDIT_SHA256 = "670324a86797f429186d867dabef88db78bfb592f5c1cd5e659e7bfea791c20c"

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

GEO_ROWS_SHA256 = "39b015fc282c3f80d7b5b1717f0b793cf86b17b7ee5d12690c9c861b9f7ee2f5"
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
COORD_PARAMS_SHA256 = "5efcda076c91daf7909fb7f3fb4e0877ca22786d5b0f705003ac2f574ab833e9"

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

TRUST_ROWS_SHA256 = "1d8b460c9738c2803f58e4d1b047eae7c09ae7674a5bc50b03fd67673baf4e07"
TRUST_PARAMS_SHA256 = "7d5a68886b0916a3821fb6b6be5252dd065f1e5c45d18ea09569cef2a2201374"


GOLDEN_CASES = {
    "fedavg": (GOLDEN_CONFIG, (31, 32), GOLDEN_ROWS_SHA256, GOLDEN_PARAMS_SHA256),
    "geo-median": (GEO_CONFIG, (51, 52), GEO_ROWS_SHA256, GEO_PARAMS_SHA256),
    "coord-median": (COORD_CONFIG, (81, 82), COORD_ROWS_SHA256, COORD_PARAMS_SHA256),
    "fedavg-trust": (TRUST_CONFIG, (91, 92), TRUST_ROWS_SHA256, TRUST_PARAMS_SHA256),
}


def _simulate_in_subprocess(args, blas_threads):
    """Run ``simulate`` in a fresh interpreter: OpenBLAS reads its thread
    count once, when numpy loads."""
    src = str(Path(fedmesh.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from fedmesh.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _run_golden(tmp_path, config_text=GOLDEN_CONFIG, corpus_seeds=(31, 32), blas_threads=None):
    save_conll(synthetic_corpus(160, seed=corpus_seeds[0]), tmp_path / "train.conll")
    save_conll(synthetic_corpus(60, seed=corpus_seeds[1]), tmp_path / "test.conll")
    config = tmp_path / "experiment.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    args = ["simulate", "--config", str(config), "--out", str(out)]
    if blas_threads is None:
        assert main(args) == 0
    else:
        _simulate_in_subprocess(args, blas_threads)
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
    assert [path.name for path in sorted((tmp_path / "out").glob("audit-*.log"))] == ["audit-n4.log"]
    audit = (tmp_path / "out" / "audit-n4.log").read_bytes()
    assert hashlib.sha256(audit).hexdigest() == GOLDEN_AUDIT_SHA256


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


@pytest.mark.parametrize("blas_threads", ["1", "3"])
@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_digests_hold_on_any_blas_thread_count(tmp_path, case, blas_threads):
    config_text, corpus_seeds, rows, params = GOLDEN_CASES[case]
    assert _run_golden(tmp_path, config_text, corpus_seeds, blas_threads) == (rows, params)
