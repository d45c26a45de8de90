import pytest

from fedmesh.aggregation import as_dense
from fedmesh.runner import ServerNode


@pytest.fixture
def params_per_round(monkeypatch):
    """The coordinator's global model after each round it folds, as a dense
    copy, for every federation the test runs."""
    recorded = []
    fold = ServerNode._fold_round

    def recording(node, action):
        norm = fold(node, action)
        recorded.append(as_dense(node.global_params).copy())
        return norm

    monkeypatch.setattr(ServerNode, "_fold_round", recording)
    return recorded
