import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from adamqlr import tape

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def halves(request, monkeypatch):
    """A fresh `tape.HalfWorker` that splits every large product (or none, with
    indirect parametrization to False), whatever the BLAS pins; its worker
    thread, if it started one, is stopped after the test.

    Tier-1 runs with BLAS unpinned, where products are never split, so this
    is how the split path runs under the tests.
    """
    worker = tape.HalfWorker()
    worker.split = getattr(request, "param", True)
    monkeypatch.setattr(tape, "HALVES", worker)
    yield worker
    worker.close()
