import threading
import time

import pytest

from pdisim import experiments


@pytest.fixture
def block_threads(monkeypatch):
    """Idents of the threads that ran a sweep block, one per block, with
    every sweep given as many threads as its jobs and blocks allow. Each
    block first sleeps 10 ms, so that while one worker runs it another
    takes up the next block."""
    monkeypatch.setattr(experiments, "READS_PER_THREAD", 1)
    idents = []
    run_block = experiments._run_block

    def recording(*args, **kwargs):
        idents.append(threading.get_ident())
        time.sleep(0.01)
        return run_block(*args, **kwargs)

    monkeypatch.setattr(experiments, "_run_block", recording)
    return idents
