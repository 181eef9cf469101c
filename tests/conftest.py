import threading
import time

import pytest

from pdisim import experiments


def _record_threads(monkeypatch, task):
    """Give every sweep and continuous study as many threads as its jobs
    and tasks allow, and return the idents of the threads that ran
    experiments.<task>, one per call. Each call first sleeps 10 ms, so that
    while one thread runs it another takes up the next task."""
    monkeypatch.setattr(experiments, "READS_PER_THREAD", 1)
    idents = []
    run = getattr(experiments, task)

    def recording(*args, **kwargs):
        idents.append(threading.get_ident())
        time.sleep(0.01)
        return run(*args, **kwargs)

    monkeypatch.setattr(experiments, task, recording)
    return idents


@pytest.fixture
def task_threads(monkeypatch):
    """Idents of the threads that ran a sweep task (one illumination, read
    at every sigma and binned at every n_bin), one per task."""
    return _record_threads(monkeypatch, "_run_illumination")


@pytest.fixture
def run_threads(monkeypatch):
    """Idents of the threads that ran a continuous-experiment exposure (the
    reference's, or one illumination's, read at every sigma), one per
    exposure."""
    return _record_threads(monkeypatch, "_continuous_run")
