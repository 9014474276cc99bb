import os

import pytest


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(n_cpus, openblas="1", omp=None)`` makes this process
    look like it may run on ``n_cpus`` CPUs with the given thread variables
    (None: unset), so ``quantizer.encode_workers`` and the pieces of a
    training step see that many workers on any host."""

    def use(n_cpus, openblas="1", omp=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                            raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)

    return use
