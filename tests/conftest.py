import os

import numpy as np
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


@pytest.fixture
def word_planes_of():
    """``word_planes_of(rows)``: the flat word planes of (n, bytes_per_code)
    packed codes in file order, stated plainly: each pair of byte columns
    2j, 2j+1 row by row (n little-endian uint16 words), then an odd last
    byte column."""

    def planes(rows):
        n_bytes = rows.shape[1]
        runs = [rows[:, j:j + 2].ravel() for j in range(0, n_bytes - 1, 2)]
        return np.concatenate([np.zeros(0, np.uint8), *runs, *[rows[:, -1]] * (n_bytes % 2)])

    return planes
