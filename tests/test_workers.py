import pytest

from omni import workers


def _square(x):
    return x * x


@pytest.mark.parametrize("count", (0, -1))
def test_parallel_map_rejects_fewer_than_one_worker(count):
    with pytest.raises(ValueError):
        workers.parallel_map(_square, [1, 2, 3], count)


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    process, starts nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def _record_pools(monkeypatch, cpus):
    """Record the pools parallel_map asks for on a host of cpus CPUs."""
    monkeypatch.setattr(workers, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_parallel_map_starts_no_more_workers_than_items(monkeypatch):
    _record_pools(monkeypatch, 64)  # as many CPUs as the largest request
    assert workers.parallel_map(_square, range(3), 64) == [0, 1, 4]
    assert workers.parallel_map(_square, range(5), 2) == [0, 1, 4, 9, 16]
    assert workers.parallel_map(_square, range(1), 8) == [0]
    assert _RecordingExecutor.sizes == [3, 2]


def test_parallel_map_starts_no_more_workers_than_cpus(monkeypatch):
    _record_pools(monkeypatch, 2)
    assert workers.parallel_map(_square, range(5), 10**6) == [0, 1, 4, 9, 16]
    assert workers.parallel_map(_square, range(1), 10**6) == [0]
    assert _RecordingExecutor.sizes == [2]
