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


def test_parallel_map_starts_no_more_workers_than_items(monkeypatch):
    monkeypatch.setattr(workers, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    assert workers.parallel_map(_square, range(3), 64) == [0, 1, 4]
    assert workers.parallel_map(_square, range(5), 2) == [0, 1, 4, 9, 16]
    assert workers.parallel_map(_square, range(1), 8) == [0]
    assert _RecordingExecutor.sizes == [3, 2]
