import threading
import time
from concurrent.futures import ThreadPoolExecutor

from zetalab import parallel


def test_map_blocks_keeps_item_order():
    def slow_first(i):
        time.sleep(0.02 * (5 - i))   # early items finish last
        return i * i

    assert parallel.map_blocks(slow_first, range(6)) == [0, 1, 4, 9, 16, 25]
    assert parallel.map_blocks(slow_first, []) == []


def test_single_item_runs_in_the_caller():
    assert parallel.map_blocks(lambda _: threading.get_ident(), [0]) == [threading.get_ident()]


def test_nested_map_blocks_completes_on_one_worker(monkeypatch):
    def outer(i):
        return sum(parallel.map_blocks(lambda j: i * j, range(4)))

    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(parallel, "_pool", pool)
    result = []
    runner = threading.Thread(target=lambda: result.extend(parallel.map_blocks(outer, range(3))),
                              daemon=True)
    runner.start()
    runner.join(timeout=30)
    pool.shutdown(wait=False, cancel_futures=True)   # frees the worker if it deadlocked
    assert not runner.is_alive(), "a nested map_blocks waited on the pool it ran on"
    assert result == [0, 6, 12]
