"""Stage timing and the process map: the per-process stage record, shared by every module.

It imports nothing from dmdn, so any module, `analysis` included, can time its stages.
"""

from __future__ import annotations

import os
import time
from collections import Counter, deque
from contextlib import contextmanager

# This process's stage record: wall-clock seconds per `stage` name, keys in first-entry order.
STAGE_SECONDS = Counter()


@contextmanager
def stage(name: str):
    """Add the wall-clock seconds of the `with` body to this process's `STAGE_SECONDS[name]`."""
    STAGE_SECONDS.setdefault(name, 0.0)
    t0 = time.perf_counter()
    yield
    STAGE_SECONDS[name] += time.perf_counter() - t0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _apply(item):
    """A pool worker's task: the map's fn on one item, and the item's stage record; the initializer set fn."""
    STAGE_SECONDS.clear()
    return _apply.fn(item), dict(STAGE_SECONDS)


@contextmanager
def ordered_map(fn, jobs: int, limit: int):
    """Yield (workers, run), where run(items) is [fn(item) for item in items] in order.

    Up to min(jobs, limit, usable CPUs) forked worker processes share the
    map, one pool for the whole context.  Fork, not spawn, lets the workers
    inherit fn (a closure, which cannot be pickled) and whatever it holds;
    only items and results are pickled.  Items are drawn only as results are
    taken, at most two per worker ahead, so a generator's items (noisy
    captures, say) are never all held at once.  Each worker's stage seconds
    are added to this process's `STAGE_SECONDS`.  Without fork, or with one
    worker, the map runs in-process.  A worker that dies (killed, say) ends
    the map in an OSError.
    """
    workers = min(jobs, limit, usable_cpus())
    if workers > 1:
        import multiprocessing  # lazily: the import costs ~14 ms of every CLI start
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            # The executor, not multiprocessing.Pool: a killed worker raises
            # BrokenProcessPool instead of hanging the map.  Leaving the block
            # shuts the pool down and joins every worker, also when fn raised.
            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=setattr,
                initargs=(_apply, "fn", fn),
            ) as pool:

                def run(items):
                    pending, results = deque(), []
                    for item in items:
                        pending.append(pool.submit(_apply, item))
                        if len(pending) == 2 * workers:
                            results.append(pending.popleft().result())
                    results += [future.result() for future in pending]
                    for _, seconds in results:
                        STAGE_SECONDS.update(seconds)
                    return [result for result, _ in results]

                try:
                    yield workers, run
                except BrokenProcessPool:
                    raise OSError("a worker process ended abruptly: killed when out of memory, say") from None
            return
    yield 1, lambda items: [fn(item) for item in items]
