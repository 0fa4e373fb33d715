"""The one process pool: extraction tracks, forest trees, bootstrap resamples and sweep ks.

``pool_map(task, shared, items, workers)`` returns
``[task(shared, item) for item in items]``. With more than one worker and
more than one item it runs the calls in a pool of
``min(workers, len(items))`` processes; ``shared`` (the data matrix, say)
reaches each worker once, through the pool initializer, and never travels
with an item. Results come back in item order, so a caller that reduces
them in that order gets the same bytes at any worker count.

``task`` must be a module-level function, and ``shared`` and the items
must pickle: nothing may rest on state a forked worker inherits, so the
pool works under fork, spawn and forkserver alike. A task must not call
``pool_map`` with more than one worker itself, so pools never nest.
Workers start with the platform's default method (fork on Linux before
Python 3.14), which takes milliseconds; under spawn or forkserver every
worker of every pool re-imports numpy and the package modules its task
needs. No analysis task (forest tree, bootstrap resample, sweep k) loads
scipy: a 2-worker sweep pool started from a process that has imported
the CLI returned its first results after 0.34-0.45 s on a 2-vCPU host,
where workers that loaded ``scipy.spatial`` took 0.70-1.05 s. An
extraction worker loads scipy only for a track that needs resampling
(``scipy.signal``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable

# set once per worker process by the pool initializer, never in the parent
_worker_task = None
_worker_shared = None


def _install(task, shared) -> None:
    global _worker_task, _worker_shared
    _worker_task, _worker_shared = task, shared


def _call(item):
    return _worker_task(_worker_shared, item)


def pool_map(task: Callable, shared, items: Iterable, workers: int) -> list:
    """``task(shared, item)`` for every item, in item order, over at most ``workers`` processes."""
    items = list(items)
    size = min(workers, len(items))
    if size <= 1:
        return [task(shared, item) for item in items]
    with ProcessPoolExecutor(max_workers=size, initializer=_install, initargs=(task, shared)) as pool:
        return list(pool.map(_call, items))
