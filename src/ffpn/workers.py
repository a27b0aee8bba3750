"""The thread pool that pair sweeps and Weil audits run on.  Its workers are
threads of this process: they share the tower registry and every context
built on it, so nothing is forked, copied or inherited."""

from contextlib import contextmanager


@contextmanager
def ordered_map(fn, items, threads):
    """Yield an iterator of fn(item) over items, in order, on `threads` threads.

    Under two threads it maps lazily in this thread.  Leaving the block
    cancels the items no thread has started and joins the running ones.
    """
    if threads < 2:
        yield map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported only where a pool starts

    pool = ThreadPoolExecutor(threads)
    try:
        yield pool.map(fn, items)
    finally:
        pool.shutdown(cancel_futures=True)
