import os
import threading

import pytest


def _call_beside_fifo(fifo, fn, timeout=5.0):
    """fn()'s result, from a worker thread; the test fails if fn is still blocked after timeout s.

    A call blocked on the FIFO (in open(), or reading it) is then released by
    opening the FIFO's write end without blocking and closing it again, so a
    failing test does not hang the suite. An exception from fn is re-raised.
    """
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    blocked = worker.is_alive()
    for _ in range(100):
        if not worker.is_alive():
            break
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # ENXIO: no reader has the FIFO open
            pass
        worker.join(0.1)
    if blocked:
        pytest.fail(f"still blocked on {fifo} after {timeout} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture()
def fifo_call():
    """call(fifo, fn): fn() on a worker thread, failing rather than hanging if it blocks on the FIFO."""
    return _call_beside_fifo
