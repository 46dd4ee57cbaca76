"""Persistent warm workers for the sweep runner.

Forking a fresh child per spec attempt pays a full process start-up
each time; for the paper's sweeps, where one spec simulates in tens
of milliseconds, start-up would dominate wall-clock.

A :class:`WarmWorkerPool` keeps long-lived child processes around
instead: each worker imports the simulation stack **once**, then
serves specs over its pipe until told to stop.  The runner borrows a
worker per attempt (:meth:`~WarmWorkerPool.checkout`), sends one
``(tag, spec_json, want_xml, liveness, fleet)`` tuple and reads back
one ``(tag, status, payload, error)`` message, so timeout kill and
crash containment act on exactly one spec.

Lifecycle rules, all pinned by tests:

* a worker that dies or hangs mid-attempt is :meth:`discard`-ed — it
  is killed and a fresh one spawned in its place, so one bad spec
  never shrinks the pool;
* :meth:`terminate` (also run via ``weakref.finalize`` when the owner
  is collected, and on KeyboardInterrupt) kills every child; workers
  additionally self-exit on pipe EOF, so even a SIGKILLed parent
  leaves no orphans grinding on.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
from typing import Any, List, Optional, Tuple

#: one finished unit: (tag, status, payload, error).
ItemResult = Tuple[Any, str, Optional[tuple], Optional[str]]


class WorkerPoolBroken(RuntimeError):
    """The pool lost a worker (or was torn down) and cannot continue."""


def _serve(conn) -> None:
    """Child-process loop: execute work items until EOF or the sentinel.

    ``execute_spec_json`` is looked up through the runner module *per
    item* — late binding keeps a parent-side monkeypatch (inherited at
    fork time) effective, which the worker-death containment tests
    rely on.  BaseException is contained: a failing attempt must
    report a status, never kill the pipe silently.
    """
    from repro.errors import classify_error
    from repro.sweep import runner as runner_mod

    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break  # parent died or hung up: self-terminate
        if item is None:
            break
        tag, spec_json, want_xml, liveness, fleet = item
        try:
            payload = runner_mod.execute_spec_json(
                spec_json, want_xml, liveness=liveness, fleet=fleet
            )
            msg: ItemResult = (tag, "ok", payload, None)
        except BaseException as exc:  # noqa: BLE001 - containment
            msg = (
                tag,
                classify_error(exc),
                None,
                f"{type(exc).__name__}: {exc}",
            )
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError):
            return
    try:
        conn.close()
    except OSError:  # pragma: no cover - nothing left to do
        pass


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class WarmWorker:
    """One persistent child process plus its duplex pipe."""

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(target=_serve, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()

    def stop(self, grace: float = 1.0) -> None:
        """Ask the worker to exit (sentinel), then force it if needed."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(grace)
        if self.proc.is_alive():
            self.kill()
        else:
            self._close_conn()

    def kill(self, grace: float = 5.0) -> None:
        """Terminate the worker unconditionally."""
        self.proc.terminate()
        self.proc.join(grace)
        if self.proc.is_alive():  # pragma: no cover - SIGTERM ignored
            self.proc.kill()
            self.proc.join(grace)
        self._close_conn()

    def _close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class WarmWorkerPool:
    """A fixed-size pool of :class:`WarmWorker` children."""

    def __init__(self, workers: int, ctx=None) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        if ctx is None:
            ctx = _pool_context()
        self._ctx = ctx
        self.workers: List[WarmWorker] = []
        self._idle: "_queue.SimpleQueue[WarmWorker]" = _queue.SimpleQueue()
        self.closed = False
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> WarmWorker:
        worker = WarmWorker(self._ctx)
        self.workers.append(worker)
        self._idle.put(worker)
        return worker

    def __len__(self) -> int:
        return len(self.workers)

    def grow(self, target: int) -> None:
        """Ensure at least ``target`` workers exist."""
        while len(self.workers) < target and not self.closed:
            self._spawn()

    # -- check-out protocol ---------------------------------------------

    def checkout(self) -> WarmWorker:
        """Borrow an idle worker (blocks until one frees up)."""
        while True:
            if self.closed:
                raise WorkerPoolBroken("worker pool is closed")
            try:
                worker = self._idle.get(timeout=0.1)
            except _queue.Empty:
                continue
            if self.closed:
                raise WorkerPoolBroken("worker pool is closed")
            return worker

    def checkin(self, worker: WarmWorker) -> None:
        """Return a healthy worker to the idle set."""
        if self.closed:
            worker.kill()
            return
        self._idle.put(worker)

    def discard(self, worker: WarmWorker) -> None:
        """Kill a hung/dead worker and replace it with a fresh one.

        The pool keeps its size so concurrent attempt threads never
        starve; if the replacement cannot be spawned (fork limits) the
        pool shrinks and, once empty, closes.
        """
        worker.kill()
        try:
            self.workers.remove(worker)
        except ValueError:  # pragma: no cover - double discard
            pass
        if self.closed:
            return
        try:
            self._spawn()
        except OSError:
            if not self.workers:
                self.closed = True

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: sentinel every worker, then reap."""
        if self.closed:
            return
        self.closed = True
        for worker in self.workers:
            worker.stop()
        self.workers.clear()

    def terminate(self) -> None:
        """Hard shutdown: kill every worker immediately."""
        if self.closed and not self.workers:
            return
        self.closed = True
        for worker in self.workers:
            worker.kill()
        self.workers.clear()

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
