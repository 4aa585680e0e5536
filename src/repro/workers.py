"""Worker-process plumbing shared by the sweep engine and the shard runner.

Both fan-out paths in this codebase — :func:`pool_map` (independent sweep
runs and experiment sections across cores) and :mod:`repro.sim.sharded`
(one event kernel per DC shard, exchanging messages at window barriers) —
ride on :mod:`multiprocessing`.  That imposes two constraints, documented
once, here:

* **Module-level callables only.**  Worker targets and mapped functions
  are located by qualified name when a child process materialises them, so
  lambdas, closures, bound methods, and anything defined inside another
  function cannot cross the process boundary.  :func:`require_module_level`
  turns the otherwise-cryptic pickling failure into a named
  :class:`WorkerCallableError` *before* any process is spawned.
* **Picklable payloads only.**  Arguments and results travel over pipes as
  pickles; keep them to plain data (dataclasses of ints/strings/tuples,
  dicts, lists).  Simulation objects (kernels, networks, servers) never
  cross — workers rebuild them from the configuration.

:func:`pool_map` is the order-preserving map used by
:func:`repro.bench.sweep.execute_sweep` and ``benchmarks/run_all.py``;
:func:`spawn_pipe_workers` is the duplex-pipe variant used by the shard
runner, whose workers converse with the parent at every window barrier
instead of returning one result.
"""

from __future__ import annotations

import multiprocessing
import sys
from multiprocessing.connection import Connection
from typing import Any, Callable, List, Optional, Sequence, Tuple


class WorkerCallableError(TypeError):
    """A callable that cannot be shipped to a worker process was supplied."""


def require_module_level(fn: Callable[..., Any], context: str) -> None:
    """Reject ``fn`` with a :class:`WorkerCallableError` unless it is importable.

    A callable survives the trip to a worker process only if a child can
    re-import it as ``module.qualname`` and get the same object back.  That
    rules out lambdas, locally defined functions, and bound/instance
    methods.  ``context`` names the caller (e.g. ``"pool_map"``) in the
    error message.
    """
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    module = getattr(fn, "__module__", None)
    reason = None
    if name == "<lambda>":
        reason = "lambdas cannot be pickled"
    elif "<locals>" in name:
        reason = "functions defined inside another function cannot be pickled"
    elif getattr(fn, "__self__", None) is not None:
        reason = "bound methods cannot be pickled"
    else:
        resolved: Any = sys.modules.get(module) if module is not None else None
        for part in name.split("."):
            resolved = getattr(resolved, part, None)
        if resolved is not fn:
            reason = f"{module}.{name} does not resolve back to this callable"
    if reason is not None:
        raise WorkerCallableError(
            f"{context} requires a module-level callable (it is shipped to "
            f"worker processes by name); got {module}.{name}: {reason}"
        )


def pool_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int = 1,
    progress: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Order-preserving map over worker processes (inline when ``workers<=1``).

    ``fn`` must satisfy :func:`require_module_level` and ``items`` must be
    picklable (checked only when parallelism actually engages — the inline
    path runs anything).  ``progress(index, item)`` fires as each item's
    result arrives, streamed in order via ``imap`` rather than after a
    whole-pool barrier.
    """
    items = list(items)
    results: List[Any] = []
    if workers <= 1 or len(items) <= 1:
        for i, item in enumerate(items):
            results.append(fn(item))
            if progress:
                progress(i, item)
        return results
    require_module_level(fn, "pool_map")
    with multiprocessing.Pool(min(workers, len(items))) as pool:
        for i, result in enumerate(pool.imap(fn, items)):
            results.append(result)
            if progress:
                progress(i, items[i])
    return results


def spawn_pipe_workers(
    target: Callable[[Connection, Any], None],
    payloads: Sequence[Any],
) -> List[Tuple[multiprocessing.Process, Connection]]:
    """Start one process per payload, each holding one end of a duplex pipe.

    ``target(conn, payload)`` runs in the child; the parent gets back
    ``(process, connection)`` pairs in payload order.  Used by the shard
    runner for its per-window message exchange.  The target must satisfy
    :func:`require_module_level`; payloads must be picklable.
    """
    require_module_level(target, "spawn_pipe_workers")
    spawned: List[Tuple[multiprocessing.Process, Connection]] = []
    for payload in payloads:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(target=target, args=(child_conn, payload))
        process.daemon = True
        process.start()
        child_conn.close()
        spawned.append((process, parent_conn))
    return spawned
