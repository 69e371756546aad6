"""Contiguous work shards, each in its own forked worker process.

This is the package's one way to use more than one core: the SPDE
integration loop splits its paths into contiguous blocks, and the
transport's assignment batch deals its jobs to one shard per CPU, and
both hand each shard to `run_sharded`.  A worker is
`fork`ed, so it reads the caller's arrays without copying them and only
its result travels back through a pipe; the caller starts no threads.
"""

from __future__ import annotations

import functools
import multiprocessing
import os


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_sharded(n: int, shards: int, job) -> list:
    """[job(lo, hi) for each of `shards` contiguous blocks (lo, hi) of
    range(n)], in order.  One shard runs in-process; more run each in its
    own forked worker, and an exception raised by a job is raised here."""
    if shards == 1:
        return [job(0, n)]
    edges = [n * i // shards for i in range(shards + 1)]
    return _run_forked([functools.partial(job, lo, hi)
                        for lo, hi in zip(edges, edges[1:])])


def _run_forked(jobs) -> list:
    """Results of the argument-free callables `jobs`, in order, each one
    called in its own forked worker process."""
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for job in jobs:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_result, args=(sender, job),
                               daemon=True)
            proc.start()
            sender.close()
            workers.append((proc, receiver))
        results = []
        for proc, receiver in workers:
            try:
                ok, value = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"shard worker exited with code "
                                   f"{proc.exitcode}") from None
            if not ok:
                raise value
            results.append(value)
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, receiver in workers:
            receiver.close()
            proc.join()
    return results


def _send_result(conn, job):
    try:
        result = (True, job())
    except Exception as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()
