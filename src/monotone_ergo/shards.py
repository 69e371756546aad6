"""Independent jobs, each in its own forked worker process.

This is the package's one way to use more than one core: the SPDE
integration loop hands `run` one job per contiguous block of paths, the
transport's assignment batch one per dealt share of its assignments, and
`workers` says how many jobs are worth their forks.  A worker is
`fork`ed, so it reads the caller's arrays without copying them and only
its result travels back through a pipe; the caller starts no threads.
"""

from __future__ import annotations

import multiprocessing
import os


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(items: int, work: int, floor: int) -> int:
    """Jobs for `items` items of `work` in all: one per usable CPU, at most
    one per item, each with `floor` work (a shorter job costs less than
    the fork that would spread it), and at least one."""
    return max(1, min(usable_cpus(), items, work // floor))


def run(jobs) -> list:
    """[job() for job in jobs], in order, for argument-free `jobs`.  One
    job runs in-process; more run each in its own forked worker, and an
    exception raised by a job is raised here."""
    if len(jobs) == 1:
        return [jobs[0]()]
    return _run_forked(jobs)


def _run_forked(jobs) -> list:
    """`run` of more than one job, each in its own forked worker."""
    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        for job in jobs:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_result, args=(sender, job),
                               daemon=True)
            proc.start()
            sender.close()
            procs.append((proc, receiver))
        results = []
        for proc, receiver in procs:
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
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, receiver in procs:
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
