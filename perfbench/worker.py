"""Runs CLI operations inside one interpreter, as a library user would.

    python3 perfbench/worker.py serve JOB.json RESULT.json
        Import qpencil.cli, build the job's fields, then run its cycles of
        `cli.main(argv)` calls (see `run_cycles`), each under a time limit.
    python3 perfbench/worker.py once MODE REPORT.json -- ARGV...
        The traced form of one `python -m qpencil ARGV...` call: install the
        MODE recorder, run the command, write the recorder's report.

Needs the package on PYTHONPATH.  Latency is measured around the
`cli.main` call, from the call until its JSON has been written.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
import traceback
import zlib

import reference
import tracing


class OpTimeout(Exception):
    """The operation ran past the per-operation time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def _recorder(mode: str):
    if mode == "spans":
        return tracing.Spans()
    if mode == "counts":
        return tracing.Counts()
    if mode == "off":
        return None
    raise ValueError(f"unknown trace mode {mode!r}")


def run_cycles(cycles: list, run_op, job: dict) -> tuple:
    """job["repeats"] passes over all the cycles' operations; no operation
    starts after job["max_s"], and one the cap left unstarted counts as
    failed.

    Every call is one latency sample, kept in "calls_ms", and an
    operation's answer must be the same in every pass (the CLI promises
    byte-identical output), so only the first answer is checked.  Repeats
    are a whole pass over the run apart, so the samples of one operation
    are spread over the whole timed phase.  `reference.job` is timed before
    every call (see reference.py); the samples are returned too, and their
    time is left out of the elapsed time.  Answers are written to
    job["out_dir"] and only their length and CRC kept, so the memory of the
    process does not grow with the number of operations.
    """
    tries = [[[] for _ in row] for row in cycles]
    ref_ms = []
    t0 = time.perf_counter()
    for _ in range(job["repeats"]):
        for v, row in enumerate(cycles):
            for i, argv in enumerate(row):
                if time.perf_counter() - t0 > job["max_s"]:
                    break
                ref_ms.append(reference.sample())
                res = run_op(argv)
                text = res.pop("out")
                res["digest"] = (len(text), zlib.crc32(text.encode()))
                if not tries[v][i]:
                    res["out_path"] = os.path.join(job["out_dir"], f"out-{v}-{i}.txt")
                    with open(res["out_path"], "w", encoding="utf-8") as fh:
                        fh.write(text)
                tries[v][i].append(res)
    elapsed = time.perf_counter() - t0 - sum(ref_ms) / 1000.0  # without the reference
    results = []
    for v, row in enumerate(tries):
        for i, t in enumerate(row):
            res = _combine(t) if t else {"code": None, "calls_ms": [],
                                         "error": "not started: run time cap reached"}
            res.update(variant=v, index=i)
            results.append(res)
    return results, elapsed, ref_ms


def _combine(tries: list) -> dict:
    first = dict(tries[0])
    for again in tries[1:]:
        if first["error"]:
            break
        if again["error"] or (again["code"], again["digest"]) != (first["code"], first["digest"]):
            first["error"] = again["error"] or "output differs between identical calls"
    del first["ms"]
    first["calls_ms"] = [t["ms"] for t in tries]
    if "rss_kb" in first:
        first["rss_kb"] = max(t["rss_kb"] for t in tries)
    return first


def run_one(cli, argv: list, limit: float) -> dict:
    """One in-process CLI call with its stdout captured."""
    out = io.StringIO()
    saved = sys.stdout
    sys.stdout = out
    signal.setitimer(signal.ITIMER_REAL, limit)
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except OpTimeout:
        error = "timeout"
    except SystemExit as e:
        error = f"exit {e.code}"
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout = saved
    return {"code": code, "ms": dt * 1000.0, "out": out.getvalue(), "error": error}


def serve(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from qpencil import cli
    from qpencil.field import GF

    for k in job["fields"]:
        GF(k)
    recorder = _recorder(job["mode"])
    if recorder:
        recorder.install()
    signal.signal(signal.SIGALRM, _alarm)
    results, elapsed, ref_ms = run_cycles(
        job["cycles"], lambda argv: run_one(cli, argv, job["limit_s"]), job)
    report = {
        "elapsed_s": elapsed,
        "ref_ms": ref_ms,
        "results": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": recorder.report() if recorder else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def once(mode: str, report_path: str, argv: list) -> int:
    from qpencil import cli

    recorder = _recorder(mode)
    recorder.install()
    code = cli.main(argv)
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.report(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "once" and sys.argv[4] == "--":
        sys.exit(once(sys.argv[2], sys.argv[3], sys.argv[5:]))
    else:
        sys.exit(f"usage: see {__file__}")
