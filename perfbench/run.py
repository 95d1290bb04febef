"""The qpencil benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The workloads (see README.md in this directory):

    cli-cold        one `python -m qpencil` process per operation
    classify-wide   in-process classification at n = 13..17
    big-field       the same operations over GF(2^17) .. GF(2^32)

Each operation runs one subcommand on seeded documents whose answers are
known by construction; answers are checked after the timed phase.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a separate
traced run.  Exit code 2 means the benchmark could not run at all, 1 that
a traced run missed a span it must see.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import docs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from worker import run_cycles  # noqa: E402

WORKLOADS = ("cli-cold", "classify-wide", "big-field")
LIMIT_S = 20.0  # per-operation time limit; an operation over it counts as failed
RUN_CAP_S = 120.0  # no operation starts later in a run, whatever --seconds says
SETUP_REPEATS = 6  # fresh interpreters timed before the timed phase, and again after it
REPEATS = 3  # passes over all of a run's operations; every call is a latency sample
# whole cycles a run makes per 20 s of --seconds (at least one).  The count
# does not depend on the program's speed, so every commit makes the same
# calls and the tail is the same rank among them.  Two cycles keep a run of
# each workload under 45 s on a 2-vCPU VM, and put each workload's tail
# inside or just under its group of slowest calls (README.md).
CYCLES_PER_20S = 2


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    """The caller's environment with the package on the path and bytecode
    caching on, as for an installed package, whatever the caller set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _timed(cmd: list, timeout: float = 60.0) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=timeout)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} failed: {proc.stderr.decode()[-400:]}")
    return dt


def setup_seconds(workload: str) -> tuple:
    """SETUP_REPEATS wall times of a fresh interpreter importing qpencil.cli
    and building every field and embedding the workload uses, and a
    `reference` sample before each."""
    code = ("import qpencil.cli\nfrom qpencil.field import GF, find_embedding\n"
            f"for k in {docs.field_degrees(workload)}:\n    GF(k)\n"
            f"for k, e in {docs.embeddings(workload)}:\n    find_embedding(GF(k), GF(e))\n")
    cmd = [sys.executable, "-c", code]
    _timed(cmd)  # writes the bytecode caches
    times, ref_ms = [], []
    for _ in range(SETUP_REPEATS):
        ref_ms.append(reference.sample())
        times.append(_timed(cmd))
    return times, ref_ms


def interpreter_floor() -> dict:
    """Bare interpreter start, and import of qpencil.cli on top of it."""
    bare = statistics.median(_timed([sys.executable, "-c", "pass"]) for _ in range(SETUP_REPEATS))
    imp = statistics.median(_timed([sys.executable, "-c", "import qpencil.cli"])
                            for _ in range(SETUP_REPEATS))
    return {"cli.interpreter_s": bare, "cli.import_s": imp - bare}


# ---------------------------------------------------------------------------
# running operations


def write_documents(cases: list, work: str) -> list:
    """argv per case, with each document written to its own file."""
    out = []
    for v, row in enumerate(cases):
        argvs = []
        for i, case in enumerate(row):
            paths = []
            for j, pencil in enumerate(case.docs):
                path = os.path.join(work, f"doc-{v}-{i}-{j}.json")
                with open(path, "wb") as fh:
                    fh.write(pencil.document())
                paths.append(path)
            argvs.append(case.argv(paths))
        out.append(argvs)
    return out


def run_in_process(argvs: list, work: str, job: dict) -> dict:
    """One worker process runs the job's cycles of in-process CLI calls."""
    mode = job["mode"]
    job_path = os.path.join(work, f"job-{mode}.json")
    result_path = os.path.join(work, f"result-{mode}.json")
    err_path = os.path.join(work, f"worker-{mode}.err")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(dict(job, cycles=argvs), fh)
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, WORKER, "serve", job_path, result_path],
                                env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=job["max_s"] + 2 * LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker did not finish in time")
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8") as fh:
            raise BenchError(f"worker failed: {fh.read()[-600:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_child(cmd: list, out_path: str) -> dict:
    """One CLI process, timed until it exits, with its own resource usage."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], LIMIT_S)[0]
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return {"code": proc.returncode, "ms": dt * 1000.0, "out": text,
            "error": None if exited else "timeout", "rss_kb": usage.ru_maxrss}


def run_cold(argvs: list, work: str, job: dict) -> dict:
    """The job's cycles with one CLI process per call."""
    mode = job["mode"]
    out_path = os.path.join(work, f"out-{mode}.json")
    reports = []

    def run_op(argv):
        if mode == "off":
            cmd = [sys.executable, "-m", "qpencil"] + argv
        else:
            cmd = [sys.executable, WORKER, "once", mode, out_path + ".trace", "--"] + argv
        res = _run_child(cmd, out_path)
        if mode != "off" and res["error"] is None:
            with open(out_path + ".trace", encoding="utf-8") as fh:
                reports.append(json.load(fh))
        return res

    results, elapsed, ref_ms = run_cycles(argvs, run_op, job)
    return {
        "elapsed_s": elapsed,
        "ref_ms": ref_ms,
        "results": results,
        "peak_rss_kb": max(r.get("rss_kb", 0) for r in results),
        "trace": _merge_reports(reports) if reports else None,
    }


def _merge_reports(reports: list) -> dict:
    """Sum the recorders' reports of many processes."""
    def add(a, b):
        if isinstance(a, dict):
            return {key: add(a[key], b[key]) for key in a}
        return a + b

    out = reports[0]
    for rep in reports[1:]:
        out = add(out, rep)
    return out


def run(workload: str, argvs: list, work: str, mode: str, deadline: float,
        repeats: int = 1) -> dict:
    """Every cycle of `argvs` once; no operation starts after `deadline` (a
    time.perf_counter value).  In-process runs build the workload's fields
    first, as `setup_s` does."""
    out_dir = os.path.join(work, f"out-{mode}")
    os.makedirs(out_dir, exist_ok=True)
    job = {
        "repeats": repeats,
        "max_s": max(0.0, deadline - time.perf_counter()),
        "limit_s": LIMIT_S,
        "mode": mode,
        "out_dir": out_dir,
        "fields": docs.field_degrees(workload),
    }
    if workload == "cli-cold":
        return run_cold(argvs, work, job)
    return run_in_process(argvs, work, job)


def count_failures(cases: list, report: dict, checker: checks.Checker) -> list:
    """One reason per failed operation: timeout, crash, or a failed check."""
    failures = []
    for res in report["results"]:
        case = cases[res["variant"]][res["index"]]
        reason = res["error"]
        if not reason:
            with open(res["out_path"], encoding="utf-8", errors="replace") as fh:
                reason = checker.check(case, res["code"], fh.read())
        if reason:
            failures.append(f"{case.op} n={case.n} k={case.k}: {reason.splitlines()[-1]}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def tail(values: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, by the nearest-rank rule."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        raise BenchError(f"only {n} calls; the tail needs at least 11")
    p = 100 * (n - 10) // n
    return p, s[math.ceil(p * n / 100) - 1]


def end_to_end(report: dict, setup: list) -> tuple:
    """The end-to-end metrics, timings scaled to `reference.REF_MS` speed:
    those of the timed phase by the reference samples taken during it, the
    set-up times by those taken beside them."""
    lat = [ms for r in report["results"] for ms in r["calls_ms"]]
    p, tail_ms = tail(lat)
    setup_times = [t for times, _ in setup for t in times]
    setup_scale = reference.scale([ms for _, ref in setup for ms in ref])
    run_scale = reference.scale(report["ref_ms"])
    raw = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail_ms,
        "ops_per_s": 1000.0 * len(lat) / sum(lat),
    }
    metrics = {
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
        "op_ms_p50": (raw["op_ms_p50"] * run_scale, "ms"),
        "op_ms_tail": (raw["op_ms_tail"] * run_scale, "ms"),
        "ops_per_s": (raw["ops_per_s"] / run_scale, "1/s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "op_ms_p50": f"median of {len(lat)} calls, {REPEATS} passes over "
                     f"{len(report['results'])} operations",
        "ops_per_s": f"one client at those latencies; {len(lat)} calls in "
                     f"{report['elapsed_s']:.1f} s of wall time",
        "op_ms_tail": f"p{p} of {len(lat)} calls, "
                      f"{len(lat) - math.ceil(p * len(lat) / 100)} above it",
        "setup_s": f"median of {len(setup_times)} fresh interpreters, "
                   f"half before and half after the timed phase",
    }
    for name, value in raw.items():
        notes[name] += f"; {value:.6g} before scaling"
    notes["setup_s"] += f" (scale {setup_scale:.4f})"
    notes["op_ms_p50"] += f" (scale {run_scale:.4f})"
    return metrics, notes


def per_layer(workload: str, untraced: dict, spans: dict, counts: dict, floor: dict) -> tuple:
    """The per-layer metrics and any required span that never fired."""
    rep = spans["trace"]
    ops = len(spans["results"])
    metrics = {}
    for name, *_ in tracing.SPANS:
        metrics[name + ".calls"] = (rep["calls"][name], "count")
        metrics[name + ".total_s"] = (rep["total_s"][name], "s")
        metrics[name + ".self_s"] = (rep["self_s"][name], "s")
    for name, _ in tracing.COUNTED:
        metrics[name] = (counts["trace"]["counts"][name], "count")
    metrics["pencil.Pencil.radical_map.computed_per_op"] = (
        rep["radical_maps_computed"] / ops, "1/op")
    metrics["normalform.extract_normal_form.calls_per_op"] = (
        rep["calls"]["normalform.extract_normal_form"] / ops, "1/op")
    metrics["autos.pgl2_elements.yielded"] = (rep["pgl2_yielded"], "count")
    scanned = rep["pgl2_yielded"]
    metrics["autos.delta_stabilizer.kept_per_scanned"] = (
        rep["stabilizer_kept"] / scanned if scanned else 0.0, "ratio")
    for name, value in floor.items():
        metrics[name] = (value, "s")
    plain = len(untraced["results"]) / untraced["elapsed_s"]
    traced = ops / spans["elapsed_s"]
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (plain - traced, "1/s")

    missing = [name for name, _, _, where in tracing.SPANS
               if workload in where and rep["calls"][name] == 0]
    missing += [name for name, where in tracing.REQUIRED_COUNTS.items()
                if workload in where and counts["trace"]["counts"][name] == 0]
    return metrics, missing


def top_layers(spans: dict, count: int = 8) -> list:
    rep = spans["trace"]["self_s"]
    total = sum(rep.values()) or 1.0
    ranked = sorted(rep.items(), key=lambda kv: -kv[1])[:count]
    return [f"{name:44s} {sec:9.4f} s  {100 * sec / total:5.1f}% of traced self time"
            for name, sec in ranked]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qpencil", "cli.py")):
        print(f"error: no qpencil sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return _bench(args, work)
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def _bench(args, work: str) -> int:
    wl = args.workload
    deadline = time.perf_counter() + RUN_CAP_S
    print(f"workload {wl}  seed {args.seed}  python {platform.python_version()}  "
          f"{platform.platform()}  cpus {os.cpu_count()}")
    cycles = 1 if args.trace else max(1, math.ceil(CYCLES_PER_20S * args.seconds / 20))
    cases = docs.build_cases(wl, args.seed, cycles)
    argvs = write_documents(cases, work)
    checker = checks.Checker()

    if not args.trace:
        # set-up is timed on both sides of the timed phase, so one slow
        # spell of the machine does not decide its median
        before = setup_seconds(wl)
        reports = [run(wl, argvs, work, "off", deadline, repeats=REPEATS)]
        metrics, notes = end_to_end(reports[0], [before, setup_seconds(wl)])
    else:
        reports = [run(wl, argvs, work, mode, deadline) for mode in ("off", "spans", "counts")]
        metrics, missing = per_layer(wl, *reports, interpreter_floor())
        notes = {}
        print("top layers by self time (traced run, one cycle):")
        for line in top_layers(reports[1]):
            print("  " + line)
        if missing:
            print("error: spans that never fired on this workload: " + ", ".join(missing),
                  file=sys.stderr)
            return 1

    failures = [reason for rep in reports for reason in count_failures(cases, rep, checker)]
    attempted = sum(len(rep["results"]) for rep in reports)
    for reason in failures[:20]:
        print("FAILED " + reason)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:52s} {value:14.6f} {unit:6s} {note}")
    print(f"{'failed_frac':52s} {len(failures) / attempted:14.6f} {'':6s} "
          f"{len(failures)} of {attempted} operations")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
