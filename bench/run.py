"""The tconvex benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload finite-checks --seed 1 --seconds 30 --trace 0

Runs from the repository root in a single process and a single thread,
as a closed loop with one client.  With ``--trace 0`` it measures the
end-to-end metrics; with ``--trace 1`` it runs every request twice, once
untraced and once under the tracer (alternating which goes first), and
reports the per-layer metrics of the traced executions.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run metadata, deterministic fields apart from wall-clock ones.  See
``bench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import tracer as tracing  # noqa: E402  (bench/ is on sys.path as the script dir)
import workloads  # noqa: E402

SETUP_REPEATS = 5
REQUEST_LIMIT_S = 20.0  # per-request wall limit; a stall becomes a failed operation
MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
HARD_STOP_S = 100.0  # no run measures longer than this, whatever the sample count
PLAN_ROUNDS = {"finite-checks": 32, "campaign": 160, "certify": 48}
TRACE_OUT = ".bench_out"


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler swallows it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def import_library():
    """Import tconvex afresh, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "tconvex" or n.startswith("tconvex.")]:
        del sys.modules[name]
    tc = importlib.import_module("tconvex")
    importlib.import_module("tconvex.cli")
    return tc


def setup(workload, seed, repeats=SETUP_REPEATS):
    """Import the library and build every input, several times; the last
    build is the one the run uses.  Returns (workload object, seconds list)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        tc = import_library()
        wl = workloads.WORKLOADS[workload](seed, PLAN_ROUNDS[workload])
        wl.bind(tc)
        times.append(time.perf_counter() - start)
    return wl, times


def input_digest(wl):
    blob = json.dumps(wl.inputs(), sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def timed_call(fn, req):
    """(seconds, output, error) of one request under the wall limit."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        try:
            out = fn(req)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        err = None
    except RequestTimeout:
        out, err = None, f"over the {REQUEST_LIMIT_S:.0f} s request limit"
    except Exception as exc:  # a failed operation, reported and counted
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, err


def checked(wl, req, out, err):
    if err is not None:
        return err
    try:
        return wl.check(req, out)
    except Exception as exc:  # a malformed output fails its check
        return f"check raised {type(exc).__name__}: {exc}"


def run_loop(wl, seconds, trace, min_samples=MIN_SAMPLES):
    """Execute whole rounds until the timed seconds are spent."""
    st = {"latencies": [], "timed": 0.0, "traced": 0.0, "ops": 0, "failed": 0,
          "rounds": 0, "requests": 0, "by_class": {}, "errors": []}
    tr = tracing.Tracer() if trace else None
    wall0 = time.perf_counter()
    plan = wl.plan
    while True:
        for req in plan[st["rounds"] % len(plan)]:
            if time.perf_counter() - wall0 >= HARD_STOP_S:
                return st, tr
            runs = [False, True] if trace else [False]
            if trace and st["requests"] % 2:
                runs.reverse()
            outcome = None
            for traced in runs:
                if traced:
                    tr.request = st["requests"]
                    tr.install()
                    try:
                        with tr.span("request:" + wl.label(req)):
                            dt, out, err = timed_call(wl.execute, req)
                    finally:
                        tr.uninstall()
                    st["traced"] += dt
                else:
                    dt, out, err = timed_call(wl.execute, req)
                    st["timed"] += dt
                    st["latencies"].append(dt)
                    st["by_class"].setdefault(wl.label(req), []).append(dt)
                reason = checked(wl, req, out, err)
                if outcome is None or reason is not None:
                    outcome = (out, reason)
            out, reason = outcome
            ops = wl.ops(req, None if reason else out)
            st["ops"] += ops
            st["requests"] += 1
            if reason is not None:
                st["failed"] += ops
                st["errors"].append(f"{wl.label(req)}: {reason}")
        st["rounds"] += 1
        spent = st["timed"] + st["traced"]
        if spent >= seconds and len(st["latencies"]) >= min_samples:
            break
        if time.perf_counter() - wall0 >= HARD_STOP_S:
            break
    return st, tr


def percentile_p90(latencies):
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def end_to_end(st, setup_times):
    lat = st["latencies"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (st["ops"] / st["timed"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile_p90(lat) * 1e3, "ms"),
        "success_ratio": (1 - st["failed"] / st["ops"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metrics are per operation of the traced pass
def per_layer(st, tr):
    ops = st["ops"]
    out = {}
    for name, value in tr.metrics().items():
        if name.endswith("_ratio"):
            out[name] = (value, "ratio")
        elif name.endswith((".s", ".self_s")):
            out[name] = (value / ops, "s/op")
        else:
            out[name] = (value / ops, "count/op")
    out["trace.overhead_ratio"] = (st["traced"] / st["timed"], "ratio")
    out["failed_ratio"] = (st["failed"] / ops, "ratio")
    return out


def git_sha():
    """The commit of the checkout, read without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_spans(tr, workload, seed, meta):
    os.makedirs(TRACE_OUT, exist_ok=True)
    path = os.path.join(TRACE_OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for sid, parent, request, name, start, end in tr.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                 "name": name, "start": start, "end": end}) + "\n")
    return path


def measure(workload, seed, seconds, trace, min_samples=MIN_SAMPLES):
    """One run: (metadata, result object) as printed by ``main``."""
    signal.signal(signal.SIGALRM, _on_alarm)
    wl, setup_times = setup(workload, seed)
    # The inputs and the imported modules live for the whole run; keep them
    # out of the collector's scans so their number does not time the library.
    gc.collect()
    gc.freeze()
    st, tr = run_loop(wl, seconds, trace, min_samples if not trace else 0)
    lat = sorted(st["latencies"])
    p90 = percentile_p90(lat)
    meta = {
        "run": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
        },
        "deterministic": {
            "input_digest": input_digest(wl),
            "rounds_planned": len(wl.plan),
            "requests_per_round": len(wl.plan[0]),
            "rounds_run": st["rounds"],
            "requests": st["requests"],
            "attempted": st["ops"],
            "failed": st["failed"],
            "latency_samples": len(lat),
            "p90_samples_beyond": sum(1 for v in lat if v > p90),
        },
        "wall_clock": {
            "setup_s": setup_times,
            "timed_s": st["timed"],
            "traced_s": st["traced"],
            "class_median_ms": {k: statistics.median(v) * 1e3
                                for k, v in sorted(st["by_class"].items())},
        },
        "errors": st["errors"][:20],
    }
    if trace:
        meta["spans_file"] = write_spans(tr, workload, seed, meta["run"])
        metrics = per_layer(st, tr)
    else:
        metrics = end_to_end(st, setup_times)
    result = {
        "correct": st["failed"] == 0,
        "attempted": st["ops"],
        "failed": st["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return meta, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tconvex" / "__init__.py").is_file():
        print(f"error: no tconvex sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    meta, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
