"""Benchmark of griess, the exact-arithmetic verifier.

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table
    python3 perfbench/run.py --workload rank24_chain --smoke --seconds 1

Run from the root of a checkout: griess is imported from ./src, with gmpy2
hidden so that the stdlib Fraction backend is measured, in this one
single-threaded process.  Each run repeats passes over the workload's ops
while another pass still fits in --seconds (at least one), and reports
medians over the passes.  With --trace 0 it prints the end-to-end metrics
of BENCHMARK.json, with pass and op times at a reference host pace (see
HostPace); with --trace 1 it wraps each layer's public entry points (see
tracing.py) and prints the per-layer metrics.  The last line of stdout is
the result; the line before it records the environment and the raw times.
--out writes both, with the per-op times and any spans, for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SETUP_REPEATS = 15
PROBE_LOOPS = 15000
PROBE_PERIOD_S = 0.02
PROBE_NOMINAL_S = 0.001  # the probe on a quiet 2.1 GHz Xeon core

# A fresh interpreter importing griess and loading its two data tables.
SETUP_CODE = ("import sys; sys.modules['gmpy2'] = None; "
              "sys.path.insert(0, sys.argv[1]); import griess; "
              "from griess.niemeier import catalog, table2_rows; "
              "catalog(); table2_rows()")


def load_griess():
    """Import griess from the checkout with the Fraction backend."""
    sys.modules["gmpy2"] = None  # makes `import gmpy2` raise ImportError
    sys.path.insert(0, str(SRC))
    import griess.ratio
    return griess.ratio.Q.__module__


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class HostPace:
    """How fast the host runs Python while the benchmark measures.

    On a shared host the same pure-Python work can take twice as long
    when neighbours are busy, in phases that last minutes, so raw times of
    runs a few minutes apart differ by a third.  A fixed integer loop is
    timed every PROBE_PERIOD_S (from SIGALRM, so between bytecodes of the
    code being measured), and an interval is reported at the reference
    pace: its time less the probes inside it, times PROBE_NOMINAL_S over
    the mean probe time inside it.  The loop allocates nothing the garbage
    collector tracks, so it does not move the measured code's collections.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, duration)
        self._busy = False
        self.probe()

    def probe(self, *_):
        if self._busy:  # a signal arriving during a probe
            return
        self._busy = True
        t0 = perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x = (x * 7 + i) % 1009
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))
        self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def mean_probe(self, t0=float("-inf"), t1=float("inf")) -> float:
        inside = [d for end, d in self.samples if t0 < end <= t1]
        return statistics.fmean(inside or [d for _, d in self.samples])

    def normalize(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would take at the reference pace."""
        probed = sum(d for end, d in self.samples if t0 < end <= t1)
        return (t1 - t0 - probed) * PROBE_NOMINAL_S / self.mean_probe(t0, t1)


def measure_setup() -> float:
    """Median wall time of fresh interpreters doing the set-up; the first,
    which may still write bytecode caches, is not counted."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median_low(times[1:])


def run_pass(ops, tracer, pace) -> dict:
    """One pass over the ops; times are at the reference pace when a
    HostPace is sampling, else raw."""
    gc.collect()
    bounds, failures = [], []
    t0 = perf_counter()
    for i, (label, op) in enumerate(ops):
        if tracer:
            tracer.op = i
        start = perf_counter()
        try:
            ok, wrong = op(), False
        except Exception:  # every op failure is counted, never fatal
            ok, wrong = False, True
            print(f"FAIL {label}: {traceback.format_exc()}", file=sys.stderr)
        bounds.append((start, perf_counter()))
        if not ok:
            failures.append({"op": label, "wrong": wrong})
            if not wrong:
                print(f"FAIL {label}: known failure, consistent with the "
                      "closed forms", file=sys.stderr)
    t1 = perf_counter()
    timed = pace.normalize if pace else (lambda a, b: b - a)
    return {"wall": timed(t0, t1), "op_times": [timed(a, b) for a, b in bounds],
            "raw_wall": t1 - t0, "raw_op_max": max(b - a for a, b in bounds),
            "failures": failures}


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> tuple[dict, dict]:
    """One run: returns (result as printed, full record)."""
    backend = load_griess()
    import workloads
    tracer = pace = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        setup_s = measure_setup()
        pace = HostPace()
    passes, layers, spans = [], [], []
    start = perf_counter()
    try:
        with pace or contextlib.nullcontext():
            while True:
                ops = workloads.WORKLOADS[workload](seed, smoke)
                if tracer:
                    tracer.reset()
                passes.append(run_pass(ops, tracer, pace))
                if tracer:
                    m = tracer.metrics()
                    m["fail_ratio"] = len(passes[-1]["failures"]) / len(ops)
                    m["trace.wall_s"] = passes[-1]["wall"]
                    layers.append(m)
                    spans = tracer.spans
                longest = max(p["raw_wall"] for p in passes)
                if perf_counter() - start + longest > seconds:
                    break
    finally:
        if tracer:
            tracer.uninstall()

    def median(key):
        return statistics.median_low(p[key] for p in passes)

    attempted = sum(len(p["op_times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    raw = None
    if trace:
        values = {k: statistics.median_low(m[k] for m in layers)
                  for k in layers[0]}
        kind = "per_layer"
    else:
        for p in passes:
            p["op_max"] = max(p["op_times"])
        values = {
            "wall_s": median("wall"),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_max_s": median("op_max"),
            "pass_ratio": 1 - len(failures) / attempted,
        }
        raw = {"wall_s": median("raw_wall"), "op_max_s": median("raw_op_max"),
               "probe_s": pace.mean_probe()}
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(units):
        raise SystemExit(f"benchmark error: emitted {sorted(values)}, "
                         f"BENCHMARK.json names {sorted(units)}")
    result = {"correct": not any(f["wrong"] for f in failures),
              "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    env = {"python": platform.python_version(), "backend": backend,
           "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
           "seed": seed, "workload": workload, "trace": int(trace),
           "smoke": smoke, "passes": len(passes)}
    record = {"env": env, "raw": raw, "result": result,
              "ops": [{"op": label, "seconds": t} for (label, _), t
                      in zip(ops, passes[-1]["op_times"])],
              "failures": failures,
              "spans": spans}
    return result, record


def run_all(args) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    rows, code = [], 0
    for name in NAMES:
        out = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            out[trace] = json.loads(lines[-1])
            if not trace:
                raw = json.loads(lines[-2])["raw"]
        code |= not out[0]["correct"]
        for trace in (0, 1):
            rows += [(name, k, v["value"], v["unit"])
                     for k, v in out[trace]["metrics"].items()]
        rows += [(name, f"raw.{k}", v, "s") for k, v in raw.items()]
        rows.append((name, "trace_overhead_s",
                     out[1]["metrics"]["trace.wall_s"]["value"]
                     - raw["wall_s"], "s"))
    for name, metric, value, unit in rows:
        print(f"{name:15s} {metric:34s} {value:14.6g} {unit}")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--out", type=Path, help="write the full record here")
    args = p.parse_args(argv)
    if not (SRC / "griess" / "__init__.py").is_file():
        print(f"error: griess sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    if args.out:
        args.out.write_text(json.dumps(record))
    print(json.dumps({"env": record["env"], "raw": record["raw"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
