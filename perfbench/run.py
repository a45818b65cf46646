"""Benchmark for pgc: time to an exact answer on two fixed workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. Set-up writes the workload's tables as
`.lie` files (see tables.py); every table then goes through `pgc.cli.run`
in-process, the same path as `pgc vectors` / `pgc verify`, and each answer
is checked against the pinned reference.json. A pass solves the whole
table list once; passes repeat until the next one would end after
--seconds. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s       median time of one pass, answers checked
  points_per_s the workload's logical point count over wall_s
  peak_rss_mb  ru_maxrss of this process, which ran only this workload
  setup_s      median over SETUP_REPEATS fresh processes of importing pgc
               and building, validating and writing the tables
  pass_ratio   tables solved with exit code 0 and the reference answer,
               over tables attempted (1 - failed/attempted)

--trace 1 alternates untraced and traced passes and reports per-layer
metrics from layers.Tracer, plus `pgc vectors --threads 1` over
`--threads 2` time on g_alpha(2 mod 11).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tables

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
THREADS_TABLE = ("g_alpha(2 mod 11)/GF(11)", "boston_isaacs", (2, 11))

# BLAS thread pools stay at one thread; the census kernels use integer
# numpy, which never calls BLAS, and `--threads` uses Python threads.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

COMMANDS = {
    "matrix": ["vectors", "{}", "--json"],
    "dual": ["vectors", "{}", "--json", "--method", "dual"],
    "verify": ["verify", "{}"],
}


def setup(workload, seed, work):
    """(median set-up seconds, manifest, table directory)."""
    times, first = [], None
    for n in range(SETUP_REPEATS):
        out = os.path.join(work, f"setup{n}")
        os.makedirs(out)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "tables.py"), "--workload",
             workload, "--seed", str(seed), "--out", out],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE])),
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        files = {name: _read(os.path.join(out, name)) for name in os.listdir(out)}
        if first is None:
            first = (out, files)
        elif files != first[1]:
            raise RuntimeError("set-up wrote different tables for one seed")
    out = first[0]
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return statistics.median(times), manifest, out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _vec(d):
    return {str(i): n for i, n in d.items()} if d is not None else None


def check(command, rc, out, ref):
    """(answers equal the reference, exit code 0). `verify` prints only
    k per route, so for it every route's k is checked."""
    if command == "verify":
        ks = [int(line.rsplit("=", 1)[1]) for line in out.splitlines()
              if line.startswith("path ") and " k = " in line]
        right = bool(ks) and all(k == ref["k"] for k in ks)
        return right, rc == 0 and "paths agree" in out
    if rc != 0:
        return False, False
    got = json.loads(out.splitlines()[-1])
    right = (_vec(got["class_vector"]) == ref["cc"]
             and _vec(got["char_vector"]) == ref["ch"] and got["k"] == ref["k"])
    return right, True


class Runner:
    def __init__(self, cli, reference):
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = set()
        self.failures = {}

    def solve(self, key, command, path, extra=()):
        argv = [a.format(path) for a in COMMANDS[command]] + list(extra)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(argv)
            right, ok = check(command, rc, out.getvalue(), self.reference[key])
        except Exception as e:  # a crash is a failed table, not a dead run
            rc, right, ok = repr(e), False, False
        if not right:
            self.wrong.add(key)
        if not (right and ok):
            self.failed += 1
            lines = (out.getvalue() + err.getvalue()).strip().splitlines()
            self.failures[key] = f"rc={rc} {lines[-1] if lines else ''}"

    def one_pass(self, manifest, tables_dir):
        t0 = time.perf_counter()
        for entry in manifest:
            self.solve(entry["key"], entry["command"],
                       os.path.join(tables_dir, entry["file"]))
        return time.perf_counter() - t0


def threads_speedup(runner, work, seed):
    """`pgc vectors --threads 1` time over `--threads 2` time, one each,
    in an order that alternates with the seed."""
    from pgc.cli import emit_lie

    key, constructor, args = THREADS_TABLE
    path = os.path.join(work, "threads.lie")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_lie(tables.build(constructor, args)))
    secs = {}
    for n in ((1, 2) if seed % 2 else (2, 1)):
        t0 = time.perf_counter()
        runner.solve(key, "matrix", path, ["--threads", str(n)])
        secs[n] = time.perf_counter() - t0
    return secs[1] / secs[2]


def layer_metrics(tracer, traced, untraced, speedup):
    """Per-pass medians of each span's seconds; counts, which must repeat
    exactly across passes."""
    m = {}
    for span in tracer.spans:
        m[f"{span}_s"] = (statistics.median(p[0].get(span, 0.0) for p in traced), "s")
    counts = traced[0][1]
    if any(p[1] != counts for p in traced):
        raise RuntimeError(f"layer counts differ between passes: {traced}")
    for side in "AB":
        pts = counts.get(f"enumctr.census_{side}.pts", 0)
        secs = m[f"enumctr.census_{side}_s"][0]
        m[f"enumctr.census_{side}_pts"] = (pts, "count")
        m[f"enumctr.census_{side}_pts_per_s"] = (pts / secs if secs else 0.0, "1/s")
    for name in ("reps", "chars", "pairs"):
        m[f"enumctr.dual_{name}"] = (counts.get(f"enumctr.dual.{name}", 0), "count")
    m["lazard.elements"] = (counts.get("lazard.conjugacy.elements", 0)
                            + counts.get("lazard.coadjoint.elements", 0), "count")
    m["cli.threads2_speedup"] = (speedup, "ratio")
    m["trace_overhead_ratio"] = (
        statistics.median(p[2] for p in traced) / statistics.median(untraced) - 1,
        "ratio")
    return m


def measure(args, work):
    setup_s, manifest, tables_dir = setup(args.workload, args.seed, work)
    sys.path.insert(0, SRC)
    import numpy
    import pgc.cli
    from layers import Tracer

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    runner = Runner(pgc.cli, reference)
    start = time.perf_counter()
    deadline = start + args.seconds
    untraced = []
    if not args.trace:
        while True:
            untraced.append(runner.one_pass(manifest, tables_dir))
            if time.perf_counter() + untraced[-1] > deadline:
                break
        wall = statistics.median(untraced)
        points = sum(reference[e["key"]]["points"][e["command"]] for e in manifest)
        metrics = {
            "wall_s": (wall, "s"),
            "points_per_s": (points / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
            "pass_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        }
    else:
        speedup = threads_speedup(runner, work, args.seed)
        tracer = Tracer()
        traced = []
        while True:
            t0 = time.perf_counter()
            untraced.append(runner.one_pass(manifest, tables_dir))
            tracer.reset()
            tracer.install()
            try:
                secs = runner.one_pass(manifest, tables_dir)
            finally:
                tracer.remove()
            traced.append((dict(tracer.seconds), dict(tracer.counts), secs))
            pair = time.perf_counter() - t0
            if time.perf_counter() + pair > deadline:
                break
        metrics = layer_metrics(tracer, traced, untraced, speedup)
    info = {"workload": args.workload, "seed": args.seed, "passes": untraced,
            "failures": runner.failures, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "src_pgc_lines": _src_lines()}
    print(json.dumps(info))
    return {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _src_lines():
    pkg = os.path.join(SRC, "pgc")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(tables.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pgc", "__init__.py")):
        print(f"perfbench: no pgc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
