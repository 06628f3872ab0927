"""vallab benchmark: closed-loop passes over seeded operation lists.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is eqchar-towers, padic-towers, cli-mix, or all (each workload in
its own process, one after another).  One client in one process, no
threads: each operation starts when the previous one has ended.  A run
repeats whole passes over the operation list while another pass still
fits in S seconds (at least one pass).  Every output is checked by
check.py; the last stdout line is the JSON result.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the
per-layer ones from one untraced and one traced pass; it ignores S.  See
README.md for the metric map.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans
import workloads
from speed import REF_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# a cheap operation runs back to back until it has used REPEAT_S in a
# pass (at most MAX_REPEATS times), so its latency rests on more samples
REPEAT_S = 0.05
MAX_REPEATS = 10


class Book:
    """Per-operation samples, outputs and failures across passes."""

    def __init__(self):
        self.samples = {}           # key -> [(start, seconds)]
        self.digest = {}
        self.violations = {}
        self.failures = []          # (key, error class, message)
        self.known = {}             # key -> (error class, message)
        self.attempted = 0

    def record(self, op, start, seconds, text, exc):
        self.attempted += 1
        self.samples.setdefault(op.key, []).append((start, seconds))
        if exc is not None:
            cls = workloads.error_class(exc)
            if cls == op.expect_error:
                self.known[op.key] = (cls, str(exc))
            else:
                self.failures.append((op.key, cls, str(exc)))
            return
        digest = hashlib.sha256(text.encode()).hexdigest()
        if op.key not in self.digest:
            self.digest[op.key] = digest
            self.violations[op.key] = op.verify(text)
        if digest != self.digest[op.key]:
            self.failures.append((op.key, "bytes-differ",
                                  "output differs from the first pass"))
        elif self.violations[op.key]:
            self.failures.append((op.key, "wrong-output",
                                  "; ".join(self.violations[op.key][:3])))

    def latency(self, ops, speed=None):
        """Per operation: a low quantile of its samples, scaled to the
        reference speed when `speed` is given.

        The 25th percentile (the fastest sample when there are fewer than
        four) ignores contention spikes upward and scaling slips downward.
        """
        out = {}
        for op in ops:
            xs = [dt * speed.factor(t0, t0 + dt) if speed else dt
                  for t0, dt in self.samples[op.key]]
            out[op.key] = metrics.low_quantile(xs)
        return out


def run_pass(ops, book, tracer=None, speed=None, repeat_s=0.0):
    """Run every operation in order; returns the pass wall time."""
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if speed is not None:
            speed.sample()
        used = 0.0
        for _ in range(MAX_REPEATS if repeat_s else 1):
            workloads.cold_caches()
            span = tracer.open("op", i) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                text, exc = op.run(), None
            except Exception as err:    # an operation's failure is data
                text, exc = None, err
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            book.record(op, t0, dt, text, exc)
            used += dt
            if used >= repeat_s:
                break
    if speed is not None:
        speed.sample(force=True)
    return time.perf_counter() - t_pass


def measure_setup(workload, seed, workdir, speed):
    """Medians over fresh interpreters that import vallab and prepare
    inputs: (scaled to the reference speed, unscaled)."""
    times, scaled = [], []
    for i in range(SETUP_REPEATS):
        d = workdir / ("setup%d" % i)
        d.mkdir()
        code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
                "workloads.prepare(%r, %d, %r)"
                % (str(HERE), str(ROOT / "src"), workload, seed, str(d)))
        speed.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL, cwd=str(ROOT))
        dt = time.perf_counter() - t0
        speed.sample(force=True)
        times.append(dt)
        scaled.append(dt * speed.factor(t0, t0 + dt))
    return statistics.median(scaled), statistics.median(times)


def cert_changed(ops, book):
    """Certificates whose bytes differ from the digests recorded at seed."""
    recorded = json.loads((HERE / "cert_digests.json").read_text())
    return sum(1 for op in ops if op.cert and op.key in recorded
               and book.digest.get(op.key) != recorded[op.key])


def measure(args, ops, probes, book, workdir):
    """End-to-end metrics, tracing off."""
    speed = Speed()
    walls = []
    t_start = time.perf_counter()
    while True:
        walls.append(run_pass(ops, book, speed=speed, repeat_s=REPEAT_S))
        if time.perf_counter() - t_start + statistics.median(walls) > args.seconds:
            break
    run_pass(probes, book)
    setup, raw_setup = measure_setup(args.workload, args.seed, workdir, speed)
    lat, raw = book.latency(ops, speed), book.latency(ops)
    tail, pct, n = metrics.tail(lat.values())
    values = {
        "setup_s": setup,
        "wall_s": sum(lat.values()),
        "op_p50_ms": 1e3 * statistics.median(lat.values()),
        "op_tail_ms": 1e3 * tail,
        "ok_ratio": (book.attempted - len(book.failures)) / book.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        "%d operations x %d passes, %d known-defect probes"
        % (len(ops), len(walls), len(probes)),
        "op_tail_ms is p%.1f of %d per-operation latencies (the 11th "
        "largest, 10 beyond it)" % (pct, n),
        "operation times scaled to the reference speed (speed.py): kernel "
        "best %.3f ms against %.3f ms; unscaled setup_s %.4f, wall_s %.4f "
        "s, op_p50_ms %.4f, op_tail_ms %.4f, median pass %.4f s"
        % (1e3 * min(speed.best), 1e3 * REF_S, raw_setup, sum(raw.values()),
           1e3 * statistics.median(raw.values()),
           1e3 * metrics.tail(raw.values())[0], statistics.median(walls)),
    ]
    return values, notes


def trace_run(args, ops, probes, book):
    """Per-layer metrics: one untraced pass, then one traced pass."""
    untraced = run_pass(ops, book)
    lat = book.latency(ops)
    tracer = spans.Tracer(metrics.always_span)
    tracer.install()
    try:
        traced = run_pass(ops, book, tracer)
        run_pass(probes, book, tracer)
    finally:
        tracer.uninstall()
    values = metrics.layer_metrics(tracer)
    values.update(metrics.depth_growth(ops, lat))
    values.update(metrics.src_lines(ROOT))
    values["constructions.cert_changed"] = cert_changed(ops + probes, book)
    values["errors.known_defects"] = len(book.known)
    values["trace.overhead_ratio"] = traced / untraced
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(str(out / ("spans-%s" % args.workload)))
    notes = ["%d spans in the traced pass (untraced %.3f s, traced %.3f s); "
             "spans written to .perfbench_out/spans-%s.{json,bin}"
             % (len(tracer), untraced, traced, args.workload)]
    return values, notes


def run_one(args):
    workdir = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed,
                                                        os.getpid()))
    workdir.mkdir(parents=True)
    try:
        all_ops = workloads.prepare(args.workload, args.seed, workdir)
        ops = [op for op in all_ops if op.expect_error is None]
        probes = [op for op in all_ops if op.expect_error is not None]
        book = Book()
        if args.trace:
            values, notes = trace_run(args, ops, probes, book)
            declared = [(n, u, moves) for n, u, _, moves in metrics.PER_LAYER]
        else:
            values, notes = measure(args, ops, probes, book, workdir)
            declared = [(n, u, "") for n, u, _, _ in metrics.END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in notes:
        print("  " + line)
    for name, unit, moves in declared:
        print("  %-36s %14.6g %-6s %s" % (name, values[name], unit, moves))
    print("  failed operations: %d of %d attempted" % (len(book.failures),
                                                       book.attempted))
    for key, cls, msg in book.failures:
        print("    FAIL %s: %s: %s" % (key, cls, msg))
    for key, (cls, msg) in sorted(book.known.items()):
        print("    known defect %s: %s: %s" % (key, cls, msg))
    return {
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in declared},
    }


def run_all(args):
    """Each workload in a fresh process; metric names get a workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write("perfbench: workload %s exited with %d\n"
                             % (name, proc.returncode))
            return proc.returncode
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"]["%s.%s" % (name, metric)] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eqchar-towers", "padic-towers", "cli-mix", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "vallab" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no vallab sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
