"""Self-test of the benchmark itself (not of vallab).

    python3 perfbench/selftest.py

1. A short run of every workload, traced and untraced, reports exactly
   the metrics declared in BENCHMARK.json, each with its declared unit.
2. A deliberately corrupted certificate is counted as a failed operation.

The short runs use the cheap part of each operation list so the whole
test takes seconds; exit code 0 means both checks held.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import check  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _cheap(op):
    return op.expect_error or not any(
        s in op.key for s in ("p=5", "p=7", "p=11", "verify", "--p 5", "--p 7"))


def check_report_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END], \
        "BENCHMARK.json end_to_end disagrees with metrics.END_TO_END"
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER], \
        "BENCHMARK.json per_layer disagrees with metrics.PER_LAYER"
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    full = workloads.prepare
    workloads.prepare = lambda *a: [op for op in full(*a) if _cheap(op)]
    try:
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                args = argparse.Namespace(workload=name, seed=3, seconds=1,
                                          trace=trace)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    result = run.run_one(args)
                text = out.getvalue()
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == declared[trace], (name, trace, set(got) ^ set(declared[trace]))
                for metric, unit in declared[trace].items():
                    assert any(line.split()[:1] == [metric] and line.split()[2:3] == [unit]
                               for line in text.splitlines()), (name, metric)
                assert result["correct"] and result["failed"] == 0, (name, text)
    finally:
        workloads.prepare = full
    print("ok: every declared metric is reported with its unit")


def check_corrupted_certificate():
    op = workloads.build_op("as-valgp", 2, depth=1)
    good = op.run()
    assert check.check_certificate("as-valgp", 2, {"depth": 1}, good) == []
    cert = json.loads(good)
    cert["rows"][1]["e"] = 1            # degree 2 != 2^0 * 1 * 1
    bad = json.dumps(cert, indent=2, sort_keys=True) + "\n"
    op.run = lambda: bad
    book = run.Book()
    run.run_pass([op], book)
    assert book.attempted == 1 and len(book.failures) == 1, book.failures
    assert book.failures[0][1] == "wrong-output", book.failures
    print("ok: a corrupted certificate is counted as failed (%s)"
          % book.failures[0][2])


if __name__ == "__main__":
    check_report_names()
    check_corrupted_certificate()
