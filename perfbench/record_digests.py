"""Record the sha256 of every certificate the workloads produce.

    python3 perfbench/record_digests.py

Writes perfbench/cert_digests.json, the reference that the traced run's
constructions.cert_changed counts against.  Run it only when certificate
bytes are meant to change; a perf change must leave them identical.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import workloads  # noqa: E402


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=str(HERE.parent)) as workdir:
        for name in workloads.WORKLOADS:
            for op in workloads.prepare(name, 0, workdir):
                if not op.cert:
                    continue
                workloads.cold_caches()
                try:
                    text = op.run()
                except Exception as exc:    # known defects have no certificate
                    print("no certificate: %s (%s)" % (op.key, type(exc).__name__))
                    continue
                digests[op.key] = hashlib.sha256(text.encode()).hexdigest()
    (HERE / "cert_digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("%d digests" % len(digests))


if __name__ == "__main__":
    main()
