"""Record the SHA-256 of the coverage CSV each coverage workload writes, per seed.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes ``perfbench/digests.json`` for seeds 0..RECORDED_SEEDS-1.  The
CSV is the contract of record: a change to the program must reproduce these
bytes.  Re-record only when a workload's definition changes, never to make a
changed program pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from gsentropy import cli

from workloads import DIGESTS_PATH, RECORDED_SEEDS, WORKLOADS

COVERAGE_WORKLOADS = ("coverage_small_n", "coverage_large_n")


def main() -> None:
    digests = {}
    out_dir = DIGESTS_PATH.parent / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp_name:
        tmp = Path(tmp_name)
        for workload in COVERAGE_WORKLOADS:
            digests[workload] = {}
            for seed in range(RECORDED_SEEDS):
                (call,) = WORKLOADS[workload](seed, tmp).calls
                with redirect_stdout(StringIO()):
                    if cli.main(call["argv"]) != 0:
                        sys.exit(f"{workload} seed {seed}: coverage run failed")
                text = Path(call["out"]).read_text(encoding="utf-8")
                digests[workload][str(seed)] = hashlib.sha256(text.encode()).hexdigest()
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
