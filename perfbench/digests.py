"""The stored output digests of every workload at the default seed.

    python3 perfbench/digests.py

runs every workload over its whole pool at DIGEST_SEED, checks the outputs
and rewrites `perfbench/digests.json` with the digest of each workload. A
run of `run.py` at that seed says whether it matches.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DIGEST_SEED = 0


def stored_digests() -> dict[str, str]:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    except (OSError, KeyError, ValueError):
        return {}


def compute_digests(seed: int) -> dict[str, str]:
    import run
    from workloads import WORKLOADS

    found = {}
    for name, workload in WORKLOADS.items():
        workdir = run.WORK_DIR / f"digests-{name}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = run.run_workload(workload, seed, 0, False, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.failed:
            raise SystemExit(f"error: {name} gives wrong outputs: {result.problems}")
        found[name] = result.digest
    return found


def main() -> int:
    import run

    run.bootstrap()
    digests = {"seed": DIGEST_SEED, "digests": compute_digests(DIGEST_SEED)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
