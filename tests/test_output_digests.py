"""scripts/output_digests.py run twice on the same tasks in one process:
the first pass fills the monomial-pair memo and the other caches that
outlive a task, the second reads them, and both must print the same bytes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("glossary", "chains", "verdicts")


def test_a_cold_and_a_warm_pass_give_the_same_digest():
    argv = [sys.executable, "scripts/output_digests.py", "--seed", "11",
            "--seed", "11"]
    for w in WORKLOADS:
        argv += ["--workload", w]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        workload, _, seed, _, _, hexdigest = line.split()
        assert seed == "11"
        digests.setdefault(workload, []).append(hexdigest)
    assert sorted(digests) == sorted(WORKLOADS)
    for workload, (cold, warm) in digests.items():
        assert cold == warm, workload
