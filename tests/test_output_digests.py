"""scripts/output_digests.py run twice on the same tasks in one process:
the first pass fills the monomial-pair memo and the other caches that
outlive a task, the second reads them, and both must print the same bytes.
Both must also equal the digests recorded below, so any change to the
output of a structural command shows here.  `dynamics` is left out: its
floats depend on the platform's numerics."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: seed-11 digests of every task's exit code, stdout and stderr
RECORDED = {
    "glossary":
        "ed604047018da772843253b45c0d6bba5570a2c9ad8d398f0b932413ef71d635",
    "chains":
        "96e767e872acd7f940ee4dde7120b8a227b0f2b41ad9d8b11d481c5409b22751",
    "verdicts":
        "388bb3207fe2bebd4adcd69555488bbb01c7bc1c853465971375d150d43b6962",
}


def test_a_cold_and_a_warm_pass_give_the_same_digest():
    argv = [sys.executable, "scripts/output_digests.py", "--seed", "11",
            "--seed", "11"]
    for w in RECORDED:
        argv += ["--workload", w]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        workload, _, seed, _, _, hexdigest = line.split()
        assert seed == "11"
        digests.setdefault(workload, []).append(hexdigest)
    assert sorted(digests) == sorted(RECORDED)
    for workload, (cold, warm) in digests.items():
        assert cold == warm, workload
        assert cold == RECORDED[workload], workload
