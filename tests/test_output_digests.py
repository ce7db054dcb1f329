"""scripts/output_digests.py run on the four benchmark seeds in one
process, seed 11 twice: its first pass fills the monomial-pair memo and the
other caches that outlive a task, its last pass reads them, and both must
print the same bytes.  Every digest must also equal the one recorded below,
so any change to the output of a structural command shows here.
`dynamics` is left out: its floats depend on the platform's numerics."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: per seed, the digests of every task's exit code, stdout and stderr;
#: seed 11 alone does not reach every decision rule
RECORDED = {
    3: {"glossary":
        "1a22eb8767a11ca85149fdc75114859ea33908c18876b477c178ecd17f2dff5c",
        "chains":
        "27c99c4bc154feaeee11b4f30c4a8fac7b27efa013740c4bd6f6b8d8ef67ee77",
        "verdicts":
        "b2ead079db9feec67541d9aa65f44de3b845da2c8e377442f6e4a2d11e117252"},
    11: {"glossary":
         "ed604047018da772843253b45c0d6bba5570a2c9ad8d398f0b932413ef71d635",
         "chains":
         "96e767e872acd7f940ee4dde7120b8a227b0f2b41ad9d8b11d481c5409b22751",
         "verdicts":
         "388bb3207fe2bebd4adcd69555488bbb01c7bc1c853465971375d150d43b6962"},
    29: {"glossary":
         "26743d47ab84c757fe8c5ecd38bf1850a4a4ef2fdbbe9ca1a340ac12a563cf6b",
         "chains":
         "55c2b41ebb43199cd36ddf921fffae2837c429c9cce93a9e72921ea419744639",
         "verdicts":
         "58daea21dd01c761a2bb8f52ab3484aefd3bcb4eae7ac899c0802fda3e701b0f"},
    404: {"glossary":
          "ee0af68cfbd988627f7090714ef16f236264c758dc3a9ea339e2467cd0916477",
          "chains":
          "721e1c1a771586a412e05cc6ed81300fb32c4d56b5b1766b6a4ce6195dfcea0a",
          "verdicts":
          "41c3c3c279b0939633830d9becea371ce3e5600fa0f96fa9e3f39dd340b9aad1"},
}
WORKLOADS = sorted(RECORDED[11])


def test_a_cold_and_a_warm_pass_give_the_same_digest():
    # seed 11 runs first and last: cold, then warm after the other seeds
    seeds = [11, *(s for s in RECORDED if s != 11), 11]
    argv = [sys.executable, "scripts/output_digests.py"]
    for s in seeds:
        argv += ["--seed", str(s)]
    for w in WORKLOADS:
        argv += ["--workload", w]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        workload, _, seed, _, _, hexdigest = line.split()
        digests.setdefault((workload, int(seed)), []).append(hexdigest)
    assert sorted(digests) == sorted((w, s) for w in WORKLOADS
                                     for s in RECORDED)
    for (workload, seed), found in digests.items():
        assert found == [RECORDED[seed][workload]] * (1 + (seed == 11)), \
            (workload, seed)
