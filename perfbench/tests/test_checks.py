#!/usr/bin/env python3
"""A perturbed output digest must fail the run.

Runs the `campaign` workload at the default seed for one unit against a
copy of its recorded digests with one digest changed, and checks that
the run exits non-zero and reports the failed cell in failed/failed_frac.

Usage: test_checks.py PERFBENCH_WORKLOAD_BINARY CAMPAIGN_DIGESTS
"""
import json
import os
import subprocess
import sys
import tempfile


def main():
    binary, digests = sys.argv[1], sys.argv[2]
    with open(digests) as f:
        lines = f.read().splitlines()
    key, digest = lines[1].split()
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    lines[1] = key + " " + flipped
    with tempfile.TemporaryDirectory() as tmp:
        perturbed = os.path.join(tmp, "digests.txt")
        with open(perturbed, "w") as f:
            f.write("\n".join(lines) + "\n")
        proc = subprocess.run(
            [binary, "--workload", "campaign", "--seed", "1", "--seconds",
             "0", "--trace", "0", "--digests", perturbed, "--workdir", tmp],
            capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failures = []
    if proc.returncode == 0:
        failures.append("run exited 0 despite a perturbed digest")
    if result["failed"] < 1 or result["failed_frac"] <= 0:
        failures.append("failed_frac not raised: %r" % result)
    if key not in proc.stdout:
        failures.append("the failing cell %s is not named" % key)
    for failure in failures:
        print("FAIL:", failure)
    if not failures:
        print("ok: perturbed digest of %s -> exit %d, failed %d of %d"
              % (key, proc.returncode, result["failed"], result["attempted"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
