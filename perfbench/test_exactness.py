#!/usr/bin/env python3
"""Self-test of the benchmark's exactness checks.

Run from the repository root:

    python3 perfbench/test_exactness.py

For every workload, a short run with --corrupt-expected (one expected result
perturbed) must fail its exactness check: exit status 1, "correct": false
and at least one failed operation. The same run without the flag must show
no exactness failure. Runs are short, so percentiles may lack samples; the
test looks only at the exactness messages.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))

# The line each workload prints when a checked answer differs.
MISMATCH = {
    "enum-grid": "failure: cell k=",
    "max-grid": "failure: cell k=",
    "serve-live": "differs from direct answer",
}


def run(workload, corrupt):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "3", "--trace", "0"]
    if corrupt:
        command.append("--corrupt-expected")
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)


class ExactnessCheckTest(unittest.TestCase):
    def test_wrong_expected_result_fails_the_run(self):
        for workload, marker in MISMATCH.items():
            with self.subTest(workload=workload):
                proc = run(workload, corrupt=True)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn(marker, proc.stdout)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_true_expected_result_passes_the_check(self):
        for workload, marker in MISMATCH.items():
            with self.subTest(workload=workload):
                proc = run(workload, corrupt=False)
                self.assertNotIn(marker, proc.stdout)


if __name__ == "__main__":
    unittest.main()
