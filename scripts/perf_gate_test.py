#!/usr/bin/env python3
"""Tests of perf_gate.py's scoring on synthetic bench_engine rounds.

    python3 scripts/perf_gate_test.py
"""

import contextlib
import io
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ under scripts/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

# One round's items_per_second; the sampled row runs 1.8x the detailed one.
ROWS = {"BM_SystemRun/0": 1.0e6, "BM_SystemRunSampled/0": 1.8e6,
        "BM_OccupancyBook": 7.0e7, "BM_NocTraverse": 3.7e6}


def rounds(rows, tag="disabled"):
    """ROUNDS google-benchmark documents; round i runs at host speed 1 + i/50 so
    every round differs and only per-round ratios stay put."""
    context = {} if tag is None else {"hm_observability": tag}
    return [{"context": context,
             "benchmarks": [{"name": k, "run_type": "iteration",
                             "items_per_second": v * (1 + i / 50)} for k, v in rows.items()]}
            for i in range(perf_gate.ROUNDS)]


def score(parent_rows, change_rows, change_tag="disabled"):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = perf_gate.gate(rounds(parent_rows), rounds(change_rows, change_tag))
    return code, out.getvalue()


class GateTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        self.assertEqual(score(ROWS, ROWS)[0], 0)

    def test_row_at_seven_tenths_fails(self):
        code, out = score(ROWS, dict(ROWS, BM_NocTraverse=ROWS["BM_NocTraverse"] * 0.7))
        self.assertEqual(code, 1)
        self.assertIn("BM_NocTraverse", [line.split()[0] for line in out.splitlines()
                                         if line.endswith("<< REGRESSION")])

    def test_sampled_ratio_below_bound_fails(self):
        slow = dict(ROWS, **{"BM_SystemRunSampled/0": 1.4e6})
        self.assertEqual(score(slow, slow)[0], 1)

    def test_missing_observability_tag_exits_2(self):
        for tag in (None, "enabled"):
            with self.assertRaises(SystemExit) as cm, \
                    contextlib.redirect_stderr(io.StringIO()):
                score(ROWS, ROWS, change_tag=tag)
            self.assertEqual(cm.exception.code, 2)

    def test_one_sided_rows_are_not_scored(self):
        code, out = score(dict(ROWS, BM_Gone=5.0e6), dict(ROWS, BM_New=1.0))
        self.assertEqual(code, 0)
        shown = {line.split()[0]: line.split()[-1] for line in out.splitlines()
                 if line.startswith("  BM_")}
        self.assertEqual((shown["BM_Gone"], shown["BM_New"]), ("gone", "new"))


if __name__ == "__main__":
    unittest.main()
