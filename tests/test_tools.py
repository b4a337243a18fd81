"""The scripts under tools/, run as their usage lines say."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_byte_report_finds_the_checkout_equal_to_itself():
    """byte_report calls nn's conv API directly, so an API change must keep it running.

    One batch size and no trained files: every conv and model-pass case of
    the four stacks, computed once under each of two children.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "byte_report.py"), str(ROOT), str(ROOT),
         "--batches", "1", "--trained-batches", ""],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["conv arrays: 120 equal, 0 differ",
                                        "model passes: 24 equal, 0 differ",
                                        "trained files: 0 equal, 0 differ"]


def test_peak_report_finds_the_checkout_equal_to_itself():
    """peak_report runs each pass in a child per tree; on the tiny stack the
    two children of one checkout trace the same peaks."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_report.py"), str(ROOT), str(ROOT), "--tiny"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["pass", "old", "MiB", "new", "MiB", "change"]
    assert [row.split()[0] for row in rows] == [
        "tq-28x28x1-b64-step", "cq-32x32x3-b8-step", "quarter-cq-28x28x1-b64-input"]
    for row in rows:
        _, old, new, change = row.split()
        assert float(old) == float(new) > 0 and float(change) == 0
