"""Exit nonzero unless two sweep RunReport artifacts (JSON arrays of
reports) are equal once the kernel-specific fields are dropped.

usage: python3 bench/same_across_kernels.py COMPILED.json EVENT.json

The sweeps are cycle-exact across settle kernels, so a report may differ
only in run.kernel, which names the kernel, and in the kernel_profile
section, which counts per-module evaluations (kernel-specific by design).
"""
import json
import sys


def load(path):
    reports = json.load(open(path))
    for report in reports:
        report["run"].pop("kernel")
        report.pop("kernel_profile", None)
    return reports


compiled, event = (load(p) for p in sys.argv[1:3])
if compiled != event:
    sys.exit(f"{sys.argv[1]} and {sys.argv[2]} differ beyond run.kernel")
