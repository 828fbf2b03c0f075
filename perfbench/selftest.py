"""Self-test of the output checks: every tampered output must count as a failure.

Runs the probe ops once for real, requires their outputs to pass, then feeds
the checker altered copies, one alteration at a time, and requires each to
fail.  Run it as ``python3 perfbench/run.py --self-test``.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path

from harness import Checker, run_op, set_up

ROOT = Path(__file__).resolve().parent.parent


def _edit(mutate):
    """Output transform: parse the JSON, mutate it, write it as the CLI does."""

    def transform(rc, out):
        doc = json.loads(out)
        mutate(doc)
        return rc, json.dumps(doc, sort_keys=True, indent=2) + "\n"

    return transform


def _setitem(path, value):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value

    return mutate


CASES = [  # (what is tampered, op, transform of (exit code, stdout))
    ("exit code", "probe.equiv", lambda rc, out: (1, out)),
    ("truncated JSON", "probe.classify", lambda rc, out: (rc, out[:-5])),
    ("empty stdout", "probe.refute", lambda rc, out: (rc, "")),
    ("cmo breaks the exact identity with f", "probe.cmo",
     _edit(_setitem(["log2"], lambda v: v + 1e-6))),
    ("bbmo breaks the exact identity with b", "probe.bbmo",
     _edit(_setitem(["log2"], lambda v: v - 1e-6))),
    ("f/finfinf below the collapse lower bound", "probe.finfinf",
     _edit(_setitem(["log2"], lambda v: v + 1e-3))),
    ("f/finfinf above the collapse upper bound", "probe.finf",
     _edit(_setitem(["log2"], lambda v: v + 1.0))),
    ("norm without attained_at", "probe.b", _edit(lambda doc: doc.pop("attained_at"))),
    ("witness divergent value off the closed form", "probe.witness",
     _edit(lambda doc: doc["divergent"]["log2_values"].append(
         doc["divergent"]["log2_values"].pop() + 1e-6))),
    ("witness not verified", "probe.witness", _edit(_setitem(["verified"], False))),
    ("equiv all_ok false", "probe.equiv", _edit(_setitem(["all_ok"], False))),
    ("equiv sample count", "probe.equiv", _edit(_setitem(["samples"], lambda v: v - 1))),
    ("sweep lost a cell", "probe.sweep", _edit(_setitem(["cells"], lambda v: v[:-1]))),
    ("refute not verified", "probe.refute", _edit(_setitem(["verified"], False))),
    ("classify verdict", "probe.classify",
     _edit(_setitem(["report", "verdict"], "classical_F"))),
    ("analyze ratio infinite", "probe.analyze",
     _edit(_setitem(["consistency", "ratio"], "inf"))),
    ("analyze ratio negative", "probe.analyze",
     _edit(_setitem(["consistency", "ratio"], -0.5))),
    ("analyze not band-limited", "probe.analyze",
     _edit(_setitem(["consistency", "band_limited"], False))),
]


def _failed(checker: Checker, plan, outputs) -> set[str]:
    failed = {op.name for op in plan.ops if not checker.check(op, *outputs[op.name])}
    return failed | checker.check_groups()


def main() -> int:
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        _, plan = set_up("probe", 0, workdir)
        outputs = {}
        for op in plan.ops:
            rc, _, out, err = run_op(op)
            outputs[op.name] = (rc, out, err)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    problems = []
    clean = Checker(plan)
    if _failed(clean, plan, outputs) or _failed(clean, plan, outputs):
        problems.append(f"untampered outputs fail: {clean.errors}")

    for what, name, transform in CASES:
        rc, out, err = outputs[name]
        tampered = dict(outputs)
        tampered[name] = (*transform(rc, out), err)
        checker = Checker(plan)
        failed = _failed(checker, plan, tampered)
        # untampered outputs pass, so any failure here is the tampering's
        print(f"{'ok  ' if failed else 'MISS'} {what}: {checker.errors[:1]}")
        if not failed:
            problems.append(f"not detected: {what}")

    # a later pass must repeat the first byte for byte
    checker = Checker(plan)
    _failed(checker, plan, outputs)
    rc, out, err = outputs["probe.analyze"]
    drifted = dict(outputs, **{"probe.analyze": (rc, out.replace("\n", " \n", 1), err)})
    detected = "probe.analyze" in _failed(checker, plan, drifted)
    print(f"{'ok  ' if detected else 'MISS'} second pass differs from the first")
    if not detected:
        problems.append("not detected: second pass differs from the first")

    for problem in problems:
        print(f"FAILED {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0
