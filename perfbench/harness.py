"""Set-up, op execution and output checking shared by the run and the self-test."""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package() -> float:
    """Import the package from this checkout's src/; returns the seconds taken."""
    if not (SRC / "dyadic_spaces" / "__init__.py").is_file():
        raise SystemExit(f"error: no dyadic_spaces package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dyadic_spaces.cli  # noqa: F401

    return time.perf_counter() - t0


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and build the inputs: (seconds taken, plan)."""
    import_s = import_package()
    import workloads

    t0 = time.perf_counter()
    plan = workloads.build(workload, seed, workdir)
    return import_s + time.perf_counter() - t0, plan


class Checker:
    """Checks each op's output; later passes must repeat the first byte for byte."""

    def __init__(self, plan):
        self.plan = plan
        self.reference: dict[str, str] = {}
        self.docs: dict[str, dict] = {}
        self.errors: list[str] = []
        self.groups_checked = False

    def check(self, op, rc, out: str, err: str) -> bool:
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc!r}, want 0: {err.strip()[-400:]}")
        ref = self.reference.get(op.name)
        if ref is not None:
            if out != ref:
                errors.append("stdout differs from the first pass")
        elif not errors:
            try:
                doc = json.loads(out)
                errors += op.check(doc)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                errors.append(f"unreadable output: {exc!r}")
            if not errors:
                self.reference[op.name] = out
                self.docs[op.name] = doc
        self.errors += [f"{op.name}: {e}" for e in errors]
        return not errors

    def check_groups(self) -> set[str]:
        """Cross-op checks, once, on the first pass; returns the failed ops."""
        failed = set()
        if self.groups_checked:
            return failed
        self.groups_checked = True
        for group in self.plan.group_checks:
            try:
                found = group(self.docs)
            except (KeyError, ValueError, TypeError) as exc:
                found = [("group", f"cannot compare outputs: {exc!r}")]
            for name, error in found:
                failed.add(name)
                self.errors.append(f"{name}: {error}")
        return failed


def run_op(op, rec=None) -> tuple[object, float, str, str]:
    """Run one op in-process: (exit code, seconds, stdout, stderr)."""
    from dyadic_spaces import cli

    out, err = io.StringIO(), io.StringIO()
    span = rec.open_op(op.name) if rec is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the op failed; the run goes on and counts it
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    if span is not None:
        rec.close_op(span, len(text.encode()))
    return rc, seconds, text, err.getvalue()


# What the reference job takes on a nominal host: a 2-vCPU x86-64 virtual
# machine takes 7 to 11 ms, depending on how busy its host is.
REFERENCE_JOB_NOMINAL_S = 0.010


def reference_job() -> float:
    """Seconds taken by a fixed job of Python arithmetic and small numpy
    calls that uses nothing of dyadic_spaces: a probe of how fast the host
    runs at this moment."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += (i * i) % 7
    x = np.linspace(0.0, 1.0, 8192)
    for _ in range(80):
        acc += float(np.log2(np.exp2(x) + 1.0).sum())
    return time.perf_counter() - t0


def nominal_seconds(seconds: float, jobs: int = 5) -> float:
    """``seconds`` just measured, rescaled to the nominal host: times the
    nominal over the median of ``jobs`` reference jobs run now."""
    ref = statistics.median(reference_job() for _ in range(jobs))
    return seconds * REFERENCE_JOB_NOMINAL_S / ref


class Tally:
    """Ops attempted and failed, and the times of passes and ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pass_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}
        self.op_ref: dict[str, list[float]] = {}  # op time / reference job time
        self.op_cmd: dict[str, str] = {}

    def wall_ref(self) -> float:
        """One pass in reference-job units: the sum over ops of the median
        ratio of the op's time to the mean of the reference jobs run just
        before and just after it.  On a 2-vCPU x86-64 virtual machine whose
        host slowed every job by up to 2x for minutes at a time, this sum
        spread by 4 to 15 % over ten runs where the pass times in seconds
        spread by 10 to 45 %."""
        return sum(statistics.median(r) for r in self.op_ref.values())

    def best_pass(self, cmd: str | None = None) -> float:
        """A pass with every op at its fastest repetition (only ``cmd``'s ops
        if given), in seconds."""
        return sum(min(times) for name, times in self.op_s.items()
                   if cmd is None or self.op_cmd[name] == cmd)

    def median_pass(self) -> float:
        """A pass with every op at its median repetition, in seconds."""
        return sum(statistics.median(times) for times in self.op_s.values())


def run_pass(plan, checker: Checker, tally: Tally, rec=None) -> None:
    """One pass over the op list.  Its time is the sum of its ops' times, so
    checking outputs costs the measurement nothing."""
    total = 0.0
    failed = set()
    before = reference_job()
    for op in plan.ops:
        rc, seconds, out, err = run_op(op, rec)
        after = reference_job()
        ref = (before + after) / 2
        before = after
        total += seconds
        tally.op_s.setdefault(op.name, []).append(seconds)
        tally.op_ref.setdefault(op.name, []).append(seconds / ref)
        tally.op_cmd[op.name] = op.cmd
        if not checker.check(op, rc, out, err):
            failed.add(op.name)
    failed |= checker.check_groups()
    tally.attempted += len(plan.ops)
    tally.failed += len(failed)
    tally.pass_s.append(total)


def run_once(ops, checker: Checker, tally: Tally, rec=None) -> None:
    """Run each op once, outside any pass: checked and counted, not timed."""
    for op in ops:
        rc, _, out, err = run_op(op, rec)
        tally.attempted += 1
        tally.failed += not checker.check(op, rc, out, err)


def measure(plan, checker, tally, seconds: float, deadline: float, rec=None) -> None:
    """Repeat passes for ``seconds``, at least once."""
    start = time.monotonic()
    run_pass(plan, checker, tally, rec)
    while time.monotonic() - start < seconds and time.monotonic() < deadline:
        run_pass(plan, checker, tally, rec)
