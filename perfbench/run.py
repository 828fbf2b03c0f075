#!/usr/bin/env python3
"""Benchmark of the dyadic-spaces library and CLI.

One run measures one workload in this fresh process:

    python3 perfbench/run.py --workload big-field --seed 0 --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout it sits in, generates the
workload's inputs from the seed, then repeats the workload's op list for
``--seconds``.  Each op is a
``dyadic_spaces.cli.main(argv)`` call with stdout captured, and every output
is checked (see ``workloads.py``).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print every metric by name and unit, the input digests and the
machine.

``--trace 0`` reports the end-to-end metrics:
  wall_ref     one pass over the op list in reference-job units: each op's
               time over the time of a fixed job run next to it, median over
               the run, summed over the ops (see ``Tally.wall_ref``); the
               pass time in seconds, its median and tail are printed beside it
  setup_s      median over nine set-ups, this process's and eight fresh
               ones', of importing dyadic_spaces plus generating and writing
               this workload's inputs; each in seconds of the nominal host
               (see ``harness.nominal_seconds``)
  peak_rss_mb  high-water resident memory of this process, which on ``deep``
               includes one untimed run of its tallest tower

``--trace 1`` alternates untraced and traced passes (spans recorded around
each layer by ``spans.py``) for ``--seconds``, then runs one more pass under
tracemalloc for the peak bytes.  It reports the per-layer metrics as means
per traced pass.  Every ``.s`` and ``.self_s`` time is a self time, so the
times add up to ``trace.self_sum_s``, which matches the mean traced pass time
``trace.wall_s`` up to the cost of opening and closing the op spans.
``trace.overhead_s`` is the traced minus the untraced pass time, each op at
its median repetition; ``trace.overhead_share`` is the traced over the
untraced ``wall_ref``, minus one.  ``seqspace.save_jsonl.s`` comes from one
traced repeat of the set-up, and ``cmd.<command>_s`` split the untraced pass
time, each op at its fastest repetition, by subcommand.

The metric names and units are those ``BENCHMARK.json`` lists.

Other modes:
  --steady      run each workload over several seeds in fresh processes and
                report median, quartiles and spread of every metric
  --self-test   show that tampered outputs count as failures
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from harness import Checker, Tally, measure, nominal_seconds, run_once, run_pass, set_up

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("big-field", "deep", "many-small", "analyze")
SETUP_CHILDREN = 8  # fresh processes that repeat the set-up, besides this one
DEADLINE_S = 120.0  # no pass starts after this much of a run has gone by
FAMILIES = ("f", "b", "cmo", "bbmo", "finfinf")
COMMANDS = ("norm", "witness", "equiv", "classify", "refute", "sweep", "analyze")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def listed_metrics(kind: str) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists under ``kind``."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _setup_child(args) -> int:
    seconds, plan = set_up(args.workload, args.seed, Path(args.workdir))
    print(json.dumps({"setup_s": seconds, "nominal_s": nominal_seconds(seconds),
                      "digests": plan.input_digests()}))
    return 0


def _setup_in_children(args, workdir: Path, digests: dict) -> tuple[list[dict], list[str]]:
    """Repeat the set-up in fresh processes; their inputs must match ours."""
    results, errors = [], []
    for k in range(SETUP_CHILDREN):
        child_dir = workdir.with_name(f"{workdir.name}.setup{k}")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(child_dir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            errors.append(f"set-up process {k} failed: {exc!r}")
            continue
        finally:
            shutil.rmtree(child_dir, ignore_errors=True)
        results.append(out)
        if out["digests"] != digests:
            errors.append(f"set-up process {k} generated different inputs")
    return results, errors


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    text = f"p50 {statistics.median(ordered)!r}"
    if n >= 20:
        k = n - 11  # ten samples lie beyond ordered[k]
        text += f", p{100 * (k + 1) // n} {ordered[k]!r}"
    else:
        text += ", no tail percentile (fewer than 20 samples)"
    return f"{text} (n={n})"


def provenance(args, plan) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "inputs_sha256": plan.input_digests(),
    }


def per_layer(listed, op_spans, mem_spans, setup_spans, traced: Tally,
              untraced: Tally) -> dict:
    """Per-layer metrics, per traced pass, from the spans of the three phases."""
    import spans

    self_s = spans.self_times(op_spans)
    calls = spans.calls(op_spans)
    counts = spans.count_sums(op_spans)
    peaks = spans.peaks(mem_spans)
    passes = len(traced.pass_s)
    analyze_ops = sum(cmd == "analyze" for cmd in traced.op_cmd.values())

    def per_pass(total):
        return total / passes

    m = {
        "cli.out_bytes": per_pass(counts.get("cli.out_bytes", 0)),
        "seqspace.load_jsonl.records": per_pass(counts.get("seqspace.load_jsonl.records", 0)),
        "seqspace.save_jsonl.s": spans.self_times(setup_spans).get("seqspace.save_jsonl", 0.0),
        "seqspace.build.calls": per_pass(calls.get("seqspace.build", 0)),
        "seqspace.build.nodes": per_pass(counts.get("seqspace.build.nodes", 0)),
        "seqspace.geometry.calls": per_pass(calls.get("seqspace.geometry", 0)),
        "seqspace.geometry.nodes": per_pass(counts.get("seqspace.geometry.nodes", 0)),
        "seqspace.geometry.levels": per_pass(counts.get("seqspace.geometry.levels", 0)),
        "seqspace.geometry.peak_bytes": peaks.get("seqspace.geometry", 0),
        "seqspace.kernel.peak_bytes": max(
            peaks.get(f"seqspace.kernel.{fam}", 0) for fam in FAMILIES),
        "equivalence.samples.count": per_pass(counts.get("equivalence.samples.count", 0)),
        "equivalence.check.calls": per_pass(calls.get("equivalence.check", 0)),
        "witness.tower_levels": per_pass(counts.get("witness.build_tower.levels", 0)),
        "classify.calls": per_pass(calls.get("classify", 0)),
        "analyze.lp_convolve.calls": per_pass(calls.get("analyze.lp_convolve", 0)),
        "analyze.coefficients.calls_per_op":
            per_pass(calls.get("analyze.coefficients", 0)) / analyze_ops,
    }
    for fam in FAMILIES:
        m[f"seqspace.kernel.{fam}.calls"] = per_pass(calls.get(f"seqspace.kernel.{fam}", 0))
    for name, unit in listed.items():
        # the remaining times: "<span name>.s" or "<span name>.self_s"
        if name not in m and unit == "s" and not name.startswith(("cmd.", "trace.")):
            m[name] = per_pass(self_s.get(name.rsplit(".", 1)[0], 0.0))
    for cmd in COMMANDS:
        m[f"cmd.{cmd}_s"] = untraced.best_pass(cmd)
    m["trace.wall_s"] = statistics.fmean(traced.pass_s)
    m["trace.untraced_wall_s"] = statistics.fmean(untraced.pass_s)
    # the passes alternate, so a change in the host's speed reaches both alike
    m["trace.overhead_s"] = traced.median_pass() - untraced.median_pass()
    m["trace.overhead_share"] = traced.wall_ref() / untraced.wall_ref() - 1
    m["trace.self_sum_s"] = per_pass(sum(self_s.values()))
    return m


def _metric(value, unit):
    if unit != "s" and float(value).is_integer():
        value = int(value)
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def traced_run(args, plan, checker: Checker, workdir: Path, deadline: float):
    """Traced set-up, alternating untraced and traced passes for
    ``--seconds``, then one tracemalloc pass.  The once-ops do not run: under
    tracemalloc the tallest tower alone takes half a minute.

    Returns the tallies of the untraced, traced and tracemalloc passes and
    the spans of the set-up, the traced passes and the tracemalloc pass."""
    import spans  # both import the package, so only after set_up
    import workloads

    rec = spans.Recorder()
    spans.install(rec)
    rec.enabled = True
    build_dir = workdir.with_name(workdir.name + ".traced")
    workloads.build(args.workload, args.seed, build_dir)
    shutil.rmtree(build_dir, ignore_errors=True)
    rec.enabled = False
    setup_spans, rec.spans = rec.spans, []
    untraced, traced = Tally(), Tally()
    start = time.monotonic()
    while True:
        run_pass(plan, checker, untraced)
        rec.enabled = True
        run_pass(plan, checker, traced, rec)
        rec.enabled = False
        if time.monotonic() - start >= args.seconds or time.monotonic() >= deadline:
            break
    op_spans, rec.spans = rec.spans, []
    rec.enabled = rec.memory = True
    mem = Tally()
    tracemalloc.start()
    try:
        run_pass(plan, checker, mem, rec)
    finally:
        tracemalloc.stop()
    print(f"untraced and traced passes {len(traced.pass_s)} each; tracemalloc pass "
          f"{mem.pass_s[0]!r} s, not measured")
    return untraced, traced, mem, setup_spans, op_spans, rec.spans


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    try:
        setup_s, plan = set_up(args.workload, args.seed, workdir)
        setup_nominal = nominal_seconds(setup_s)
        prov = provenance(args, plan)
        children, setup_errors = _setup_in_children(args, workdir, prov["inputs_sha256"])
        setups = [setup_nominal, *(c["nominal_s"] for c in children)]
        setup_median = statistics.median(setups)

        checker = Checker(plan)
        if args.trace:
            untraced, traced, mem, *phase_spans = traced_run(args, plan, checker, workdir,
                                                             deadline)
            tallies = (untraced, traced, mem)
        else:
            untraced = Tally()
            measure(plan, checker, untraced, args.seconds, deadline)
            t0 = time.perf_counter()
            run_once(plan.once, checker, untraced)
            if plan.once:
                print(f"once-ops {[op.name for op in plan.once]} "
                      f"{time.perf_counter() - t0!r} s, not measured")
            tallies = (untraced,)
        # each repeated set-up counts as an op; it fails if its inputs differ
        attempted = sum(t.attempted for t in tallies) + SETUP_CHILDREN
        failed = sum(t.failed for t in tallies) + len(setup_errors)

        print(f"provenance {json.dumps(prov, sort_keys=True)}")
        print(f"wall_s {untraced.best_pass()!r} s: one pass, each op at its fastest")
        print(f"pass time: {tail(untraced.pass_s)}")
        print(f"op latency: {tail([t for ts in untraced.op_s.values() for t in ts])}")
        for cmd in COMMANDS:
            print(f"{cmd}_s {untraced.best_pass(cmd)!r} s (its ops' share of wall_s)")
        print(f"setup_s {setup_median!r} s on the nominal host: {setups!r}; as measured: "
              f"{[setup_s, *(c['setup_s'] for c in children)]!r} s")

        if args.trace:
            setup_spans, op_spans, mem_spans = phase_spans
            values = per_layer(listed, op_spans, mem_spans, setup_spans, traced, untraced)
        else:
            values = {
                "wall_ref": untraced.wall_ref(),
                "setup_s": setup_median,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        missing = sorted(set(listed) - set(values))
        if missing:
            raise SystemExit(f"error: no value for the listed metrics {missing}")
        metrics = {name: _metric(values[name], unit) for name, unit in listed.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        print(f"fail_rate {failed / attempted!r} ({failed} of {attempted} ops)")
        for error in [*setup_errors, *checker.errors][:20]:
            print(f"FAILED {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# steadiness mode
# ---------------------------------------------------------------------------


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def steady(args) -> int:
    """Run workloads over seeds in fresh processes; report the spread of each
    metric as (Q3 - Q1) / median, the way bounds are checked."""
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"machine": {"cpu": _cpu_model()}, "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    ok = True
    for workload in names:
        rows, correct, digests = [], True, {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if proc.returncode == 0 else {}
            if not result.get("correct"):
                correct = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            if result:
                rows.append({k: v["value"] for k, v in result["metrics"].items()})
            for line in proc.stdout.splitlines():
                if line.startswith("provenance "):
                    prov = json.loads(line.split(" ", 1)[1])
                    digests[seed] = prov.pop("inputs_sha256")
                    for key in ("python", "numpy", "nproc", "machine"):
                        summary["machine"][key] = prov[key]
        stats = {}
        for name in (rows[0] if rows else {}):
            values = [row[name] for row in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("nan")
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                steady_enough = spread < bound / 3
                ok &= steady_enough
                flag = "ok" if steady_enough else f"SPREAD >= bound/3 ({bound / 3:.4f})"
            print(f"{workload:11s} {name:36s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} {flag}")
        ok &= correct
        summary["workloads"][workload] = {"correct": correct, "metrics": stats,
                                          "inputs_sha256": digests}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true",
                    help="repeat runs over --seeds and report quartiles")
    ap.add_argument("--seeds", default="0-9", help="seeds for --steady: 0-9 or 1,5,7")
    ap.add_argument("--out", help="--steady: also write the summary as JSON here")
    ap.add_argument("--self-test", action="store_true",
                    help="check that tampered outputs count as failures")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # threads stay at the CLI default unless an op asks for more
    os.environ.pop("DYADIC_SPACES_THREADS", None)
    if args.steady:
        return steady(args)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload == "all":
        ap.error("--workload is required for a run")
    if args.setup_child:
        return _setup_child(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
