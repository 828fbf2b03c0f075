"""Seeded inputs, op lists and output checks of the benchmark workloads.

``build(workload, seed, workdir)`` generates a workload's inputs from the seed,
writes the coefficient files with the library's own ``save_jsonl`` and returns
the op list.  Every op is one ``dyadic-spaces`` command line; its check reads
the op's JSON output and returns a list of errors.  Group checks compare the
outputs of several ops, e.g. the paper's exact identities between a norm pair.

Every workload also runs the same small probe op set, which touches every
subcommand and every traced layer once per pass, so that each per-layer time
is measured (never a constant zero) on every workload.

A workload may also have ops that run once per run, untimed, outside the
passes: ``deep`` runs its tallest tower once so that the process's peak
memory reflects the m x L level tables of a great depth.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import dyadic_spaces
from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    collapse_upper_constant_log2,
    identity_tolerance,
    tower_b_closed_form,
)

COLLAPSE_TOL = 1e-9
WITNESS_TOL = 1e-9

# Workload sizes.  No op takes much more than 0.1 s, and a pass over one op
# list takes 0.3 to 1 s on a quiet 2-vCPU x86-64 virtual machine, so a 20 s
# run repeats every op 20 times or more.  On a busy host, short ops repeated
# often are what lets the fastest repetition of each op (``Tally.best_pass``)
# land in a quiet moment.
BIG_SATURATED = ((1, 10), (2, 5), (3, 3))  # (dim, depth) of the saturated trees
BIG_RANDOM = (256, 8, 14)  # random 1-D cubes, their lowest and highest level
DEEP_WITNESS_DEPTHS = "32,64,128,256"
DEEP_WITNESS_INF_DEPTHS = "64,128,256,512"
DEEP_MEMORY_DEPTHS = "256,512,1024,2048"  # run once per run: about 2 s, 80 MB
DEEP_SPARSE = ((1, 3, 80, 160), (2, 3, 64, 128))  # dim, cubes, level range
SMALL_SAMPLES = 100  # per 1-D equiv check, at depth 8
SMALL_SAMPLES_2D = 50  # for the 2-D collapse-f check, at depth 4
ANALYZE_2D_L = 7
ANALYZE_1D_L = 11

@dataclass
class Op:
    """One CLI invocation and the check of its JSON output."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]

    @property
    def cmd(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    """A workload's ops, its cross-op checks and the files written for it."""

    ops: list[Op]
    # each returns (op name, error) pairs for the op whose output is wrong
    group_checks: list[Callable[[dict[str, dict]], list[tuple[str, str]]]]
    files: dict[str, Path]
    workdir: Path
    once: list[Op]  # run once per run, untimed, after the passes

    def input_digests(self) -> dict[str, str]:
        """sha256 of every generated input: the files and the op list."""
        out = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in sorted(self.files.items())
        }
        argv = json.dumps([op.argv for op in self.ops + self.once])
        argv = argv.replace(str(self.workdir), "$INPUTS")
        out["ops.argv"] = hashlib.sha256(argv.encode()).hexdigest()
        return out


# ---------------------------------------------------------------------------
# seeded coefficient fields
# ---------------------------------------------------------------------------


def _magnitude(rng: random.Random) -> float:
    return rng.uniform(-20.0, 20.0)


def saturated_field(rng: random.Random, dim: int, depth: int) -> CubeSequence:
    """Every cube of the unit tree down to ``depth``, seeded log2 magnitudes."""
    root = DyadicCube.unit(dim)
    cubes = [root]
    frontier = [root]
    for _ in range(depth):
        frontier = [child for cube in frontier for child in cube.children()]
        cubes.extend(frontier)
    values = {cube: _magnitude(rng) for cube in cubes}
    return CubeSequence.from_log2_values(values, root=root, max_depth=depth)


def ancestor_field(
    rng: random.Random, dim: int, count: int, lo: int, hi: int
) -> CubeSequence:
    """All ancestors of ``count`` random cubes at levels lo..hi: a connected tree."""
    cubes: set[DyadicCube] = set()
    for _ in range(count):
        level = rng.randint(lo, hi)
        cube = DyadicCube(dim, level, tuple(rng.getrandbits(level) for _ in range(dim)))
        while cube not in cubes:
            cubes.add(cube)
            if cube.level == 0:
                break
            cube = cube.parent()
    values = {cube: _magnitude(rng) for cube in sorted(cubes, key=DyadicCube.sort_key)}
    return CubeSequence.from_log2_values(values, root=DyadicCube.unit(dim), max_depth=hi)


def sparse_field(
    rng: random.Random, dim: int, count: int, lo: int, hi: int
) -> CubeSequence:
    """``count`` cubes at fixed levels spread over lo..hi; seeded indices."""
    values = {}
    for i in range(count):
        level = lo + round(i * (hi - lo) / (count - 1))
        index = tuple(rng.getrandbits(level) for _ in range(dim))
        values[DyadicCube(dim, level, index)] = _magnitude(rng)
    return CubeSequence.from_log2_values(values, root=DyadicCube.unit(dim), max_depth=hi)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _log2(doc: dict) -> float:
    return float(doc["log2"])  # the CLI writes infinities as "inf" / "-inf"


def _ratio_ok(num: float, den: float, lo: float, hi: float) -> bool:
    if num == den == -math.inf:
        return True
    ratio = 2.0 ** (num - den)
    return lo <= ratio <= hi


# The norm ops run on every input file.  With s = 0 they pair up as the
# paper's exact identities cmo(s,q,r) = f(s,r/q,q,q) and bbmo(s,p,q) =
# b(s,1/p,p,q), and f at tau = 1 > 1/p collapses onto finfinf at
# s_eff = s + n (tau - 1/p) = n/2.
NORM_ARGS = {
    "f": ["--family", "f", "--tau", "1", "--p", "2", "--q", "2"],
    "finf": ["--family", "f", "--tau", "1", "--p", "2", "--q", "inf"],
    "b": ["--family", "b", "--tau", "1", "--p", "1", "--q", "2"],
    "cmo": ["--family", "cmo", "--q", "2", "--r", "2"],
    "bbmo": ["--family", "bbmo", "--p", "1", "--q", "2"],
    "finfinf": ["--family", "finfinf"],
}


def _norm_ops(prefix: str, path: Path, dim: int, families) -> tuple[list[Op], Callable]:
    ops = []
    for fam in families:
        argv = ["norm", *NORM_ARGS[fam], "--in", str(path)]
        if fam == "finfinf":
            argv += ["--s", f"{dim}/2"]
        ops.append(Op(f"{prefix}.{fam}", argv, _check_norm))

    def group(docs: dict[str, dict]) -> list[tuple[str, str]]:
        errors = []
        v = {fam: _log2(docs[f"{prefix}.{fam}"]) for fam in families}
        for num, den, tol in (("cmo", "f", identity_tolerance(2, 2)),
                              ("bbmo", "b", identity_tolerance(1, 2))):
            if not _ratio_ok(v[num], v[den], 1.0 - tol, 1.0 + tol):
                errors.append((f"{prefix}.{num}",
                               f"identity {num} = {den} fails: {v[num]!r} vs {v[den]!r}"))
        if "finfinf" in v:
            for fam, q in (("f", 2.0), ("finf", math.inf)):
                c = 2.0 ** collapse_upper_constant_log2(0, 1, 2, q, dim)
                lo, hi = 1.0 - COLLAPSE_TOL, c * (1.0 + COLLAPSE_TOL)
                if not _ratio_ok(v[fam], v["finfinf"], lo, hi):
                    errors.append((f"{prefix}.{fam}", f"collapse 1 <= {fam}/finfinf <= {c} fails"))
        return errors

    return ops, group


def _check_norm(doc: dict) -> list[str]:
    ok = isinstance(doc.get("attained_at"), dict) and _log2(doc) > -math.inf
    return [] if ok else ["norm output lacks a finite log2 value or attained_at"]


def _witness_op(name: str, part: str, q: str, depths: str) -> Op:
    tau, p, dim = 0.5, 1.0, 1
    argv = ["witness", "--tau", "1/2", "--p", "1", "--q", q, "--part", part,
            "--depths", depths]
    qf = math.inf if q == "inf" else float(q)

    def check(doc: dict) -> list[str]:
        errors = [] if doc.get("verified") is True else ["witness not verified"]
        div = doc["divergent"]
        for J, got in zip(div["depths"], div["log2_values"]):
            want = tower_b_closed_form(tau, p, qf, dim, J)
            if not abs(float(got) - want) <= WITNESS_TOL * max(1.0, abs(want)):
                errors.append(f"divergent side at J={J}: {got!r} != closed form {want!r}")
        if len(div["depths"]) != len(depths.split(",")):
            errors.append("witness reports the wrong number of depths")
        return errors

    return Op(name, argv, check)


def _equiv_op(name: str, check_name: str, samples: int, seed: int, extra: list[str]) -> Op:
    argv = ["equiv", "--check", check_name, "--samples", str(samples),
            "--seed", str(seed), *extra]

    def check(doc: dict) -> list[str]:
        errors = [] if doc.get("all_ok") is True else ["equiv all_ok is not true"]
        if doc.get("samples") != samples:
            errors.append(f"equiv ran {doc.get('samples')} samples, asked {samples}")
        return errors

    return Op(name, argv, check)


def _sweep_op(name: str, family: str, seed: int, cells: int, grids: list[str]) -> Op:
    """A sweep whose (tau, p, q) grid has ``cells`` cells."""
    argv = ["sweep", "--family", family, "--seed", str(seed), *grids]

    def check(doc: dict) -> list[str]:
        rows = doc.get("cells", [])
        errors = [] if len(rows) == cells else [f"sweep has {len(rows)} cells, want {cells}"]
        if not all(row.get("verdict") for row in rows):
            errors.append("sweep cell without a verdict")
        return errors

    return Op(name, argv, check)


def _refute_op(name: str, depths: str | None) -> Op:
    argv = ["refute", "--tau", "1/2", "--p", "1", "--q", "2"]
    if depths:
        argv += ["--depths", depths]

    def check(doc: dict) -> list[str]:
        return [] if doc.get("verified") is True else ["refute bundle not verified"]

    return Op(name, argv, check)


def _classify_op(name: str) -> Op:
    argv = ["classify", "--family", "f", "--tau", "3/2", "--p", "1", "--q", "2"]

    def check(doc: dict) -> list[str]:
        verdict = doc.get("report", {}).get("verdict")
        return [] if verdict == "F_inf_inf" else [f"classify verdict {verdict!r}"]

    return Op(name, argv, check)


def _analyze_op(name: str, L: int, dim: int, seed: int, extra: list[str]) -> Op:
    argv = ["analyze", "--L", str(L), "--dim", str(dim), "--seed", str(seed), *extra]

    def check(doc: dict) -> list[str]:
        cons = doc["consistency"]
        ratio = cons.get("ratio")
        errors = []
        if not (isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0):
            errors.append(f"analyze ratio {ratio!r} is not finite and positive")
        if cons.get("band_limited") is not True:
            errors.append("analyze input is not band-limited")
        if not doc["coefficients"]["entries"] > 0:
            errors.append("analyze produced no coefficients")
        return errors

    return Op(name, argv, check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _PlanMaker:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []
        self.once: list[Op] = []
        self.groups: list[Callable] = []
        self.files: dict[str, Path] = {}

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{tag}")

    def op_seed(self, tag: str) -> int:
        return self.rng(tag).getrandbits(31)

    def field_ops(self, name: str, seq: CubeSequence, families) -> None:
        path = self.workdir / f"{name}.jsonl"
        dyadic_spaces.save_jsonl(seq, path)  # looked up per call, so tracing sees it
        self.files[name] = path
        ops, group = _norm_ops(name, path, seq.dim, families)
        self.ops += ops
        self.groups.append(group)

    def probe(self) -> None:
        """Tiny ops touching every subcommand and layer once per pass."""
        self.field_ops("probe", ancestor_field(self.rng("probe"), 1, 12, 3, 6), NORM_ARGS)
        self.ops += [
            _witness_op("probe.witness", "f", "2", "4,8,16,32"),
            _equiv_op("probe.equiv", "collapse-f", 10, self.op_seed("probe.equiv"),
                      ["--tau", "3/2", "--p", "1", "--q", "2", "--depth", "4"]),
            _classify_op("probe.classify"),
            _refute_op("probe.refute", "4,8,16"),
            _sweep_op("probe.sweep", "f", self.op_seed("probe.sweep"), 1,
                      ["--tau-grid", "2", "--p-grid", "1", "--q-grid", "2", "--samples", "5"]),
            _analyze_op("probe.analyze", 6, 1, self.op_seed("probe.analyze"), []),
        ]


def _big_field(b: _PlanMaker) -> None:
    for dim, depth in BIG_SATURATED:
        name = f"sat{dim}d{depth}"
        b.field_ops(name, saturated_field(b.rng(name), dim, depth), NORM_ARGS)
    count, lo, hi = BIG_RANDOM
    b.field_ops("random1d", ancestor_field(b.rng("random1d"), 1, count, lo, hi), NORM_ARGS)


def _deep(b: _PlanMaker) -> None:
    b.ops += [
        _witness_op("witness.f", "f", "2", DEEP_WITNESS_DEPTHS),
        _witness_op("witness.b", "b", "2", DEEP_WITNESS_DEPTHS),
        _witness_op("witness.qinf", "f", "inf", DEEP_WITNESS_INF_DEPTHS),
    ]
    b.once.append(_witness_op("witness.qinf-memory", "f", "inf", DEEP_MEMORY_DEPTHS))
    for dim, count, lo, hi in DEEP_SPARSE:
        name = f"sparse{dim}d"
        b.field_ops(name, sparse_field(b.rng(name), dim, count, lo, hi),
                    ("f", "b", "cmo", "bbmo"))


def _many_small(b: _PlanMaker) -> None:
    collapse = ["--tau", "3/2", "--p", "1", "--q", "2", "--depth", "8"]
    b.ops += [
        _equiv_op("equiv.collapse-f", "collapse-f", SMALL_SAMPLES,
                  b.op_seed("equiv.collapse-f"), collapse),
        _equiv_op("equiv.collapse-b", "collapse-b", SMALL_SAMPLES,
                  b.op_seed("equiv.collapse-b"), [*collapse, "--threads", "2"]),
        _equiv_op("equiv.identities", "identities", SMALL_SAMPLES,
                  b.op_seed("equiv.identities"),
                  ["--p", "1", "--q", "2", "--r", "1", "--depth", "8"]),
        _equiv_op("equiv.holder", "holder", SMALL_SAMPLES, b.op_seed("equiv.holder"),
                  ["--tau", "1/4", "--p", "1", "--q", "2", "--depth", "8"]),
        _equiv_op("equiv.inhom-f", "inhom-f", SMALL_SAMPLES, b.op_seed("equiv.inhom-f"),
                  collapse),
        _equiv_op("equiv.collapse-f-2d", "collapse-f", SMALL_SAMPLES_2D,
                  b.op_seed("equiv.collapse-f-2d"),
                  ["--tau", "3/2", "--p", "1", "--q", "2", "--dim", "2", "--depth", "4"]),
        _sweep_op("sweep.f", "f", b.op_seed("sweep.f"), 45, []),  # default 5x3x3 grid
        _sweep_op("sweep.b", "b", b.op_seed("sweep.b"), 45, []),
        _refute_op("refute", None),
    ]


def _analyze(b: _PlanMaker) -> None:
    b.ops += [
        _analyze_op("analyze.2d-f", ANALYZE_2D_L, 2, b.op_seed("analyze.2d-f"),
                    ["--family", "f"]),
        _analyze_op("analyze.2d-b", ANALYZE_2D_L, 2, b.op_seed("analyze.2d-b"),
                    ["--family", "b"]),
        _analyze_op("analyze.1d-random", ANALYZE_1D_L, 1, b.op_seed("analyze.1d-random"),
                    ["--signal", "random-bandlimited"]),
        _analyze_op("analyze.1d-sawtooth", ANALYZE_1D_L, 1,
                    b.op_seed("analyze.1d-sawtooth"), ["--signal", "sawtooth-smoothed"]),
    ]


WORKLOADS = {
    "big-field": _big_field,
    "deep": _deep,
    "many-small": _many_small,
    "analyze": _analyze,
}


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate the workload's inputs from the seed and write them to workdir.

    The workload "probe" is the probe op set alone."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = _PlanMaker(seed, workdir)
    if workload != "probe":
        WORKLOADS[workload](b)
    b.probe()
    return Plan(b.ops, b.groups, b.files, workdir, b.once)
