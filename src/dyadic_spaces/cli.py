"""Command-line front end.

Subcommands: norm, witness, equiv, classify, sweep, analyze.  Every run is
deterministic given --seed; outputs embed the parsed configuration so results
are reproducible from the file alone.  Exit codes: 0 success/verified,
1 verification failed, 2 I/O or parse error, 3 invalid parameters.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from ._log2 import INF
from .analyze import GridFunction, build_filter_bank, transform_consistency
from .classify import SpaceDescriptor, classify, refute_claim
from .equivalence import (
    _collapse,
    check_holder_embeddings,
    check_exact_identities,
    check_collapse_b,
    check_collapse_f,
    check_collapse_inhomogeneous,
    check_sample_count,
    random_sample_set,
)
from .seqspace import (
    Family,
    ParamError,
    SequenceFormatError,
    SpaceParams,
    int_to_decimal,
    load_jsonl,
    norm,
)
from .witness import certify_separation

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_IO = 2
EXIT_PARAMS = 3


def parse_extended(text: str):
    """Parse a CLI number: rationals ('1/2'), 'inf', integers, or floats.

    Rationals and integers stay exact, which keeps the classification
    boundaries and the witness's hypothesis region sharp; decimals become
    floats.
    """
    text = text.strip().lower()
    if text in ("inf", "infty", "infinity", "oo"):
        return INF
    if "/" in text:
        num, den = map(int, text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    try:
        return int(text)
    except ValueError:
        return float(text)


def _config_echo(args) -> dict:
    # threads and the output path are execution knobs, not part of the
    # mathematical configuration; outputs must be byte-identical across them
    skip = {"func", "threads", "out"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(val, Path):
            val = str(val)
        out[key] = val
    out["version"] = __version__
    return out


def _write_json(args, payload: dict) -> None:
    _write_text(args, _json_text({"config": _config_echo(args), **payload}))


def _json_text(doc) -> str:
    """``doc`` as JSON text with sorted keys and an indent of 2, and a
    newline: the text of ``json.dumps(doc, sort_keys=True, indent=2)``, but
    for infinities, written "inf" and "-inf" as RFC 8259 has no infinity,
    integers of any size, and Fractions, written as text.  One recursive
    pass appends every piece to one list."""
    out: list[str] = []
    _json_pieces(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_pieces(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of ``obj``'s JSON text to ``out``; ``newline`` is
    the line break and indent before the closing bracket of ``obj``."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, opening = newline + "  ", "{"
        for key, value in sorted(obj.items()):
            out += (opening, inner, encode_basestring_ascii(key), ": ")
            _json_pieces(value, inner, out)
            opening = ","
        out += (newline, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, opening = newline + "  ", "["
        for value in obj:
            out += (opening, inner)
            _json_pieces(value, inner, out)
            opening = ","
        out += (newline, "]")
    else:
        out.append(_json_scalar(obj))


def _json_scalar(obj) -> str:
    """The JSON text of a value that is not a container."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"  # as json.dumps writes it
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return float.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int_to_decimal(int(obj))
    if isinstance(obj, Fraction):
        return encode_basestring_ascii(str(obj))
    raise TypeError(f"not JSON serializable: {obj!r}")


def _json_flat(doc: dict | None) -> str:
    """The one-line JSON text of a dict of scalars, or null: the text of
    ``json.dumps(doc, sort_keys=True)``, but for the scalars as
    ``_json_scalar`` writes them (infinities as "inf" and "-inf")."""
    if doc is None:
        return "null"
    return "{%s}" % ", ".join(
        f"{encode_basestring_ascii(key)}: {_json_scalar(val)}" for key, val in sorted(doc.items())
    )


def _write_csv(args, fieldnames: list[str], rows: list[dict]) -> None:
    config = _json_flat(_config_echo(args))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames + ["config"], lineterminator="\n")
    writer.writeheader()
    for row in rows:
        row = dict(row)
        row["config"] = config
        writer.writerow(row)
    _write_text(args, buf.getvalue())


def _write_text(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cube_json(cube) -> dict:
    return {"j": cube.level, "k": list(cube.index)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


_NORM_FAMILIES = {
    "f": Family.F_TYPE, "b": Family.B_TYPE, "cmo": Family.CMO, "bbmo": Family.BBMO,
    "finfinf": Family.F_INF_INF, "binfinf": Family.B_INF_INF,
}


def cmd_norm(args) -> int:
    seq = load_jsonl(args.infile)
    family = _NORM_FAMILIES[args.family]
    # a family's unread options are refused (OPTION_TABLE): they hold their defaults
    if family == Family.CMO:
        if args.r is None:
            raise ParamError("--r is required for the cmo family")
        params = SpaceParams(family, args.s, args.r, args.q, args.q)
    elif family in (Family.F_INF_INF, Family.B_INF_INF):
        params = SpaceParams(family, args.s, 0, INF, INF)
    else:
        params = SpaceParams(family, args.s, args.tau, args.p, args.q, not args.inhomogeneous)
    nv = norm(seq, params)
    payload = {
        "log2": nv.log2_value,
        "linear": nv.linear_value,
        "attained_at": _cube_json(nv.attained_at),
    }
    if args.format == "json":
        _write_json(args, payload)
    else:
        _write_csv(
            args,
            ["log2", "linear", "attained_j", "attained_k"],
            [
                {
                    "log2": repr(nv.log2_value),
                    "linear": repr(nv.linear_value),
                    "attained_j": nv.attained_at.level,
                    "attained_k": " ".join(map(int_to_decimal, nv.attained_at.index)),
                }
            ],
        )
    return EXIT_OK


def _list(text: str, option: str, parse=parse_extended, what: str = "numbers") -> list:
    """The comma-separated values of an option; a bad one exits 3 naming it."""
    try:
        return [parse(x) for x in text.split(",")]
    except ValueError:
        raise ParamError(
            f"{option} must be a comma-separated list of {what}, got {text!r}"
        ) from None


def _depths(text: str) -> tuple[int, ...]:
    return tuple(_list(text, "--depths", int, "integers"))


def cmd_witness(args) -> int:
    depths = _depths(args.depths)
    divergent, bounded = certify_separation(
        args.s, args.p, args.q, args.tau, n=args.dim, depths=depths, family=args.part
    )
    ok = divergent.verdict == "diverges" and bounded.verdict == "bounded"
    if args.format == "json":
        _write_json(
            args,
            {
                "divergent": divergent.to_json_dict(),
                "bounded": bounded.to_json_dict(),
                "verified": ok,
            },
        )
    else:
        rows = []
        for rpt, side in ((divergent, "divergent"), (bounded, "bounded")):
            for d, v in zip(rpt.depths, rpt.log2_values):
                rows.append(
                    {"side": side, "space": rpt.space, "depth": d, "log2_norm": repr(v)}
                )
        _write_csv(args, ["side", "space", "depth", "log2_norm"], rows)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_equiv(args) -> int:
    _check_tol(args)
    if args.samples < 1:
        raise ParamError(f"--samples must be >= 1, got {args.samples}")
    if args.depth < 0:
        raise ParamError(f"--depth must be >= 0, got {args.depth}")
    samples = random_sample_set(
        args.seed,
        args.samples,
        dims=(args.dim,),
        depth_1d=args.depth,
        depth_nd=args.depth,
    )
    check = args.check
    s, tau, p, q, tol = args.s, args.tau, args.p, args.q, args.tol
    if check == "collapse-f":
        report = check_collapse_f(samples, s, tau, p, q, tol=tol)
    elif check == "collapse-b":
        report = check_collapse_b(samples, s, tau, p, q, tol=tol)
    elif check == "holder":
        report = check_holder_embeddings(samples, s, tau, p, q)
    elif check == "identities":
        if args.r is None:  # r = 0, named so in the config echo
            args.r = 0
        report = check_exact_identities(samples, s, p, q, args.r)
    else:  # inhom-f or inhom-b
        family = check.removeprefix("inhom-")
        report = check_collapse_inhomogeneous(samples, s, tau, p, q, family=family, tol=tol)
    if args.format == "json":
        fields = ("check", "lower_constant", "upper_constant", "worst_ratio_low",
                  "worst_ratio_high", "samples", "vacuous", "tol", "all_ok")
        _write_json(args, {key: getattr(report, key) for key in fields})
    else:
        _write_csv(
            args,
            ["sample_id", "ratio_low", "ratio_high"],
            [
                {"sample_id": sid, "ratio_low": repr(lo), "ratio_high": repr(hi)}
                for sid, lo, hi in report.rows
            ],
        )
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION_FAILED


def _check_dim(args) -> None:
    if args.dim < 1:
        raise ParamError(f"--dim must be >= 1, got {args.dim}")


def _check_tol(args) -> None:
    """Refuse a tolerance that is not a finite number in [0, 1) (NaN included)."""
    if not 0.0 <= args.tol < 1.0:
        raise ParamError(f"--tol must be a finite number in [0, 1), got {args.tol}")


def cmd_classify(args) -> int:
    _check_dim(args)
    if args.family == "cmo" and args.r is None:
        raise ParamError("--r is required for the cmo family")
    fam = _NORM_FAMILIES[args.family]
    tau = args.r if fam == Family.CMO else args.tau  # a CMO descriptor carries r in tau
    report = classify(
        SpaceDescriptor(fam, args.s, tau, args.p, args.q, not args.inhomogeneous, args.dim)
    )
    if args.format == "json":
        _write_json(args, {"report": report.to_json_dict()})
    else:
        d = report.to_json_dict()
        _write_csv(
            args,
            ["verdict", "rule", "target_params", "notes", "q_alpha"],
            [
                {
                    "verdict": d["verdict"],
                    "rule": d["rule"],
                    "target_params": _json_flat(d["target_params"]),
                    "notes": " | ".join(d["notes"]),
                    "q_alpha": d["q_alpha"],
                }
            ],
        )
    return EXIT_OK


def cmd_refute(args) -> int:
    depths = None if args.depths is None else _depths(args.depths)
    bundle = refute_claim(args.s, args.tau, args.p, args.q, dim=args.dim, depths=depths)
    ok = bundle.divergent.verdict == "diverges" and bundle.bounded.verdict == "bounded"
    _write_json(args, {"bundle": bundle.to_json_dict(), "verified": ok})
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_sweep(args) -> int:
    """The verdict of every (tau, p, q) cell, tau-major, and the collapse
    check's worst ratios where it applies.  The cells of one (p, q) are
    checked together, from one kernel over the sample set."""
    _check_dim(args)
    _check_tol(args)
    taus = _list(args.tau_grid, "--tau-grid")
    ps = _list(args.p_grid, "--p-grid")
    qs = _list(args.q_grid, "--q-grid")
    fam = _NORM_FAMILIES[args.family]
    if args.samples < 0:
        raise ParamError(f"--samples must be >= 0, got {args.samples}")
    check_sample_count(args.samples)
    rows, columns = [], {}  # the checked cells of each (p, q): (row, tau)
    for tau in taus:
        for p in ps:
            for q in qs:
                row = {"tau": str(tau), "p": str(p), "q": str(q)}
                rows.append(row)
                if fam == Family.F_TYPE and p == INF:
                    row.update(verdict="invalid", rule="Definition 1(i)")
                else:
                    report = classify(SpaceDescriptor(fam, args.s, tau, p, q, True, args.dim))
                    row.update(verdict=report.verdict.value, rule=report.rule)
                row.update(ratio_low="", ratio_high="")
                if row["verdict"] in ("F_inf_inf", "B_inf_inf") and args.samples > 0:
                    columns.setdefault((p, q), []).append((row, tau))
    if columns:  # one sample set, drawn as a forest, for every checked cell
        samples = random_sample_set(args.seed, args.samples, dims=(args.dim,),
                                    depth_1d=6, depth_nd=4)
        for (p, q), cells in columns.items():  # as check_collapse_f or _b, at every tau
            reports = _collapse(f"collapse_{args.family}", samples, args.s,
                                [tau for _, tau in cells], p, q, fam, args.tol)
            for (row, _), eqr in zip(cells, reports):
                row["ratio_low"] = repr(eqr.worst_ratio_low)
                row["ratio_high"] = repr(eqr.worst_ratio_high)
    if args.format == "json":
        _write_json(args, {"cells": rows})
    else:
        _write_csv(
            args, ["tau", "p", "q", "verdict", "rule", "ratio_low", "ratio_high"], rows
        )
    return EXIT_OK


# The grid-size bound: ``analyze`` samples 2**(dim * L) points, and the filter
# bank and the band-passes hold several arrays of that size.
GRID_BITS_BOUND = 24
# The modes bound: the random signal draws its modes one at a time in Python,
# about 20 us a mode, so the bound keeps the draws near a second.
MODES_BOUND = 1 << 16


def cmd_analyze(args) -> int:
    _check_dim(args)
    if args.dim * args.L > GRID_BITS_BOUND:
        raise ParamError(
            f"--dim {args.dim} and --L {args.L} make a grid of 2**{args.dim * args.L} "
            f"points, over the bound of 2**{GRID_BITS_BOUND}", rule="grid-size bound"
        )
    if args.modes < 0:
        raise ParamError(f"--modes must be >= 0, got {args.modes}")
    if args.modes > MODES_BOUND:
        raise ParamError(
            f"--modes {args.modes} is over the bound of {MODES_BOUND}", rule="modes bound"
        )
    # the mode 2**j0 may reach the grid's Nyquist frequency 2**(L-1), no further
    if args.signal == "harmonic" and not 0 <= args.j0 <= args.L - 1:
        raise ParamError(f"--j0 must lie in 0..L-1 = 0..{args.L - 1}, got {args.j0}")
    if args.max_level is not None and not 0 <= args.max_level <= args.L - 2:
        raise ParamError(f"--max-level must lie in 0..L-2 = 0..{args.L - 2}, got {args.max_level}")
    bank = build_filter_bank(args.L)
    rng = np.random.default_rng(args.seed)
    if args.signal == "harmonic":
        f = GridFunction.harmonic(args.dim, args.L, 1 << args.j0)
    elif args.signal == "random-bandlimited":
        f = GridFunction.random_bandlimited(
            args.dim, args.L, rng, n_modes=args.modes, j_hi=args.L - 3
        )
    else:  # sawtooth-smoothed
        f = GridFunction.sawtooth_smoothed(args.dim, args.L)
    params = SpaceParams(_NORM_FAMILIES[args.family], args.s, args.tau, args.p, args.q,
                         not args.inhomogeneous)
    report = transform_consistency(f, bank, params, args.max_level)
    payload = {
        "bank": {
            "L": bank.log_resolution,
            "lower_bound_constant": bank.lower_bound_constant,
            "valid_levels": [bank.valid_levels.start, bank.valid_levels.stop - 1],
        },
        "consistency": report.to_json_dict(),
        "coefficients": {"entries": report.entries},
    }
    _write_json(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# The option table: for each command, the option whose value selects what a
# command line reads (None when every line reads the same), the defaults of
# the mathematical options its parser takes, and, for each selector value,
# the options read.  The parser takes these options with None defaults, so
# that ``_read_options`` can refuse one given but not read (exit 3) before
# it fills in the defaults that the config echo shows.  --seed, --threads,
# --out, --format and the command's own options are outside the table.
_SPACE = {"s": 0, "tau": 0, "p": 2, "q": 2, "dim": 1, "inhomogeneous": False}
_F_B = "s tau p q inhomogeneous"
_COLLAPSE = "s tau p q dim tol"
OPTION_TABLE = {
    "norm": ("family", {**_SPACE, "r": None}, {
        "f": _F_B, "b": _F_B, "cmo": "s q r", "bbmo": "s p q", "finfinf": "s", "binfinf": "s",
    }),
    # the README's separating pair: the shared p = q = 2 fail the witness's q > p
    "witness": (None, {**_SPACE, "tau": Fraction(1, 2), "p": 1}, {None: "s tau p q dim"}),
    "equiv": ("check", {**_SPACE, "r": None, "tol": 1e-9}, {
        "collapse-f": _COLLAPSE, "collapse-b": _COLLAPSE, "holder": "s tau p q dim",
        "identities": "s p q r dim", "inhom-f": _COLLAPSE, "inhom-b": _COLLAPSE,
    }),
    "classify": ("family", {**_SPACE, "r": None}, {
        "f": _F_B + " dim", "b": _F_B + " dim", "cmo": "s q r dim inhomogeneous",
        "bbmo": "s p q dim inhomogeneous",
    }),
    "refute": (None, _SPACE, {None: "s tau p q dim"}),
    "sweep": (None, {"s": 0, "dim": 1, "tol": 1e-9}, {None: "s dim tol"}),
    "analyze": ("signal", {**_SPACE, "j0": 3, "modes": 20}, {
        "harmonic": _F_B + " dim j0", "random-bandlimited": _F_B + " dim modes",
        "sawtooth-smoothed": _F_B + " dim",
    }),
}

_OPTION_TYPES = {"dim": int, "j0": int, "modes": int, "tol": float}  # the rest: parse_extended


def _read_options(args) -> None:
    """Refuse every table option that the command line gives and its command
    does not read; then fill in the defaults of those it leaves out."""
    selector, defaults, reads = OPTION_TABLE[args.command]
    value = getattr(args, selector) if selector else None
    read = reads[value].split()
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in read:
            where = f"{args.command} --{selector} {value}" if selector else args.command
            raise ParamError(f"--{name} is not read by {where}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Each ``main`` call reuses it, so it must not be mutated: it holds only
    immutable defaults, and ``parse_args`` returns a fresh namespace.
    """
    ap = argparse.ArgumentParser(
        prog="dyadic-spaces",
        description="Norms, equivalences, counterexamples and classification "
        "for dyadic sequence spaces",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, text, formats=("json", "csv"), seed=True, **selector):
        """The parser of one command: its selector and table options, then
        the options outside the table; the caller adds the command's own."""
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(func=func)
        option, defaults, reads = OPTION_TABLE[name]
        if option:
            sp.add_argument(f"--{option}", choices=tuple(reads), **selector)
        for key in defaults:
            if key == "inhomogeneous":
                sp.add_argument("--inhomogeneous", action="store_true", default=None)
            else:
                sp.add_argument(f"--{key}", type=_OPTION_TYPES.get(key, parse_extended))
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
        sp.add_argument("--threads", type=int, default=None,
                        help="ignored; every command runs serially")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        return sp

    sp = command("norm", cmd_norm, "evaluate a sequence norm on a JSONL file", required=True)
    sp.add_argument("--in", dest="infile", type=Path, required=True)

    sp = command("witness", cmd_witness, "tower growth certification")
    sp.add_argument("--depths", default="4,8,16,32,64")
    sp.add_argument("--part", choices=("f", "b"), default="f")

    sp = command("equiv", cmd_equiv, "equivalence checks over random samples", required=True)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--depth", type=int, default=8)

    command("classify", cmd_classify, "symbolic parameter classification", seed=False,
            required=True)

    sp = command("refute", cmd_refute, "counterexample bundle for the equivalence claim",
                 ("json",))
    sp.add_argument("--depths", default=None)

    sp = command("sweep", cmd_sweep, "verdict/ratio grid over (tau, p, q)")
    sp.add_argument("--family", choices=("f", "b"), default="f")
    sp.add_argument("--tau-grid", default="0,1/4,1/2,1,2")
    sp.add_argument("--p-grid", default="1/2,1,2")
    sp.add_argument("--q-grid", default="1,2,inf")
    sp.add_argument("--samples", type=int, default=50)

    sp = command("analyze", cmd_analyze, "filter bank + transform consistency", ("json",),
                 default="random-bandlimited")
    sp.add_argument("--L", type=int, default=8)
    sp.add_argument("--family", choices=("f", "b"), default="f")
    sp.add_argument("--max-level", type=int, default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _read_options(args)
        if getattr(args, "seed", 0) < 0:  # numpy would refuse it without naming it
            raise ParamError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except SequenceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ParamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except OverflowError as exc:  # a parameter such as --s 2000 past the float range
        print(f"error: out of the float range: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except MemoryError:
        print("error: out of memory: the input or the parameters need more than is available",
              file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
