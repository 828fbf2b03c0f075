"""Fuzzed command lines: every draw ends with exit 0-3, no traceback, in time.

The argv test draws command lines over the seven commands, each option
taking a value from a pool of small, hostile and huge values.  Sizes that
cost work are drawn small, and large only where a bound refuses them before
any work: ``--L`` past the grid-size bound, ``--samples`` past the sample
bound, ``--modes`` past the modes bound, tower depths past the depth bound,
and ``--j0`` past its range.  The JSONL test draws small coefficient files
with hostile fields (huge or negative levels, long indices, NaN, deep but
sparse files) and reads each with ``norm``.

During each draw a NaN from invalid arithmetic (numpy's "invalid value"
RuntimeWarning) and numpy's RankWarning are errors: either means a verdict
rests on a value no input supports.  Overflow warnings are left as they are.
"""
import contextlib
import io
import json
import math
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadic_spaces import CubeSequence, DyadicCube, save_jsonl
from dyadic_spaces.cli import OPTION_TABLE, main

SMALL = st.integers(-3, 8).map(str)
HUGE = st.sampled_from(["16385", "65537", "100000", "1100", "9" * 40, "-" + "9" * 40])
NUMBER = st.one_of(
    st.sampled_from(["0", "1", "2", "1/2", "1/4", "3/2", "inf"]),
    st.sampled_from(["-1", "-1/4", "0.25", "-inf", "nan", "1e400", "1/0", "abc", ""]),
    SMALL,
    HUGE,
)
# the command's own options, each with the values it is drawn from
OWN = {
    "norm": {"--format": st.sampled_from(["json", "csv", "xml"])},
    "witness": {"--depths": st.sampled_from(["4,8", "0", "4,16385", "-1", "a,b", "", "8,8,8"]),
                "--part": st.sampled_from(["f", "b"]),
                "--format": st.sampled_from(["json", "csv"])},
    "equiv": {"--samples": st.one_of(st.integers(-1, 4).map(str), st.just(str((1 << 20) + 1))),
              "--depth": st.integers(-1, 4).map(str),
              "--format": st.sampled_from(["json", "csv"])},
    "classify": {"--format": st.sampled_from(["json", "csv"])},
    "refute": {"--depths": st.sampled_from(["4,8", "4,16385", "-1", "x"])},
    "sweep": {"--family": st.sampled_from(["f", "b"]),
              "--tau-grid": st.lists(NUMBER, min_size=1, max_size=2).map(",".join),
              "--p-grid": st.lists(NUMBER, min_size=1, max_size=2).map(",".join),
              "--q-grid": st.lists(NUMBER, min_size=1, max_size=2).map(",".join),
              "--samples": st.one_of(st.integers(-1, 3).map(str), st.just(str((1 << 20) + 1)))},
    "analyze": {"--L": st.one_of(st.integers(-1, 6).map(str), HUGE),
                "--family": st.sampled_from(["f", "b"]),
                "--max-level": st.one_of(SMALL, HUGE)},
}
# the table's options: cheap values, and huge ones only where a bound refuses them
TABLE_VALUES = {
    "dim": st.integers(-1, 2).map(str),
    "j0": st.one_of(SMALL, HUGE),
    "modes": st.one_of(st.integers(-1, 30).map(str), HUGE),
    "tol": st.sampled_from(["1e-9", "0", "-1", "nan", "inf"]),
}


IN = "<in>"  # the place of the norm command's input file
RANK_WARNING = getattr(np, "exceptions", np).RankWarning  # np.RankWarning before numpy 1.25


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTION_TABLE)))
    selector, defaults, reads = OPTION_TABLE[command]
    argv = [command]
    if selector:
        argv += [f"--{selector}", draw(st.sampled_from(sorted(map(str, reads))))]
    # the options this line reads, and now and then one it does not
    read = reads[argv[-1] if selector else None].split()
    unread = [name for name in defaults if name not in read]
    if unread and draw(st.integers(0, 9)) == 0:
        read.append(draw(st.sampled_from(unread)))
    pool = dict(OWN[command])
    for name in read:
        pool[f"--{name}"] = TABLE_VALUES.get(name, NUMBER)
    if command != "classify":
        pool["--seed"] = st.sampled_from(["0", "3", "-1"])
    for option in draw(st.lists(st.sampled_from(sorted(pool)), max_size=5, unique=True)):
        if option == "--inhomogeneous":
            argv.append(option)
        else:
            # the = form keeps a value such as "-1" from reading as an option
            argv.append(f"{option}={draw(pool[option])}")
    if command == "norm":
        argv += ["--in", IN]
    return argv


def _run(argv) -> tuple[int, str]:
    """The exit code of ``main`` and its stderr; any other exception, and a
    NaN or rank warning turned into one, is a traceback and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.filterwarnings("error", "invalid value", RuntimeWarning)
        warnings.filterwarnings("error", category=RANK_WARNING)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 for an argument error
            code = exc.code
    return code, err.getvalue()


# a draw takes a few ms; the slowest seen took 0.2 s
FUZZ = settings(
    max_examples=250,
    deadline=timedelta(seconds=1),
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    seq = CubeSequence.from_values({DyadicCube.unit(1): 1.0, DyadicCube(1, 2, (3,)): 0.5})
    save_jsonl(seq, path / "small.jsonl")
    return path


@FUZZ
@given(argv=argvs())
def test_fuzzed_command_lines_exit_0_to_3(argv, workdir):
    argv = [str(workdir / "small.jsonl") if arg == IN else arg for arg in argv]
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 3:
        assert err.startswith("error: "), (argv, err)


def _field(draw, valid, hostile):
    """A field's value: one time in ten drawn from ``hostile``."""
    return draw(st.sampled_from(hostile)) if draw(st.integers(0, 9)) == 0 else draw(valid)


@st.composite
def bodies(draw):
    """A small JSONL file: a header and up to four records, most of them
    well formed and some deep (2**17 levels, indices of up to 3000 bits),
    each field now and then hostile: huge or negative levels, huge indices,
    NaN and Infinity (as the json module writes them), wrong types and
    lengths, and a malformed line."""
    dim = _field(draw, st.sampled_from([1, 2]), [0, -1, 70, 1.5, "1"])
    width = dim if dim in (1, 2) else 1
    depth = _field(draw, st.sampled_from([0, 3, 6, 1 << 17]), [-1, 10**30, "2"])
    j0 = _field(draw, st.just(0), [-2, 1 << 62, 1 << 64])
    header = {"dim": dim, "root": {"j": j0, "k": [0] * width}, "depth": depth}
    lines = [json.dumps(header)]
    deepest = depth if isinstance(depth, int) and 0 <= depth <= 1 << 17 else 0
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(0, deepest))
        bound = (1 << min(d, 3000)) - 1
        k = [_field(draw, st.integers(0, bound), [-1, bound + 1, 10**400]) for _ in range(width)]
        k += _field(draw, st.just([]), [[0]])
        j = _field(draw, st.just(j0 + d if isinstance(j0, int) else d),
                   [-(1 << 70), 1 << 64, deepest + 1, "1", 1.5])
        key, value = _field(draw, st.sampled_from([("v", 0.5), ("v", 0.0), ("log2v", -3.0)]),
                            [("v", math.nan), ("v", -1.0), ("log2v", math.inf), ("v", "x"),
                             ("log2v", None), ("v", 1e308 * 10)])
        lines.append(json.dumps({"j": j, "k": k, key: value}))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "{", "[1]", "{}"])))
    return "\n".join(lines) + "\n"


@FUZZ
@given(body=bodies(), family=st.sampled_from(sorted(OPTION_TABLE["norm"][2])))
def test_fuzzed_jsonl_bodies_exit_0_to_3(body, family, workdir):
    path = workdir / "body.jsonl"
    path.write_text(body, encoding="utf-8")
    extra = ["--r", "1"] if family == "cmo" else []
    code, err = _run(["norm", "--family", family, *extra, "--in", str(path)])
    assert code in (0, 2, 3), (body, code, err)
    assert "Traceback" not in err, (body, err)
