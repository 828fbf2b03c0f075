"""The record scan of ``load_jsonl`` against its line loop.

A file as ``save_jsonl`` writes it, at any size, is read by
``seqspace._scan``, one regex pass over its records, into int64 arrays;
any other file is read line by line into lists.  Both go to
``CubeSequence.from_records``, and must give the same sequence, or the same
error message.  The loop is forced by replacing ``_scan``; the int64
branches of the key building and the sort are taken at every size by
setting ``_geometry._NUMPY_SHELLS`` to 0.
"""
import json
import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_spaces import CubeSequence, DyadicCube, save_jsonl, saturated_tree_sequence
from dyadic_spaces import _geometry, seqspace
from dyadic_spaces.seqspace import SequenceFormatError, load_jsonl

from _oracles import reference_jsonl


@contextmanager
def patched(owner, name, value):
    old = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def fields(seq: CubeSequence) -> tuple:
    return (seq.root, seq.max_depth, seq._width, seq._key, seq._node_depth,
            seq._log2t.tobytes())


def outcome(load, *args):
    """The fields of the sequence ``load`` returns, or its error message."""
    try:
        return fields(load(*args))
    except ValueError as exc:  # SequenceFormatError too
        return str(exc)


def load_both(path) -> tuple[list, object, object]:
    """(whether the scan and the int64 sort ran, scan side, loop side)."""
    ran = []
    scan, sort = seqspace._scan, _geometry._depth_first_int64

    def spy_scan(text):
        found = scan(text)
        ran.append(("scan", found is not None))
        return found

    def spy_sort(*args):
        ran.append(("int64", True))
        return sort(*args)

    with patched(_geometry, "_NUMPY_SHELLS", 0), patched(seqspace, "_scan", spy_scan), \
            patched(_geometry, "_depth_first_int64", spy_sort):
        fast = outcome(load_jsonl, path)
    with patched(seqspace, "_scan", lambda text: None):
        slow = outcome(load_jsonl, path)
    return ran, fast, slow


def narrow(n: int, width: int) -> bool:
    return n * width + width.bit_length() <= 62


@st.composite
def sequences(draw):
    """Sequences of dims 1-3 under roots at negative, zero and positive
    levels, from no records to 50, with widths on both sides of the int64
    rule (n * D + depth bits <= 62) and of 18-digit indices."""
    n = draw(st.integers(1, 3))
    root = DyadicCube(n, draw(st.sampled_from([-3, 0, 5])),
                      tuple(draw(st.integers(-3, 3)) for _ in range(n)))
    limit = max(w for w in range(64) if narrow(n, w))
    width = draw(st.sampled_from([0, 1, 4, 9, limit, limit + 1, 62 // n, 80 // n]))
    cubes = {}
    for i in range(draw(st.integers(0, 50))):
        d = draw(st.integers(0, width)) if i else width  # one record at the full width
        rel = tuple(draw(st.integers(0, 2**d - 1)) for _ in range(n))
        cubes[d, tuple((r << d) + k for r, k in zip(root.index, rel))] = draw(st.sampled_from(
            [-math.inf, 0.0, -0.0, 1.5, -1e-300, 1023.9, 2000.0, -1074.5, 1 / 3]
        ))
    levels = [root.level + d for d, _ in cubes]
    indices = [k for _, k in cubes]
    return CubeSequence.from_records(root, levels, indices, list(cubes.values()), width)


@given(sequences())
@settings(max_examples=80, deadline=None)
def test_saved_files_load_alike(tmp_path_factory, seq):
    path = tmp_path_factory.mktemp("scan") / "seq.jsonl"
    save_jsonl(seq, path)
    ran, fast, slow = load_both(path)
    assert fast == slow == fields(seq)
    width = max(seq._node_depth, default=0)
    digits = max((len(str(abs(x))) for _, k, _ in seq._records() for x in k), default=0)
    assert ("scan", digits <= 18) in ran
    if ("scan", True) in ran:
        assert (("int64", True) in ran) == narrow(seq.dim, width)


def _edit_log2v(line: str, text: str) -> str:
    return re.sub(r'"log2v": [^,]*', f'"log2v": {text}', line)


def _moved(rec: dict, j0: int, r: tuple, depth: int, how: str) -> dict:
    d = rec["j"] - j0
    if how == "outside":  # the next cube along axis 0, past the root's edge
        return {**rec, "k": [(r[0] + 1) << d, *rec["k"][1:]]}
    if how == "above":
        return {**rec, "j": j0 - 1}
    shift = depth + 1 - d  # a descendant one level below the depth bound
    return {**rec, "j": j0 + depth + 1, "k": [k << shift for k in rec["k"]]}


def _mutations():
    dump = lambda rec: json.dumps(rec, sort_keys=True)  # noqa: E731
    huge = 10**400
    return {
        "compact": lambda rec, line: json.dumps(rec, sort_keys=True, separators=(",", ":")),
        "spaced": lambda rec, line: line.replace(": ", ":  ", 1),
        "trailing spaces": lambda rec, line: line + "  ",
        "leading spaces": lambda rec, line: "  " + line,
        "junk prefix": lambda rec, line: "x" + line,
        "key order": lambda rec, line: json.dumps(dict(reversed(rec.items()))),
        "extra key": lambda rec, line: dump({**rec, "w": 1}),
        "v only": lambda rec, line: dump({k: v for k, v in rec.items() if k != "log2v"}),
        "leading zero": lambda rec, line: line.replace('"k": [', '"k": [0', 1),
        "bare dot": lambda rec, line: _edit_log2v(line, f"{int(rec['log2v'])}."),
        "plus sign": lambda rec, line: line.replace('"j": ', '"j": +', 1),
        # an Arabic-Indic three after the digits: int() reads it, JSON does not
        "arabic digit": lambda rec, line: line.replace(f'"j": {rec["j"]}',
                                                        f'"j": {rec["j"]}\u0663', 1),
        "integer log2v": lambda rec, line: _edit_log2v(line, str(round(rec["log2v"]))),
        "log2v -0": lambda rec, line: _edit_log2v(line, "-0"),
        "log2v NaN": lambda rec, line: dump({**rec, "log2v": math.nan}),
        "log2v Infinity": lambda rec, line: dump({**rec, "log2v": math.inf}),
        "log2v -Infinity": lambda rec, line: dump({**rec, "log2v": -math.inf}),
        "v NaN": lambda rec, line: dump({**rec, "v": math.nan}),
        "v Infinity": lambda rec, line: dump({**rec, "v": math.inf}),
        "v -Infinity": lambda rec, line: dump({**rec, "v": -math.inf}),
        "huge j": lambda rec, line: dump({**rec, "j": huge}),
        "huge k": lambda rec, line: dump({**rec, "k": [huge] * len(rec["k"])}),
        "huge log2v": lambda rec, line: dump({**rec, "log2v": huge}),
        "huge negative log2v": lambda rec, line: dump({**rec, "log2v": -huge}),
        "huge v": lambda rec, line: dump({**rec, "v": huge}),
        "19-digit k": lambda rec, line: dump({**rec, "k": [10**18 + k for k in rec["k"]]}),
    }


MUTATIONS = _mutations()
PLACEMENTS = ("outside", "above", "below")
WHOLE = ("crlf", "blank line", "blank-ish line", "no trailing newline", "duplicate",
         "split header")


@pytest.mark.parametrize("mutation", [*MUTATIONS, *PLACEMENTS, *WHOLE])
@given(sequences(), st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_mutated_files_load_alike(tmp_path_factory, mutation, seq, pick):
    """One line of a saved file changed: the same sequence, or the same
    error message, both ways."""
    path = tmp_path_factory.mktemp("scan") / "seq.jsonl"
    save_jsonl(seq, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    i = 1 + pick % max(len(lines) - 1, 1)
    if i < len(lines):
        rec = json.loads(lines[i])
        if mutation in MUTATIONS:
            lines[i] = MUTATIONS[mutation](rec, lines[i])
        elif mutation in PLACEMENTS:
            j0, r = header["root"]["j"], tuple(header["root"]["k"])
            lines[i] = json.dumps(_moved(rec, j0, r, header["depth"], mutation), sort_keys=True)
        elif mutation == "duplicate":
            lines.insert(i, _edit_log2v(lines[i], repr(rec["log2v"] + 1)))
    if mutation == "split header":  # U+2028 ends a line to splitlines, not to JSON
        lines[0] = json.dumps({**header, "note": "a\u2028b"}, sort_keys=True, ensure_ascii=False)
    if mutation in ("blank line", "blank-ish line"):
        lines.insert(i, "" if mutation == "blank line" else " \t")
    text = "\n".join(lines) + ("" if mutation == "no trailing newline" else "\n")
    path.write_text(text.replace("\n", "\r\n") if mutation == "crlf" else text,
                    encoding="utf-8", newline="")
    _, fast, slow = load_both(path)
    assert fast == slow


@given(
    st.integers(1, 3),
    st.sampled_from([-2, 0, 4, 2**70]),
    st.lists(st.tuples(st.integers(-2, 9), st.integers(-3, 2**9), st.integers(0, 9)),
             max_size=60),
    st.sampled_from([None, -1, 0, 5, 7]),
)
@settings(max_examples=150, deadline=None)
def test_array_records_match_list_records(n, level, records, max_depth):
    """Records above the root, outside it, below the depth bound, with
    non-finite magnitudes or given twice, in any mix: ``from_records`` on
    int64 arrays names the same first offending record as on lists.  A
    root level past int64 leaves every record above the root."""
    root = DyadicCube(n, level, (1,) * n)
    specials = [0.5, -math.inf, math.nan, math.inf, -2.0, 0.0, 3.25, 1e300, -7.5, 1.0]
    levels = [(0 if level == 2**70 else level) + d for d, _, _ in records]
    indices = [[(1 << max(d, 0)) + (k >> a) for a in range(n)] for d, k, _ in records]
    log2t = [specials[s] for _, _, s in records]
    want = outcome(CubeSequence.from_records, root, levels, indices, log2t, max_depth)
    with patched(_geometry, "_NUMPY_SHELLS", 0):
        got = outcome(CubeSequence.from_records, root, np.array(levels, dtype=np.int64),
                      np.array(indices, dtype=np.int64).reshape(len(records), n),
                      np.array(log2t), max_depth)
    assert got == want


def test_array_records_far_apart_take_the_list_path():
    """Levels 2**63 apart, which an int64 difference would wrap."""
    root = DyadicCube(1, 5 - 2**62, (1,))
    levels = [root.level + 1] * 40 + [2**63 - 1]
    indices = [[2 + i % 2] for i in range(40)] + [[0]]
    want = outcome(CubeSequence.from_records, root, levels, indices, [0.0] * 41)
    assert want.endswith("[key-memory bound]")
    with patched(_geometry, "_NUMPY_SHELLS", 0):
        assert outcome(CubeSequence.from_records, root, np.array(levels, dtype=np.int64),
                       np.array(indices, dtype=np.int64), np.zeros(41)) == want


def test_scan_reads_saved_files_of_any_size(tmp_path, monkeypatch):
    """At the default sizes saved files of 2047 and of 31 records both take
    the scan; the first takes the int64 sort, and the second, fewer than
    ``_NUMPY_SHELLS`` records, the Python one."""
    ran = []
    sort = _geometry._depth_first_int64
    monkeypatch.setattr(_geometry, "_depth_first_int64",
                        lambda *args: ran.append(1) or sort(*args))
    for depth, int64 in ((10, True), (4, False)):
        path = tmp_path / f"sat{depth}.jsonl"
        seq = saturated_tree_sequence(1, depth, 0.5)
        save_jsonl(seq, path)
        assert seqspace._scan(path.read_text()) is not None
        ran.clear()
        assert fields(load_jsonl(path)) == fields(seq)
        assert ran == [1] * int64


def test_a_bad_line_in_a_big_file_is_named(tmp_path):
    """A scanned file with one line the scan refuses is read by the loop,
    which names that line."""
    path = tmp_path / "sat.jsonl"
    save_jsonl(saturated_tree_sequence(2, 4, 0.5), path)
    lines = path.read_text().splitlines()
    lines[200] = lines[200].replace('"j": ', '"j": +')
    path.write_text("\n".join(lines) + "\n")
    try:
        load_jsonl(path)
    except SequenceFormatError as exc:
        assert f"{path}: line 201: " in str(exc)
    else:
        raise AssertionError("the file loaded")


@st.composite
def saved_sequences(draw):
    """Sequences of dims 1-3 under roots at negative and positive levels,
    some with records 13001 levels down, whose indices pass ``_SAFE_BITS``,
    and with magnitudes whose ``v`` overflows to Infinity or underflows to
    0.0."""
    n = draw(st.integers(1, 3))
    root = DyadicCube(n, draw(st.sampled_from([-3, 0, 5])),
                      tuple(draw(st.integers(-3, 3)) for _ in range(n)))
    width = draw(st.sampled_from([0, 3, seqspace._SAFE_BITS + 1]))
    cubes = {}
    for i in range(draw(st.integers(0, 12))):
        d = draw(st.sampled_from([0, min(1, width), width // 2, width])) if i else width
        rel = tuple(draw(st.integers(0, 2**d - 1)) for _ in range(n))
        cubes[d, tuple((r << d) + k for r, k in zip(root.index, rel))] = draw(st.sampled_from(
            [-math.inf, 0.0, -0.0, 1.5, -1e-300, 1 / 3, 1023.9, 1024.0, 2000.0, -1074.5, -1075.0,
             -1100.0, 1e300]
        ))
    levels = [root.level + d for d, _ in cubes]
    indices = [k for _, k in cubes]
    return CubeSequence.from_records(root, levels, indices, list(cubes.values()), width)


@given(saved_sequences())
@settings(max_examples=80, deadline=None)
def test_saved_lines_are_json_dumps_lines(tmp_path_factory, seq):
    path = tmp_path_factory.mktemp("save") / "seq.jsonl"
    save_jsonl(seq, path)
    assert path.read_bytes() == reference_jsonl(seq).encode()


def test_saved_lines_cover_every_spelling(tmp_path):
    """Infinity and 0.0 for v, and indices past ``_SAFE_BITS``, all in one file."""
    d = seqspace._SAFE_BITS + 1
    root = DyadicCube(2, -3, (-1, 2))
    deep = tuple((r << d) + (1 << d - 1) for r in root.index)
    seq = CubeSequence.from_records(root, [-3, -2, -3 + d], [root.index, (-2, 4), deep],
                                    [2000.0, -1100.0, 0.5])
    save_jsonl(seq, tmp_path / "seq.jsonl")
    text = (tmp_path / "seq.jsonl").read_text()
    assert text == reference_jsonl(seq)
    assert '"v": Infinity}' in text and '"v": 0.0}' in text
    assert max(map(len, text.splitlines())) > 2 * 3914
