"""The array report driver, the shared-kernel collapse rows and the one-pass
JSON writer, each against the route it replaced, byte for byte.

``equivalence._report`` forms every check's ratios, worst ratios and CSV
rows by array operations; ``reference_report`` forms them a sample at a
time.  ``Forest.log2_norm_rows`` evaluates one F or B norm at several tau
from one kernel; each row must equal ``Forest.log2_norms`` at its own params.
``cli._json_text`` writes a document in one recursive pass;
``reference_json_text`` is ``json_dumps(..., indent=2)`` after sanitizing.
Reports are compared through the ``repr`` of their fields, which tells
NaN, -0.0 and every float apart.
"""
import csv
import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_spaces import (
    DyadicCube, Family, Forest, SpaceParams, check_collapse_b, check_collapse_f,
    check_collapse_inhomogeneous, check_exact_identities, check_holder_embeddings,
    random_sample_set, random_sequence,
)
from dyadic_spaces.cli import _json_text, main
from dyadic_spaces.equivalence import _collapse, _report, identity_tolerance

from _oracles import reference_json_text, reference_report, zero_sequence

INF = math.inf
NEG_INF = -math.inf


def fields(report) -> str:
    return repr(dataclasses.astuple(report))


# log2 norms: ordinary values, zeros (-inf), values whose difference
# overflows 2**x to inf or underflows it to 0, and the non-finite ones
LOG2 = st.one_of(
    st.floats(-60, 60),
    st.sampled_from([NEG_INF, INF, math.nan, 0.0, -0.0, 1100.0, -1100.0, 1024.0, -1075.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def log2_tables(draw):
    """(num, den) of one or two columns, a row per sample."""
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 2))
    cells = st.lists(LOG2, min_size=rows * width, max_size=rows * width)
    num = np.array(draw(cells), dtype=float).reshape(rows, width)
    den = np.array(draw(cells), dtype=float).reshape(rows, width)
    # vacuous pairs: both sides -inf
    both = np.array(draw(st.lists(st.booleans(), min_size=rows * width,
                                  max_size=rows * width)), dtype=bool).reshape(rows, width)
    num[both] = den[both] = NEG_INF
    return num, den


class TestReportDriver:
    @settings(max_examples=300, deadline=None)
    @given(log2_tables(), st.sampled_from([0.0, 1.0]), st.sampled_from([1.0, 1.5, INF]),
           st.sampled_from([0.0, 1e-9, 0.5]), st.booleans())
    def test_equals_the_sample_loop(self, table, lower, upper, tol, ordered):
        num, den = table
        if ordered and num.shape[1] == 1:
            ordered = False  # sorting is for the two identity pairs
        got = _report("c", num, den, lower, upper, tol, ordered)
        assert fields(got) == fields(reference_report("c", num, den, lower, upper, tol, ordered))

    def test_every_sample_vacuous_reads_the_lower_constant(self):
        num = np.full((3, 2), NEG_INF)
        got = _report("c", num, num, 1.0, 2.0, 0.0)
        assert (got.worst_ratio_low, got.worst_ratio_high, got.vacuous, got.rows) == (
            1.0, 1.0, 3, [])

    def test_overflow_and_zero_ratios(self):
        num = np.array([[2000.0], [NEG_INF], [0.0]])
        den = np.array([[0.0], [0.0], [NEG_INF]])
        got = _report("c", num, den, 1.0, 1.0, 0.0)
        assert got.rows == [(0, INF, INF), (1, 0.0, 0.0), (2, INF, INF)]
        assert (got.worst_ratio_low, got.worst_ratio_high, got.all_ok) == (0.0, INF, False)


def mixed_forest(seed: int, count: int, dim: int = 1) -> Forest:
    """Random samples with a vacuous one (no support) among them."""
    rng = np.random.default_rng(seed)
    seqs = [random_sequence(rng, dim, 5) for _ in range(count)]
    seqs.insert(count // 2, zero_sequence(DyadicCube.unit(dim)))
    return Forest(seqs)


COLLAPSE = [
    (family, *cell)
    for family in (Family.F_TYPE, Family.B_TYPE)
    for cell in [(Fraction(3, 2), 1, 2), (Fraction(1, 2), 2, INF), (2, 1, 1)]
] + [(Family.B_TYPE, 1, INF, 2)]


class TestChecksAgainstTheLoop:
    """Each check's report equals the sample loop run on its forest's norms."""

    @pytest.mark.parametrize("family, tau, p, q", COLLAPSE)
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_collapse(self, family, tau, p, q, homogeneous):
        forest = mixed_forest(1, 9)
        params = SpaceParams(family, 0, tau, p, q, homogeneous)
        s_eff = float(tau) - 1.0 / float(p)
        num = forest.log2_norms(params)
        den = forest.log2_norms(SpaceParams(Family.F_INF_INF, s_eff, 0, INF, INF))
        if homogeneous:
            check = check_collapse_f if family == Family.F_TYPE else check_collapse_b
            got = check(forest, 0, tau, p, q)
        else:
            got = check_collapse_inhomogeneous(
                forest, 0, tau, p, q, family="f" if family == Family.F_TYPE else "b")
        want = reference_report(got.check, num[:, None], den[:, None], 1.0,
                                got.upper_constant, 1e-9)
        assert got.vacuous == 1
        assert fields(got) == fields(want)

    def test_holder(self):
        forest = mixed_forest(2, 9)
        s, tau, p, q = 0, 0.25, 1, 2
        rhs = forest.log2_norms(SpaceParams(Family.B_TYPE, s, tau + 1 / q - 1 / p, q, q),
                                allow_negative_tau=True)
        f = forest.log2_norms(SpaceParams(Family.F_TYPE, s, tau, p, q))
        b = forest.log2_norms(SpaceParams(Family.B_TYPE, s, tau, p, q))
        want = reference_report("holder_embeddings", np.column_stack([f, b]),
                                np.column_stack([rhs, rhs]), 0.0, 1.0, identity_tolerance(p, q))
        assert fields(check_holder_embeddings(forest, s, tau, p, q)) == fields(want)

    @pytest.mark.parametrize("p, q, r", [(2, 2, 1), (INF, 3, 1), (1, INF, 0)])
    def test_identities_sorted_pairs(self, p, q, r):
        forest = mixed_forest(3, 9)
        s = 0.5
        twin = (SpaceParams(Family.F_INF_INF, s, 0, INF, INF) if q == INF
                else SpaceParams(Family.F_TYPE, s, r / q, q, q))
        a = forest.log2_norms(SpaceParams(Family.CMO, s, r, q, q))
        b = forest.log2_norms(twin)
        c = forest.log2_norms(SpaceParams(Family.BBMO, s, 0, p, q))
        d = forest.log2_norms(SpaceParams(Family.B_TYPE, s, 1 / float(p), p, q))
        want = reference_report("exact_identities", np.column_stack([a, c]),
                                np.column_stack([b, d]), 1.0, 1.0, identity_tolerance(p, q),
                                ordered=True)
        assert fields(check_exact_identities(forest, s, p, q, r)) == fields(want)

    @pytest.mark.parametrize("check, extra", [
        ("collapse-f", ["--tau", "3/2", "--p", "1", "--q", "2"]),
        ("holder", ["--tau", "1/4", "--p", "1", "--q", "2"]),
        ("identities", ["--p", "2", "--q", "2", "--r", "1"]),
    ])
    def test_csv_rows(self, check, extra, tmp_path):
        out = tmp_path / "rows.csv"
        argv = ["equiv", "--check", check, "--samples", "30", "--depth", "6", "--seed", "5",
                "--format", "csv", *extra]
        assert main([*argv, "--out", str(out)]) == 0
        got = [(r["sample_id"], r["ratio_low"], r["ratio_high"])
               for r in csv.DictReader(io.StringIO(out.read_text()))]
        forest = random_sample_set(5, 30, dims=(1,), depth_1d=6, depth_nd=6)
        if check == "collapse-f":
            report = check_collapse_f(forest, 0, Fraction(3, 2), 1, 2)
            num = forest.log2_norms(SpaceParams(Family.F_TYPE, 0, 1.5, 1, 2))[:, None]
            den = forest.log2_norms(SpaceParams(Family.F_INF_INF, 0.5, 0, INF, INF))[:, None]
            want = reference_report("collapse_f", num, den, 1.0, report.upper_constant, 1e-9)
        elif check == "holder":
            rhs = forest.log2_norms(SpaceParams(Family.B_TYPE, 0, -0.25, 2, 2),
                                    allow_negative_tau=True)
            num = np.column_stack([forest.log2_norms(SpaceParams(Family.F_TYPE, 0, 0.25, 1, 2)),
                                   forest.log2_norms(SpaceParams(Family.B_TYPE, 0, 0.25, 1, 2))])
            want = reference_report("holder_embeddings", num, np.column_stack([rhs, rhs]),
                                    0.0, 1.0, 1e-12)
        else:
            num = np.column_stack([forest.log2_norms(SpaceParams(Family.CMO, 0, 1, 2, 2)),
                                   forest.log2_norms(SpaceParams(Family.BBMO, 0, 0, 2, 2))])
            den = np.column_stack([forest.log2_norms(SpaceParams(Family.F_TYPE, 0, 0.5, 2, 2)),
                                   forest.log2_norms(SpaceParams(Family.B_TYPE, 0, 0.5, 2, 2))])
            want = reference_report("exact_identities", num, den, 1.0, 1.0, 1e-12, ordered=True)
        assert got == [(str(i), repr(lo), repr(hi)) for i, lo, hi in want.rows]


class TestSharedKernelRows:
    TAUS = [0, 0.25, Fraction(1, 2), 1, 2, 3]

    @pytest.mark.parametrize("family, p, q", [
        (Family.F_TYPE, 1, 2), (Family.F_TYPE, 2, INF), (Family.F_TYPE, 0.5, 1),
        (Family.B_TYPE, INF, 2), (Family.B_TYPE, 1, INF), (Family.B_TYPE, 2, 2),
    ])
    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_equal_one_norm_at_a_time(self, family, p, q, homogeneous, dim):
        forest = mixed_forest(4, 7, dim)
        rows = [SpaceParams(family, 0.5, tau, p, q, homogeneous) for tau in self.TAUS]
        got = forest.log2_norm_rows(rows)
        want = np.array([forest.log2_norms(r) for r in rows])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [
        [SpaceParams(Family.F_TYPE, 0, 1, 1, 2), SpaceParams(Family.F_TYPE, 0, 1, 2, 2)],
        [SpaceParams(Family.B_TYPE, 0, 1, 1, 2), SpaceParams(Family.B_TYPE, 1, 1, 1, 2)],
        [SpaceParams(Family.CMO, 0, 1, 2, 2), SpaceParams(Family.CMO, 0, 2, 2, 2)],
        [SpaceParams(Family.F_INF_INF, 0, 0, INF, INF),
         SpaceParams(Family.F_INF_INF, 1, 0, INF, INF)],
    ], ids=["p", "s", "cmo", "inf-inf"])
    def test_rows_must_differ_in_tau_alone(self, rows):
        with pytest.raises(ValueError, match="differing in tau alone"):
            mixed_forest(6, 3).log2_norm_rows(rows)

    @pytest.mark.parametrize("check, name, family", [
        (check_collapse_f, "collapse_f", Family.F_TYPE),
        (check_collapse_b, "collapse_b", Family.B_TYPE),
    ])
    def test_a_list_of_tau_gives_each_tau_its_own_report(self, check, name, family):
        forest = random_sample_set(7, 20, dims=(1,), depth_1d=6, depth_nd=4)
        taus = [Fraction(3, 2), 2, 5]
        reports = _collapse(name, forest, 0, taus, 1, 2, family, 1e-9)
        assert [fields(r) for r in reports] == [
            fields(check(forest, 0, tau, 1, 2)) for tau in taus]


# JSON documents as the CLI writes them: str keys; floats with their
# infinities and NaN; ints past the 4300-digit limit; Fractions; bools and
# None; tuples; empty containers; non-ASCII text (no NUL, which the reference
# writer uses to mark a long integer)
TEXT = st.text(st.characters(blacklist_characters="\x00"), max_size=8)
ATOM = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.integers(3900, 5000).map(lambda digits: 10**digits - 7),  # past 13000 bits from 3914
    st.integers(4301, 5000).map(lambda digits: -(10**digits)),
    st.fractions(max_denominator=1000),
    st.booleans(),
    st.none(),
    TEXT,
)
DOC = st.recursive(
    ATOM,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(DOC)
    def test_equals_sanitize_and_json_dumps(self, doc):
        assert _json_text(doc) == reference_json_text(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(TEXT, DOC, max_size=5))
    def test_documents(self, doc):
        assert _json_text(doc) == reference_json_text(doc)

    def test_fixed_document(self):
        doc = {"é": [INF, -INF, (), {}, []], "big": 10**5000, "f": Fraction(-1, 3),
               "nested": {"b": (1, None), "a": [True, False, 0.1]}}
        assert _json_text(doc) == reference_json_text(doc)
        assert '"inf"' in _json_text(doc) and "\\u00e9" in _json_text(doc)

    def test_not_serializable(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _json_text({"x": object()})
