import csv
import io
import json
import math
import re
import weakref

import numpy as np
import pytest

from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    Family,
    Forest,
    GridFunction,
    ParamError,
    SpaceDescriptor,
    SpaceParams,
    b_type_norm,
    bbmo_norm,
    build_filter_bank,
    certify_separation,
    check_collapse_b,
    check_collapse_f,
    check_collapse_inhomogeneous,
    check_exact_identities,
    check_holder_embeddings,
    classify,
    classify_cmo,
    cmo_norm,
    cmo_param_of,
    f_type_norm,
    function_norm,
    identity_tolerance,
    random_sample_set,
    random_sequence,
    refute_claim,
    save_jsonl,
    transform_consistency,
)
from dyadic_spaces import cli, equivalence, seqspace, witness
from dyadic_spaces.cli import main, parse_extended
from fractions import Fraction


@pytest.fixture()
def single_cube_file(tmp_path):
    path = tmp_path / "single.jsonl"
    save_jsonl(CubeSequence.from_values({DyadicCube.unit(1): 1.0}), path)
    return path


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestParse:
    def test_rationals_and_inf(self):
        assert parse_extended("1/2") == Fraction(1, 2)
        assert parse_extended("inf") == math.inf
        assert parse_extended("3") == 3
        assert parse_extended("0.25") == 0.25


class TestNorm:
    def test_single_cube_norm(self, single_cube_file, tmp_path):
        code, raw = run(
            ["norm", "--family", "f", "--s", "0", "--tau", "0", "--p", "2",
             "--q", "2", "--in", str(single_cube_file)],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["linear"] == 1.0
        assert doc["log2"] == 0.0
        assert doc["attained_at"] == {"j": 0, "k": [0]}
        assert doc["config"]["command"] == "norm"

    def test_cmo_matches_f_route(self, tmp_path):
        import numpy as np
        from dyadic_spaces.equivalence import random_sequence

        seq = random_sequence(np.random.default_rng(0), 1, 5)
        path = tmp_path / "t.jsonl"
        save_jsonl(seq, path)
        code1, raw1 = run(
            ["norm", "--family", "cmo", "--s", "0", "--q", "2", "--r", "2",
             "--in", str(path)],
            tmp_path, "a.json",
        )
        code2, raw2 = run(
            ["norm", "--family", "f", "--s", "0", "--tau", "1", "--p", "2",
             "--q", "2", "--in", str(path)],
            tmp_path, "b.json",
        )
        assert code1 == code2 == 0
        v1 = json.loads(raw1)["log2"]
        v2 = json.loads(raw2)["log2"]
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_b_with_both_infinite_exponents(self, single_cube_file, tmp_path):
        code, raw = run(
            ["norm", "--family", "b", "--s", "0", "--tau", "0", "--p", "inf",
             "--q", "inf", "--in", str(single_cube_file)],
            tmp_path,
        )
        assert code == 0
        assert json.loads(raw)["linear"] == 1.0

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["norm", "--family", "f", "--in", str(bad)])
        assert code == 2

    def test_index_beyond_int_string_limit(self, tmp_path):
        # about 6000 decimal digits, past Python's 4300-digit conversion limit
        import random

        from dyadic_spaces.seqspace import decimal_to_int, int_to_decimal

        k = random.Random(7).getrandbits(20000)
        deep = DyadicCube(1, 20000, (k,))
        path = tmp_path / "deep.jsonl"
        save_jsonl(CubeSequence.from_values({deep: 0.5}, root=DyadicCube.unit(1)), path)
        args = ["norm", "--family", "b", "--tau", "1/2", "--in", str(path)]
        code, raw = run(args, tmp_path)
        assert code == 0
        doc = json.loads(raw, parse_int=decimal_to_int)
        assert doc["attained_at"] == {"j": 20000, "k": [k]}
        code, raw = run([*args, "--format", "csv"], tmp_path, "out.csv")
        assert code == 0
        assert raw.decode().splitlines()[1].split(",")[3] == int_to_decimal(k)

    def test_duplicate_record_exit_2(self, tmp_path, capsys):
        dup = tmp_path / "dup.jsonl"
        dup.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 1}\n'
            '{"j": 1, "k": [0], "v": 1.0}\n'
            '{"j": 1, "k": [0], "v": 5.0}\n'
        )
        code = main(["norm", "--family", "f", "--in", str(dup)])
        assert code == 2
        # the file's path holds the test's name, so match the whole message
        assert "duplicate record for Q(j=1, k=0)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "depth,records",
        [
            pytest.param(1, ['{"j": 1, "k": [2], "v": 1.0}'], id="outside-root"),
            pytest.param(1, ['{"j": 3, "k": [0], "v": 1.0}'], id="deeper-than-header"),
            pytest.param(1, ['{"j": -1, "k": [0], "v": 1.0}'], id="coarser-than-root"),
            pytest.param(1, ['{"j": 1, "k": [0, 0], "v": 1.0}'], id="index-length"),
            pytest.param(1, ['{"j": 1, "k": 0, "v": 1.0}'], id="scalar-index"),
            pytest.param(1, ['{"j": 1, "k": [0], "log2v": NaN}'], id="log2v-nan"),
            pytest.param(1, ['{"j": 1, "k": [0], "log2v": Infinity}'], id="log2v-inf"),
            pytest.param(1, ['{"j": 1, "k": [0], "v": -1.0}'], id="negative-v"),
            pytest.param(-1, ['{"j": 0, "k": [0], "v": 1.0}'], id="negative-header-depth"),
            pytest.param(
                1, ['{"j": 0, "k": [0], "v": 1.0}', '{"j": 1, "k": [0], "v": 1.0'],
                id="bad-json-line-3",
            ),
        ],
    )
    def test_malformed_input_exit_2(self, depth, records, tmp_path, capsys):
        header = f'{{"dim": 1, "root": {{"j": 0, "k": [0]}}, "depth": {depth}}}'
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([header, *records]) + "\n")
        code = main(["norm", "--family", "f", "--in", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_json_error_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 1}\n'
            "\n"
            '{"j": 0, "k": [0], "v": 1.0}\n'
            '{"j": 1, "k": [0], "v": 1.0\n'
        )
        assert main(["norm", "--family", "f", "--in", str(path)]) == 2
        assert f"{path}: line 4:" in capsys.readouterr().err

    def test_key_memory_bound_exit_2(self, tmp_path, capsys):
        # 801 keys 4,000,000 levels wide would take 3.2e9 bits (400 MB)
        import time

        path = tmp_path / "wide.jsonl"
        records = [f'{{"j": 10, "k": [{k}], "v": 1.0}}' for k in range(800)]
        records.append('{"j": 4000000, "k": [0], "v": 1.0}')
        header = '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 4000000}'
        path.write_text("\n".join([header, *records]) + "\n")
        start = time.perf_counter()
        assert main(["norm", "--family", "finfinf", "--in", str(path)]) == 2
        assert time.perf_counter() - start < 10
        assert "key-memory bound" in capsys.readouterr().err

    def test_duplicate_big_index_record_exit_2(self, tmp_path, capsys):
        # the error message names a cube whose index has about 6000 digits
        import random

        from dyadic_spaces.seqspace import int_to_decimal

        k = int_to_decimal(random.Random(3).getrandbits(20000))
        record = f'{{"j": 20000, "k": [{k}], "v": 1.0}}'
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 20000}\n'
            + f"{record}\n{record}\n"
        )
        assert main(["norm", "--family", "f", "--in", str(path)]) == 2
        assert f"duplicate record for Q(j=20000, k={k})" in capsys.readouterr().err

    def test_header_fields_must_be_integers(self, tmp_path, capsys):
        path = tmp_path / "header.jsonl"
        path.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 1.5}\n'
            '{"j": 1, "k": [0], "v": 1.0}\n'
        )
        assert main(["norm", "--family", "f", "--in", str(path)]) == 2
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("header,message", [
        ("[1, 2]", "the header must be a JSON object"),
        ('{"dim": 1, "root": [0, 0], "depth": 1}', 'the header needs integers "dim"'),
        ('{"dim": 1, "root": "j", "depth": 1}', 'the header needs integers "dim"'),
    ])
    def test_header_must_be_an_object(self, header, message, tmp_path, capsys):
        path = tmp_path / "header.jsonl"
        path.write_text(f'{header}\n{{"j": 1, "k": [0], "v": 1.0}}\n')
        assert main(["norm", "--family", "f", "--in", str(path)]) == 2
        assert f"{path}: line 1: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["log2v", "v"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_the_float_range_exit_2(self, field, sign, tmp_path, capsys):
        # 401 digits: float() of the integer overflows
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 1}\n'
            + f'{{"j": 1, "k": [0], "{field}": {sign}1{"0" * 400}}}\n'
        )
        assert main(["norm", "--family", "f", "--in", str(path)]) == 2
        assert f'{path}: line 2: "{field}" is too large for a float' in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        code = main(["norm", "--family", "f", "--in", "/nonexistent/x.jsonl"])
        assert code == 2

    def test_invalid_params_exit_3(self, single_cube_file):
        code = main(
            ["norm", "--family", "f", "--tau", "-1", "--in", str(single_cube_file)]
        )
        assert code == 3
        code = main(
            ["norm", "--family", "f", "--p", "inf", "--in", str(single_cube_file)]
        )
        assert code == 3


class TestWitness:
    def test_verified_pair_exit_0(self, tmp_path):
        code, raw = run(
            ["witness", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
             "--depths", "4,8,16"],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["divergent"]["verdict"] == "diverges"
        assert doc["bounded"]["verdict"] == "bounded"

    def test_depth_zero_single_cube_values(self, tmp_path):
        code, raw = run(
            ["witness", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
             "--depths", "0"],
            tmp_path,
        )
        doc = json.loads(raw)
        assert doc["divergent"]["log2_values"] == [0.0]
        assert doc["bounded"]["log2_values"] == [0.0]

    def test_defaults_are_the_readme_pair(self, tmp_path):
        code, raw = run(["witness", "--depths", "4,8,16"], tmp_path, "bare.json")
        assert code == 0
        _, explicit = run(
            ["witness", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
             "--depths", "4,8,16"],
            tmp_path, "explicit.json",
        )
        assert raw == explicit

    def test_invalid_region_exit_3(self, tmp_path):
        code = main(["witness", "--s", "0", "--tau", "2", "--p", "1", "--q", "2"])
        assert code == 3

    def test_equal_depths_fit_no_slope(self, tmp_path, capsys):
        """Equal depths leave one point to fit: no slope, and no numpy
        warning on stderr; a single depth cannot show divergence."""
        code, raw = run(["witness", "--depths", "8,8"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == ""
        doc = json.loads(raw)
        for side in ("divergent", "bounded"):
            assert doc[side]["fitted_exponent"] == 0.0
            assert doc[side]["verdict"] == "bounded"


class TestEquiv:
    def test_collapse_f_small_sweep(self, tmp_path):
        code, raw = run(
            ["equiv", "--check", "collapse-f", "--s", "0", "--tau", "3/2", "--p", "1",
             "--q", "2", "--samples", "40", "--depth", "6"],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["all_ok"] is True
        assert doc["worst_ratio_low"] >= 1 - 1e-9

    def test_csv_rows(self, tmp_path):
        code, raw = run(
            ["equiv", "--check", "identities", "--s", "0", "--p", "2", "--q", "2",
             "--r", "1", "--samples", "10", "--format", "csv"],
            tmp_path, "rows.csv",
        )
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0] == "sample_id,ratio_low,ratio_high,config"
        assert len(lines) > 1

    def test_zero_samples_exit_3(self, tmp_path, capsys):
        code, raw = run(
            ["equiv", "--check", "collapse-f", "--s", "0", "--tau", "3/2", "--p", "1",
             "--q", "2", "--samples", "0"],
            tmp_path,
        )
        assert code == 3 and raw == b""
        assert "--samples must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "check",
        [
            ["collapse-b", "--p", "0", "--q", "2", "--tau", "1"],
            ["collapse-f", "--p", "1", "--q", "0", "--tau", "2"],
            ["inhom-b", "--p", "0", "--q", "2", "--tau", "1"],
            ["holder", "--p", "0", "--q", "2", "--tau", "1"],
            ["identities", "--p", "0", "--q", "2", "--r", "1"],
            ["identities", "--p", "2", "--q", "0", "--r", "1"],
        ],
    )
    def test_zero_exponent_exit_3(self, check, tmp_path, capsys):
        # a zero exponent used to divide by zero before any check named it
        code, raw = run(["equiv", "--check", *check, "--samples", "3"], tmp_path)
        assert code == 3 and raw == b""
        assert "must be positive" in capsys.readouterr().err


    def test_identities_echo_the_r_they_use(self, tmp_path):
        """Without --r the identities check evaluates r = 0 and echoes it;
        the other checks, which read no r, still echo null."""
        base = ["--samples", "3", "--p", "2", "--q", "2"]
        _, bare = run(["equiv", "--check", "identities", *base], tmp_path, "bare.json")
        _, zero = run(["equiv", "--check", "identities", *base, "--r", "0"], tmp_path, "zero.json")
        assert json.loads(bare)["config"]["r"] == 0
        assert bare == zero
        _, other = run(["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1",
                        "--samples", "3"], tmp_path)
        assert json.loads(other)["config"]["r"] is None


class TestInfiniteParameters:
    """s and tau must be finite: an infinite tau made every ratio NaN, and
    an infinite s left no value to take the maximum of."""

    @pytest.mark.parametrize(
        "args",
        [
            ["equiv", "--check", "collapse-f", "--tau", "inf", "--p", "1", "--q", "2",
             "--samples", "3"],
            ["equiv", "--check", "collapse-b", "--tau=-inf", "--p", "1", "--q", "2",
             "--samples", "3"],
            ["sweep", "--tau-grid", "inf", "--samples", "2"],
            ["sweep", "--s", "inf", "--samples", "2"],
            ["norm", "--family", "finfinf", "--s", "inf"],
            ["norm", "--family", "f", "--s=-inf"],
            ["norm", "--family", "cmo", "--r", "inf"],
        ],
    )
    def test_exit_3_naming_the_rule(self, args, single_cube_file, tmp_path, capsys):
        if args[0] == "norm":
            args = [*args, "--in", str(single_cube_file)]
        code, raw = run(args, tmp_path)
        assert code == 3 and raw == b""
        assert capsys.readouterr().err == "error: s and tau must be finite reals\n"

    def test_space_params(self):
        for s, tau in ((math.inf, 0), (0, math.inf), (-math.inf, 0), (0, math.nan)):
            with pytest.raises(ParamError, match="finite reals"):
                SpaceParams(Family.F_TYPE, s, tau, 1, 2)


class TestEquivCsvRows:
    """Each CSV row holds one sample's ratios, recomputed here through the
    library from the same seeded samples."""

    SAMPLES, DEPTH, SEED = 12, 6, 4

    def rows_and_samples(self, args, tmp_path):
        code, raw = run(
            ["equiv", *args, "--samples", str(self.SAMPLES), "--depth", str(self.DEPTH),
             "--seed", str(self.SEED), "--format", "csv"],
            tmp_path, "rows.csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        assert [int(row["sample_id"]) for row in rows] == list(range(self.SAMPLES))
        samples = random_sample_set(
            self.SEED, self.SAMPLES, dims=(1,), depth_1d=self.DEPTH, depth_nd=self.DEPTH
        )
        return [(float(r["ratio_low"]), float(r["ratio_high"])) for r in rows], samples

    def test_holder_rows_are_f_then_b_ratio(self, tmp_path):
        s, tau, p, q = 0.0, 0.25, 1.0, 2.0
        rows, samples = self.rows_and_samples(
            ["--check", "holder", "--s", "0", "--tau", "1/4", "--p", "1", "--q", "2"],
            tmp_path,
        )
        diag = SpaceParams(Family.B_TYPE, s, tau + 1 / q - 1 / p, q, q)
        for (low, high), seq in zip(rows, samples):
            rhs = b_type_norm(seq, diag, allow_negative_tau=True).log2_value
            f = f_type_norm(seq, SpaceParams(Family.F_TYPE, s, tau, p, q)).log2_value
            b = b_type_norm(seq, SpaceParams(Family.B_TYPE, s, tau, p, q)).log2_value
            assert low == pytest.approx(2.0 ** (f - rhs), rel=1e-12)
            assert high == pytest.approx(2.0 ** (b - rhs), rel=1e-12)
        # with p < q the F ratio is the larger one, so the columns are not (min, max)
        assert any(low > high * (1 + 1e-9) for low, high in rows)

    def test_identities_rows_are_min_then_max_over_the_pairs(self, tmp_path):
        s, p, q, r = 0.0, 2.0, 2.0, 1.0
        rows, samples = self.rows_and_samples(
            ["--check", "identities", "--s", "0", "--p", "2", "--q", "2", "--r", "1"],
            tmp_path,
        )
        orders = set()
        for (low, high), seq in zip(rows, samples):
            carleson = 2.0 ** (
                cmo_norm(seq, s, q, r).log2_value
                - f_type_norm(seq, SpaceParams(Family.F_TYPE, s, r / q, q, q)).log2_value
            )
            bmo = 2.0 ** (
                bbmo_norm(seq, s, p, q).log2_value
                - b_type_norm(seq, SpaceParams(Family.B_TYPE, s, 1 / p, p, q)).log2_value
            )
            # repr round-trips, and the library is deterministic: compare exactly
            assert (low, high) == (min(carleson, bmo), max(carleson, bmo))
            orders.add((carleson > bmo) - (carleson < bmo))
        # rounding orders the two pairs both ways, so neither fixed order passes
        assert {-1, 1} <= orders


class TestClassify:
    def test_report_shape(self, tmp_path):
        code, raw = run(
            ["classify", "--family", "f", "--s", "0", "--tau", "3/2", "--p", "1",
             "--q", "2"],
            tmp_path,
        )
        assert code == 0
        rep = json.loads(raw)["report"]
        assert rep["verdict"] == "F_inf_inf"
        assert rep["target_params"]["s_eff"] == 0.5

    def test_exact_rational_boundary(self, tmp_path):
        code, raw = run(
            ["classify", "--family", "b", "--s", "0", "--tau", "1/3", "--p", "3",
             "--q", "2"],
            tmp_path,
        )
        rep = json.loads(raw)["report"]
        assert rep["verdict"] == "strict_superset_B_inf_q"
        assert not any("tolerance" in n for n in rep["notes"])

    @pytest.mark.parametrize("family", ["f", "b"])
    def test_tau_minus_inf_polynomials(self, family, tmp_path):
        code, raw = run(["classify", "--family", family, "--tau=-inf"], tmp_path)
        assert code == 0
        assert json.loads(raw)["report"]["verdict"] == "trivial_polynomials"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["classify", "--family", "f", "--q=-inf"], "must be positive"),
            (["classify", "--family", "b", "--tau", "1", "--q=-inf"], "must be positive"),
            (["classify", "--family", "cmo", "--q=-inf", "--r", "2"], "must be positive"),
            (["classify", "--family", "bbmo", "--p", "0"], "must be positive"),
            (["classify", "--family", "cmo", "--q", "0", "--r", "1"], "must be positive"),
            (["refute", "--tau", "1/4", "--p", "0", "--q", "2"], "must be positive"),
            (["classify", "--family", "f", "--tau", "nan"], "got nan"),
            (["classify", "--family", "cmo", "--r", "nan"], "got nan"),
        ],
    )
    def test_invalid_parameter_exit_3(self, args, message, tmp_path, capsys):
        code, raw = run(args, tmp_path)
        assert code == 3 and raw == b""
        assert message in capsys.readouterr().err


class TestRefute:
    def test_bundle_verified(self, tmp_path):
        code, raw = run(
            ["refute", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
             "--depths", "4,8,16"],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["verified"] is True

    def test_rejected_cites_rule(self, capsys, tmp_path):
        code = main(["refute", "--s", "0", "--tau", "2", "--p", "1", "--q", "2"])
        assert code == 3
        assert "Corollary 4" in capsys.readouterr().err

    # tau = 1/p - 1/q, the end of the counterexample region: 1/p - 1/q in
    # floats falls short of the rationals; a decimal tau decides in floats
    @pytest.mark.parametrize("tau,p,q", [("1/12", "3", "4"), ("1/20", "4", "5"),
                                         ("1/6", "3/2", "2"), ("0.8", "1", "5")])
    @pytest.mark.parametrize("command", ["witness", "refute"])
    def test_region_end_certifies(self, command, tau, p, q, tmp_path):
        code, raw = run(
            [command, "--tau", tau, "--p", p, "--q", q, "--depths", "4,8,16"], tmp_path
        )
        assert code == 0
        doc = json.loads(raw)
        divergent = (doc["bundle"] if command == "refute" else doc)["divergent"]
        assert divergent["theoretical_exponent"] == 1 / int(q)

    @pytest.mark.parametrize("command", ["refute", "analyze"])
    def test_csv_refused(self, command, capsys):
        # both write JSON only
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestSweep:
    def test_csv_grid(self, tmp_path):
        code, raw = run(
            ["sweep", "--family", "f", "--tau-grid", "0,1/4,2", "--p-grid", "1,2",
             "--q-grid", "2,inf", "--samples", "5", "--format", "csv"],
            tmp_path, "sweep.csv",
        )
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0].startswith("tau,p,q,verdict,rule")
        assert len(lines) == 1 + 3 * 2 * 2

    @pytest.mark.parametrize("option", ["--tau-grid", "--p-grid", "--q-grid"])
    @pytest.mark.parametrize("value", ["", "1/0", "1,,2", "x"])
    def test_bad_grid_exit_3_naming_the_option(self, option, value, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(cli, "random_sample_set", refuse)
        assert main(["sweep", option, value]) == 3
        assert capsys.readouterr() == (
            "", f"error: {option} must be a comma-separated list of numbers, got {value!r}\n"
        )


    @pytest.mark.parametrize("family", ["f", "b"])
    def test_one_kernel_per_p_q_each_held_alone(self, family, monkeypatch, tmp_path):
        """The default grid checks 12 cells over 7 (p, q): 7 kernels, each
        freed before the next is built, and each cell's ratios those of its
        collapse check run alone."""
        built = []
        for name in ("_FKernel", "_BKernel"):
            class Counted(getattr(seqspace, name)):
                def __init__(self, *args, **kwargs):
                    assert all(ref() is None for ref in built), "two kernels held at once"
                    super().__init__(*args, **kwargs)
                    built.append(weakref.ref(self))

            monkeypatch.setattr(seqspace, name, Counted)
        code, raw = run(["sweep", "--family", family], tmp_path)
        assert code == 0
        assert len(built) == 7
        monkeypatch.undo()
        checked = [cell for cell in json.loads(raw)["cells"] if cell["ratio_low"]]
        assert len(checked) == 12
        samples = random_sample_set(0, 50, dims=(1,), depth_1d=6, depth_nd=4)
        checker = check_collapse_f if family == "f" else check_collapse_b
        for cell in checked:
            tau, p, q = (parse_extended(cell[key]) for key in ("tau", "p", "q"))
            report = checker(samples, 0, tau, p, q)
            assert (cell["ratio_low"], cell["ratio_high"]) == (
                repr(report.worst_ratio_low), repr(report.worst_ratio_high))


class TestTolRefused:
    """A tolerance that is not a finite number in [0, 1) would make the
    verdict unsound (inf passes every ratio) or fail every check (NaN, a
    negative one): exit 3 naming --tol, before any sample is drawn."""

    @pytest.mark.parametrize("tol", ["inf", "-inf", "1e400", "nan", "-1", "1", "2"])
    @pytest.mark.parametrize("argv", [
        ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1", "--q", "2",
         "--samples", "3"],
        ["equiv", "--check", "inhom-b", "--tau", "1", "--p", "2", "--q", "1"],
        ["sweep", "--samples", "3"],
    ], ids=["equiv", "equiv-inhom", "sweep"])
    def test_exit_3_naming_the_option_before_any_draw(self, argv, tol, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(equivalence, "_grow", refuse)
        assert main([*argv, f"--tol={tol}"]) == 3
        assert capsys.readouterr() == (
            "", f"error: --tol must be a finite number in [0, 1), got {float(tol)}\n")

    @pytest.mark.parametrize("tol", ["0", "0.5", "0.999"])
    def test_the_range_is_read(self, tol, tmp_path):
        code, raw = run(["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1",
                         "--q", "2", "--samples", "3", "--tol", tol], tmp_path)
        assert code == 0 and json.loads(raw)["tol"] == float(tol)


class TestDimRefused:
    """``classify`` and ``sweep`` refuse a dimension below 1 as ``analyze``
    does: by name, exit 3, before any work."""

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["classify", "--family", "f"], ["classify", "--family", "cmo", "--r", "1"],
        ["sweep"], ["sweep", "--samples", "0"],
    ])
    def test_exit_3_before_any_work(self, argv, dim, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(cli, "classify", refuse)
        monkeypatch.setattr(cli, "random_sample_set", refuse)
        assert main([*argv, "--dim", dim]) == 3
        assert capsys.readouterr() == ("", f"error: --dim must be >= 1, got {dim}\n")


class TestAnalyze:
    def test_json_report(self, tmp_path):
        code, raw = run(
            ["analyze", "--L", "8", "--signal", "harmonic", "--j0", "3"],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["bank"]["lower_bound_constant"] > 0
        assert doc["consistency"]["band_limited"] is True

    @pytest.mark.parametrize("dim,L", [(1, 25), (2, 13), (3, 9)])
    def test_grid_over_bound_exit_3_before_any_allocation(self, dim, L, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the filter bank was built")

        monkeypatch.setattr(cli, "build_filter_bank", refuse)
        assert main(["analyze", "--dim", str(dim), "--L", str(L)]) == 3
        assert "[grid-size bound]" in capsys.readouterr().err
        with pytest.raises(AssertionError):  # a grid at the bound gets through
            main(["analyze", "--dim", str(dim), "--L", str(24 // dim)])

    @pytest.mark.parametrize("modes,message", [
        (-1, "error: --modes must be >= 0, got -1\n"),
        (65537, "error: --modes 65537 is over the bound of 65536 [modes bound]\n"),
        (10**9, "error: --modes 1000000000 is over the bound of 65536 [modes bound]\n"),
    ])
    def test_modes_out_of_range_exit_3_before_any_draw(
        self, modes, message, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the filter bank was built")

        monkeypatch.setattr(cli, "build_filter_bank", refuse)
        assert main(["analyze", "--L", "6", "--modes", str(modes)]) == 3
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("argv,message", [
        (["--signal", "harmonic", "--j0", "-1"], "--j0 must lie in 0..L-1 = 0..7, got -1"),
        (["--signal", "harmonic", "--j0", "8"], "--j0 must lie in 0..L-1 = 0..7, got 8"),
        (["--signal", "harmonic", "--j0", "1100"], "--j0 must lie in 0..L-1 = 0..7, got 1100"),
        (["--max-level", "7"], "--max-level must lie in 0..L-2 = 0..6, got 7"),
        (["--max-level", "-1"], "--max-level must lie in 0..L-2 = 0..6, got -1"),
        (["--dim", "0"], "--dim must be >= 1, got 0"),
        (["--dim", "-1"], "--dim must be >= 1, got -1"),
    ], ids=["j0-negative", "j0-past-nyquist", "j0-huge", "max-level-over", "max-level-negative",
            "dim-0", "dim-negative"])
    def test_out_of_range_exit_3_naming_the_option_before_any_allocation(
        self, argv, message, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the filter bank was built")

        monkeypatch.setattr(cli, "build_filter_bank", refuse)
        assert main(["analyze", "--L", "8", *argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("j0", [0, 7])
    def test_j0_up_to_nyquist_is_read(self, j0, tmp_path):
        code, raw = run(["analyze", "--L", "8", "--signal", "harmonic", "--j0", str(j0)],
                        tmp_path)
        assert code == 0
        assert json.loads(raw)["config"]["j0"] == j0

    def test_modes_at_the_bound_reach_the_draw(self, monkeypatch):
        def drawn(cls, dim, L, rng, n_modes, j_hi):
            raise AssertionError(f"drew {n_modes}")

        monkeypatch.setattr(GridFunction, "random_bandlimited", classmethod(drawn))
        with pytest.raises(AssertionError, match="drew 65536"):
            main(["analyze", "--L", "6", "--modes", "65536"])

    @pytest.mark.parametrize("argv", [
        ["--family=f", "--q=16385", "--s=-" + "9" * 40],
        ["--family=b", "--p=16385", "--s=-" + "9" * 40],
        ["--family=f", "--q=16385"],
        ["--family=b", "--p=16385"],
    ], ids=["f-nan", "b-nan", "f-inf", "b-inf"])
    def test_function_norm_past_the_float_range_exit_3(self, argv, capsys):
        # an underflowed weight times an overflowed band power is 0 * inf = NaN,
        # and an overflowed band power alone is inf: neither is a norm
        base = ["analyze", "--signal", "random-bandlimited", "--seed=0", "--L=4"]
        assert main([*base, *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of the float range: ")
        assert "Warning" not in err

    def test_zero_modes_is_the_zero_signal(self, tmp_path):
        code, raw = run(["analyze", "--L", "6", "--modes", "0"], tmp_path)
        assert code == 0
        doc = json.loads(raw)
        assert doc["consistency"]["ratio"] is None
        assert doc["consistency"]["function_norm_log2"] == "-inf"
        assert doc["coefficients"]["entries"] == 0


# refute's defaults (p = q = 2) fail its parameter check before any depth
TOWER_COMMANDS = pytest.mark.parametrize(
    "command", [["witness"], ["refute", "--tau", "1/2", "--p", "1", "--q", "2"]],
    ids=["witness", "refute"],
)


class TestDepthBound:
    @pytest.fixture(autouse=True)
    def no_tower(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(witness, "build_tower", refuse)

    @TOWER_COMMANDS
    @pytest.mark.parametrize(
        "depths", ["4,100000", "16385", "-1", "8," + "9" * 4000, "16384,16384,16384"],
        ids=["1e5", "bound+1", "negative", "4000-digit", "three-at-bound"],
    )
    def test_depth_over_bound_exit_3_before_any_tower(self, command, depths, capsys):
        assert main([*command, "--depths", depths]) == 3
        assert "[depth bound]" in capsys.readouterr().err

    @TOWER_COMMANDS
    def test_depth_at_bound_gets_through(self, command):
        assert witness.DEPTH_BOUND >= 8192
        with pytest.raises(AssertionError):
            main([*command, "--depths", f"4,{witness.DEPTH_BOUND}"])

    @TOWER_COMMANDS
    @pytest.mark.parametrize(
        "depths", ["", "abc", "4,,8", "4;8", "1" * 5000],
        ids=["empty", "word", "empty-item", "semicolon", "5000-digit"],
    )
    def test_malformed_list_names_the_option(self, command, depths, capsys):
        assert main([*command, "--depths", depths]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --depths") and "int()" not in err


class TestSampleBound:
    BOUND = equivalence.SAMPLE_NODE_BOUND

    @pytest.mark.parametrize("retain", [math.nan, 2, -0.5])
    def test_random_sequence_checks_retain_as_the_set_does(self, retain):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        message = f"retain must lie in [0, 1], got {retain}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_sequence(rng, 1, 5, retain=retain)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match=re.escape(message)):
            random_sample_set(0, 3, retain=retain)

    @pytest.mark.parametrize("dim", [1.5, True, 0, "1"])
    def test_random_sequence_checks_dim_as_the_set_does(self, dim):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        message = f"dims must be positive ints, got {(dim,)!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_sequence(rng, dim, 3)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match=re.escape(message)):
            random_sample_set(0, 3, dims=(dim,))

    @pytest.mark.parametrize("command", [
        ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1"],
        ["sweep", "--tau-grid", "2", "--p-grid", "1", "--q-grid", "2"],
    ], ids=["equiv", "sweep"])
    def test_samples_over_bound_exit_3_before_any_draw(self, command, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(equivalence, "_grow", refuse)
        assert main([*command, "--samples", str(self.BOUND + 1)]) == 3
        assert "[sample bound]" in capsys.readouterr().err
        equivalence.check_sample_count(self.BOUND)  # a count at the bound gets through

    def test_deep_samples_exit_3_at_the_first_level_over(self, capsys):
        """Without the bound, this set would take about 2**28 nodes."""
        argv = ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1",
                "--dim", "2", "--depth", "22", "--samples", "4"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: level ") and err.endswith("[sample bound]\n")

    @pytest.mark.parametrize("seed", range(8))
    def test_a_set_within_the_bound_is_drawn_as_without_it(self, seed, monkeypatch):
        args = (seed, 12, (1, 2), 9, 4)
        want = random_sample_set(*args)
        monkeypatch.setattr(equivalence, "SAMPLE_NODE_BOUND", 200)
        try:
            got = random_sample_set(*args)
        except ParamError as exc:  # seeds 0, 3 and 5
            assert exc.rule == "sample bound"
            return
        assert sum(map(len, got)) <= 200
        for a, b in zip(got, want):
            assert (a._key, a._node_depth, a._log2t.tolist()) == (
                b._key, b._node_depth, b._log2t.tolist())

    def test_negative_depth_names_the_option(self, capsys):
        argv = ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1", "--depth", "-1"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: --depth must be >= 0, got -1\n"
        with pytest.raises(ValueError, match="depth caps must be >= 0"):
            random_sample_set(0, 3, dims=(1,), depth_1d=-1)

    def test_negative_sweep_samples_names_the_option(self, capsys):
        assert main(["sweep", "--samples", "-5"]) == 3
        assert capsys.readouterr().err == "error: --samples must be >= 0, got -5\n"

    @pytest.mark.parametrize("kwargs,message", [
        ({"count": -1}, "count must be >= 0, got -1"),
        ({"dims": ()}, "dims must name at least one dimension, got ()"),
        ({"retain": 2}, "retain must lie in [0, 1], got 2"),
        ({"retain": -0.5}, "retain must lie in [0, 1], got -0.5"),
        ({"retain": math.nan}, "retain must lie in [0, 1], got nan"),
        ({"dims": (1.5,)}, "dims must be positive ints, got (1.5,)"),
        ({"dims": (True,)}, "dims must be positive ints, got (True,)"),
        ({"dims": (1, 0)}, "dims must be positive ints, got (1, 0)"),
        ({"dims": (2, "1")}, "dims must be positive ints, got (2, '1')"),
    ], ids=["count", "dims", "retain-2", "retain-negative", "retain-nan", "dims-float",
            "dims-bool", "dims-zero", "dims-str"])
    def test_bad_sample_set_arguments_are_refused_before_any_draw(
        self, kwargs, message, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(equivalence.np.random, "default_rng", refuse)
        args = {"seed": 0, "count": 3, **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            random_sample_set(**args)

    @pytest.mark.parametrize("command", [
        ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1"],
        ["sweep", "--tau-grid", "2", "--p-grid", "1", "--q-grid", "2"],
        ["analyze", "--L", "7"],
    ], ids=["equiv", "sweep", "analyze"])
    def test_negative_seed_names_the_option(self, command, capsys):
        assert main([*command, "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


class TestSharedParser:
    """``main`` reuses one parser; no call may leave state for the next."""

    def argvs(self, infile):
        return [
            ["norm", "--family", "b", "--p", "1", "--in", str(infile)],
            ["witness", "--depths", "4,8"],
            # refute's tau/p/q defaults differ from witness's: bare, it exits 3
            ["refute"],
            ["refute", "--tau", "1/2", "--p", "1", "--q", "2", "--depths", "4,8"],
            ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1",
             "--samples", "5", "--format", "csv"],
            ["classify", "--family", "cmo", "--r", "1/2"],
            ["sweep", "--tau-grid", "0,2", "--p-grid", "1", "--samples", "5"],
            ["analyze", "--L", "5", "--seed", "2"],
            ["norm", "--family", "f"],  # argparse error: --in is missing
            ["--version"],
        ]

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, capsys.readouterr().out.encode()

    def test_order_does_not_matter(self, single_cube_file, capsys):
        argvs = self.argvs(single_cube_file)
        forward = [self.outcome(a, capsys) for a in argvs]
        backward = [self.outcome(a, capsys) for a in reversed(argvs)][::-1]
        assert forward == backward
        codes = [code for code, _ in forward]
        assert codes[:8] == [0, 0, 3, 0, 0, 0, 0, 0]
        assert codes[8:] == [("exit", 2), ("exit", 0)]
        assert all(out for code, out in forward if code in (0, ("exit", 0)))
        assert cli.build_parser() is cli.build_parser()


class TestMemoryError:
    def test_memory_error_exit_3(self, monkeypatch, capsys, single_cube_file):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_jsonl", exhausted)
        code = main(["norm", "--family", "f", "--in", str(single_cube_file)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "memory" in err


class TestThreadsEnv:
    def test_env_var_fallback(self, tmp_path, monkeypatch, single_cube_file):
        monkeypatch.setenv("DYADIC_SPACES_THREADS", "3")
        code, raw = run(
            ["equiv", "--check", "collapse-f", "--s", "0", "--tau", "3/2", "--p", "1",
             "--q", "2", "--samples", "12"],
            tmp_path, "env.json",
        )
        assert code == 0
        monkeypatch.delenv("DYADIC_SPACES_THREADS")
        _, raw2 = run(
            ["equiv", "--check", "collapse-f", "--s", "0", "--tau", "3/2", "--p", "1",
             "--q", "2", "--samples", "12"],
            tmp_path, "noenv.json",
        )
        assert raw == raw2

    def test_env_var_is_not_read(self, tmp_path, monkeypatch):
        args = ["equiv", "--check", "collapse-b", "--s", "0", "--tau", "3/2", "--p", "1",
                "--q", "2", "--samples", "12"]
        _, plain = run(args, tmp_path, "plain.json")
        monkeypatch.setenv("DYADIC_SPACES_THREADS", "abc")
        code, raw = run(args, tmp_path, "abc.json")
        assert code == 0
        assert raw == plain


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["equiv", "--check", "collapse-b", "--s", "0", "--tau", "3/2", "--p", "1",
             "--q", "2", "--samples", "30", "--seed", "7"],
            ["equiv", "--check", "holder", "--s", "0", "--tau", "1/4", "--p", "1",
             "--q", "2", "--samples", "25", "--seed", "9", "--format", "csv"],
            ["sweep", "--tau-grid", "0,2", "--p-grid", "1", "--q-grid", "2",
             "--samples", "8", "--seed", "3", "--format", "csv"],
            ["witness", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
             "--depths", "4,8"],
            ["analyze", "--L", "8", "--seed", "5"],
        ],
    )
    def test_byte_identical_across_thread_counts(self, args, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (4, "t4"), (1, "collapse-b")):
            _, raw = run(args + ["--threads", str(threads)], tmp_path, name)
            outs.append(raw)
        assert outs[0] == outs[1] == outs[2]


def _unread_table_options():
    """(command, selector, selector value, option) for every table option that
    a command takes and a command line with that selector value does not read."""
    for command, (selector, defaults, reads) in cli.OPTION_TABLE.items():
        for value, read in reads.items():
            for name in defaults:
                if name not in read.split():
                    yield command, selector, value, name


class TestUnreadOptions:
    """An option that a command line gives and its command never reads is
    refused with exit 3, naming the option."""

    @pytest.mark.parametrize("command,selector,value,name", list(_unread_table_options()))
    def test_every_unread_table_option_is_refused(
        self, command, selector, value, name, single_cube_file, capsys
    ):
        argv = [command, *([f"--{selector}", value] if selector else [])]
        argv += [f"--{name}"] if name == "inhomogeneous" else [f"--{name}", "1"]
        if command == "norm":
            argv += ["--in", str(single_cube_file)]
        assert main(argv) == 3
        out = capsys.readouterr()
        where = f"{command} --{selector} {value}" if selector else command
        assert (out.out, out.err) == ("", f"error: --{name} is not read by {where}\n")

    @pytest.mark.parametrize(
        "args,option",
        [
            (["witness", "--depths", "4", "--inhomogeneous"], "--inhomogeneous"),
            (["refute", "--tau", "1/4", "--p", "1", "--q", "2", "--depths", "4",
              "--inhomogeneous"], "--inhomogeneous"),
            (["equiv", "--check", "inhom-f", "--tau", "3/2", "--p", "1", "--samples", "2",
              "--inhomogeneous"], "--inhomogeneous"),
            (["classify", "--family", "bbmo", "--tau", "5"], "--tau"),
            (["classify", "--family", "bbmo", "--tau", "0"], "--tau"),
            (["classify", "--family", "cmo", "--p", "2", "--r", "1"], "--p"),
        ],
    )
    def test_exit_3_naming_the_option(self, args, option, tmp_path, capsys):
        code, raw = run(args, tmp_path)
        assert code == 3 and raw == b""
        assert capsys.readouterr().err.startswith(f"error: {option} is not read by ")

    @pytest.mark.parametrize(
        "args,echo",
        [
            (["classify", "--family", "bbmo", "--p", "1"], {"tau": 0, "p": 1}),
            (["classify", "--family", "cmo", "--r", "1"], {"tau": 0, "p": 2}),
            (["classify", "--family", "f", "--tau", "3/2"], {"tau": "3/2", "p": 2}),
        ],
    )
    def test_config_echo_keeps_the_defaults(self, args, echo, tmp_path):
        code, raw = run(args, tmp_path)
        assert code == 0
        config = json.loads(raw)["config"]
        assert {key: config[key] for key in echo} == echo


NORM_NAMES = ("f_type_norm", "b_type_norm", "cmo_norm", "bbmo_norm", "f_inf_inf_norm")


@pytest.fixture()
def norm_calls(monkeypatch):
    """Counting wrappers bound in place of the five public norm functions in
    every package module that binds them, as a tracer binds its spans; the
    count per name."""
    import sys

    calls = dict.fromkeys(NORM_NAMES, 0)
    for name in NORM_NAMES:
        fn = getattr(seqspace, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "dyadic_spaces" and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestPublicNormNames:
    """The CLI and the analyzer reach the kernels through the public norm
    functions, looked up by name, so that rebinding those names sees every
    call; the witness evaluates its depth schedule as one forest."""

    @pytest.mark.parametrize(
        "family,args,name",
        [
            ("f", ["--tau", "1"], "f_type_norm"),
            ("b", ["--tau", "1", "--p", "1"], "b_type_norm"),
            ("cmo", ["--r", "2"], "cmo_norm"),
            ("bbmo", ["--p", "1"], "bbmo_norm"),
            ("finfinf", [], "f_inf_inf_norm"),
            ("binfinf", [], "f_inf_inf_norm"),
        ],
    )
    def test_norm_command(self, family, args, name, norm_calls, single_cube_file, tmp_path):
        argv = ["norm", "--family", family, *args, "--in", str(single_cube_file)]
        assert run(argv, tmp_path)[0] == 0
        assert norm_calls == {n: int(n == name) for n in NORM_NAMES}

    @pytest.mark.parametrize("family,name", [(Family.F_TYPE, "f_type_norm"),
                                             (Family.B_TYPE, "b_type_norm")])
    def test_transform_consistency(self, family, name, norm_calls):
        f = GridFunction.harmonic(1, 6, 4)
        transform_consistency(f, build_filter_bank(6), SpaceParams(family, 0, 0.25, 2, 2))
        assert norm_calls == {n: int(n == name) for n in NORM_NAMES}

    @pytest.mark.parametrize("part", ["f", "b"])
    def test_certify_separation(self, part, norm_calls, monkeypatch):
        forest_calls = []
        log2_norms = Forest.log2_norms

        def counted(self, params, **kwargs):
            forest_calls.append((len(self), params.family))
            return log2_norms(self, params, **kwargs)

        monkeypatch.setattr(Forest, "log2_norms", counted)
        certify_separation(0, 1, 2, Fraction(1, 2), depths=(4, 8), family=part)
        assert norm_calls == dict.fromkeys(NORM_NAMES, 0)
        target = Family.F_TYPE if part == "f" else Family.B_TYPE
        assert forest_calls == [(2, Family.B_TYPE), (2, target)]


_UNIT = CubeSequence.from_values({DyadicCube.unit(1): 1.0})
_HARMONIC = GridFunction.harmonic(1, 5, 2)
INF = math.inf


def _norm(family, *args):
    return ["norm", "--family", family, *args]


def _equiv(check, *args):
    # tau where the check reads it, where the collapse and Hoelder regions hold
    tau = {"holder": "1/4", "identities": None}.get(check, "3")
    given = [] if tau is None or "--tau" in args else ["--tau", tau]
    return ["equiv", "--check", check, *given, "--samples", "2", *args]


_READ_P = [*(_norm(f) for f in ("f", "b", "bbmo")),
           *(_equiv(c) for c in ("collapse-f", "collapse-b", "holder", "identities",
                                 "inhom-f", "inhom-b")),
           ["witness"], ["refute"], *(["classify", "--family", f] for f in ("f", "b", "bbmo")),
           ["analyze", "--L", "5"]]

# A bad p, q, r or tau, the message every entry point gives for it, the
# command lines that give it (each option only to commands that read it;
# each line ends in the option and its value, or names the value itself),
# and library calls given the same value.  Not listed: ``classify`` and
# ``sweep`` read tau < 0 (and ``classify --family cmo`` r < 0) as the
# polynomial verdict, ``sweep`` writes F at p = inf as an invalid cell, and
# ``equiv --check holder`` needs q > p, which p = inf never meets.
PARAMETER_FAULTS = {
    ("--p", "0"): ("p must be positive, got 0", _READ_P + [
        ["sweep", "--p-grid", "0"],
    ], [
        lambda: SpaceParams(Family.B_TYPE, 0, 0, 0, 2),
        lambda: bbmo_norm(_UNIT, 0, 0, 2),
        lambda: check_collapse_f([_UNIT], 0, 3, 0, 2),
        lambda: check_collapse_b([_UNIT], 0, 3, 0, 2),
        lambda: check_collapse_inhomogeneous([_UNIT], 0, 3, 0, 2, family="b"),
        lambda: check_holder_embeddings([_UNIT], 0, 0.25, 0, 2),
        lambda: check_exact_identities([_UNIT], 0, 0, 2, 1),
        lambda: identity_tolerance(0, 2),
        lambda: certify_separation(0, 0, 2, Fraction(1, 4)),
        lambda: refute_claim(0, Fraction(1, 4), 0, 2),
        lambda: classify(SpaceDescriptor("F_type", 0, 0, 0, 2)),
        lambda: cmo_param_of(0, 0, 2),
    ]),
    ("--q", "0"): ("q must be positive, got 0", [
        *_READ_P,
        _norm("cmo", "--r", "1"), ["classify", "--family", "cmo", "--r", "1"],
        ["sweep", "--q-grid", "0"],
    ], [
        lambda: SpaceParams(Family.F_TYPE, 0, 0, 2, 0),
        lambda: cmo_norm(_UNIT, 0, 0, 1),
        lambda: bbmo_norm(_UNIT, 0, 2, 0),
        lambda: check_collapse_f([_UNIT], 0, 3, 1, 0),
        lambda: check_holder_embeddings([_UNIT], 0, 0.25, 1, 0),
        lambda: check_exact_identities([_UNIT], 0, 1, 0, 1),
        lambda: identity_tolerance(2, 0),
        lambda: certify_separation(0, 1, 0, Fraction(1, 4)),
        lambda: refute_claim(0, Fraction(1, 4), 1, 0),
        lambda: classify_cmo(0, 0, 1),
    ]),
    ("--r", "-1"): ("r must be >= 0, got -1 [Proposition 1(iv)]", [
        _norm("cmo"), _equiv("identities"),
    ], [
        lambda: SpaceParams(Family.CMO, 0, -1, 2, 2),
        lambda: cmo_norm(_UNIT, 0, 2, -1),
        lambda: check_exact_identities([_UNIT], 0, 1, 2, -1),
    ]),
    ("--tau", "-1"): (
        "tau < 0 collapses the space to polynomials; use the classifier [Proposition 1(iv)]", [
            _norm("f"), _norm("b"),
            *(_equiv(c) for c in ("collapse-f", "collapse-b", "inhom-f", "inhom-b")),
            _equiv("holder", "--p", "1", "--q", "2"),
            ["witness"], ["refute", "--p", "1", "--q", "2"], ["analyze", "--L", "5"],
        ], [
            lambda: f_type_norm(_UNIT, SpaceParams(Family.F_TYPE, 0, -1, 2, 2)),
            lambda: b_type_norm(_UNIT, SpaceParams(Family.B_TYPE, 0, -1, 1, 2)),
            lambda: check_collapse_f([_UNIT], 0, -1, 1, 2),
            lambda: check_holder_embeddings([_UNIT], 0, -1, 1, 2),
            lambda: certify_separation(0, 1, 2, -1),
            lambda: refute_claim(0, -1, 1, 2),
            lambda: function_norm(_HARMONIC, build_filter_bank(5),
                                  SpaceParams(Family.F_TYPE, 0, -1, 2, 2), 3),
        ]),
    ("--p", "inf"): ("the F-type scale requires p < inf [Definition 1(i)]", [
        _norm("f"), _equiv("collapse-f"), _equiv("inhom-f"),
        ["witness"], ["refute"], ["classify", "--family", "f"], ["analyze", "--L", "5"],
    ], [
        lambda: SpaceParams(Family.F_TYPE, 0, 0, INF, 2),
        lambda: check_collapse_f([_UNIT], 0, 3, INF, 2),
        lambda: certify_separation(0, INF, 2, Fraction(1, 4)),
        lambda: refute_claim(0, Fraction(1, 4), INF, 2),
        lambda: classify(SpaceDescriptor("F_type", 0, 0, INF, 2)),
    ]),
}


@pytest.mark.parametrize("fault", list(PARAMETER_FAULTS), ids=lambda f: f"{f[0]}={f[1]}")
def test_parameter_fault_reads_alike(fault, single_cube_file, tmp_path, capsys):
    option, value = fault
    message, argvs, library_calls = PARAMETER_FAULTS[fault]
    commands = set()
    for argv in argvs:
        if argv[0] != "sweep":
            argv = [*argv, option, value]
        if argv[0] == "norm":
            argv += ["--in", str(single_cube_file)]
        commands.add(argv[0])
        code, raw = run(argv, tmp_path)
        assert (code, raw, capsys.readouterr().err) == (3, b"", f"error: {message}\n"), argv
    for call in library_calls:
        with pytest.raises(ParamError) as info:
            call()
        assert str(info.value) == message
    if value == "0":  # every command reads p and q
        assert commands == set(cli.OPTION_TABLE)
