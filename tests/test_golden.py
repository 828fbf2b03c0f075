"""Golden outputs: the sha256 of fixed ``sweep`` and ``equiv`` runs.

The digests were recorded when sample sets were first evaluated as forests,
from the per-sequence code before it; any change to a byte of these outputs
(values, rounding, sample generation, row order, formatting) shows here.
The ``sweep`` CSV digests were recorded later, from the code that checked
a sweep's cells one at a time, before its cells were checked a (p, q) at a
time.  The config echo names the package version, so a version bump means new
digests.  They were recorded on x86-64 with numpy 2.4, and they hold with
numpy's AVX-512 and AVX2 kernels switched off (``NPY_DISABLE_CPU_FEATURES``).
"""
import hashlib

import pytest

from dyadic_spaces.cli import main

EQUIV_ARGS = {
    "collapse-f": ["--tau", "3/2", "--p", "1", "--q", "2"],
    "collapse-b": ["--tau", "1", "--p", "inf", "--q", "2"],
    "holder": ["--tau", "1/2", "--p", "1", "--q", "2"],
    "identities": ["--s", "1/2", "--p", "inf", "--q", "3", "--r", "1"],
    "inhom-f": ["--tau", "3/2", "--p", "1", "--q", "inf"],
    "inhom-b": ["--tau", "1", "--p", "2", "--q", "1", "--dim", "2", "--depth", "4"],
}
CASES = {
    f"sweep-{family}-{dim}{suffix}": ["sweep", "--family", family, "--dim", str(dim), *fmt]
    for family in ("f", "b")
    for dim in (1, 2)
    for suffix, fmt in (("", []), ("-csv", ["--format", "csv"]))
}
CASES.update(
    (f"equiv-{check}-{fmt}", ["equiv", "--check", check, "--samples", "40", "--seed", "3",
                              "--format", fmt, *extra])
    for check, extra in EQUIV_ARGS.items()
    for fmt in ("json", "csv")
)
SHA256 = {
    "sweep-f-1": "00fc0897cf20af2c796f52a53437d06389e1a522543334e225533c1ebd9a0d27",
    "sweep-f-2": "1dc7cb844ecbb85854b41d8a2eb3764f924f09556a1d9e2897dbb479b7c15206",
    "sweep-b-1": "7b15c66b75c91e57f11f6a1eebf5de4552597f82d4ea200a646663270665c54a",
    "sweep-b-2": "22613867f5729ed051182898f647c02c3209f802e1ee65dbf71491fb53493cee",
    "sweep-f-1-csv": "617f11ae17759607ea9047d621da88f23a1e65f12ba6e0a5a185bfd6a252e2dc",
    "sweep-f-2-csv": "2d3f835a97aede9d2efce0803bc6be140b2669eaaa931f9328446d92978b14bb",
    "sweep-b-1-csv": "1d207d03f9a570395477f9aa834f4397afe34ce49f5d811ef3b5b37a18bd89b0",
    "sweep-b-2-csv": "699fe3be7d8f505bfd077b017dd34b110fbf15a3cc9cbb8c2db3fb4971922adc",
    "equiv-collapse-f-json": "314213ace2029aa64939da94d8b9162e6fd3a3a3aaa7bf8e18e20ab336f2c981",
    "equiv-collapse-f-csv": "c30ebf8ece78e17e546a9421708e43424c7e691f567180530427ff0ab5f3c46d",
    "equiv-collapse-b-json": "9239ad8d174327da57654a0c6c67c9d5b54ccdbdf8da81f20f5d5f5478f8966d",
    "equiv-collapse-b-csv": "a466b533c8fcabfded484ce362493eafd225317254d0a8e5f8e1387a66044458",
    "equiv-holder-json": "91a46416ea5f07f65cecec69ddf06df76757630984a6314515329a647e683b02",
    "equiv-holder-csv": "5a552ecdad2a19a4ecdbb4db1f4d9853cc6596cef71d6399141b25c82cb5a5c9",
    "equiv-identities-json": "2d45bb7fa872268e4810a6dda92e9447a5552a102ada022cd6906d331e1f5c39",
    "equiv-identities-csv": "db739c20311fdf9f662c66298faf5a9a7d509f7cf994be020e36f01e00e4a05b",
    "equiv-inhom-f-json": "da841a2583a3b63e6c8b7126e950740ff9e0bbb9b134bc72c7f005d639aa36dd",
    "equiv-inhom-f-csv": "0bdb4609340d03932808e4ee10efbb4b7c95cde0973ec6b7009fa4f92a8ecec9",
    "equiv-inhom-b-json": "9a05586b972d1229a1c1c77e044d92b98a749f98fe3052c124a9535e8632222e",
    "equiv-inhom-b-csv": "e05ad34927edafaa5f176cf49f39f48962b772076440d19e56ce12cf6d82d2b2",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_sha256(name, tmp_path):
    out = tmp_path / "out"
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHA256[name]
