"""Golden outputs: the sha256 of fixed ``sweep``, ``equiv``, ``norm`` and
``classify`` runs.

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

import numpy as np
import pytest

from dyadic_spaces import CubeSequence, DyadicCube, random_sequence, save_jsonl
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


def _tower_with_leaf() -> CubeSequence:
    """A 40-level tower with one extra leaf at level 3: the tower below the
    branch point is a leaf chain, and the ranges above it expand pairs."""
    values = {DyadicCube(1, j, (0,)): -0.35 * j for j in range(41)}
    values[DyadicCube(1, 3, (1,))] = 1.5
    return CubeSequence.from_log2_values(values)


NORM_FILES = {
    "random2d": lambda: random_sequence(np.random.default_rng(7), 2, 5, 0.6),
    "tower": _tower_with_leaf,
    "negroot": lambda: random_sequence(
        np.random.default_rng(0), 1, 7, 0.75, -4.0, 4.0, root=DyadicCube(1, -3, (0,))
    ),
}
NORM_ARGS = {
    "f": ["--family", "f", "--s", "1/4", "--tau", "1/2", "--p", "2", "--q", "inf"],
    "b": ["--family", "b", "--s", "1/4", "--tau", "1/2", "--p", "1", "--q", "2"],
    "cmo": ["--family", "cmo", "--s", "1/4", "--r", "1/2", "--q", "2"],
    "bbmo": ["--family", "bbmo", "--s", "1/4", "--p", "2", "--q", "3"],
    "finfinf": ["--family", "finfinf", "--s", "1/4"],
    "binfinf": ["--family", "binfinf", "--s=-1/4"],
}
NORM_CASES = {
    f"norm-{name}-{family}-{fmt}": (name, [*args, "--format", fmt])
    for name in NORM_FILES
    for family, args in NORM_ARGS.items()
    for fmt in ("json", "csv")
}
NORM_CASES.update(
    (f"norm-{name}-inhom-{family}", (name, [*args, "--inhomogeneous"]))
    for name in NORM_FILES
    for family, args in (
        ("f", ["--family", "f", "--s", "1/4", "--tau", "1/2", "--p", "3/2", "--q", "2"]),
        ("b", ["--family", "b", "--s", "1/4", "--tau", "1/2", "--p", "inf", "--q", "2"]),
    )
)
NORM_SHA256 = {
    "norm-negroot-b-csv": "ebd9949a2d8f54885cd7b6ca0a94b83eb3b10343cfe38d49404a44e727d95c27",
    "norm-negroot-b-json": "cd97e68262a3fd14b737b7c86824d8671281e2e90552cd77cce1a29d5b8a4455",
    "norm-negroot-bbmo-csv": "d8c767e1d8e977535930460e8bca22593119b5266e359347a31d0d41a42b6d87",
    "norm-negroot-bbmo-json": "d63159affefb6f1f1a7b33946c5bfc50ef4e5a8fbb20425e00a3f30f3a1a03b2",
    "norm-negroot-binfinf-csv": "59aa5389488d1a31801d16bdeaf9034b751df22411b4cf2ae1e6eaa47251aec6",
    "norm-negroot-binfinf-json": "68b40bd5cfb94e4cdbf3755e2caa88f26fb815d7b79a186b22e81d28819211c2",
    "norm-negroot-cmo-csv": "c3c29f54c0b8d537c09f713b815842c66aed11691dcddb38c396afc8b1aae2b5",
    "norm-negroot-cmo-json": "24e7554fe85205584514ae9adbad9e41a9382ea531d1ab71d8bc47053228e7c6",
    "norm-negroot-f-csv": "a68a2597be9ec173971e9a5820f4b4d6a679b252480760ad6b651d150ef20ea5",
    "norm-negroot-f-json": "69139118c49dd6946e9892ab2750ec1e17643ab1c35976bb12d9b98659be058b",
    "norm-negroot-finfinf-csv": "4ab5804bdbeb260f937a8dde01f5ce86c312525ddafbbece9b9e627ff7e6e5df",
    "norm-negroot-finfinf-json": "84c4eaa8bf30d1b91fbda75529f7a2b20fa6e01ddf414f24d55340f75767c2e9",
    "norm-negroot-inhom-b": "05b39378c7de49c91b0b77b22bc8eaeec477913fbe2b4c35dc1bee7b0061d05c",
    "norm-negroot-inhom-f": "3587d6488647924aaef5f9883c5bbb9eaa9026f20ac74d7604877a0121181efb",
    "norm-random2d-b-csv": "91fc4b4d136b1f53fb3f162c1d70c9e016be2e6570f5916f3e87e2847da1744a",
    "norm-random2d-b-json": "e77807248cfdc9bdb85921567fab63a742638be526fe7784f8be89c3e33701b1",
    "norm-random2d-bbmo-csv": "89e2304b20bc34f73bbc15d4d26d50d049466f78ccc9b20cbb59b3ec3cfc6f75",
    "norm-random2d-bbmo-json": "93c6b2d4cc61d9b6bcce7c88d5dabbd3967851c75aa15b42a24dc1983069025e",
    "norm-random2d-binfinf-csv": "5ef4c9574a8a264fbbafb7ee0a8958a99a0ba5fb839b7e60a4589c4d97f9776a",
    "norm-random2d-binfinf-json": "ef8bd446e00eb6ba1bb8b66965b9c0ca1e3b1df85fae0f6fd06c061e8cd8f975",
    "norm-random2d-cmo-csv": "845e7dad400afe1da20e0338b80552b1d0b48cae5b7946c687a234a3b4615962",
    "norm-random2d-cmo-json": "572086cd7cb08c3da6b9ca697b39c4d19a35338e588551aec35f7e30d63df56b",
    "norm-random2d-f-csv": "ad37d854ac47c4f0b036e8de2528aa428914f7cdf23fe2736f4ab6d2faa6ba41",
    "norm-random2d-f-json": "80e76bb2aa61e2e257decf0d4b7163a3828bc45c4c378e4ef57197402cc188e2",
    "norm-random2d-finfinf-csv": "99350faf597408463c1fb02be5c9791b652a008f5524f69453e46a0818d849c5",
    "norm-random2d-finfinf-json": "017e5b8a018809cb5cfbf8b1904dea767e536d0ae73ca31798e02217c4931650",
    "norm-random2d-inhom-b": "484058f6e0e9058662bae231bd6748dbfa715310c60a371bcfbc9295d1ee0299",
    "norm-random2d-inhom-f": "960445b89172cafad5b3be2401168466c4d93c4c4d2f40efea31adc7c84447fa",
    "norm-tower-b-csv": "1ef14f5264efb762816759c98a6e46493149d120fdd5e680eb6cc36ffb7bc707",
    "norm-tower-b-json": "297535a0c7b372789128f552aef6fc4fd09fa36375485cc58d89f6f071c65776",
    "norm-tower-bbmo-csv": "61620043d59040d30a062c10b6efcb1242946a011cea8c6c1fb4bf9905d2af16",
    "norm-tower-bbmo-json": "040c5398ab382f6416329ecdfa4a7c722f256e7f23bfef2d21a5f339909e5c80",
    "norm-tower-binfinf-csv": "587c4ae94ec49540620a6a353844ffbf37c8d1fa3df4fa41cf931d6854b0c8b3",
    "norm-tower-binfinf-json": "a2a3b0d06b054978ebd2215a39ec812bee025555ea3d405cfea2e5cc0b83e13f",
    "norm-tower-cmo-csv": "d446a202f2486a10cb48921dc19dbcfc9999fb381dbd4fbf1b4b91cecff13aa8",
    "norm-tower-cmo-json": "a36c587ada54299c6a9cb8f38494dabbb47490aa4465f191b0dd1f0be76a4fbd",
    "norm-tower-f-csv": "3cf578f08a21ba8c9815184b909de760cb65cd86beafb24cf79954f164f01cf7",
    "norm-tower-f-json": "d9413ddc5ca69dbd2401c038fe2084ac63432d225abd937fb877c7ba69b8c313",
    "norm-tower-finfinf-csv": "d7847e3c69b2c0730cfc80b11351bf55bad50c17667155962d610a77753dd5f7",
    "norm-tower-finfinf-json": "2dcfff76470eb61ebcc3be2301214eb7c22b0e070115fcf65a268b9892c449eb",
    "norm-tower-inhom-b": "ea70ca696745855bf6ffed1ce629b46f4fd1011627db9d085972aec4c0275d70",
    "norm-tower-inhom-f": "a66025a88bceec03b0b4c4bdfb29bc9a4a357f439c15db911169eb3b0dc8d9b8",
}
CASES.update({
    "classify-f-csv": ["classify", "--family", "f", "--tau", "1", "--p", "2", "--q", "2",
                       "--format", "csv"],
    "classify-cmo-csv": ["classify", "--family", "cmo", "--r", "1/2", "--q", "2",
                         "--format", "csv"],
    "sweep-f-p-inf": ["sweep", "--family", "f", "--p-grid", "1,inf", "--samples", "10"],
})
SHA256.update({
    "classify-f-csv": "0a83570af3d6b1b2a0e895e9005e565a4082bde4ba98848697be534ee4b13705",
    "classify-cmo-csv": "3ef4bd2d19f2957e058ea9410852e6660130d426a267605a7b091a6f35d68ab5",
    "sweep-f-p-inf": "89cfe1c147722c831649eee6970a195836bdc9f33b540cd7a96040d51608f590",
})


@pytest.fixture(scope="module")
def norm_dir(tmp_path_factory):
    """The three files, saved under fixed names in one directory, since the
    output echoes the input path."""
    path = tmp_path_factory.mktemp("norm")
    for name, build in NORM_FILES.items():
        save_jsonl(build(), path / f"{name}.jsonl")
    return path


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_norm_sha256(name, norm_dir, monkeypatch):
    file, argv = NORM_CASES[name]
    monkeypatch.chdir(norm_dir)
    out = norm_dir / f"{name}.out"
    assert main(["norm", "--in", f"{file}.jsonl", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NORM_SHA256[name]
