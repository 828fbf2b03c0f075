"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and enforces the stated tolerances and runtime budgets.
"""
import math
import time

import numpy as np
import pytest

from dyadic_spaces import (
    Family,
    GridFunction,
    SpaceDescriptor,
    SpaceParams,
    Verdict,
    b_type_norm,
    build_filter_bank,
    build_tower,
    check_holder_embeddings,
    check_exact_identities,
    check_collapse_b,
    check_collapse_f,
    check_collapse_inhomogeneous,
    classify,
    classify_cmo,
    f_inf_inf_norm,
    f_type_norm,
    transform_consistency,
    separation_b_bound_log2,
    separation_f_bound_log2,
    random_sample_set,
    collapse_upper_constant_log2,
)
from dyadic_spaces.analyze import annulus_profile, cap_profile, lp_convolve
from dyadic_spaces.cli import main

from _oracles import candidate_value, saturated_ratio_log2, saturated_tree_sequence

INF = math.inf
F = Family

_results = []


def _report(num, desc, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {desc} ({elapsed:.1f} s){extra}"
    print(line)
    _results.append(line)
    assert ok, line


# 36-cell grid shared by criteria 2, 4 and 6
DELTAS = (0.25, 0.5, 1.0)
QS = (0.5, 1.0, 2.0, INF)
PS = (0.5, 1.0, 2.0)
CELLS = [(d, q, p) for d in DELTAS for q in QS for p in PS]


@pytest.fixture(scope="module")
def sweep_samples():
    samples = random_sample_set(20250808, 10000, dims=(1, 2), depth_1d=10, depth_nd=5)
    return {1: [s for s in samples if s.dim == 1], 2: [s for s in samples if s.dim == 2]}


def test_criterion_1_exact_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    samples = random_sample_set(101, 1000, dims=(1, 2), depth_1d=10, depth_nd=5)
    worst = 0.0
    for seq in samples:
        s = float(rng.uniform(-2, 2))
        q = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        r = float(rng.uniform(0, 3))
        p = float(rng.choice([0.5, 1.0, 2.0, INF]))
        rep = check_exact_identities(seq, s, p, q, r, tol=1e-9)
        assert rep.all_ok, (s, p, q, r)
        if rep.samples > rep.vacuous:
            worst = max(worst, abs(rep.worst_ratio_low - 1), abs(rep.worst_ratio_high - 1))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "Carleson/Besov-BMO identities on 1000 random sequences",
        worst <= 1e-9 and elapsed < 30,
        elapsed,
        f" worst rel err {worst:.2e}",
    )


# Tightness schedule: minimal saturated-tree depth at which the measured
# ratio reaches 0.95*C, per (q, delta); the two entries marked infeasible
# need witnesses beyond any constructible size (2**22 and 2**43 nodes), so
# they are certified against the closed-form depth-limited supremum instead.
TIGHTNESS = [
    (0.5, 1.0, 10, True),
    (1.0, 0.25, 17, True),
    (1.0, 0.5, 8, True),
    (1.0, 1.0, 4, True),
    (2.0, 0.25, 6, True),
    (2.0, 0.5, 3, True),
    (2.0, 1.0, 1, True),
    (INF, 0.25, 4, True),
    (INF, 0.5, 4, True),
    (INF, 1.0, 4, True),
    (0.5, 0.5, 12, False),  # needs depth 21
    (0.5, 0.25, 12, False),  # needs depth 42, beyond the stated depth 32
]


def test_criterion_2_collapse_bounds(sweep_samples):
    t0 = time.perf_counter()
    tol = 1e-9
    checked = 0
    for ci, (delta, q, p) in enumerate(CELLS):
        tau = delta + (0.0 if p == INF else 1.0 / p)
        for dim in (1, 2):
            chunk = sweep_samples[dim][ci :: len(CELLS)]
            repf = check_collapse_f(chunk, 0.0, tau, p, q, tol=tol)
            assert repf.all_ok, ("f", delta, q, p, dim, repf.worst_ratio_low, repf.worst_ratio_high)
            repb = check_collapse_b(chunk, 0.0, tau, p, q, tol=tol)
            assert repb.all_ok, ("b", delta, q, p, dim)
            checked += repf.samples

    # constant tightness on equal-effective-weight saturated trees (n = 1)
    infeasible_notes = 0
    for q, delta, depth, attained in TIGHTNESS:
        seq = saturated_tree_sequence(1, depth, delta)
        p = 2.0
        tau = delta + 1.0 / p
        c_log2 = collapse_upper_constant_log2(0.0, tau, p, q, 1)
        base = f_inf_inf_norm(seq, delta).log2_value
        params_f = SpaceParams(F.F_TYPE, 0.0, tau, p, q)
        measured = candidate_value(seq, params_f, seq.root) - base
        predicted = saturated_ratio_log2(q, delta, 1, depth)
        assert abs(measured - predicted) <= 1e-9, (q, delta, measured, predicted)
        params_b = SpaceParams(F.B_TYPE, 0.0, tau, p, q)
        measured_b = candidate_value(seq, params_b, seq.root) - base
        assert abs(measured_b - predicted) <= 1e-9, (q, delta, "b-side")
        if attained:
            assert 2.0 ** (measured - c_log2) >= 0.95, (q, delta)
        else:
            infeasible_notes += 1
            # evaluator verified above; certify the constant analytically
            need = next(
                D
                for D in range(1, 64)
                if 2.0 ** (saturated_ratio_log2(q, delta, 1, D) - c_log2) >= 0.95
            )
            assert need > 20  # witness would exceed 2**21 nodes
            assert 2.0 ** (saturated_ratio_log2(q, delta, 1, need) - c_log2) >= 0.95
            if (q, delta) == (0.5, 0.25):
                # even the stated depth-32 witness cannot attain 0.95*C
                assert 2.0 ** (saturated_ratio_log2(q, delta, 1, 32) - c_log2) < 0.95

    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"two-sided collapse bounds, {checked} samples x 2 scales, 36 cells",
        elapsed < 120,
        elapsed,
        f" (+ tightness: 10 combos empirical, {infeasible_notes} closed-form certified)",
    )


def test_criterion_3_counterexample():
    t0 = time.perf_counter()
    s, p, q, tau = 0.0, 1.0, 2.0, 0.5
    f_bound = 2.0 ** separation_f_bound_log2(tau, p, 1)
    assert f_bound == pytest.approx((1 - 2**-0.5) ** -1, rel=1e-14)
    b_bound = 2.0 ** separation_b_bound_log2(tau, q, 1)
    worst = 0.0
    for J in (4, 8, 16, 32, 64):
        tower = build_tower(s, tau, p, 1, J).sequence
        diag = b_type_norm(tower, SpaceParams(F.B_TYPE, s, 0.0, q, q)).linear_value
        worst = max(worst, abs(diag / (J + 1) ** 0.5 - 1))
        assert abs(diag / (J + 1) ** 0.5 - 1) <= 1e-10, J
        fval = f_type_norm(tower, SpaceParams(F.F_TYPE, s, tau, p, q)).linear_value
        assert fval <= f_bound * (1 + 1e-12), J
        bval = b_type_norm(tower, SpaceParams(F.B_TYPE, s, tau, p, q)).linear_value
        assert bval <= b_bound * (1 + 1e-12), J
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "tower counterexample: diagonal norm = (J+1)^(1/2), weighted norms bounded",
        elapsed < 10,
        elapsed,
        f" worst rel err {worst:.2e}",
    )


def test_criterion_4_holder_embeddings(sweep_samples):
    t0 = time.perf_counter()
    violations = 0
    cells = 0
    for ci, (delta, q, p) in enumerate(CELLS):
        if not q > p:
            continue
        cells += 1
        tau = delta + (0.0 if p == INF else 1.0 / p)
        for dim in (1, 2):
            chunk = sweep_samples[dim][ci :: len(CELLS)]
            rep = check_holder_embeddings(chunk, 0.0, tau, p, q)
            if not rep.all_ok:
                violations += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        f"constant-1 embeddings over the q > p cells ({cells} cells)",
        violations == 0,
        elapsed,
    )


GOLDEN_TABLE = [
    # (descriptor or ("cmo", s, q, r), expected verdict, checks)
    (("F_type", 0, -0.1, 2, 2, 1), Verdict.TRIVIAL_POLYNOMIALS, {}),
    (("B_type", 1, -0.5, 0.5, 1, 1), Verdict.TRIVIAL_POLYNOMIALS, {}),
    (("F_type", 0.5, 0, 2, 2, 1), Verdict.CLASSICAL_F, {}),
    (("B_type", -1, 0, INF, 1, 1), Verdict.CLASSICAL_B, {}),
    (("F_type", 0, 0.25, 2, 3, 1), Verdict.MORREY_E, {"u": 4.0}),
    (("F_type", 0, 0.25, 3, INF, 1), Verdict.MORREY_E, {"u": 12.0}),
    (("F_type", 1, 0.5, 2, 4, 1), Verdict.F_INF_Q, {}),
    (("F_type", 0, 1.5, 1, 2, 1), Verdict.F_INF_INF, {"s_eff": 0.5}),
    (("F_type", 0, 0.5, 2, INF, 1), Verdict.F_INF_INF, {"s_eff": 0.0}),
    (("F_type", 0.3, 0.2, 2, 2, 1), Verdict.MORREY_E, {"q_alpha": True}),
    (("F_type", 0.8, 0.1, 2, 2, 2), Verdict.MORREY_E, {"q_alpha": True}),
    (("B_type", 0, 2, 1, 3, 1), Verdict.B_INF_INF, {"s_eff": 1.0}),
    (("B_type", 1, 1 / 3, 3, INF, 1), Verdict.B_INF_INF, {"s_eff": 1.0, "rule": "Corollary 2"}),
    (("B_type", 0, 0.5, 2, 2, 1), Verdict.STRICT_SUPERSET_B_INF_Q, {}),
    (("B_type", 0, 0.2, 2, INF, 1), Verdict.MORREY_N, {"u": 10 / 3}),
    (("B_type", 0, 0.2, 2, 2, 1), Verdict.MORREY_N_SUPERSET, {}),
    (("B_type", 0, 0.5, INF, 1, 1), Verdict.B_INF_INF, {"s_eff": 0.5}),
    (("cmo", 0, 2, 2), Verdict.F_INF_INF, {"s_eff": 0.5}),
    (("cmo", 0, 2, 0.5), Verdict.MORREY_E, {"u": 4.0}),
    (("cmo", 0, 2, 0), Verdict.CLASSICAL_F, {}),
    (("cmo", 1, 3, 1), Verdict.F_INF_Q, {}),
    (("cmo", 0, 2, -1), Verdict.TRIVIAL_POLYNOMIALS, {}),
    (("cmo", 0, INF, 2), Verdict.F_INF_INF, {"s_eff": 0.0}),
    (("cmo", 0, INF, 0.5), Verdict.NO_KNOWN_COINCIDENCE, {}),
    (("BBMO", 0, None, 2, INF, 1), Verdict.B_INF_INF, {"s_eff": 0.0, "rule": "Corollary 2"}),
]


def test_criterion_5_classifier_golden_table():
    t0 = time.perf_counter()
    assert len(GOLDEN_TABLE) == 25
    for row, expected, checks in GOLDEN_TABLE:
        if row[0] == "cmo":
            rep = classify_cmo(row[1], row[2], row[3])
        else:
            fam, s, tau, p, q, dim = row
            rep = classify(SpaceDescriptor(fam, s, tau, p, q, True, dim))
        assert rep.verdict == expected, (row, rep.verdict)
        for key, val in checks.items():
            if key == "q_alpha":
                assert rep.q_alpha == val, row
            elif key == "rule":
                assert rep.rule == val, row
            else:
                assert float(rep.target[key]) == pytest.approx(val), (row, key)

    # delegation identity on 1000 random tuples
    rng = np.random.default_rng(555)
    for _ in range(1000):
        s = float(rng.uniform(-2, 2))
        q = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
        r = float(rng.uniform(-1, 4))
        assert classify_cmo(s, q, r) == classify(
            SpaceDescriptor("F_type", s, r / q, q, q)
        ), (s, q, r)
    elapsed = time.perf_counter() - t0
    _report(5, "25-row classifier golden table + 1000 delegation identities", True, elapsed)


def test_criterion_6_inhomogeneous_bounds(sweep_samples):
    t0 = time.perf_counter()
    for ci, (delta, q, p) in enumerate(CELLS):
        tau = delta + (0.0 if p == INF else 1.0 / p)
        for dim in (1, 2):
            chunk = sweep_samples[dim][ci :: len(CELLS)]
            hom_c = 2.0 ** collapse_upper_constant_log2(0.0, tau, p, q, dim)
            repf = check_collapse_inhomogeneous(chunk, 0.0, tau, p, q, family="f", tol=1e-9)
            assert repf.all_ok, ("f", delta, q, p, dim)
            assert repf.upper_constant == pytest.approx(hom_c, rel=1e-14)
            repb = check_collapse_inhomogeneous(chunk, 0.0, tau, p, q, family="b", tol=1e-9)
            assert repb.all_ok, ("b", delta, q, p, dim)
            assert repb.upper_constant == pytest.approx(hom_c, rel=1e-14)
    elapsed = time.perf_counter() - t0
    _report(6, "inhomogeneous collapse, identical constants, zero violations", True, elapsed)


def test_criterion_7_transform_consistency():
    t0 = time.perf_counter()
    # filter support and lower bound, exact on the lattice
    assert annulus_profile(np.array([0.499, 0.5, 2.0, 2.5])).tolist() == [0, 0, 0, 0]
    bank10 = build_filter_bank(10)
    c = bank10.lower_bound_constant
    assert c > 0
    N = 1 << 10
    for j in bank10.valid_levels:
        m = np.arange(1, N // 2 + 1, dtype=float)
        rad = m / (1 << j)
        band = rad[(rad >= 0.6) & (rad <= 5 / 3)]
        if band.size:
            assert annulus_profile(band).min() >= c - 1e-15
        low = rad[rad <= 5 / 3]
        assert cap_profile(low).min() >= c - 1e-15

    # annulus energy leakage
    f = GridFunction.random_bandlimited(1, 10, np.random.default_rng(7))
    energy = float(np.sum(np.abs(f.samples) ** 2))
    for j in (2, 4, 6):
        out = lp_convolve(f, bank10, j)
        spec = np.abs(out.spectrum()) ** 2
        radii = np.abs(np.fft.fftfreq(N) * N)
        outside = spec[(radii < 2.0 ** (j - 1)) | (radii > 2.0 ** (j + 1))].sum()
        assert outside / energy < 1e-12

    # ratio band stability under refinement on the declared family
    params = SpaceParams(F.F_TYPE, 0.0, 0.0, 2, 2)
    max_level = 6
    ratios = {}
    for L in (8, 9, 10):
        bank = build_filter_bank(L)
        vals = []
        for seed in range(12):
            g = GridFunction.random_bandlimited(
                1, L, np.random.default_rng(100 + seed), n_modes=20, j_hi=5
            )
            rep = transform_consistency(g, bank, params, max_level)
            assert rep.band_limited
            vals.append(rep.ratio)
        ratios[L] = vals
        assert max(vals) / min(vals) <= 50
    for seed in range(12):
        for L in (8, 9):
            assert abs(ratios[L + 1][seed] / ratios[L][seed] - 1) <= 0.10, (L, seed)

    # scale uniformity across the carrier level
    bank = build_filter_bank(10)
    harm = []
    for j0 in range(1, 8):  # [1, L-3]
        g = GridFunction.harmonic(1, 10, 1 << j0)
        harm.append(transform_consistency(g, bank, params, 8).ratio)
    assert max(harm) / min(harm) - 1 < 0.10

    elapsed = time.perf_counter() - t0
    _report(7, "filter bank exactness + transform-consistency bands", elapsed < 60, elapsed)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    from dyadic_spaces import save_jsonl
    from dyadic_spaces.equivalence import random_sequence

    seq_file = tmp_path / "t.jsonl"
    save_jsonl(random_sequence(np.random.default_rng(0), 1, 6), seq_file)
    commands = [
        ["norm", "--family", "f", "--s", "0", "--tau", "1/2", "--p", "2", "--q", "2",
         "--in", str(seq_file)],
        ["witness", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
         "--depths", "4,8,16"],
        ["equiv", "--check", "collapse-f", "--s", "0", "--tau", "3/2", "--p", "1", "--q", "2",
         "--samples", "60", "--seed", "11"],
        ["classify", "--family", "cmo", "--s", "0", "--q", "2", "--r", "1/2"],
        ["refute", "--s", "0", "--tau", "1/2", "--p", "1", "--q", "2",
         "--depths", "4,8"],
        ["sweep", "--tau-grid", "0,1/4,2", "--p-grid", "1,2", "--q-grid", "2,inf",
         "--samples", "10", "--seed", "4", "--format", "csv"],
        ["analyze", "--L", "8", "--seed", "5"],
    ]
    for idx, cmd in enumerate(commands):
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"out_{idx}_{threads}"
            code = main(cmd + ["--threads", str(threads), "--out", str(out)])
            assert code == 0, cmd
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], cmd
    elapsed = time.perf_counter() - t0
    _report(8, "byte-identical outputs across --threads for every command", True, elapsed)


def test_zz_summary():
    print()
    for line in _results:
        print(line)
