"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v` for the per-criterion report.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""
import math
import time

import numpy as np
import pytest

from cekit.entropy import EntropyParams, binary_entropy
from cekit.measures import cce_pure, locc_monotonicity_gaps, named_measures
from cekit.states import dicke, ghz, haar_random, star, w
from cekit.suites import (
    suite_alpha_mono,
    suite_continuity,
    suite_locc,
    suite_ordering,
    suite_roof_eof,
    suite_roof_separable,
    suite_schur,
    suite_subadd,
    suite_swap_consistency,
    suite_tensor_id,
)
from cekit.swaptest import cce_from_distribution, estimate_from_shots, sample_shots, swap_test_distribution
from cekit.tensor import PureState, local_kraus_branches

TOL = 1e-10


def _report(tag: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


def _assert_suite(result) -> None:
    assert result.passed, "\n".join(result.failures[:20])


def test_c01_ghz_w_closed_forms():
    start = time.monotonic()
    for n in range(3, 11):
        s = range(1, n + 1)
        g = named_measures(ghz(n), s)
        wv = named_measures(w(n), s)
        assert g.e == pytest.approx(1 - 2 ** (1 - n), abs=TOL)
        assert g.r2 == pytest.approx(1 - 2 ** (1 - n), abs=TOL)
        assert g.t3 == pytest.approx((3 / 8) * (2**n - 2) / 2**n, abs=TOL)
        assert g.c == pytest.approx(0.5 * (2**n - 2) / 2**n, abs=TOL)
        assert wv.c == pytest.approx((n - 1) / (2 * n), abs=TOL)
        assert wv.t3 == pytest.approx(3 * (n - 1) / (8 * n), abs=TOL)
        e_want = sum(math.comb(n, k) * binary_entropy(k / n) for k in range(n + 1)) / 2**n
        r2_want = -sum(
            math.comb(n, k) * math.log2((k / n) ** 2 + ((n - k) / n) ** 2) for k in range(n + 1)
        ) / 2**n
        assert wv.e == pytest.approx(e_want, abs=TOL)
        assert wv.r2 == pytest.approx(r2_want, abs=TOL)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("c01 ghz-w-closed-forms", f"({elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the quoted W-state Tsallis-3 closed form (3n-1)/(8n) disagrees with "
    "direct power-set enumeration; the exact value is 3(n-1)/(8n)",
)
@pytest.mark.parametrize("n", range(3, 11))
def test_c01_w_tsallis3_quoted_variant(n):
    t3 = named_measures(w(n), range(1, n + 1)).t3
    assert t3 == pytest.approx((3 * n - 1) / (8 * n), abs=TOL)


def test_c02_ghz_w_separation():
    for n in range(3, 11):
        psi_g, psi_w = ghz(n), w(n)
        for size in range(1, n + 1):
            subset = tuple(range(1, size + 1))
            g = named_measures(psi_g, subset)
            wv = named_measures(psi_w, subset)
            for measure in ("e", "r2", "t3", "c"):
                delta = getattr(g, measure) - getattr(wv, measure)
                assert delta > 0.0, f"n={n} size={size} {measure}: delta={delta}"
    _report("c02 ghz-w-separation")


def test_c03_ordering_chain():
    start = time.monotonic()
    result = suite_ordering(seed=0, trials=1000)
    _assert_suite(result)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("c03 ordering-chain", f"({result.trials} states, {elapsed:.1f}s)")


def test_c04_tensor_product_identity():
    result = suite_tensor_id(seed=0, trials=200)
    _assert_suite(result)
    _report("c04 tensor-product-identity", f"({result.trials} pairs)")


def test_c05_subadditivity():
    result = suite_subadd(seed=0, trials=1000)
    _assert_suite(result)
    _report("c05 subadditivity", f"({result.trials} states)")


def test_c06_continuity_bounds():
    result = suite_continuity(seed=0, trials=500)
    _assert_suite(result)
    _report("c06 continuity", f"({result.trials} pairs)")


def test_c07_schur_and_alpha_monotonicity():
    schur = suite_schur(seed=0, trials=10_000)
    _assert_suite(schur)
    mono = suite_alpha_mono(seed=0, trials=10_000)
    _assert_suite(mono)
    _report("c07 schur-and-alpha-monotonicity", "(2 x 10^4 trials)")


def test_c08_swap_test_identity():
    result = suite_swap_consistency(seed=0, trials=100)
    _assert_suite(result)
    _report("c08a swap-test-identity", f"({result.trials} states)")


def test_c08_shot_estimator_coverage():
    psi = ghz(4)
    dist = swap_test_distribution(psi)
    exact = cce_from_distribution(dist, (1, 2, 3, 4))
    shots = 100_000
    sigma = math.sqrt(exact * (1 - exact) / shots)
    hits = 0
    for seed in range(100):
        record = sample_shots(dist, shots=shots, seed=seed)
        estimate, _ = estimate_from_shots(record, (1, 2, 3, 4))
        if abs(estimate - exact) <= 4 * sigma:
            hits += 1
    assert hits >= 99
    _report("c08b shot-estimator-coverage", f"({hits}/100 within 4 sigma)")


def test_c09_roof_separable():
    result = suite_roof_separable(seed=0, trials=20)
    _assert_suite(result)
    _report("c09a roof-separable", f"({result.trials} states, tol 1e-3)")


def test_c09_roof_entanglement_of_formation():
    result = suite_roof_eof(seed=0, trials=20)
    _assert_suite(result)
    _report("c09b roof-eof", f"({result.trials} states, tol 5e-3)")


def test_c10_star_sweep_and_dicke_table():
    thetas = [i * (math.pi / 2) / 99 for i in range(100)]
    values = [named_measures(star(t), (1, 2, 3, 4)) for t in thetas]
    for nm in values:
        assert nm.e >= nm.r2 - TOL
        assert nm.r2 >= nm.c - TOL
        assert nm.c >= nm.t3 - TOL
    for i in range(100):
        mirrored = values[99 - i]
        assert np.allclose(values[i], mirrored, atol=1e-10)
    assert np.allclose(values[0], 0.0, atol=1e-12)
    assert np.allclose(values[-1], 0.0, atol=1e-10)

    table = [named_measures(dicke(4, k), (1, 2, 3, 4)) for k in range(5)]
    for idx in range(4):
        for k in range(5):
            assert table[k][idx] == pytest.approx(table[4 - k][idx], abs=1e-10)
            if k != 2:
                assert table[k][idx] < table[2][idx]
    _report("c10 star-sweep-and-dicke-table")


def test_c11_local_unitary_invariance():
    rng = np.random.default_rng(0)
    params = EntropyParams.von_neumann()
    for trial in range(50):
        psi = haar_random((2, 2, 2), seed=trial)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(z)
        site = int(rng.integers(1, 4))
        branches = local_kraus_branches(psi.amplitudes[None], psi.dims, [site], u[None, None])[1]
        rotated = PureState(branches[0, 0], psi.dims)
        before = cce_pure(psi, (1, 2, 3), params).value
        after = cce_pure(rotated, (1, 2, 3), params).value
        assert after == pytest.approx(before, abs=TOL)
        [gap] = locc_monotonicity_gaps([(psi, (1, 2, 3), params, site, [u])])
        assert abs(gap) <= TOL
    _report("c11a local-unitary-invariance", "(50 states)")


def test_c11_locc_average_monotonicity():
    result = suite_locc(seed=0, trials=500)
    _assert_suite(result)
    _report("c11b locc-average-monotonicity", f"({result.trials} operations)")
