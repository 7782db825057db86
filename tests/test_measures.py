import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cekit.convex_roof import Ensemble
from cekit.entropy import EntropyParams, binary_entropy, majorizes_rows, unified_entropy_rows, unified_entropy_spectrum
from cekit.errors import ResourceLimitError
from cekit.measures import (
    BENCHMARKS,
    CutBlock,
    SpectraTable,
    _qubit_moments,
    cce_pure,
    cce_values,
    continuity_gap,
    cut_plan,
    cut_purity_rows,
    gme_certificate,
    locc_monotonicity_gaps,
    member_spectra,
    named_measures,
    ordering_reports,
    spectra_table,
    subadditivity_gaps,
    table_terms,
    table_values,
    tensor_identity_residual,
)
from cekit.states import ghz, haar_random, random_product, w
from cekit.suites import nearby_state
from cekit.swaptest import cce_from_rows, swap_test_rows
import cekit.measures as measures
from cekit.tensor import ZERO_EIG_FLOOR, PureState, hermitian_eigenvalues, local_kraus_branches, reduced_state

VN = EntropyParams.von_neumann()
LIN = EntropyParams.linear()


def ghz_formula(n: int, branch: EntropyParams) -> float:
    from cekit.entropy import unified_entropy_spectrum

    return (2**n - 2) / 2**n * unified_entropy_spectrum([0.5, 0.5], branch)


def test_cce_ghz3_von_neumann():
    assert cce_pure(ghz(3), (1, 2, 3), VN).value == pytest.approx(0.75, abs=1e-12)


def test_cce_w3_linear():
    assert cce_pure(w(3), (1, 2, 3), LIN).value == pytest.approx(1 / 3, abs=1e-12)


def test_cce_ghz4_tsallis3():
    got = cce_pure(ghz(4), (1, 2, 3, 4), EntropyParams.tsallis(3.0)).value
    assert got == pytest.approx(3 / 8 * 14 / 16, abs=1e-12)
    assert got == pytest.approx(0.328125, abs=1e-12)


def test_cce_product_state_vanishes():
    psi = random_product((2, 2, 2, 2), seed=1)
    for params in [VN, LIN, EntropyParams.renyi(0.5), EntropyParams(1.6, 2.2)]:
        assert cce_pure(psi, (1, 2, 3, 4), params).value == pytest.approx(0.0, abs=1e-12)


def test_cce_bell_single_site(bell):
    report = cce_pure(bell, (1,), VN)
    assert report.value == pytest.approx(0.5, abs=1e-12)
    assert report.terms[0] == 0.0
    assert report.terms[1] == pytest.approx(1.0, abs=1e-12)


def test_cce_enumeration_guard():
    psi = random_product((2,) * 21, seed=0)
    with pytest.raises(ResourceLimitError):
        cce_pure(psi, range(1, 22), VN)


def _naive_cce(psi, subset, params):
    # One explicit reduced state per mask, always built on chi itself.
    s = sorted(subset)
    total = 0.0
    for mask in range(1, 1 << len(s)):
        chi = [s[j] for j in range(len(s)) if (mask >> j) & 1]
        total += unified_entropy_spectrum(hermitian_eigenvalues(reduced_state(psi, chi)), params)
    return total / 2 ** len(s)


def _unpaired_terms(psi, subset, params):
    # Every mask eigensolved on its own through `reduced_state`, complements too; the empty one is pure.
    s = sorted(subset)
    chis = ([s[j] for j in range(len(s)) if (mask >> j) & 1] for mask in range(1, 1 << len(s)))
    return [0.0] + [unified_entropy_spectrum(hermitian_eigenvalues(reduced_state(psi, chi)), params) for chi in chis]


def test_symmetric_evaluation_matches_naive():
    # Mixed local dimensions give several cut-dimension blocks; GHZ and W
    # cuts carry exact zero eigenvalues, which must fall under the floor.
    cases = [(haar_random((2, 2, 2, 2), seed=seed), (1, 2, 3, 4)) for seed in range(5)]
    cases += [
        (haar_random((2, 3, 2), seed=21), (1, 2, 3)),
        (haar_random((2, 3, 2), seed=21), (1, 3)),
        (haar_random((3, 3), seed=22), (1, 2)),
        (haar_random((3, 3), seed=22), (2,)),
        (ghz(4), (1, 2, 3, 4)),
        (ghz(4), (1, 3)),
        (w(5), (1, 2, 3, 4, 5)),
        (w(5), (1, 3)),
    ]
    for psi, subset in cases:
        full = len(subset) == psi.n_subsystems
        for params in [VN, LIN, EntropyParams(1.4, 0.8), EntropyParams.renyi(0.5)]:
            fast = cce_pure(psi, subset, params).value
            assert fast == pytest.approx(_naive_cce(psi, subset, params), abs=1e-12)
            if full:
                naive = math.fsum(_unpaired_terms(psi, subset, params)) / 2 ** len(subset)
                assert fast == pytest.approx(naive, abs=1e-12)


def test_complement_symmetry_termwise():
    psi = haar_random((2, 2, 2, 2), seed=13)
    terms = _unpaired_terms(psi, (1, 2, 3, 4), VN)
    for mask, term in enumerate(terms):
        assert term == pytest.approx(terms[15 ^ mask], abs=1e-10)


def test_permutation_covariance(relabel):
    rng = np.random.default_rng(17)
    psi = haar_random((2, 2, 2), seed=23)
    for _ in range(5):
        order = tuple(int(x) for x in rng.permutation(3) + 1)
        permuted = relabel(psi, order)
        s_old = (1, 3)
        s_new = tuple(k + 1 for k in range(3) if order[k] in s_old)
        a = cce_pure(psi, s_old, LIN).value
        b = cce_pure(permuted, s_new, LIN).value
        assert a == pytest.approx(b, abs=1e-12)


def test_zero_iff_fully_product():
    prod = random_product((2, 2, 2), seed=4)
    assert cce_pure(prod, (1, 2, 3), VN).value < 1e-12
    entangled = PureState(
        np.kron(np.array([1, 0, 0, 1]) / math.sqrt(2), np.array([1.0, 0.0])), (2, 2, 2)
    )
    assert cce_pure(entangled, (1, 2, 3), VN).value > 1e-6


def test_named_measures_ghz_closed_forms():
    for n in range(3, 7):
        nm = named_measures(ghz(n), range(1, n + 1))
        assert nm.e == pytest.approx(1 - 2 ** (1 - n), abs=1e-12)
        assert nm.r2 == pytest.approx(1 - 2 ** (1 - n), abs=1e-12)
        assert nm.t3 == pytest.approx((3 / 8) * (2**n - 2) / 2**n, abs=1e-12)
        assert nm.c == pytest.approx(0.5 * (2**n - 2) / 2**n, abs=1e-12)


def test_named_measures_w_closed_forms():
    for n in range(3, 7):
        nm = named_measures(w(n), range(1, n + 1))
        e_want = sum(math.comb(n, k) * binary_entropy(k / n) for k in range(n + 1)) / 2**n
        r2_want = -sum(
            math.comb(n, k) * math.log2((k / n) ** 2 + ((n - k) / n) ** 2) for k in range(n + 1)
        ) / 2**n
        assert nm.e == pytest.approx(e_want, abs=1e-12)
        assert nm.r2 == pytest.approx(r2_want, abs=1e-12)
        assert nm.t3 == pytest.approx(3 * (n - 1) / (8 * n), abs=1e-12)
        assert nm.c == pytest.approx((n - 1) / (2 * n), abs=1e-12)


def test_named_linear_equals_one_minus_mean_purity():
    # Independent oracle: average subset purity via explicit reduced matrices.
    for seed in range(5):
        psi = haar_random((2, 2, 2, 2), seed=seed)
        total = 1.0  # empty subset has purity one
        for mask in range(1, 16):
            chi = [i + 1 for i in range(4) if (mask >> i) & 1]
            rho = reduced_state(psi, chi).matrix
            total += np.trace(rho @ rho).real
        want = 1.0 - total / 16.0
        assert named_measures(psi, (1, 2, 3, 4)).c == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("dims", [(3, 2), (2, 3, 2)])
def test_cut_purity_rows_on_non_qubit_dims(dims):
    # Every mask (bit j selects label j + 1) reads the squared Frobenius norm
    # of that cut's reduced state, the empty cut 1, and a row has the same
    # bits alone as in the stack.
    states = [haar_random(dims, seed=seed) for seed in range(4)] + [random_product(dims, seed=4)]
    rows = cut_purity_rows(np.stack([psi.amplitudes for psi in states]), dims)
    assert rows.shape == (len(states), 1 << len(dims))
    for psi, row in zip(states, rows):
        assert row.tobytes() == cut_purity_rows(psi.amplitudes[None], dims)[0].tobytes()
        assert row[0] == 1.0
        for mask in range(1, 1 << len(dims)):
            chi = [i + 1 for i in range(len(dims)) if (mask >> i) & 1]
            assert row[mask] == pytest.approx(np.linalg.norm(reduced_state(psi, chi).matrix) ** 2, abs=1e-14)


def test_dicke42_collapses_to_two_reductions():
    # Permutation symmetry: the sixteen-term average equals (4 S_A + 3 S_AB)/8.
    from cekit.entropy import unified_entropy_spectrum
    from cekit.measures import BENCHMARKS
    from cekit.states import dicke
    from cekit.tensor import hermitian_eigenvalues

    psi = dicke(4, 2)
    single = hermitian_eigenvalues(reduced_state(psi, [1]))
    pair = hermitian_eigenvalues(reduced_state(psi, [1, 2]))
    nm = named_measures(psi, (1, 2, 3, 4))
    for key, params in BENCHMARKS.items():
        s_a = unified_entropy_spectrum(single, params)
        s_ab = unified_entropy_spectrum(pair, params)
        assert getattr(nm, key) == pytest.approx((4 * s_a + 3 * s_ab) / 8, abs=1e-12)


def test_ordering_report_ghz5():
    report = ordering_reports([(ghz(5), range(1, 6), ())])[0][0]
    assert report.e == pytest.approx(0.9375, abs=1e-12)
    assert report.r2 == pytest.approx(0.9375, abs=1e-10)
    assert report.all_hold


def test_ordering_report_product_state():
    report = ordering_reports([(random_product((2, 2, 2, 2), seed=2), (1, 2, 3, 4), ())])[0][0]
    assert report.e == pytest.approx(0.0, abs=1e-12)
    assert report.all_hold


def test_ordering_report_haar_sweep():
    cases = [(haar_random((2, 2, 2, 2), seed=seed), (1, 2, 3, 4), ()) for seed in range(100)]
    assert all(report.all_hold for report, _ in ordering_reports(cases))


def test_tensor_identity_additive_branches(bell):
    other = haar_random((2, 2), seed=40)
    for params in [VN, EntropyParams.renyi(2.0), EntropyParams.renyi(0.6)]:
        assert tensor_identity_residual(bell, other, (1, 2, 3, 4), params) < 1e-10


def test_tensor_identity_pseudo_additive_linear(bell):
    # At (2, 1) the cross term carries coefficient -1, the known
    # pseudo-additivity of the purity-based measure.
    other = haar_random((2, 2), seed=41)
    assert tensor_identity_residual(bell, other, (1, 2, 3, 4), LIN) < 1e-10
    e_a = cce_pure(bell, (1, 2), LIN).value
    e_b = cce_pure(other, (1, 2), LIN).value
    joint = PureState(np.kron(bell.amplitudes, other.amplitudes), (2, 2, 2, 2))
    e = cce_pure(joint, (1, 2, 3, 4), LIN).value
    assert e == pytest.approx(e_a + e_b - e_a * e_b, abs=1e-12)


def test_tensor_identity_random_pairs():
    rng = np.random.default_rng(5)
    for seed in range(30):
        a = haar_random((2, 2), seed=seed)
        b = haar_random((2,), seed=900 + seed)
        params = EntropyParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.1, 2.5)))
        s = tuple(sorted(rng.permutation(3)[: rng.integers(1, 4)] + 1))
        assert tensor_identity_residual(a, b, s, params) < 1e-10


def test_tensor_identity_empty_side():
    a = haar_random((2, 2), seed=7)
    b = haar_random((2,), seed=8)
    assert tensor_identity_residual(a, b, (1, 2), VN) < 1e-10
    assert tensor_identity_residual(a, b, (3,), VN) < 1e-10


def test_super_and_subadditivity_across_factors():
    a = haar_random((2, 2), seed=50)
    b = haar_random((2, 2), seed=51)
    joint = PureState(np.kron(a.amplitudes, b.amplitudes), (2, 2, 2, 2))
    s = (1, 2, 3, 4)
    for alpha in (0.4, 0.8):
        params = EntropyParams(alpha, 1.3)
        whole = cce_pure(joint, s, params).value
        parts = cce_pure(a, (1, 2), params).value + cce_pure(b, (1, 2), params).value
        assert whole >= parts - 1e-10
    for alpha in (1.5, 3.0):
        params = EntropyParams(alpha, 1.3)
        whole = cce_pure(joint, s, params).value
        parts = cce_pure(a, (1, 2), params).value + cce_pure(b, (1, 2), params).value
        assert whole <= parts + 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_tensor_power_additivity(k):
    base = haar_random((2, 2), seed=60)
    amp = base.amplitudes
    for _ in range(k - 1):
        amp = np.kron(amp, base.amplitudes)
    power = PureState(amp, (2,) * (2 * k))
    for params in [VN, EntropyParams.renyi(2.0)]:
        single = cce_pure(base, (1, 2), params).value
        total = cce_pure(power, range(1, 2 * k + 1), params).value
        assert total == pytest.approx(k * single, abs=1e-10)


def test_subadditivity_product_state_gap_zero():
    psi = random_product((2, 2, 2, 2, 2), seed=70)
    [gap] = subadditivity_gaps([(psi, (1, 2, 3), (4, 5), VN)])
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_subadditivity_ghz5_split():
    [gap] = subadditivity_gaps([(ghz(5), (1, 2, 3), (4, 5), VN)])
    assert gap == pytest.approx(0.875 + 0.75 - 0.9375, abs=1e-12)
    assert gap >= 0.0


def test_subadditivity_random_sweep():
    rng = np.random.default_rng(6)
    for seed in range(50):
        psi = haar_random((2,) * 5, seed=seed)
        labels = rng.permutation(5) + 1
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 6 - k1))
        s = tuple(int(x) for x in labels[:k1])
        s2 = tuple(int(x) for x in labels[k1 : k1 + k2])
        alpha = [1.0, 1.5, 2.0, 3.0][seed % 4]
        assert subadditivity_gaps([(psi, s, s2, EntropyParams(alpha, 1.0))])[0] >= -1e-10


def test_subadditivity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        subadditivity_gaps([(ghz(5), (1, 2), (2, 3), VN)])
    with pytest.raises(ValueError):
        subadditivity_gaps([(ghz(5), (1, 2), (3,), EntropyParams(0.5, 1.0))])


def test_gme_certificate_ghz3_linear():
    cert = gme_certificate(ghz(3), LIN)
    assert cert.value == pytest.approx(0.375, abs=1e-12)
    assert cert.threshold == pytest.approx(0.25, abs=1e-12)
    assert cert.certified


def test_gme_certificate_biseparable_not_certified(bell):
    psi = PureState(np.kron(bell.amplitudes, np.array([1.0, 0.0])), (2, 2, 2))
    for params in [LIN, VN]:
        cert = gme_certificate(psi, params)
        assert cert.value <= cert.threshold + 1e-12
        assert not cert.certified


def test_gme_certificate_product_not_certified():
    cert = gme_certificate(random_product((2, 2, 2), seed=3), VN)
    assert cert.value == pytest.approx(0.0, abs=1e-12)
    assert not cert.certified


def test_gme_certificate_rejects_bad_arity(bell):
    with pytest.raises(ValueError):
        gme_certificate(bell, VN)
    with pytest.raises(ValueError):
        gme_certificate(haar_random((2, 2, 3), seed=0), VN)


def test_continuity_identical_states():
    psi = haar_random((2, 2, 2), seed=80)
    lhs, bound = continuity_gap(psi, psi, (1, 2, 3), VN)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_continuity_rotated_ghz3():
    c, s = math.cos(0.05), math.sin(0.05)
    ry = np.array([[c, -s], [s, c]])
    branches = local_kraus_branches(ghz(3).amplitudes[None], (2, 2, 2), [1], ry[None, None])[1]
    rotated = PureState(branches[0, 0], (2, 2, 2))
    lhs, bound = continuity_gap(ghz(3), rotated, (1, 2, 3), LIN)
    assert lhs <= bound + 1e-10
    eps = math.sin(0.05)
    assert bound == pytest.approx(2 * 2 * eps / (2 - 1), abs=1e-6)


def test_continuity_von_neumann_branch():
    rng = np.random.default_rng(8)
    for seed in range(20):
        psi = haar_random((2, 2, 2), seed=seed)
        eps = float(rng.uniform(0.05, 0.39))
        phi = nearby_state(psi, rng, eps)
        lhs, bound = continuity_gap(psi, phi, (1, 2, 3), VN)
        assert lhs <= bound + 1e-10
        assert bound <= eps * math.log2(7) + binary_entropy(eps) + 1e-9


def test_continuity_rejects_far_states_and_bad_params(zero_one, bell):
    far = PureState(np.array([1.0, 0, 0, 0]), (2, 2))
    with pytest.raises(ValueError):
        continuity_gap(far, zero_one, (1, 2), VN)
    with pytest.raises(ValueError):
        continuity_gap(bell, bell, (1, 2), EntropyParams(0.5, 2.0))


def test_locc_local_unitary_gap_zero():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(z)
    psi = haar_random((2, 2, 2), seed=90)
    [gap] = locc_monotonicity_gaps([(psi, (1, 2, 3), VN, 2, [u])])
    assert gap == pytest.approx(0.0, abs=1e-10)


def test_locc_projective_measurement_kills_ghz():
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    [gap] = locc_monotonicity_gaps([(ghz(3), (1, 2, 3), VN, 1, proj)])
    assert gap == pytest.approx(0.75, abs=1e-12)


def _rank1_instrument(rng, d=2):
    # Measure-and-prepare channel K_i = |a_i><b_i|: {b_i} the QR basis of a complex Gaussian z,
    # then each a_i a complex Gaussian vector scaled to unit norm.
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    kraus = []
    for b in basis.T:
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kraus.append(np.outer(a / np.linalg.norm(a), b.conj()))
    return kraus


def test_locc_random_sweep():
    from cekit.suites import sample_concavity_params

    rng = np.random.default_rng(10)
    for seed in range(100):
        psi = haar_random((2, 2, 2), seed=seed)
        [gap] = locc_monotonicity_gaps(
            [(psi, (1, 2, 3), sample_concavity_params(rng), int(rng.integers(1, 4)), _rank1_instrument(rng))]
        )
        assert gap >= -1e-10


def test_locc_rejects_full_rank_kraus_and_bad_region():
    d = math.sqrt(0.5)
    kraus = [d * np.eye(2), d * np.eye(2)]
    with pytest.raises(ValueError):
        locc_monotonicity_gaps([(ghz(3), (1, 2, 3), VN, 1, kraus)])
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(ValueError):
        locc_monotonicity_gaps([(ghz(3), (1, 2, 3), EntropyParams(2.0, 0.1), 1, proj)])
    # The rows of a unitary are vectors, not operators, though they stack to a
    # square matrix; a set of mixed shapes does not stack at all.
    for bad in (list(np.eye(2)), [np.eye(2), np.eye(3)]):
        with pytest.raises(ValueError, match="Kraus operators must be square matrices of one shape"):
            locc_monotonicity_gaps([(ghz(3), (1, 2, 3), VN, 1, bad)])


def test_report_serialization_roundtrip():
    report = cce_pure(ghz(3), (1, 2, 3), VN)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["value"] == pytest.approx(0.75, abs=1e-12)
    assert data["alpha"] == 1.0
    assert data["subset"] == [1, 2, 3]
    assert data["terms"]["0x0"] == 0.0
    assert data["terms"]["0x7"] == pytest.approx(0.0, abs=1e-12)
    assert data["terms"]["0x1"] == pytest.approx(1.0, abs=1e-12)
    assert report.value == pytest.approx(
        sum(report.terms.values()) / 2 ** len(report.subset), abs=1e-12
    )


POINTS = [
    EntropyParams.von_neumann(),
    EntropyParams.renyi(2.0),
    EntropyParams.renyi(0.5),
    EntropyParams(0.5, 1.0),
    EntropyParams.linear(),
    EntropyParams.tsallis(3.0),
    EntropyParams(1.7, 0.4),
    EntropyParams(0.3, 2.5),
]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("subset", [(1, 2, 3, 4, 5), (2, 4, 5), (1, 3)])
def test_many_points_terms_match_one_point_calls(subset):
    # A full subset's rows serve a mask and its complement, a partial one's one mask.
    plan = cut_plan((2,) * 5, subset)
    assert {b.masks.shape[1] for b in plan.blocks} == {2 if len(subset) == 5 else 1}
    states = [haar_random((2,) * 5, seed=s) for s in range(4)]
    table = member_spectra(plan, np.stack([psi.amplitudes for psi in states]).reshape((-1,) + plan.dims))
    one = [table_terms(SpectraTable(plan, tuple(b[i] for b in table.blocks)), p) for i in range(4) for p in POINTS]
    # A stack of tables at one point each, and P points per table on leading axes (k, 1).
    zipped = table_terms(table, POINTS[:4])
    assert _bits(zipped) == _bits([one[i * len(POINTS) + i] for i in range(4)])
    per_table = SpectraTable(plan, tuple(b[:, None] for b in table.blocks))
    assert _bits(table_terms(per_table, [POINTS] * 4)) == _bits(np.reshape(one, (4, len(POINTS), -1)))
    # One table at many points.
    first = SpectraTable(plan, tuple(b[0] for b in table.blocks))
    assert _bits(table_terms(first, POINTS)) == _bits(one[: len(POINTS)])


def test_batched_values_and_orderings_match_one_state_calls():
    # Mixed dims and subsets (an empty one too), so the jobs fall into several groups.
    states = [haar_random(dims, seed=i) for i, dims in enumerate([(2, 2, 2), (2, 3, 2), (2, 2, 2), (2, 2, 2)])]
    subsets = [(3, 1), (1, 2, 3), (1, 3), ()]
    jobs = [(psi, s, POINTS[i]) for i, (psi, s) in enumerate(zip(states, subsets))]
    want = [table_values(spectra_table(psi, s), [p])[0] if s else 0.0 for psi, s, p in jobs]
    assert cce_values(jobs) == want
    extra = [POINTS[2:6], POINTS[4:8], POINTS[:4]]
    cases = [(psi, s, points) for psi, s, points in zip(states, subsets, extra)]
    for (psi, s, points), (report, values) in zip(cases, ordering_reports(cases)):
        table = spectra_table(psi, s)
        assert [report.e, report.r2, report.t3, report.c] == [table_values(table, [p])[0] for p in BENCHMARKS.values()]
        assert values == [table_values(table, [p])[0] for p in points]
    with pytest.raises(ValueError):
        ordering_reports([(states[0], (), [])])


@pytest.mark.parametrize("subset", [(), (0,), (1, 4), (2, 2)])
def test_bad_subsets_raise_on_every_pure_state_path(subset):
    # The jobs evaluator behind these takes an empty subset as 0; the callers must not.
    psi = ghz(3)
    ens = Ensemble(((1.0, psi),))
    with pytest.raises(ValueError):
        cce_pure(psi, subset, VN)
    with pytest.raises(ValueError):
        ordering_reports([(psi, subset, ())])
    with pytest.raises(ValueError):
        ens.average(subset, VN)


@pytest.mark.parametrize("bad", [float("nan"), -2e-10])
def test_member_spectra_rejects_nan_and_negative_eigenvalues(monkeypatch, bad):
    # Four qubits: the two-qubit cuts (d = 4) are the ones eigensolved.
    plan = cut_plan((2, 2, 2, 2), (1, 2, 3, 4))
    assert [block.d for block in plan.blocks] == [2, 4]
    tensors = haar_random((2, 2, 2, 2), seed=0).amplitudes.reshape((1,) + plan.dims)
    eigvalsh = np.linalg.eigvalsh

    def spoiled(rho):
        vals = eigvalsh(rho)
        vals[..., 0] = bad
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", spoiled)
    with pytest.raises(ValueError, match="not PSD"):
        member_spectra(plan, tensors)


def _qubit_slices(q, k=64, seed=0):
    """Unit-norm 2 x q slices by kind: random, exact product (a1 = c a0),
    near-pure (lambda- below 1e-12) and, for q >= 2, near-degenerate."""
    rng = np.random.default_rng(seed + q)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a0, c = z(k, q), z(k, 1)
    cases = {
        "random": z(k, 2, q),
        "product": np.stack([a0, c * a0], axis=1),
        "near_pure": np.stack([a0, c * a0 + 1e-7 * z(k, q)], axis=1),
    }
    if q > 1:  # orthogonal rows of equal norm, then a 1e-9 nudge
        u, v = z(k, q), z(k, q)
        v -= (np.sum(u.conj() * v, -1) / np.sum(abs(u) ** 2, -1))[:, None] * u
        v *= np.linalg.norm(u, axis=-1, keepdims=True) / np.linalg.norm(v, axis=-1, keepdims=True)
        cases["near_degenerate"] = np.stack([u, v + 1e-9 * z(k, q)], axis=1)
    return {name: a / np.linalg.norm(a.reshape(k, -1), axis=-1)[:, None, None] for name, a in cases.items()}


@pytest.mark.parametrize("q", [1, 2, 8, 512])
def test_qubit_spectra_match_eigensolve(q):
    block = CutBlock(2, np.array([[1]]), ((0, 1, 2),))  # the whole (k, 2, q) stack is one cut
    for name, a in _qubit_slices(q).items():
        got = _qubit_moments(block, a)[2][:, 0]
        want = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))
        ulps = 8 * np.spacing(want[:, 1:])
        assert np.all(np.abs(got - want) <= ulps), name
        # Each state's spectrum has the bits it has alone.
        assert np.array_equal(got, np.concatenate([_qubit_moments(block, a[i : i + 1])[2][:, 0] for i in range(len(a))]))
        if name in ("product", "near_pure"):
            assert want[:, 0].max() < 1e-12, name
        if q > 1:  # the slices as states of dims (2, q): descending and clamped
            spectra = member_spectra(cut_plan((2, q), (1,)), a).blocks[0][:, 0]
            assert np.all(spectra >= 0.0) and np.all(np.abs(spectra - np.clip(want[:, ::-1], 0.0, None)) <= ulps), name


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(0, float("nan"))])
def test_qubit_spectra_reject_nan_and_inf_amplitudes(bad):
    plan = cut_plan((2, 2, 2), (1, 2, 3))
    assert [block.d for block in plan.blocks] == [2]
    tensors = haar_random((2, 2, 2), seed=0).amplitudes.reshape((1,) + plan.dims).copy()
    tensors[0, 1, 0, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not PSD"):  # inf - inf is NaN
        member_spectra(plan, tensors)


def test_batched_gaps_match_one_case_calls():
    rng = np.random.default_rng(4)
    sub, locc = [], []
    for trial in range(40):
        psi = haar_random((2, 2, 2, 2), seed=trial)
        labels = [int(x) for x in rng.permutation(4) + 1]
        sub.append((psi, labels[:1], labels[1 : 2 + trial % 3], EntropyParams(1.0 + trial % 3, 1.0)))
        site = 1 + trial % 4
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        basis = np.linalg.qr(z)[0]
        kraus = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(2)]
        locc.append((psi, (1, 2, 3, 4), EntropyParams(0.5 + 0.05 * trial, 1.0), site, kraus))
    assert subadditivity_gaps(sub) == [subadditivity_gaps([case])[0] for case in sub]
    assert locc_monotonicity_gaps(locc) == [locc_monotonicity_gaps([case])[0] for case in locc]
    with pytest.raises(ValueError):
        subadditivity_gaps(sub[:3] + [(sub[0][0], (1,), (1, 2), LIN)])


def test_locc_gaps_skip_dropped_branches_like_one_case_loop():
    # Each state's gap against the branch loop: outcomes under 1e-12 (zero on
    # the product state, 1e-13 on the other) are left out of the average.
    tiny = math.sqrt(1e-13)
    edge = np.array([math.sqrt(1.0 - tiny**2), tiny])
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    states = [
        PureState(np.kron(np.kron([1.0, 0.0], plus), [1.0, 0.0]), (2, 2, 2)),
        PureState(np.kron(np.kron(plus, edge), [0.0, 1.0]), (2, 2, 2)),
        haar_random((2, 2, 2), seed=5),
    ]
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    cases = [(psi, (1, 2, 3), p, site, proj) for psi, p, site in zip(states, (VN, LIN, VN), (1, 2, 3))]
    want = []
    for psi, s, params, site, kraus in cases:
        branches = []
        for k in kraus:
            ops = [np.eye(2)] * 3
            ops[site - 1] = k
            v = np.kron(np.kron(ops[0], ops[1]), ops[2]) @ psi.amplitudes
            p = float(np.real(np.vdot(v, v)))
            if p >= 1e-12:
                branches.append((p, PureState(v / np.sqrt(p), psi.dims)))
        avg = 0.0
        for p, branch in branches:
            avg += p * cce_values([(branch, s, params)])[0]
        want.append(cce_values([(psi, s, params)])[0] - avg)
    for (psi, _, _, site, _), n_kept in zip(cases, (1, 1, 2)):
        assert local_kraus_branches(psi.amplitudes[None], psi.dims, [site], np.array(proj)[None])[2].sum() == n_kept
    assert locc_monotonicity_gaps(cases) == want


def _planned_subsets(monkeypatch, cases):
    # The subsets whose plans `subadditivity_gaps` eigensolves, in call order.
    seen = []
    real = measures.member_spectra

    def recording(plan, tensors):
        seen.append(plan.subset)
        return real(plan, tensors)

    monkeypatch.setattr(measures, "member_spectra", recording)
    gaps = subadditivity_gaps(cases)
    monkeypatch.undo()
    assert gaps == [subadditivity_gaps([case])[0] for case in cases]
    return seen


def test_subadditivity_groups_share_the_cover_plan_only_where_it_is_cheaper_and_exact(monkeypatch):
    # Five qubits: four unions of 3 labels hold 4 x 8 masks, the full plan 32.
    five = [haar_random((2,) * 5, seed=i) for i in range(4)]
    splits = [((1,), (2, 3)), ((3,), (4, 5)), ((1, 4), (5,)), ((2, 3), (4,))]
    shared = [(psi, s, s2, p) for psi, (s, s2), p in zip(five, splits, (VN, LIN, VN, EntropyParams(2.0, 1.0)))]
    assert _planned_subsets(monkeypatch, shared) == [(1, 2, 3, 4, 5)]
    assert _planned_subsets(monkeypatch, shared[:3]) == [(1, 2, 3), (3, 4, 5), (1, 4, 5)]
    # The cover (1, 2, 7, 8) holds 16 masks, the two unions' plans 4 + 4.
    eight = [haar_random((2,) * 8, seed=i) for i in range(2)]
    costly = [(eight[0], (1,), (2,), VN), (eight[1], (8,), (7,), LIN)]
    assert _planned_subsets(monkeypatch, costly) == [(1, 2), (7, 8)]
    # Four qubits: the full plan is cheaper, and the tied cut {3, 4} (dimension
    # 4 on both sides) is reduced on the side {1, 2} in every plan, so the
    # batch takes the cover and each gap keeps the bits of a batch of one.
    four = [haar_random((2,) * 4, seed=i) for i in range(2)]
    tied = [(four[0], (3,), (4,), VN), (four[1], (1, 2), (3, 4), VN)]
    assert _planned_subsets(monkeypatch, tied) == [(1, 2, 3, 4)]


# Points on both sides of every dispatch threshold: the scalar exponents 0.5
# and 2, the von Neumann band |alpha - 1| < 1e-9 and the Renyi band beta < 1e-12.
GRID_POINTS = [
    EntropyParams(a, b)
    for a in (0.5, 2.0, 1.0, 1.0 - 5e-10, 1.0 + 5e-10, 1.0 + 2e-9, 0.3, 1.7, 3.0)
    for b in (0.0, 1e-13, 2e-12, 0.4, 1.0, 2.5)
]


@pytest.mark.parametrize(
    "dims,subset",
    [((2,) * 5, (1, 2, 3, 4, 5)), ((2,) * 5, (1, 3, 4)), ((2, 3, 2), (1, 2, 3)), ((3, 2, 4, 2), (2, 3))],
    ids=["paired", "unpaired", "mixed-dims", "mixed-partial"],
)
def test_table_values_match_one_point_calls(monkeypatch, dims, subset):
    # Many points in one call keep the bits of one-point calls, and of the
    # exactly rounded mean over every mask's term (the complement copies and
    # trivial masks included). The three von Neumann alphas share one power
    # pass: seven distinct passes per block.
    table = spectra_table(haar_random(dims, seed=len(dims)), subset)
    assert {b.masks.shape[1] for b in table.plan.blocks} == {2 if len(subset) == len(dims) else 1}
    calls = []
    traces = measures._traces
    monkeypatch.setattr(measures, "_traces", lambda lam, alpha: calls.append(alpha) or traces(lam, alpha))
    got = [v.hex() for v in table_values(table, GRID_POINTS)]
    assert len(calls) == 7 * len(table.blocks)
    assert got == [table_values(table, [p])[0].hex() for p in GRID_POINTS]
    assert got == [(math.fsum(table_terms(table, p).tolist()) / table.plan.n_masks).hex() for p in GRID_POINTS]


def test_grid_takes_one_power_per_block_per_alpha(monkeypatch, capsys):
    # The pure-grid benchmark op: 6 x 6 grid plus the four named points. Its
    # alphas are 0.5, 1, ..., 3 and the named points reuse 1, 2 and 3.
    from cekit.cli import main

    calls = []
    traces = measures._traces
    monkeypatch.setattr(measures, "_traces", lambda lam, alpha: calls.append((lam.shape, alpha)) or traces(lam, alpha))
    state = "haar:" + "x".join(["2"] * 10) + ":3"
    assert main(["compute", "--state", state, "--named", "--alpha", "0.5:3:6", "--beta", "0:2:6"]) == 0
    blocks = cut_plan((2,) * 10, range(1, 11)).blocks
    assert len(calls) == 6 * len(blocks) == 30
    assert sorted({alpha for _, alpha in calls}) == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert len(capsys.readouterr().out.splitlines()) == 37


def test_one_qubit_cut_of_a_large_state_allocates_little_beyond_it():
    # A one-qubit cut whose kept axis leads takes its 2 x q slice as a view
    # of the state, with no copy: the closed-form spectrum's squares are
    # the one state-sized temporary.
    import tracemalloc

    psi = haar_random((2,) * 16, seed=3)
    tracemalloc.start()
    try:
        spectra_table(psi, (1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * psi.amplitudes.nbytes


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (3, 3), (4, 2, 2)])
def test_cut_side_depends_on_the_bipartition_alone(dims):
    # Tied bipartitions (both sides of one dimension) are reduced on the side
    # without the last subsystem, whatever the subset: every subset's row
    # takes the full plan's axes for its bipartition, and every term the full
    # table's bits.
    def rows(subset):
        # Each mask of P(subset) as a mask over all labels, and the axes of the row serving it.
        over = [sum(1 << (label - 1) for j, label in enumerate(subset) if (mask >> j) & 1)
                for mask in range(1 << len(subset))]
        blocks = cut_plan(dims, subset).blocks
        return over, {over[m]: perm for b in blocks for masks, perm in zip(b.masks.tolist(), b.perms) for m in masks}

    labels = tuple(range(1, len(dims) + 1))
    psi = haar_random(dims, seed=len(dims))
    points = [VN, LIN, EntropyParams(0.5, 1.0), EntropyParams(1.7, 0.4)]
    full, want = rows(labels)[1], table_terms(spectra_table(psi, labels), points)
    for subset in itertools.chain.from_iterable(itertools.combinations(labels, k) for k in range(1, len(dims))):
        over, axes = rows(subset)
        assert axes.items() <= full.items()
        assert _bits(table_terms(spectra_table(psi, subset), points)) == _bits(want[:, over])


@pytest.mark.parametrize(
    "points,first",
    [
        ([VN, EntropyParams(2000.0, 0.001), EntropyParams(2000.0, 0.0)], "alpha=2000.0, beta=0.001 "),
        ([EntropyParams(2000.0, 0.0), EntropyParams(2000.0, 0.001)], "alpha=2000.0, beta=0.0 "),
        ([EntropyParams(0.5, 3000.0), EntropyParams(2000.0, 0.001)], "alpha=0.5, beta=3000.0 "),
        ([EntropyParams(2000.0, 0.5), EntropyParams(0.5, 3000.0)], "alpha=2000.0, beta=0.5 "),
    ],
)
def test_table_values_names_the_first_failing_point(points, first):
    # Points at one alpha share one zero-trace scan; the error still names the first point that fails.
    # A GHZ cut has Tr rho^alpha = 2^(1 - alpha): 0 at alpha 2000, and its power 2^1500 overflows at (0.5, 3000).
    with pytest.raises(ValueError) as exc:
        table_values(spectra_table(ghz(3), (1, 2, 3)), points)
    assert str(exc.value).startswith(f"entropy at {first}")


def test_n_eigensolves_counts_only_cuts_above_qubits():
    # 13 qubits, whole subset: 2^12 - 1 rows (nontrivial bipartitions), of which the 13
    # one-qubit cuts take the closed form.
    plan = cut_plan((2,) * 13, range(1, 14))
    assert sum(len(b.masks) for b in plan.blocks) == 2**12 - 1
    assert plan.n_eigensolves == 2**12 - 1 - 13
    # (2, 3, 2): the cuts {1} and {3} are qubit cuts, {2} is a qutrit cut.
    assert cut_plan((2, 3, 2), (1, 2, 3)).n_eigensolves == 1


@functools.cache
def _large_stacks():
    """Each batched kernel's call, its inputs stacked along the first axis and its output on the whole
    stack. Every stack makes temporaries past 256 KiB, the size from which numpy may compute an
    elementwise product in place with its operands swapped, which can change a complex product's bits."""
    rng = np.random.default_rng(17)
    pool = [EntropyParams(a, b) for a in (0.5, 1.0, 2.0, 0.3, 1.7, 3.0) for b in (0.0, 0.4, 1.0, 2.5)]
    points = np.empty(20_000, dtype=object)
    points[:] = [pool[i] for i in rng.integers(len(pool), size=points.size)]
    spectra = rng.dirichlet(np.ones(6), size=20_000)
    spectra[::3] = np.pad(rng.dirichlet(np.ones(4), size=len(spectra[::3])), ((0, 0), (0, 2)))  # zero padded
    spectra[1::3, 0] += spectra[1::3, -1] - ZERO_EIG_FLOOR / 2
    spectra[1::3, -1] = ZERO_EIG_FLOOR / 2  # dust under the floor
    mixed = spectra[:, ::-1] * 0.5 + spectra * 0.5  # majorized by `spectra`'s rows
    amps = rng.standard_normal((2_000, 8)) + 1j * rng.standard_normal((2_000, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    sites = rng.integers(1, 4, size=2_000)
    basis = np.linalg.qr(rng.standard_normal((2_000, 2, 2)) + 1j * rng.standard_normal((2_000, 2, 2)))[0]
    kraus = basis.swapaxes(-1, -2)[..., :, None] * basis.conj().swapaxes(-1, -2)[..., None, :]  # rank-1 projectors

    def branches(amps, sites, kraus):
        probs, states, kept = local_kraus_branches(amps, (2, 2, 2), sites, kraus)
        return np.concatenate([probs, states.reshape(len(amps), -1).view(float), kept], axis=1)

    states = rng.standard_normal((3_000, 16)) + 1j * rng.standard_normal((3_000, 16))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    jobs = [(PureState(v, (2, 2, 2, 2)), (1, 2, 3, 4), pool[i % len(pool)]) for i, v in enumerate(states)]
    registers = rng.standard_normal((2_000, 64)) + 1j * rng.standard_normal((2_000, 64))
    registers /= np.linalg.norm(registers, axis=1, keepdims=True)

    weights = rng.dirichlet(np.ones(3), size=2_000)
    weights[::4, 2] = 0.0  # a two-member ensemble
    members = rng.standard_normal((2_000, 3, 16)) + 1j * rng.standard_normal((2_000, 3, 16))
    members /= np.linalg.norm(members, axis=-1, keepdims=True)

    def averages(weights, members, points):  # ensembles of 2 or 3 four-qubit states, each at its point
        present = weights > 0.0
        plan, owner = cut_plan((2, 2, 2, 2), (1, 2, 3, 4)), np.nonzero(present)[0]
        return np.array(measures._ensemble_averages(plan, weights[present], members[present], owner, points))

    def swap_test(amps):  # the purities, the control distributions and C({1, 3, 4}) of 6-qubit states
        probs = swap_test_rows(amps, (2,) * 6)
        return np.concatenate([cut_purity_rows(amps, (2,) * 6), probs, cce_from_rows(probs, (1, 3, 4))[:, None]], axis=1)

    calls = {
        "unified_entropy_rows": (unified_entropy_rows, (spectra, points)),
        "majorizes_rows": (majorizes_rows, (spectra, mixed)),
        "local_kraus_branches": (branches, (amps, sites, kraus)),
        "cce_values": (lambda jobs: np.array(cce_values(jobs)), (jobs,)),
        "ensemble_averages": (averages, (weights, members, points[:2_000])),
        "swap_test_rows": (swap_test, (registers,)),
    }
    return {name: (call, args, call(*args)) for name, (call, args) in calls.items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(
        ["unified_entropy_rows", "majorizes_rows", "local_kraus_branches", "cce_values", "ensemble_averages", "swap_test_rows"]
    ),
    st.floats(0.0, 1.0),
    st.integers(1, 64),
)
def test_rows_keep_their_bits_in_any_stack(name, where, size):
    # A one-case call is a batch of one through the same kernel, so a row must come out with the same
    # bits from a stack of any size: here a slice of 1-64 rows, and each of its rows alone, against the
    # whole large stack.
    call, args, whole = _large_stacks()[name]
    lo = int(where * (len(args[0]) - size))
    want = whole[lo : lo + size].tobytes()
    assert call(*(a[lo : lo + size] for a in args)).tobytes() == want
    assert b"".join(call(*(a[i : i + 1] for a in args)).tobytes() for i in range(lo, lo + size)) == want
