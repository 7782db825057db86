import itertools
import math
import re

import numpy as np
import pytest

import cekit.entropy as entropy
from cekit.entropy import (
    EntropyParams,
    binary_entropy,
    fannes_audenaert_bound,
    in_concavity_region,
    in_subadditivity_region,
    majorizes_rows,
    max_entropy_value,
    unified_entropy,
    unified_entropy_rows,
    unified_entropy_spectrum,
)
from cekit.measures import continuity_gap, spectra_table, table_values
from cekit.states import ghz, haar_random, random_density
from cekit.suites import nearby_state
from cekit.tensor import ZERO_EIG_FLOOR, DensityOperator, hermitian_eigenvalues

MIXED_QUBIT = DensityOperator(np.eye(2) / 2.0, (2,))


def test_linear_entropy_of_maximally_mixed_qubit():
    assert unified_entropy(MIXED_QUBIT, EntropyParams.linear()) == pytest.approx(0.5, abs=1e-14)


def test_pure_state_has_zero_entropy_everywhere():
    pure = DensityOperator(np.diag([1.0, 0.0]), (2,))
    for params in [
        EntropyParams.von_neumann(),
        EntropyParams.renyi(0.7),
        EntropyParams.tsallis(3.0),
        EntropyParams(1.8, 2.3),
    ]:
        assert unified_entropy(pure, params) == 0.0


def test_von_neumann_of_maximally_mixed_qubit():
    assert unified_entropy(MIXED_QUBIT, EntropyParams.von_neumann()) == pytest.approx(1.0, abs=1e-14)


def test_renyi2_direct_evaluation():
    rho = DensityOperator(np.diag([0.75, 0.25]), (2,))
    want = -math.log2(0.75**2 + 0.25**2)
    assert unified_entropy(rho, EntropyParams.renyi(2.0)) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(0.678071905112638, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        EntropyParams(0.0, 1.0)
    with pytest.raises(ValueError):
        EntropyParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        EntropyParams(2.0, -0.1)


@pytest.mark.parametrize("alpha, beta", [(1.5, math.nan), (math.inf, 1.0), (2.0, math.inf)])
def test_params_reject_non_finite(alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        EntropyParams(alpha, beta)


def test_limit_dispatch_thresholds():
    assert EntropyParams(1.0 + 1e-10, 1.0).is_von_neumann
    assert not EntropyParams(1.0 + 1e-6, 1.0).is_von_neumann
    assert EntropyParams(2.0, 1e-13).is_renyi
    assert not EntropyParams(2.0, 1e-6).is_renyi


def test_binary_entropy_endpoints_and_half():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_majorizes_basics():
    assert majorizes_rows([1.0, 0.0], [0.5, 0.5])
    assert not majorizes_rows([0.5, 0.5], [1.0, 0.0])
    assert majorizes_rows([0.4, 0.3, 0.3], [0.4, 0.3, 0.3])
    assert majorizes_rows([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        majorizes_rows([0.7, 0.7], [0.5, 0.5])


def _schur_gap(lam, mu, params):
    # S(diag lam) - S(diag mu): nonnegative whenever mu majorizes lam.
    lo, hi = unified_entropy_rows(np.array([lam, mu]), params).tolist()
    return lo - hi


def test_schur_witness_trivial_cases():
    vn = EntropyParams.von_neumann()
    assert _schur_gap([0.5, 0.5], [1.0, 0.0], vn) == pytest.approx(1.0, abs=1e-12)
    assert _schur_gap([0.3, 0.7], [0.3, 0.7], vn) == 0.0


NON_FINITE = [[float("nan"), 1.0], [float("inf"), 1.0], [float("-inf"), 1.0], [0.5, float("nan"), 0.5]]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_majorizes_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        majorizes_rows(bad, [0.5, 0.5])
    with pytest.raises(ValueError):
        majorizes_rows([0.5, 0.5], bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_schur_witness_rejects_non_finite(bad):
    # The schur suite validates its stacked (lam, mu) rows through `majorizes_rows`: one bad row raises.
    good = np.full((3, len(bad)), 1.0 / len(bad))
    rows = np.vstack([good[:2], [bad]])
    with pytest.raises(ValueError):
        majorizes_rows(rows, good)
    with pytest.raises(ValueError):
        majorizes_rows(good, rows)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_spectrum_rejects_non_finite(bad):
    for params in [EntropyParams(2.0, 1.0), EntropyParams.von_neumann(), EntropyParams.renyi(0.5)]:
        with pytest.raises(ValueError):
            unified_entropy_spectrum(bad, params)


@pytest.mark.parametrize("bad", [[float("nan"), 1.0], [float("-inf"), 1.0], [float("inf"), 0.5]])
@pytest.mark.parametrize("point", [(2.0, 1.0), (1.0, 1.0), (0.5, 0.0)])
def test_rows_reject_non_finite_in_every_form(bad, point):
    # The zero floor would drop a NaN or -inf entry (0.0), and an inf entry would give an infinite trace.
    params, good = EntropyParams(*point), [0.5, 0.5]
    with pytest.raises(ValueError, match="finite"):
        unified_entropy_rows(np.array(bad), params)
    with pytest.raises(ValueError, match="finite"):
        unified_entropy_rows(np.array([good, bad]), [params, EntropyParams(3.0, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        unified_entropy_rows(np.array([good, bad]), [params, params])


def test_unified_entropy_rejects_nan_matrix():
    # eigvalsh returns [0, -0] for a NaN on the diagonal, so the matrix check must catch it.
    for params in [EntropyParams(2.0, 1.0), EntropyParams.von_neumann()]:
        with pytest.raises(ValueError, match="finite"):
            unified_entropy(np.array([[np.nan, 0.0], [0.0, 0.5]]), params)


def _majorization_pair(rng, size):
    # mu ~ Dirichlet(1, ..., 1), then lam averaged along 1-3 random transpositions, so mu majorizes lam.
    mu = rng.dirichlet(np.ones(size))
    lam = mu.copy()
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.choice(size, size=2, replace=False)
        t = float(rng.uniform(0.0, 1.0))
        swapped = lam.copy()
        swapped[i], swapped[j] = lam[j], lam[i]
        lam = (1.0 - t) * lam + t * swapped
    return lam, mu


def test_schur_witness_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        lam, mu = _majorization_pair(rng, int(rng.integers(2, 7)))
        params = EntropyParams(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 3.0)))
        assert majorizes_rows(mu, lam)
        assert _schur_gap(lam, mu, params) >= -1e-10


def _alpha_gap(rho, alpha_lo, alpha_hi, beta):
    # S_{alpha_lo,beta}(rho) - S_{alpha_hi,beta}(rho): one spectrum at a pair of points, as `alpha-mono` evaluates it.
    lo, hi = unified_entropy_rows(hermitian_eigenvalues(rho), [EntropyParams(a, beta) for a in (alpha_lo, alpha_hi)])
    return lo - hi


def test_alpha_monotonicity_trivial_and_exact():
    pure = DensityOperator(np.diag([1.0, 0.0]), (2,))
    assert _alpha_gap(pure, 1.5, 2.5, 1.0) == 0.0
    # Tsallis on the maximally mixed qubit: S_2 = 1/2, S_3 = 3/8.
    assert _alpha_gap(MIXED_QUBIT, 2.0, 3.0, 1.0) == pytest.approx(0.125, abs=1e-14)


def test_alpha_monotonicity_validation():
    # The spectrum comes from `hermitian_eigenvalues`, which rejects a matrix with NaNs off the diagonal:
    # eigvalsh returns NaNs there, which the Hermitian check lets by.
    with pytest.raises(ValueError, match="finite"):
        _alpha_gap(np.array([[0.5, np.nan], [np.nan, 0.5]]), 1.5, 2.0, 1.0)


def test_alpha_monotonicity_random_sweep():
    rng = np.random.default_rng(13)
    for trial in range(500):
        rho = random_density((2, 2), rank=int(rng.integers(1, 5)), seed=trial)
        lo, hi = np.sort(rng.uniform(0.05, 4.0, size=2))
        beta = float(rng.uniform(1.0, 3.0))
        assert _alpha_gap(rho, float(lo), float(hi), beta) >= -1e-10


def test_fannes_audenaert_values():
    assert fannes_audenaert_bound(0.0, 8) == 0.0
    assert fannes_audenaert_bound(0.25, 2) == pytest.approx(binary_entropy(0.25), abs=1e-14)
    assert fannes_audenaert_bound(0.25, 2) == pytest.approx(0.811278124459133, abs=1e-12)
    with pytest.raises(ValueError):
        fannes_audenaert_bound(0.5, 2)
    with pytest.raises(ValueError):
        fannes_audenaert_bound(0.1, 1)


def test_fannes_audenaert_dominates_measure_difference():
    rng = np.random.default_rng(23)
    for trial in range(50):
        psi = haar_random((2, 2, 2), seed=trial)
        eps = float(rng.uniform(0.02, 0.39))
        phi = nearby_state(psi, rng, eps)
        lhs, bound = continuity_gap(psi, phi, (1, 2, 3), EntropyParams.von_neumann())
        assert lhs <= bound + 1e-10


def test_limit_continuity_beta_to_zero():
    # The raw two-parameter formula tends to the Renyi branch scaled by ln 2
    # as beta -> 0 (the branch itself reports bits).
    for seed in range(5):
        rho = random_density((2, 2), rank=3, seed=seed)
        for alpha in (0.5, 2.0, 3.0):
            near = unified_entropy(rho, EntropyParams(alpha, 1e-6))
            renyi_bits = unified_entropy(rho, EntropyParams.renyi(alpha))
            assert near == pytest.approx(math.log(2.0) * renyi_bits, abs=1e-4)


def test_limit_continuity_alpha_to_one():
    # Same ln 2 scaling against the von Neumann branch as alpha -> 1.
    for seed in range(5):
        rho = random_density((2, 2), rank=3, seed=seed)
        vn_bits = unified_entropy(rho, EntropyParams.von_neumann())
        for beta in (0.5, 1.0, 2.0):
            for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
                near = unified_entropy(rho, EntropyParams(alpha, beta))
                assert near == pytest.approx(math.log(2.0) * vn_bits, abs=1e-4)


def test_nonnegative_and_unitary_invariant():
    rng = np.random.default_rng(31)
    for seed in range(20):
        rho = random_density((2, 2), rank=int(rng.integers(1, 5)), seed=seed)
        params = EntropyParams(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 3.0)))
        s = unified_entropy(rho, params)
        assert s >= 0.0
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(z)
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
        assert unified_entropy(rotated, params) == pytest.approx(s, abs=1e-10)


def test_concavity_on_concave_region():
    from cekit.suites import sample_concavity_params

    rng = np.random.default_rng(37)
    for trial in range(300):
        params = sample_concavity_params(rng)
        k = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(k))
        parts = [random_density((2, 2), rank=2, seed=1000 * trial + i) for i in range(k)]
        mixed = DensityOperator(sum(p * r.matrix for p, r in zip(probs, parts)), (2, 2))
        avg = sum(p * unified_entropy(r, params) for p, r in zip(probs, parts))
        assert unified_entropy(mixed, params) >= avg - 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_maximum_on_maximally_mixed(d):
    rho = DensityOperator(np.eye(d) / d, (d,))
    assert unified_entropy(rho, EntropyParams.von_neumann()) == pytest.approx(math.log2(d), abs=1e-12)
    assert unified_entropy(rho, EntropyParams.renyi(2.0)) == pytest.approx(math.log2(d), abs=1e-12)
    for params in [EntropyParams(2.0, 1.0), EntropyParams(0.5, 2.0), EntropyParams(3.0, 0.7)]:
        e = (1.0 - params.alpha) * params.beta
        want = (d**e - 1.0) / e
        assert unified_entropy(rho, params) == pytest.approx(want, abs=1e-12)
        assert max_entropy_value(d, params) == pytest.approx(want, abs=1e-14)


def test_region_predicates():
    assert in_concavity_region(EntropyParams.von_neumann())
    assert in_concavity_region(EntropyParams.linear())
    assert in_concavity_region(EntropyParams(0.5, 0.0))
    assert in_concavity_region(EntropyParams.tsallis(0.5))
    assert not in_concavity_region(EntropyParams(2.0, 0.1))
    assert in_subadditivity_region(EntropyParams.tsallis(2.0))
    assert in_subadditivity_region(EntropyParams.von_neumann())
    assert not in_subadditivity_region(EntropyParams.tsallis(0.5))
    assert not in_subadditivity_region(EntropyParams(2.0, 2.0))


def test_spectrum_kernel_ignores_zeros():
    params = EntropyParams(2.0, 1.5)
    a = unified_entropy_spectrum([0.5, 0.5], params)
    b = unified_entropy_spectrum([0.5, 0.5, 0.0, 0.0], params)
    assert a == b


def _scalar_entropy(spectrum, p):
    # Reference: one spectrum at a time, dropped entries removed before the sums.
    lam = np.asarray(spectrum, dtype=float)
    lam = lam[lam > 1e-12]
    if p.is_von_neumann:
        return float(-(lam * np.log2(lam)).sum()) + 0.0
    t = float((lam**p.alpha).sum())
    if p.is_renyi:
        return math.log2(t) / (1.0 - p.alpha) + 0.0
    return (t**p.beta - 1.0) / ((1.0 - p.alpha) * p.beta) + 0.0


def test_entropy_rows_match_scalar_reference():
    # Rows shorter than eight entries are summed in the same order either way,
    # so the block evaluation must reproduce the scalar formulas bit for bit,
    # including rows padded with zeros and entries under the floor.
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(6), size=(3, 7))
    rows[0, :, 4:] = 0.0
    rows[1, :, 5] = 1e-13
    rows[2, 0] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    for params in [
        EntropyParams.von_neumann(),
        EntropyParams.renyi(0.5),
        EntropyParams.renyi(2.0),
        EntropyParams.tsallis(3.0),
        EntropyParams(1.7, 0.4),
        EntropyParams(0.5, 2.0),
    ]:
        block = unified_entropy_rows(rows, params)
        assert block.shape == (3, 7)
        want = [[_scalar_entropy(r, params) for r in plane] for plane in rows]
        assert block.tolist() == want


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


MANY_POINTS = [
    EntropyParams.von_neumann(),
    EntropyParams(1.0 + 5e-10, 2.0),  # von Neumann by threshold, with a beta
    EntropyParams.renyi(2.0),
    EntropyParams.renyi(0.5),
    EntropyParams(0.5, 1.0),  # numpy takes the power as sqrt
    EntropyParams.linear(),  # ... and as square
    EntropyParams.tsallis(3.0),
    EntropyParams(1.7, 0.4),
    EntropyParams(2.0, 1.0),  # equal to linear but another object
]


@pytest.mark.parametrize("d", [2, 5, 9, 32])
def test_many_points_kernel_matches_one_point_calls(d):
    rng = np.random.default_rng(d)
    rows = rng.dirichlet(np.ones(d), size=(2, 3, 4))
    rows[0, 0, :, d // 2 :] = 0.0  # exact zeros
    rows[0, 1, :, -1] = 1e-13  # under the floor
    rows[1, 2, 0] = np.eye(d)[0]  # pure
    points = MANY_POINTS + [EntropyParams(float(a), float(b)) for a, b in rng.uniform(0.05, 3.5, (12, 2))]
    # One block at many points: the points axis broadcasts against the leading axes.
    many = unified_entropy_rows(rows, np.array(points, dtype=object)[:, None, None, None])
    assert many.shape == (len(points), 2, 3, 4)
    for p, block in zip(points, many):
        assert _bits(block) == _bits(unified_entropy_rows(rows, p))
    # Many rows at one point each.
    flat = rows.reshape(-1, d)
    own = [points[i % len(points)] for i in range(len(flat))]
    assert _bits(unified_entropy_rows(flat, own)) == _bits([unified_entropy_rows(r, p) for r, p in zip(flat, own)])
    # Per-stack points against a leading stack axis.
    per_stack = [[points[(3 * i + j) % len(points)] for j in range(5)] for i in range(2)]
    stacked = unified_entropy_rows(rows[:, None], np.array(per_stack, dtype=object)[:, :, None, None])
    assert stacked.shape == (2, 5, 3, 4)
    for i in range(2):
        for j in range(5):
            assert _bits(stacked[i, j]) == _bits(unified_entropy_rows(rows[i], per_stack[i][j]))


def test_many_points_kernel_edge_shapes():
    rows = np.random.default_rng(3).dirichlet(np.ones(3), size=4)
    vn = [EntropyParams.von_neumann(), EntropyParams(1.0 + 1e-10, 0.0)] * 2  # every entry von Neumann
    assert _bits(unified_entropy_rows(rows, vn)) == _bits(unified_entropy_rows(rows, vn[0]))
    same = [EntropyParams(2.0, 1.0)] * 4
    assert _bits(unified_entropy_rows(rows, same)) == _bits(unified_entropy_rows(rows, same[0]))
    assert unified_entropy_rows(rows[:0], []).shape == (0,)


@pytest.mark.parametrize(
    "params",
    [EntropyParams.von_neumann(), EntropyParams.linear(), EntropyParams(0.5, 2.0), EntropyParams.renyi(0.7)],
    ids=["von-neumann", "linear", "general", "renyi"],
)
def test_empty_spectrum_raises_on_every_branch(params):
    with pytest.raises(ValueError, match="nonempty"):
        unified_entropy_spectrum([], params)
    with pytest.raises(ValueError, match="nonempty"):
        unified_entropy_rows(np.empty((3, 0)), params)
    with pytest.raises(ValueError, match="nonempty"):
        unified_entropy_rows(np.empty((3, 0)), [params, EntropyParams(3.0, 1.0), params])


def _power_blocks(rng):
    """Spectra of every length 1-32, with exact zeros and entries under the zero floor."""
    for d in range(1, 33):
        block = rng.dirichlet(np.ones(d), size=6)
        block[0, : d // 2] = 0.0
        if d > 1:  # each row keeps an entry above the floor
            block[1, -1] = ZERO_EIG_FLOOR / 2
            block[2, 0] = ZERO_EIG_FLOOR
        yield np.where(block > ZERO_EIG_FLOOR, block, 0.0)  # as the kernel keeps them


NEAR_SPECIAL = [float(np.nextafter(a, to)) for a in (0.5, 2.0) for to in (0.0, 4.0)]


def test_array_exponent_power_has_scalar_bits():
    # The many-points kernel takes one array-exponent power for all entries save
    # alpha = 0.5 and 2, which numpy computes from a scalar exponent as sqrt and
    # square. That the two exponent forms agree elsewhere depends on numpy's SIMD
    # dispatch target, so it is checked here, on the machine that runs the tests.
    rng = np.random.default_rng(17)
    alphas = [*rng.uniform(0.05, 4.0, 300).tolist(), 0.25, 1.5, 2.5, 3.0, 4.0, *NEAR_SPECIAL]
    for kept in _power_blocks(rng):
        for a in alphas:
            assert _bits(kept**a) == _bits(kept ** np.full((len(kept), 1), a))
        own = rng.choice(alphas, size=(len(kept), 1))  # a different exponent on every row
        assert _bits(kept**own) == _bits([row ** float(a) for row, a in zip(kept, own[:, 0])])
        assert _bits(kept**0.5) == _bits(np.sqrt(kept))
        assert _bits(kept**2.0) == _bits(np.square(kept))


def test_many_points_kernel_matches_one_point_calls_at_random_points():
    rng = np.random.default_rng(19)
    points = [EntropyParams(float(a), float(b)) for a, b in zip(rng.uniform(0.05, 4.0, 2000), rng.uniform(0.0, 3.0, 2000))]
    special = [0.25, 0.5, 1.0, 1.0 + 5e-10, 1.5, 2.0, 2.5, 3.0, 4.0, *NEAR_SPECIAL]
    points += [EntropyParams(a, b) for a in special for b in (0.0, 1.0, 2.5)]
    order = rng.permutation(len(points))  # special points spread among the rest
    points = [points[i] for i in order]
    for kept in _power_blocks(rng):
        rows = kept[np.arange(len(points)) % len(kept)]
        want = [unified_entropy_rows(row, p) for row, p in zip(rows, points)]
        assert _bits(unified_entropy_rows(rows, points)) == _bits(want)


PAD_POINTS = [EntropyParams(a, b) for a in (0.5, 1.0, 1.0 - 5e-10, 1.0 + 5e-10, 2.0, 3.0) for b in (0.0, 1.0, 2.5)]


@pytest.mark.parametrize("width", [6, 7])
def test_zero_padding_changes_no_bit(width):
    # The `schur` and `alpha-mono` suites evaluate spectra of up to 6 entries
    # zero-padded to 6: the kernel drops entries at or below the zero floor and
    # sums a row of at most 7 entries left to right, so the padding adds exact zeros.
    rng = np.random.default_rng(width)
    for d in range(1, 7):
        rows = rng.dirichlet(np.ones(d), size=len(PAD_POINTS))
        if d > 1:  # each row keeps an entry above the floor
            rows[0::3, -1] = 0.0
            rows[1::3, 0] = ZERO_EIG_FLOOR / 2
            rows[2::3, -1] = ZERO_EIG_FLOOR
        padded = np.zeros((len(rows), width))
        padded[:, :d] = rows
        for p in PAD_POINTS:
            assert _bits(unified_entropy_rows(padded, p)) == _bits(unified_entropy_rows(rows, p))
        want = [unified_entropy_rows(r, p) for r, p in zip(rows, PAD_POINTS)]
        assert _bits(unified_entropy_rows(padded, PAD_POINTS)) == _bits(want)
        # Two points per row, as `alpha-mono` evaluates its pairs.
        pairs = np.array([PAD_POINTS, PAD_POINTS[::-1]], dtype=object).T
        want = [[unified_entropy_rows(r, p) for p in ps] for r, ps in zip(rows, pairs)]
        assert _bits(unified_entropy_rows(padded[:, None], pairs)) == _bits(want)


def _majorizes_reference(lam, mu, atol=1e-10):
    a = list(itertools.accumulate(sorted(np.clip(lam, 0.0, None).tolist(), reverse=True)))
    b = list(itertools.accumulate(sorted(np.clip(mu, 0.0, None).tolist(), reverse=True)))
    a += a[-1:] * (len(b) - len(a))
    b += b[-1:] * (len(a) - len(b))
    return all(x >= y - atol for x, y in zip(a, b))


@pytest.mark.parametrize("n_lam,n_mu", [(1, 1), (2, 2), (4, 4), (6, 6), (2, 5), (6, 3), (1, 4)])
def test_majorizes_rows_match_accumulate_reference(n_lam, n_mu):
    rng = np.random.default_rng(10 * n_lam + n_mu)
    lam = rng.dirichlet(np.full(n_lam, 0.5), size=300)
    mu = rng.dirichlet(np.full(n_mu, 0.5), size=300)
    lam[0], mu[1] = 1.0 / n_lam, 1.0 / n_mu  # uniform: all entries tie
    for rows in (lam, mu):
        n = rows.shape[1]
        tied = np.repeat([2.0, 1.0], [n // 2, n - n // 2])
        rows[2] = tied / tied.sum()  # two runs of ties
        if n > 1:
            rows[3:6, 0] += rows[3:6, -1] + 1e-12
            rows[3:6, -1] = -1e-12  # clamped to zero
    for a, b in ((lam, mu), (mu, lam)):
        got = majorizes_rows(a, b)
        assert got.tolist() == [_majorizes_reference(x, y) for x, y in zip(a, b)]
        assert got.tolist() == [bool(majorizes_rows(x, y)) for x, y in zip(a, b)]


def test_majorizes_rows_at_the_tolerance_edge(monkeypatch):
    atol = entropy.MAJORIZATION_ATOL
    d = np.array([0.0, atol / 2, np.nextafter(atol, 0.0), atol, np.nextafter(atol, 1.0), 1.5 * atol, 2 * atol])
    lam = np.stack([0.5 + d, 0.5 - d], axis=1)
    mu = np.full_like(lam, 0.5)
    got = majorizes_rows(mu, lam)  # up to the tolerance: 0.5 >= (0.5 + d) - atol
    assert got.tolist() == [_majorizes_reference(m, x) for m, x in zip(mu, lam)]
    assert got[:2].all() and not got[-2:].any()
    assert majorizes_rows(lam, mu).all()
    monkeypatch.setattr(entropy, "MAJORIZATION_ATOL", 0.0)
    exact = majorizes_rows(mu, lam)
    assert exact.tolist() == [_majorizes_reference(m, x, atol=0.0) for m, x in zip(mu, lam)]
    assert exact.tolist() == [True] + [False] * (len(d) - 1)


@pytest.mark.parametrize(
    "alpha, beta, what",
    [
        (0.5, 1e308, "overflows"),
        (0.5, 3000.0, "overflows"),
        (2000.0, 0.0, "underflows to 0"),
        (2000.0, 0.001, "underflows to 0"),
    ],
)
def test_power_outside_double_range_raises_named_error(alpha, beta, what):
    # A maximally mixed qubit has Tr rho^alpha = 2^(1 - alpha): sqrt(2)^3000 = 2^1500
    # overflows, and 2^-1999 underflows to 0, whose log has no value and whose power
    # 0^beta would stand in for (2^-1999)^0.001 = 0.25. No spectrum's trace is 0.
    p = EntropyParams(alpha, beta)
    match = re.escape(f"alpha={alpha}, beta={beta}") + ".*" + re.escape(what)
    with pytest.raises(ValueError, match=match):
        unified_entropy_spectrum([0.5, 0.5], p)
    with pytest.raises(ValueError, match=match):
        unified_entropy_rows(np.full((3, 2), 0.5), [EntropyParams.linear(), p, p])
    with pytest.raises(ValueError, match=match):
        table_values(spectra_table(ghz(3), (1, 2, 3)), [EntropyParams.von_neumann(), p])
    # A pure spectrum keeps its value: Tr rho^alpha = 1 at every alpha.
    assert unified_entropy_spectrum([1.0, 0.0], p) == 0.0


def test_max_entropy_value_outside_double_range_raises_named_error():
    # d^((1 - alpha) beta) = 2^(0.5e308) overflows; the named error, not an OverflowError.
    with pytest.raises(ValueError, match=re.escape("alpha=0.5, beta=1e+308") + ".*overflows"):
        max_entropy_value(2, EntropyParams(0.5, 1e308))
    assert max_entropy_value(2, EntropyParams(0.5, 2.0)) == (2**1.0 - 1.0) / 1.0
