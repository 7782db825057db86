import itertools
import math

import numpy as np
import pytest

from cekit.entropy import EntropyParams, unified_entropy
from cekit.states import ghz, haar_random, random_density, star, w
from cekit.tensor import (
    DensityOperator,
    PureState,
    apply_local_kraus_pure,
    embed_local,
    hermitian_eigenvalues,
    local_kraus_branches,
    normalize_subset,
    permute_subsystems,
    reduced_state,
    trace_distance,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def test_kron_three_bell_pairs_matches_star_state():
    # Triple Kronecker power of the Bell pair, with the three first registers
    # regrouped in front, must equal the direct 64-amplitude construction.
    pair = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    raw = PureState(np.kron(np.kron(pair, pair), pair), (2,) * 6)
    grouped = permute_subsystems(raw, (1, 3, 5, 2, 4, 6))
    direct = star(np.pi / 4)
    assert np.allclose(grouped.amplitudes, direct.amplitudes, atol=1e-12)


def test_reduced_state_bell_is_maximally_mixed(bell):
    rho = reduced_state(bell, [1])
    assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_reduced_state_of_product_factor():
    psi = PureState(np.kron(KET0, PLUS), (2, 2))
    rho = reduced_state(psi, [2])
    assert np.allclose(rho.matrix, np.outer(PLUS, PLUS), atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_reduced_w3_spectrum(k):
    rho = reduced_state(w(3), list(range(1, k + 1)))
    lam = hermitian_eigenvalues(rho)
    nonzero = lam[lam > 1e-12]
    assert np.allclose(sorted(nonzero), sorted([k / 3.0, (3.0 - k) / 3.0]), atol=1e-12)


def test_reduced_state_rejects_bad_subsets(bell):
    with pytest.raises(ValueError):
        reduced_state(bell, [0])
    with pytest.raises(ValueError):
        reduced_state(bell, [3])
    with pytest.raises(ValueError):
        reduced_state(bell, [1, 1])
    with pytest.raises(ValueError):
        reduced_state(bell, [])


def test_partial_trace_of_product():
    # A purification of rho_a (subsystems 1, 2) next to |+> (subsystem 3):
    # tracing out the rest leaves each factor.
    purified = np.array([0.5, 0.0, 0.0, math.sqrt(0.75)])
    joint = PureState(np.kron(purified, PLUS), (2, 2, 2))
    assert np.allclose(reduced_state(joint, [1]).matrix, np.diag([0.25, 0.75]), atol=1e-12)
    assert np.allclose(reduced_state(joint, [3]).matrix, np.outer(PLUS, PLUS), atol=1e-12)


def test_partial_trace_ghz3_single_qubit():
    out = reduced_state(ghz(3), [2])
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_preserves_trace_and_positivity():
    for seed in range(5):
        psi = haar_random((2, 2, 3), seed=seed)
        for keep in ([1], [3], [1, 3], [1, 2, 3]):
            out = reduced_state(psi, keep)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10


def test_hermitian_eigenvalues_trivial():
    assert np.allclose(hermitian_eigenvalues(np.eye(2) / 2.0), [0.5, 0.5])
    assert np.allclose(hermitian_eigenvalues(np.diag([0.25, 0.75])), [0.75, 0.25])


def test_hermitian_eigenvalues_star_hub_spectrum():
    # Hub reduction of the star state is a three-fold tensor product of
    # diag(cos^2, sin^2), so its spectrum is all products of those weights.
    theta = np.pi / 6.0
    rho = reduced_state(star(theta), [1])
    lam = hermitian_eigenvalues(rho)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    expected = sorted(
        (c2 ** (3 - w) * s2**w for j in range(8) for w in [bin(j).count("1")]), reverse=True
    )
    assert np.allclose(lam, expected, atol=1e-12)


def test_hermitian_eigenvalues_ordering_and_sum():
    for seed in range(5):
        rho = random_density((2, 3), rank=4, seed=seed)
        lam = hermitian_eigenvalues(rho)
        assert np.all(np.diff(lam) <= 1e-15)
        assert abs(lam.sum() - 1.0) < 1e-10


def test_hermitian_eigenvalues_clamps_small_negatives():
    lam = hermitian_eigenvalues(np.diag([1.0 + 5e-11, -5e-11]))
    assert lam[1] == 0.0


def test_hermitian_eigenvalues_rejects_large_negatives():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.diag([1.001, -1e-3]))


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):  # eigvalsh would return [0, -0]
        hermitian_eigenvalues(np.array([[np.nan, 0.0], [0.0, 0.5]]))


def test_trace_power_basics(bell):
    # Power traces through the entropy kernel: Tsallis-2 is 1 - Tr rho^2, and
    # Tr rho^alpha = 1 for a pure state makes every unified entropy 0.
    assert unified_entropy(np.eye(2) / 2.0, EntropyParams.tsallis(2.0)) == pytest.approx(0.5)
    for alpha in (0.5, 1.0, 2.0, 3.7):
        assert unified_entropy(bell.density(), EntropyParams(alpha, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_trace_power_w_state_cubes():
    # Feeds the Tsallis-3 closed form 3(n-1)/(8n) for W states: Tsallis-3 is (1 - Tr rho^3)/2.
    for n, k in [(3, 1), (4, 1), (4, 2)]:
        rho = reduced_state(w(n), list(range(1, k + 1)))
        want = (k**3 + (n - k) ** 3) / n**3
        assert 1.0 - 2.0 * unified_entropy(rho, EntropyParams.tsallis(3.0)) == pytest.approx(want, abs=1e-12)


def test_trace_distance_extremes():
    zero = DensityOperator(np.diag([1.0, 0.0]), (2,))
    one = DensityOperator(np.diag([0.0, 1.0]), (2,))
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, zero) == pytest.approx(0.0)


def test_trace_distance_rejects_dim_mismatch(bell):
    with pytest.raises(ValueError):
        trace_distance(bell.density(), DensityOperator(np.eye(2) / 2.0, (2,)))


def test_trace_distance_monotone_under_partial_trace():
    for seed in range(10):
        a = haar_random((2, 2, 2), seed=seed)
        b = haar_random((2, 2, 2), seed=1000 + seed)
        full = trace_distance(a.density(), b.density())
        reducedd = trace_distance(reduced_state(a, [1, 3]), reduced_state(b, [1, 3]))
        assert reducedd <= full + 1e-10


def test_trace_distance_triangle_and_unitary_invariance():
    rng = np.random.default_rng(11)
    for seed in range(5):
        a = random_density((2, 2), rank=2, seed=seed)
        b = random_density((2, 2), rank=3, seed=100 + seed)
        c = random_density((2, 2), rank=4, seed=200 + seed)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(z)
        ua = DensityOperator(u @ a.matrix @ u.conj().T, (2, 2))
        ub = DensityOperator(u @ b.matrix @ u.conj().T, (2, 2))
        assert trace_distance(ua, ub) == pytest.approx(trace_distance(a, b), abs=1e-10)


def test_apply_local_kraus_unitary_single_branch(bell):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    branches = apply_local_kraus_pure(bell, 1, [h])
    assert len(branches) == 1
    p, out = branches[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, np.kron(h, np.eye(2)) @ bell.amplitudes, atol=1e-12)


def test_apply_local_kraus_projective_on_mixed(bell):
    # Site 2 of a Bell pair is maximally mixed, so each outcome has probability 1/2.
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    branches = apply_local_kraus_pure(bell, 2, proj)
    assert [p for p, _ in branches] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_apply_local_kraus_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    z1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z1)
    d = np.sqrt(rng.uniform(0.2, 0.8))
    k1 = q @ np.diag([d, np.sqrt(1 - d**2)])
    k2 = np.linalg.cholesky(np.eye(2) - k1.conj().T @ k1 + 1e-15 * np.eye(2)).conj().T
    branches = apply_local_kraus_pure(ghz(3), 2, [k1, k2])
    assert sum(p for p, _ in branches) == pytest.approx(1.0, abs=1e-10)


def test_apply_local_kraus_rejects_incomplete_set(bell):
    with pytest.raises(ValueError):
        apply_local_kraus_pure(bell, 1, [np.diag([1.0, 0.0])])
    with pytest.raises(ValueError):
        apply_local_kraus_pure(bell, 5, [np.eye(2)])


def test_schmidt_duality_spectra():
    # Nonzero spectra of a cut and its complement coincide for pure states.
    for seed in range(8):
        psi = haar_random((2, 2, 3), seed=seed)
        for chi in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
            comp = [i for i in (1, 2, 3) if i not in chi]
            a = hermitian_eigenvalues(reduced_state(psi, chi))
            b = hermitian_eigenvalues(reduced_state(psi, comp))
            a, b = a[a > 1e-12], b[b > 1e-12]
            assert len(a) == len(b)
            assert np.allclose(a, b, atol=1e-10)


def test_permute_subsystems_roundtrip():
    psi = haar_random((2, 3, 2), seed=5)
    out = permute_subsystems(psi, (3, 1, 2))
    assert out.dims == (2, 2, 3)
    back = permute_subsystems(out, (2, 3, 1))
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)
    with pytest.raises(ValueError):
        permute_subsystems(psi, (1, 1, 2))


def test_normalize_subset_contract():
    assert normalize_subset([3, 1], 4) == (1, 3)
    with pytest.raises(ValueError):
        normalize_subset([], 4)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0]), (3,))
    with pytest.raises(ValueError):
        PureState(np.array([1.0]), (1,))
    with pytest.raises(ValueError):  # a NaN norm fails no `>` test
        PureState([np.nan, 0, 0, 1], (2, 2))


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), (2,))
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(ValueError, match="finite"):
        DensityOperator([[np.nan, 0], [0, 1]], (2,))


def test_density_operator_spectrum_needs_no_second_eigensolve(monkeypatch):
    rho = random_density((2, 3), rank=4, seed=5)
    want = hermitian_eigenvalues(rho.matrix)

    def eigvalsh(*args, **kwargs):
        raise AssertionError("eigensolved again")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    got = hermitian_eigenvalues(rho)
    assert got.tobytes() == want.tobytes()


def test_states_are_immutable(bell):
    with pytest.raises(ValueError):
        bell.amplitudes[0] = 0.0


def _kron_embed(op, site, dims):
    # Reference: identity padding by Kronecker products.
    left = int(np.prod(dims[: site - 1]))
    right = int(np.prod(dims[site:]))
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def test_embed_local_matches_kronecker_products():
    rng = np.random.default_rng(2)
    for dims in [(2,), (3, 2), (2, 2, 2), (2, 3, 2, 2)]:
        for site in range(1, len(dims) + 1):
            d = dims[site - 1]
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            got, want = embed_local(op, site, dims), _kron_embed(op, site, dims)
            assert got.shape == want.shape
            assert np.array_equal(got != 0, want != 0)
            assert np.array_equal(got, want)
            v = rng.standard_normal(got.shape[0]) + 1j * rng.standard_normal(got.shape[0])
            assert np.array_equal((got @ v).view(float), (want @ v).view(float))
    with pytest.raises(ValueError):
        embed_local(np.eye(3), 1, (2, 2))


def test_local_kraus_branches_match_kronecker_reference():
    rng = np.random.default_rng(9)
    psi = haar_random((2, 3, 2), seed=4)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    basis = np.linalg.qr(z)[0]
    kraus = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)]
    full = [_kron_embed(k, 2, psi.dims) for k in kraus]
    for (p, branch), m in zip(apply_local_kraus_pure(psi, 2, kraus), full):
        v = m @ psi.amplitudes
        q = float(np.real(np.vdot(v, v)))
        assert p == q
        assert np.array_equal(branch.amplitudes, v / np.sqrt(q))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kraus_completeness_rejects_nan_and_inf(bad):
    # NaN fails every comparison, so a `> atol` test let these sets through.
    kraus = [np.array([[bad, 0.0], [0.0, 0.0]]), np.diag([0.0, 1.0])]
    with pytest.raises(ValueError, match="completeness"):
        apply_local_kraus_pure(ghz(3), 1, kraus)


def _branches_loop(psi, site, kraus):
    # One Kraus operator at a time, dropping outcomes below 1e-12.
    out = []
    for k in kraus:
        v = _kron_embed(k, site, psi.dims) @ psi.amplitudes
        p = float(np.real(np.vdot(v, v)))
        out.append((p, v / np.sqrt(p) if p >= 1e-12 else None))
    return out


def test_stacked_branches_drop_improbable_outcomes_like_one_case_loop():
    tiny = math.sqrt(1e-13)  # an outcome of probability 1e-13, under the floor but not zero
    edge = np.array([math.sqrt(1.0 - tiny**2), tiny])
    states = [
        PureState(np.kron(np.kron(KET0, PLUS), KET0), (2, 2, 2)),  # the |1> outcome has probability 0
        PureState(np.kron(np.kron(PLUS, edge), KET1), (2, 2, 2)),
        haar_random((2, 2, 2), seed=5),
    ]
    proj = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    sites = [1, 2, 3]
    probs, branches, kept = local_kraus_branches(
        np.stack([psi.amplitudes for psi in states]), (2, 2, 2), sites, np.stack([proj] * 3)
    )
    assert kept.tolist() == [[True, False], [True, False], [True, True]]
    for psi, site, row_p, row_v, row_k in zip(states, sites, probs, branches, kept):
        for (p, v), got_p, got_v, k in zip(_branches_loop(psi, site, proj), row_p, row_v, row_k):
            assert got_p == p
            if k:
                assert np.array_equal(got_v, v)
            else:
                assert not got_v.any()
        one_case = apply_local_kraus_pure(psi, site, list(proj))
        assert [(p, b.amplitudes.tobytes()) for p, b in one_case] == [
            (p, v.tobytes()) for p, v in _branches_loop(psi, site, proj) if v is not None
        ]


def _tensordot_reduced(psi, keep):
    # Reference: contract the traced axes of the amplitude tensor with its conjugate.
    kept = [i - 1 for i in keep]
    traced = [ax for ax in range(psi.n_subsystems) if ax not in kept]
    t = psi.amplitudes.reshape(psi.dims)
    d = math.prod(psi.dims[ax] for ax in kept)
    return np.tensordot(t, t.conj(), axes=(traced, traced)).reshape(d, d)


def test_reduced_state_keeps_tensordot_bits():
    # Every (dims, rank > 1) that `random_density` gets from the alpha-mono,
    # roof-eof and roof-mixed draws (rank 1 takes no reduction), and more.
    shapes = [(2,), (3,), (4,), (2, 2), (2, 3), (2, 2, 2), (3, 3)]
    for dims in shapes:
        d = math.prod(dims)
        for rank in range(2, d + 1):
            for seed in range(20):
                got = random_density(dims, rank, seed)
                psi = haar_random(dims + (rank,), seed)
                want = _tensordot_reduced(psi, range(1, len(dims) + 1))
                assert got.dims == dims
                assert got.matrix.tobytes() == want.tobytes()
    for seed, dims in enumerate([(2, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 2, 2), (2,) * 6]):
        psi = haar_random(dims, seed=seed)
        n = len(dims)
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(1, n + 1), size):
                assert reduced_state(psi, keep).matrix.tobytes() == _tensordot_reduced(psi, keep).tobytes()
