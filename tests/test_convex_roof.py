import json
import math
import warnings

import numpy as np
import pytest

import cekit.convex_roof as cr
from cekit.convex_roof import (
    GRAD_TOL,
    ISOMETRY_ATOL,
    LADDER,
    STEP_TOL,
    Ensemble,
    _cayley,
    _eigen_support,
    _random_isometry,
    _raw_averages,
    _search,
    _support_mixer,
    cce_mixed_upper,
    mixing_ensemble,
)
from cekit.entropy import EntropyParams, unified_entropy_spectrum
from cekit.errors import ResourceLimitError
from cekit.measures import cce_pure, cut_plan
from cekit.states import haar_random, random_density, random_product
from cekit.suites import concurrence, wootters_eof
from cekit.tensor import DensityOperator, PureState

VN = EntropyParams.von_neumann()


def werner_like(p: float) -> DensityOperator:
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    mat = p * np.outer(psi_minus, psi_minus.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityOperator(mat, (2, 2))


def separable_mix(seed: int, k: int = 3) -> tuple[DensityOperator, Ensemble]:
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k))
    members = tuple(
        (float(p), random_product((2, 2), seed=1000 * seed + i)) for i, p in enumerate(probs)
    )
    ens = Ensemble(members)
    return ens.density(), ens


def test_identity_mixer_recovers_eigendecomposition():
    rho = random_density((2, 2), rank=3, seed=1)
    vals = np.linalg.eigvalsh(rho.matrix)
    vals = np.sort(vals[vals > 1e-12])[::-1]
    ens = mixing_ensemble(rho, np.eye(3))
    assert sorted((p for p, _ in ens.members), reverse=True) == pytest.approx(list(vals), abs=1e-10)
    assert ens.reconstruction_error(rho) < 1e-10


def test_rank_one_state_gives_singleton_ensemble():
    rho = haar_random((2, 2), seed=2).density()
    ens = mixing_ensemble(rho, np.eye(1))
    assert len(ens.members) == 1
    assert ens.members[0][0] == pytest.approx(1.0, abs=1e-12)


def test_random_mixer_reconstructs():
    rho = random_density((2, 2), rank=2, seed=3)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    ens = mixing_ensemble(rho, q[:, :2])
    assert ens.reconstruction_error(rho) < 1e-10


def test_mixing_ensemble_validation():
    rho = random_density((2, 2), rank=2, seed=4)
    with pytest.raises(ValueError):
        mixing_ensemble(rho, np.ones((2, 2)))  # not isometric
    with pytest.raises(ValueError):
        mixing_ensemble(rho, np.eye(3)[:, :1].reshape(3, 1))  # wrong column count
    with pytest.raises(ValueError):
        mixing_ensemble(rho, np.eye(5)[:, :2])  # m > r^2


@pytest.mark.parametrize("entry", [(3, 1, float("nan")), (3, 0, float("inf")), (0, 0, complex(0, float("nan")))])
def test_mixing_ensemble_rejects_nan_and_inf_mixers(entry):
    # A NaN fails every comparison, so a `> atol` test let such a mixer through,
    # and the NaN member was then dropped as too light.
    rho = random_density((2, 2), rank=2, seed=4)
    mixer = np.eye(4, 2, dtype=complex)
    row, col, value = entry
    mixer[row, col] = value
    with pytest.raises(ValueError, match="orthonormal"):
        mixing_ensemble(rho, mixer)


def test_mixer_for_ensemble_roundtrip():
    rho, ens = separable_mix(seed=5, k=3)
    mixer = _support_mixer(rho, *_eigen_support(rho), ens)
    rebuilt = mixing_ensemble(rho, mixer)
    assert rebuilt.reconstruction_error(rho) < 1e-8
    assert rebuilt.average((1, 2), VN) == pytest.approx(ens.average((1, 2), VN), abs=1e-8)


def test_ensemble_validation():
    psi = haar_random((2,), seed=0)
    with pytest.raises(ValueError):
        Ensemble(((0.5, psi), (0.4, psi)))
    with pytest.raises(ValueError):
        Ensemble(((1.5, psi), (-0.5, psi)))
    with pytest.raises(ValueError):
        Ensemble(())
    with pytest.raises(ValueError, match="same dims"):  # 6 amplitudes each, split differently
        Ensemble(((0.5, haar_random((2, 3), seed=1)), (0.5, haar_random((3, 2), seed=2))))
    with pytest.raises(ValueError):  # NaN fails no `<=` test
        Ensemble(((float("nan"), psi),))


def test_wootters_bell_and_product(bell):
    assert wootters_eof(bell.density()) == pytest.approx(1.0, abs=1e-10)
    assert wootters_eof(random_product((2, 2), seed=1).density()) == pytest.approx(0.0, abs=1e-6)


def test_wootters_werner_closed_form():
    from cekit.entropy import binary_entropy

    for p in (0.5, 0.7, 0.9):
        conc = max(0.0, (3.0 * p - 1.0) / 2.0)
        want = binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - conc**2))) if conc > 0 else 0.0
        assert wootters_eof(werner_like(p)) == pytest.approx(want, abs=1e-10)


def test_concurrence_of_rotated_rank_two_bell_diagonal_states():
    # 0.8 |Phi+><Phi+| + 0.2 |Psi+><Psi+| has C = 2 * 0.8 - 1 = 0.6, and local unitaries keep it. At rank 2
    # two of the l_i are 0: square roots of the rounding residues in the eigenvalues of rho rho~ are off by
    # up to 1e-8, the singular values on the eigen support are exact zeros.
    rng = np.random.default_rng(11)
    phi, psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    bell_diagonal = 0.8 * np.outer(phi, phi) + 0.2 * np.outer(psi, psi)
    for _ in range(40):
        z = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        u = np.kron(*np.linalg.qr(z)[0])
        assert abs(concurrence(DensityOperator(u @ bell_diagonal @ u.conj().T, (2, 2))) - 0.6) <= 1e-12
    # At full rank the support form agrees with the eigenvalues of rho rho~.
    yy = np.kron(*[np.array([[0.0, -1.0j], [1.0j, 0.0]])] * 2)
    for seed in range(40):
        rho = random_density((2, 2), rank=4, seed=seed)
        m = rho.matrix
        lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m @ yy @ m.conj() @ yy).real, 0.0, None)))[::-1]
        assert concurrence(rho) == pytest.approx(max(0.0, lam[0] - lam[1:].sum()), abs=1e-12)


def test_roof_on_pure_state_is_exact():
    psi = haar_random((2, 2), seed=7)
    result = cce_mixed_upper(psi.density(), (1,), VN, budget=(2, 50), seed=0)
    assert result.upper_bound == pytest.approx(cce_pure(psi, (1,), VN).value, abs=1e-10)
    assert result.converged


def test_roof_of_single_subsystem_state_is_zero():
    # One subsystem has no nontrivial cut, so every decomposition averages to 0.
    rho = random_density((3,), rank=2, seed=1)
    assert cce_mixed_upper(rho, (1,), VN, budget=(2, 50), seed=0).upper_bound == 0.0


def test_roof_upper_bound_matches_best_ensemble():
    rho = random_density((2, 2), rank=2, seed=8)
    result = cce_mixed_upper(rho, (1,), VN, budget=(3, 200), seed=0)
    recomputed = result.best_ensemble.average((1,), VN)
    assert result.upper_bound == pytest.approx(recomputed, abs=1e-10)
    assert result.best_ensemble.reconstruction_error(rho) < 1e-8


def test_roof_never_worse_than_eigendecomposition():
    rho = random_density((2, 2), rank=2, seed=9)
    eigen_avg = mixing_ensemble(rho, np.eye(2)).average((1,), VN)
    result = cce_mixed_upper(rho, (1,), VN, budget=(2, 300), seed=0)
    assert result.upper_bound <= eigen_avg + 1e-12


def test_roof_separable_state_collapses():
    rho, ens = separable_mix(seed=10)
    result = cce_mixed_upper(rho, (1, 2), VN, budget=(2, 400), seed=0, seed_ensembles=[ens])
    assert result.upper_bound <= 1e-3


def test_roof_werner_matches_concurrence_oracle():
    rho = werner_like(0.9)
    result = cce_mixed_upper(rho, (1,), VN, budget=(6, 1000), seed=1)
    target = 0.5 * wootters_eof(rho)
    assert result.upper_bound == pytest.approx(target, abs=5e-3)
    assert result.upper_bound >= target - 1e-9


def test_roof_random_rank2_matches_oracle():
    for seed in range(3):
        rho = random_density((2, 2), rank=2, seed=100 + seed)
        result = cce_mixed_upper(rho, (1,), VN, budget=(6, 1000), seed=seed)
        target = 0.5 * wootters_eof(rho)
        assert result.upper_bound == pytest.approx(target, abs=5e-3)


def test_roof_deterministic_under_seed():
    rho = random_density((2, 2), rank=2, seed=11)
    a = cce_mixed_upper(rho, (1,), VN, budget=(3, 300), seed=5)
    b = cce_mixed_upper(rho, (1,), VN, budget=(3, 300), seed=5)
    assert a.upper_bound == b.upper_bound


def _half_f(rho, params):
    """Test-only oracle: the two-qubit roof at s = {1} where f is convex,
    half of f(C) = S(x, 1 - x) with x = (1 + sqrt(1 - C^2))/2."""
    c = concurrence(rho)
    x = 0.5 * (1.0 + math.sqrt(1.0 - c * c))
    return 0.5 * unified_entropy_spectrum([x, 1.0 - x], EntropyParams(*params))


@pytest.mark.parametrize("point", [(1.0, 1.0), (2.0, 1.0), (1.7, 0.4)])
def test_roof_matches_concurrence_closed_form(point):
    # f is convex at these points, so half f(C) is the roof itself: no
    # decomposition averages below it, and the search must come within 1e-6.
    for seed in range(4):
        rho = random_density((2, 2), rank=2, seed=200 + seed)
        bound = cce_mixed_upper(rho, (1,), EntropyParams(*point), budget=(6, 1000), seed=seed).upper_bound
        target = _half_f(rho, point)
        assert target - 1e-12 <= bound <= target + 1e-6


def _roots(rho):
    vals, vecs = _eigen_support(rho)
    return vecs * np.sqrt(vals)


def _random_raws(rng, n, dims, m):
    d = math.prod(dims)
    return rng.standard_normal((n, d, m)) + 1j * rng.standard_normal((n, d, m))


@pytest.mark.parametrize("point", [(1.0, 1.0), (1.5, 0.0), (0.4, 0.0), (1.7, 0.4), (0.5, 1.0), (2.0, 1.0), (0.6, 2.5)])
@pytest.mark.parametrize("dims,subset", [
    ((2, 2), (1,)), ((2, 3), (1, 2)), ((2, 2, 2), (1, 2, 3)),  # qubit cuts only
    ((3, 3), (1,)), ((3, 2, 2), (1, 2, 3)),  # a qutrit cut, alone and among qubit cuts
])
def test_raw_gradients_match_finite_differences(point, dims, subset):
    # von Neumann, Renyi at alpha > 1 and < 1, the general branch, the
    # scalar exponents 0.5 and 2, and alpha < 1 at beta > 1. Matrix 1 holds
    # a member lighter than 1e-12, which must get a zero gradient, and
    # matrix 2 a product member, whose cuts have a zero eigenvalue: neither
    # may warn or give a NaN.
    rng = np.random.default_rng(40)
    params = EntropyParams(*point)
    plan = cut_plan(dims, subset)
    raws = _random_raws(rng, 3, dims, 4)
    raws[1, :, 3] *= 1e-7
    raws[2, :, 0] = random_product(dims, seed=41).amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, grad = _raw_averages(raws, plan, params, grad=True)
    assert values == _raw_averages(raws, plan, params)
    assert np.isfinite(grad).all() and not grad[1, :, 3].any()
    h = 1e-6
    for _ in range(3):
        delta = _random_raws(rng, 3, dims, 4)
        delta[1, :, 3] = delta[2, :, 0] = 0.0
        up, down = (np.array(_raw_averages(raws + sign * h * delta, plan, params)) for sign in (1, -1))
        want = 2.0 * (grad.conj() * delta).real.sum(axis=(1, 2))
        assert np.abs((up - down) / (2 * h) - want).max() <= 1e-6 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("m,r", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (6, 2), (9, 3)])
def test_two_row_mixers_match_full_products(m, r):
    # Cayley ladders along full directions are (I - tH/2)^-1 (I + tH/2) V as
    # m x m products; along a direction on rows i and j only, a step mixes
    # those two rows by the 2 x 2 Cayley unitary and leaves every other row's bits.
    rng = np.random.default_rng(10 * m + r)
    n = 40
    v = np.linalg.qr(rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))[0][:, :, :r]
    z = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    h = z - z.conj().swapaxes(-1, -2)
    t = rng.uniform(0.0, 2.0, (n, 1)) * 0.5 ** np.arange(LADDER)
    got = _cayley(v[:, None], h[:, None], t)
    assert got.shape == (n, LADDER, m, r)
    half = 0.5 * t[..., None, None] * h[:, None]
    eye = np.eye(m)
    assert np.abs(got - np.linalg.inv(eye - half) @ (eye + half) @ v[:, None]).max() <= 1e-13
    assert np.abs(got.conj().swapaxes(-1, -2) @ got - np.eye(r)).max() <= ISOMETRY_ATOL
    # Each start's ladder is the one it gets alone, bit for bit.
    assert all(np.array_equal(got[k], _cayley(v[k], h[k], t[k])) for k in (0, n // 2, n - 1))
    pair = np.zeros((n, m, m), dtype=complex)
    pair[:, -2:, -2:] = h[:, -2:, -2:]  # rows i, j = m - 2, m - 1
    two = _cayley(v[:, None], pair[:, None], t)
    assert np.array_equal(two[:, :, :-2], np.broadcast_to(v[:, None, :-2], two[:, :, :-2].shape))
    block = 0.5 * t[..., None, None] * h[:, None, -2:, -2:]
    rotation = np.linalg.inv(np.eye(2) - block) @ (np.eye(2) + block)
    assert np.abs(two[:, :, -2:] - rotation @ v[:, None, -2:]).max() <= 1e-13


def _starts(rho, restarts, seed, seed_ensembles=()):
    """`cce_mixed_upper`'s start mixers as one stack: the eigendecomposition,
    the seed ensembles, then seeded random isometries, each of m rows or
    padded to m with zero rows."""
    r = _eigen_support(rho)[0].size
    m = min(r * r, r + 2)
    starts = [np.eye(m, r, dtype=complex)] + [_support_mixer(rho, *_eigen_support(rho), ens) for ens in seed_ensembles]
    children = np.random.SeedSequence(seed).spawn(restarts - len(starts))
    starts += [_random_isometry(np.random.default_rng(child), m, r) for child in children]
    return np.array([np.vstack([v, np.zeros((m - len(v), r))]) for v in starts])


def _isometry_ensemble(rho, rows, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    return mixing_ensemble(rho, np.linalg.qr(z)[0][:, :3])


@pytest.mark.parametrize("point", [(1.0, 1.0), (2.0, 1.0), (1.7, 0.4), (0.5, 1.0)])
def test_roof_lockstep_matches_sequential_search(point):
    # Each restart searched on its own ends with the bits, evaluations and
    # flag it gets inside the lockstep batch, and the public trace reports it.
    # A start's zero rows (members of weight 0) are still exactly 0 at the end.
    # At alpha < 1 a change in the last bit of a value can reroute a search,
    # so (0.5, 1) is the sharpest check that the lockstep search keeps the bits.
    params = EntropyParams(*point)
    mixed3 = random_density((2, 2, 2), rank=3, seed=33)
    cases = [
        (random_density((2, 2), rank=2, seed=33), (1,), (4, 1000), {}),
        # Budgets that end restarts at their first gradient, inside their
        # first ladder and just past it.
        (random_density((2, 2), rank=2, seed=34), (1,), (3, 1), {}),
        (random_density((2, 2), rank=2, seed=34), (1,), (3, 6), {}),
        (random_density((2, 2), rank=2, seed=34), (1,), (3, 10), {}),
        (random_density((2, 3), rank=3, seed=32), (1, 2), (3, 200), {}),
        # Rank 3 (mixer size 5) with seed ensembles of 5 and 3 members: the
        # 3-member seed and the eigen start are padded with zero rows.
        (mixed3, (1, 2), (5, 200), {
            "seed_ensembles": [_isometry_ensemble(mixed3, 5, 0), _isometry_ensemble(mixed3, 3, 1)],
        }),
    ]
    for rho, subset, (restarts, max_evals), kwargs in cases:
        plan = cut_plan(rho.dims, subset)
        starts = _starts(rho, restarts, 7, **kwargs)
        mixers, evals, converged = _search(_roots(rho), plan, params, starts, max_evals)
        for k, start in enumerate(starts):
            (alone,), (alone_evals,), (alone_converged,) = _search(_roots(rho), plan, params, start[None], max_evals)
            assert np.array_equal(alone, mixers[k])
            assert not mixers[k][~start.any(axis=1)].any()
            assert (alone_evals, alone_converged) == (evals[k], converged[k])
        got = cce_mixed_upper(rho, subset, params, budget=(restarts, max_evals), seed=7, **kwargs)
        values = [mixing_ensemble(rho, mix).average(subset, params) for mix in mixers]
        assert [(t.value, t.evals, t.converged) for t in got.restarts] == list(zip(values, evals, converged))


def test_roof_rejects_seed_ensembles_larger_than_the_mixer_size():
    # Every restart searches mixers of min(r^2, r + 2) rows, 5 at rank 3, so
    # a 6-member seed ensemble has no start of that size.
    rho = random_density((2, 2, 2), rank=3, seed=33)
    with pytest.raises(ValueError, match=r"ensemble size 6 exceeds the min\(r\^2, r \+ 2\) cap 5"):
        cce_mixed_upper(rho, (1, 2), VN, budget=(2, 10), seed=7, seed_ensembles=[_isometry_ensemble(rho, 6, 0)])


@pytest.mark.parametrize("max_evals", [1, 2, 9, 10, 11, 100])
def test_search_spends_no_more_than_its_budget(max_evals, monkeypatch):
    # A gradient is one evaluation, and each ladder value one more; the last
    # ladder is cut to the budget, and nothing else is evaluated. A restart
    # that has not converged spends its whole budget, and never ends above
    # its start.
    rho = random_density((2, 2), rank=2, seed=36)
    plan, params = cut_plan((2, 2), (1,)), EntropyParams(1.7, 0.4)
    starts = _starts(rho, 4, 3)
    rows = []
    original = cr._raw_averages

    def counting(raw, *args, **kwargs):
        rows.append(len(raw))
        return original(raw, *args, **kwargs)

    monkeypatch.setattr(cr, "_raw_averages", counting)
    mixers, evals, converged = _search(_roots(rho), plan, params, starts, max_evals)
    assert sum(rows) == sum(evals)
    assert all(e <= max_evals and (c or e == max_evals) for e, c in zip(evals, converged))
    before, after = (original(_roots(rho) @ v.swapaxes(-1, -2), plan, params) for v in (starts, mixers))
    assert all(b >= a for b, a in zip(before, after))
    if max_evals == 1:
        assert all(np.array_equal(v, s) for v, s in zip(mixers, starts))


def _toy_smooth(v):
    """A smooth objective on mixers v (m, r): its value and its gradient by conj(v)."""
    target = np.linspace(-1.3, 0.9, v.size).reshape(v.shape)
    x, y = v[0, 0].real, v[-1, -1].real
    grad = v - target
    grad[0, 0] += 0.15 * math.cos(x * y) * y
    grad[-1, -1] += 0.15 * math.cos(x * y) * x
    return float(np.sum(np.abs(v - target) ** 2) + 0.3 * math.sin(x * y)), grad


def _toy_plateaus(v):
    # Values rounded to 0.05 under the slope of the unrounded sum: many
    # ladder values tie with the current value and are refused.
    diff = v - 0.7
    return round(float(np.sum(np.abs(diff))) * 20) / 20, diff / (2.0 * np.abs(diff))


def _sequential_search(f, v, max_evals):
    """Reference for `_search` from one start on a toy objective f: the same
    rules, one evaluation at a time, each ladder step as a full product."""
    evals, step, sq, grad, direction = 0, 1.0, math.inf, np.zeros((len(v), len(v))), None
    while evals < max_evals:
        value, g = f(v)
        evals += 1
        x = g @ v.conj().T
        omega = x - x.conj().T
        prev, sq = sq, np.vdot(omega, omega).real
        beta = max(0.0, (sq - np.vdot(grad, omega).real) / prev)
        steepest = not (beta > 0.0 and beta * np.vdot(omega, direction).real < sq)
        direction = -omega if steepest else beta * direction - omega
        grad = omega
        if sq <= GRAD_TOL**2:
            return v, evals, True
        moved = False
        while not moved and evals < max_evals:
            best = None
            for j in range(min(LADDER, max_evals - evals)):
                t = step * 0.5**j
                half = 0.5 * t * direction
                cand = np.linalg.inv(np.eye(len(v)) - half) @ (np.eye(len(v)) + half) @ v
                fc = f(cand)[0]
                evals += 1
                if best is None or fc < best[0]:
                    best = (fc, t, cand)
            if best[0] < value:
                v, step, moved = best[2], 2.0 * best[1], True
            elif not steepest:
                direction, steepest = -grad, True
            elif t * math.sqrt(sq) < STEP_TOL:
                return v, evals, True
            else:
                step = 0.5 * t
    return v, evals, False


def _patch_toy(monkeypatch, f):
    """Make `_search` minimize f over mixers, run with roots I and no plan.
    Returns the list that gets the mixers of each `_raw_averages` call."""
    asked = []

    def toy(raw, plan, params, grad=False):
        asked.append([matrix.T for matrix in raw])
        values, grads = zip(*map(f, asked[-1]))
        return (list(values), np.stack([g.T for g in grads])) if grad else list(values)

    monkeypatch.setattr(cr, "_raw_averages", toy)
    return asked


@pytest.mark.parametrize("f", [_toy_smooth, _toy_plateaus])
@pytest.mark.parametrize("max_evals", [1, 2, 31, 32, 33, 100, 2000])
def test_speculative_compass_matches_sequential(f, max_evals, monkeypatch):
    # The name is kept from the compass search that the ladder replaced. A
    # ladder is speculative: all of its steps are evaluated, in one batch
    # with the other restarts', before one is taken. Run on a toy objective
    # in lockstep, restarts take the path, evaluations and flag of a search
    # that evaluates one candidate at a time, and no value is computed that
    # the budget does not count. Budgets 31-33 end searches around a ladder
    # boundary.
    asked = _patch_toy(monkeypatch, f)
    r = 2
    starts = np.array([np.eye(4, r)] + [_random_isometry(np.random.default_rng(k), 4, r) for k in range(3)])
    mixers, evals, converged = _search(np.eye(r, dtype=complex), None, None, starts, max_evals)
    assert sum(map(len, asked)) == sum(evals)
    for k, start in enumerate(starts):
        want_v, want_evals, want_converged = _sequential_search(f, start, max_evals)
        assert np.abs(mixers[k] - want_v).max() <= 1e-12
        assert (evals[k], converged[k]) == (want_evals, want_converged)
        assert evals[k] <= max_evals and (converged[k] or evals[k] == max_evals)
        assert f(mixers[k])[0] <= f(start)[0]


def test_speculative_compass_yields_the_rest_of_the_sweep(monkeypatch):
    # A gradient, then a ladder cut to the 4 evaluations the budget has left;
    # the search moves to the lowest of its values.
    asked = _patch_toy(monkeypatch, _toy_smooth)
    start = np.eye(3, 2, dtype=complex)
    (v,), evals, converged = _search(np.eye(2, dtype=complex), None, None, start[None], 5)
    assert [len(rows) for rows in asked] == [1, 4] and (evals, converged) == ([5], [False])
    assert np.array_equal(asked[0][0], start)
    values = [_toy_smooth(w)[0] for w in asked[1]]
    assert min(values) < _toy_smooth(start)[0] and np.array_equal(v, asked[1][int(np.argmin(values))])


def test_roof_search_converges_before_its_budget():
    # On a rank-2 two-qubit state every restart reaches a vanishing gradient
    # well inside a budget of 1000 evaluations.
    rho = random_density((2, 2), rank=2, seed=37)
    result = cce_mixed_upper(rho, (1,), VN, budget=(6, 1000), seed=0)
    assert result.converged and all(t.converged and t.evals < 1000 for t in result.restarts)


@pytest.mark.parametrize("dims,subset", [((2, 2), (1,)), ((2, 2, 2), (1, 2, 3)), ((3, 3), (1,)), ((3, 2, 2), (1, 2, 3))])
def test_roof_kernels_keep_row_bits_in_large_stacks(dims, subset):
    # numpy may compute a complex product on a temporary of 256 KiB or more
    # in place, with its operands swapped, and complex products' bits depend
    # on the order. Row i of a stack that large has the bits it has alone.
    rng = np.random.default_rng(38)
    plan, params = cut_plan(dims, subset), EntropyParams(1.7, 0.4)
    m = 5
    n = 2 * (1 << 14) // (math.prod(dims) * m) + 1  # members x dims: twice 2^14 complex entries
    raws = _random_raws(rng, n, dims, m)
    raws[1, :, 2] = 0.0  # a dropped member
    values, grad = _raw_averages(raws, plan, params, grad=True)
    z = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    h = z - z.conj().swapaxes(-1, -2)
    v = rng.standard_normal((n, m, 2)) + 1j * rng.standard_normal((n, m, 2))
    t = rng.uniform(0.0, 2.0, (n, 1)) * 0.5 ** np.arange(LADDER)
    ladder = _cayley(v[:, None], h[:, None], t)
    for i in (0, 1, n // 2, n - 1):
        alone, alone_grad = _raw_averages(raws[i : i + 1], plan, params, grad=True)
        assert alone == values[i : i + 1] and np.array_equal(alone_grad[0], grad[i])
        assert np.array_equal(_cayley(v[i], h[i], t[i]), ladder[i])


@pytest.mark.parametrize("dims,subset", [((2, 2), (1,)), ((3, 3), (1,)), ((3, 2, 2), (1, 2, 3))])
def test_gradient_call_forms_each_reduced_state_once(dims, subset, monkeypatch):
    # A gradient call takes its slopes from the reduced states its spectra
    # were taken of: one `_qubit_moments` or `_reduced_chunks` pass a block.
    import cekit.measures as measures

    plan, calls = cut_plan(dims, subset), []
    for name in ("_qubit_moments", "_reduced_chunks"):
        def counting(block, tensors, original=getattr(measures, name)):
            calls.append(block.d)
            return original(block, tensors)

        for module in (measures, cr):
            monkeypatch.setattr(module, name, counting)
    values, grad = _raw_averages(_random_raws(np.random.default_rng(42), 3, dims, 4), plan, VN, grad=True)
    assert sorted(calls) == sorted(block.d for block in plan.blocks) and np.isfinite(grad).all()


def test_raw_averages_do_not_depend_on_batch():
    # Matrices of 3 and 4 member columns in one stack, the 3-column ones
    # padded with a zero column (a member of weight 0), and one column too
    # light to keep: each value is bit-equal to that matrix evaluated on its own.
    rng = np.random.default_rng(35)
    plan = cut_plan((2, 2, 2), (1, 2))
    stacks = [rng.standard_normal((3, 8, 3)) + 1j * rng.standard_normal((3, 8, 3)),
              rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4))]
    stacks[0][1, :, 2] = 0.0
    params = EntropyParams(1.7, 0.4)
    alone = [_raw_averages(raw[None], plan, params)[0] for stack in stacks for raw in stack]
    stack = np.concatenate([np.pad(stacks[0], ((0, 0), (0, 0), (0, 1))), stacks[1]])
    assert _raw_averages(stack, plan, params) == alone


def test_roof_eigensolves_once_per_round(monkeypatch):
    # (3, 3) on subset (1,) has one cut, of dimension 3: each lockstep round
    # is one stacked eigensolve for the ladders of all restarts and one for
    # the values at their gradients, then one more for the final members of
    # all restarts (45 calls here). Qubit cuts take closed-form spectra, so
    # the same search on a (2, 2) state solves none.
    qutrits, qubits = random_density((3, 3), rank=2, seed=3), random_density((2, 2), rank=2, seed=3)
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    cce_mixed_upper(qutrits, (1,), VN, budget=(6, 1000), seed=0)
    assert 0 < len(calls) <= 200
    calls.clear()
    cce_mixed_upper(qubits, (1,), VN, budget=(6, 1000), seed=0)
    assert calls == []


def test_roof_eigendecomposes_rho_once(monkeypatch):
    # The start mixers of the seed ensembles and every final ensemble share
    # the one eigendecomposition of rho made at the start of the call.
    members = tuple((p, random_product((2, 2), seed=30 + i)) for i, p in enumerate((0.6, 0.4)))
    rho = Ensemble(members).density()
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(np.shape(a)) or original(a, *args, **kw))
    result = cce_mixed_upper(rho, (1,), VN, budget=(4, 40), seed=0, seed_ensembles=[Ensemble(members)])
    assert result.restarts_used == 4
    assert calls == [(4, 4)]


def test_roof_builds_states_for_the_best_ensemble_only(monkeypatch):
    # Every restart's final ensemble is valued from stacked amplitudes; only
    # the reported one becomes `PureState`s.
    rho, calls = random_density((2, 2), rank=2, seed=37), []
    original = PureState.__post_init__
    monkeypatch.setattr(PureState, "__post_init__", lambda self: calls.append(1) or original(self))
    result = cce_mixed_upper(rho, (1,), VN, budget=(6, 200), seed=0)
    assert result.restarts_used == 6
    assert len(calls) == len(result.best_ensemble.members)


def test_roof_rank_guard_and_budget_validation():
    rho = random_density((2, 2, 2), rank=7, seed=12)
    with pytest.raises(ResourceLimitError):
        cce_mixed_upper(rho, (1,), VN)
    small = random_density((2, 2), rank=2, seed=13)
    with pytest.raises(ValueError):
        cce_mixed_upper(small, (1,), VN, budget=(0, 100))
    # Restarts cover the eigen start and every seed ensemble, or the budget is refused.
    mix, ens = separable_mix(seed=10)
    with pytest.raises(ValueError, match=r"3 restarts \(the eigen start and 2 seed ensembles\), got \(2, 50\)"):
        cce_mixed_upper(mix, (1, 2), VN, budget=(2, 50), seed_ensembles=[ens, ens])
    assert cce_mixed_upper(mix, (1, 2), VN, budget=(3, 50), seed_ensembles=[ens, ens]).restarts_used == 3


def test_roof_convexity():
    a = random_density((2, 2), rank=2, seed=14)
    b = random_density((2, 2), rank=2, seed=15)
    q = 0.4
    mix = DensityOperator(q * a.matrix + (1 - q) * b.matrix, (2, 2))
    budget = (6, 800)
    ua = cce_mixed_upper(a, (1,), VN, budget=budget, seed=0).upper_bound
    ub = cce_mixed_upper(b, (1,), VN, budget=budget, seed=0).upper_bound
    umix = cce_mixed_upper(mix, (1,), VN, budget=budget, seed=0).upper_bound
    assert umix <= q * ua + (1 - q) * ub + 1e-3


def test_roof_local_unitary_invariance():
    rng = np.random.default_rng(16)
    rho = random_density((2, 2), rank=2, seed=17)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(z)
    full = np.kron(u, np.eye(2))
    rotated = DensityOperator(full @ rho.matrix @ full.conj().T, (2, 2))
    budget = (6, 800)
    before = cce_mixed_upper(rho, (1,), VN, budget=budget, seed=0).upper_bound
    after = cce_mixed_upper(rotated, (1,), VN, budget=budget, seed=0).upper_bound
    assert after == pytest.approx(before, abs=1e-3)


def test_matched_ensembles_alpha_monotone():
    rng = np.random.default_rng(18)
    rho = random_density((2, 2), rank=2, seed=19)
    for _ in range(25):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        ens = mixing_ensemble(rho, q[:, :2])
        lo = ens.average((1, 2), EntropyParams(1.3, 1.5))
        hi = ens.average((1, 2), EntropyParams(2.6, 1.5))
        assert lo >= hi - 1e-10


def test_roof_result_serialization():
    rho = random_density((2, 2), rank=2, seed=23)
    result = cce_mixed_upper(rho, (1,), VN, budget=(2, 100), seed=0)
    blob = json.loads(json.dumps(result.to_dict()))
    assert blob["upper_bound"] == pytest.approx(result.upper_bound)
    probs = [m["p"] for m in blob["best_ensemble"]["members"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    amp = blob["best_ensemble"]["members"][0]["amplitudes"]
    assert len(amp) == 4 and len(amp[0]) == 2
    assert blob["restarts"] == [
        {"start": t.start, "evals": t.evals, "value": t.value, "converged": t.converged}
        for t in result.restarts
    ]


def test_roof_trace_per_restart():
    rho, ens = separable_mix(seed=24)
    result = cce_mixed_upper(rho, (1, 2), VN, budget=(4, 60), seed=0, seed_ensembles=[ens])
    assert [t.start for t in result.restarts] == ["eigen", "seed", "random", "random"]
    assert all(1 <= t.evals <= 60 for t in result.restarts)
    # The best restart carries the bound and the reported convergence flag.
    best = min(result.restarts, key=lambda t: t.value)
    assert (best.value, best.converged) == (result.upper_bound, result.converged)
    pure = cce_mixed_upper(haar_random((2, 2), seed=25).density(), (1,), VN, budget=(2, 50), seed=0)
    assert pure.restarts == () and pure.restarts_used == 0
