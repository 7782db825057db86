import itertools
import json
import math

import numpy as np
import pytest

from cekit.convex_roof import (
    ISOMETRY_ATOL,
    Ensemble,
    _compass,
    _mixers,
    _n_params,
    _raw_averages,
    cce_mixed_upper,
    mixed_ordering_spotcheck,
    mixer_for_ensemble,
    mixing_ensemble,
)
from cekit.entropy import EntropyParams
from cekit.errors import ResourceLimitError
from cekit.measures import cce_pure, cut_plan, ordering_report
from cekit.states import haar_random, random_density, random_product
from cekit.suites import wootters_eof
from cekit.tensor import DensityOperator

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
    mixer = mixer_for_ensemble(rho, ens)
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


def _givens_mixer(start, theta):
    """Reference for `_mixers` on one start mixer (m, r): row phases, then
    one Givens (angle, phase) pair at a time as a two-row update."""
    m = start.shape[0]
    w = start * np.exp(1j * theta[:m])[:, None]
    pos = m
    for i in range(m):
        for j in range(i + 1, m):
            a, ph = theta[pos], theta[pos + 1]
            pos += 2
            c, s = math.cos(a), math.sin(a)
            upper, lower = -np.exp(1j * ph) * s, np.exp(-1j * ph) * s
            w[i], w[j] = c * w[i] + upper * w[j], lower * w[i] + c * w[j]
    return w


def _full_product_mixers(theta, bases, r):
    """Mixers as m x m products: the Givens matrices multiplied into the
    diagonal phases one at a time, then applied to the full bases (n, m, m)."""
    n, m = bases.shape[:2]
    u = np.zeros((n, m, m), dtype=complex)
    diag = np.arange(m)
    u[:, diag, diag] = np.exp(1j * theta[:, :m])
    cos, sin = np.cos(theta[:, m::2]), np.sin(theta[:, m::2])
    upper = -np.exp(1j * theta[:, m + 1 :: 2]) * sin
    lower = np.exp(-1j * theta[:, m + 1 :: 2]) * sin
    for pos, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        g = np.repeat(np.eye(m, dtype=complex)[None], n, axis=0)
        g[:, i, i] = g[:, j, j] = cos[:, pos]
        g[:, i, j], g[:, j, i] = upper[:, pos], lower[:, pos]
        u = g @ u
    return (u @ bases)[:, :, :r]


@pytest.mark.parametrize("m,r", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (6, 2), (9, 3)])
def test_two_row_mixers_match_full_products(m, r):
    rng = np.random.default_rng(10 * m + r)
    n = 40
    z = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    bases = np.linalg.qr(z)[0]
    theta = rng.uniform(-math.pi, math.pi, (n, _n_params(m)))
    got = _mixers(theta, bases[:, :, :r])
    assert got.shape == (n, m, r) and got.flags.c_contiguous
    assert np.abs(got - _full_product_mixers(theta, bases, r)).max() <= 1e-15
    assert np.abs(got.conj().swapaxes(-1, -2) @ got - np.eye(r)).max() <= ISOMETRY_ATOL
    # Each mixer is the one-at-a-time two-row reference, bit for bit.
    assert all(np.array_equal(got[k], _givens_mixer(bases[k, :, :r], theta[k])) for k in range(n))


def _sequential_compass(f, x, max_evals, step0=0.5, step_tol=1e-4):
    """Reference compass search: one candidate at a time."""
    fx = f(x)
    evals, step, converged = 1, step0, False
    while evals < max_evals:
        improved = False
        for k in range(x.size):
            if evals >= max_evals:
                break
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[k] += sign * step
                fc = f(cand)
                evals += 1
                if fc < fx - 1e-14:
                    x, fx, improved = cand, fc, True
                    break
                if evals >= max_evals:
                    break
        if not improved:
            step *= 0.5
            if step < step_tol:
                converged = True
                break
    return x, fx, converged, evals


def _drive(search, f):
    """Run a speculative `_compass` on f: (its return value, the candidate
    rows it asked for)."""
    rows, asked = next(search), 0
    while True:
        asked += len(rows)
        try:
            rows = search.send([f(row) for row in rows])
        except StopIteration as stop:
            return stop.value, asked


def _toy_smooth(x):
    return float(np.sum((x - np.linspace(-1.3, 0.9, x.size)) ** 2) + 0.3 * math.sin(x[0] * x[-1]))


def _toy_plateaus(x):
    # Rounded to 0.05: many candidates tie with the current value and are refused.
    return round(float(np.sum(np.abs(x - 0.7))) * 20) / 20


@pytest.mark.parametrize("f", [_toy_smooth, _toy_plateaus])
@pytest.mark.parametrize("max_evals", [1, 2, 31, 32, 33, 100, 2000])
def test_speculative_compass_matches_sequential(f, max_evals):
    # Five coordinates give ten candidates per sweep, so budgets 31-33 end
    # a search just before, at and just after a sweep boundary.
    x0 = np.array([0.4, -0.2, 1.1, 0.0, -0.6])
    (x, fx, converged, evals), asked = _drive(_compass(x0, max_evals), f)
    want_x, want_fx, want_converged, want_evals = _sequential_compass(f, x0.copy(), max_evals)
    assert np.array_equal(x, want_x)
    assert (fx, converged, evals) == (want_fx, want_converged, want_evals)
    assert evals <= max_evals and (converged or evals == max_evals)
    assert asked >= evals


def test_speculative_compass_yields_the_rest_of_the_sweep():
    # Each yield is the sweep from the current coordinate on, cut to the budget.
    search = _compass(np.zeros(3), 5)
    assert next(search).shape == (1, 3)
    rows = search.send([1.0])
    assert np.array_equal(rows, [[0.5, 0, 0], [-0.5, 0, 0], [0, 0.5, 0], [0, -0.5, 0]])
    # Accepting the third candidate discards the fourth and restarts from coordinate 2.
    rows = search.send([2.0, 2.0, 0.5, 0.0])
    assert np.array_equal(rows, [[0, 0.5, 0.5]])
    with pytest.raises(StopIteration) as stop:
        search.send([3.0])
    x, fx, converged, evals = stop.value.value
    assert np.array_equal(x, [0, 0.5, 0]) and (fx, converged, evals) == (0.5, False, 5)


def _sequential_roof(rho, subset, params, budget, seed, seed_ensembles=()):
    """Reference search: each restart runs its own compass loop to the end
    before the next starts, on the public ensemble average. Returns the
    bound, the restart count, the best restart's convergence and, per
    restart, (final value, evaluations, converged)."""
    r = int((np.linalg.eigvalsh(rho.matrix) > 1e-12).sum())
    restarts, max_evals = budget
    m = min(r * r, r + 2)
    starts = [(np.eye(m, r, dtype=complex), np.zeros(m * m))]
    for ens in seed_ensembles:
        v0 = mixer_for_ensemble(rho, ens)
        m_k = max(m, v0.shape[0])
        starts.append((np.vstack([v0, np.zeros((m_k - v0.shape[0], r), dtype=complex)]), np.zeros(m_k * m_k)))
    for child in np.random.SeedSequence(seed).spawn(max(0, restarts - len(starts))):
        starts.append((np.eye(m, r, dtype=complex), np.random.default_rng(child).uniform(-math.pi, math.pi, m * m)))

    def ensemble(start, theta):
        return mixing_ensemble(rho, _givens_mixer(start, theta))

    results = []
    for start, x in starts:
        x, _, converged, evals = _sequential_compass(lambda t: ensemble(start, t).average(subset, params), x, max_evals)
        results.append((ensemble(start, x).average(subset, params), evals, converged))
    best = min(range(len(results)), key=lambda i: (results[i][0], i))
    return results[best][0], len(results), results[best][2], results


def _isometry_ensemble(rho, rows, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    return mixing_ensemble(rho, np.linalg.qr(z)[0][:, :3])


@pytest.mark.parametrize("point", [(1.0, 1.0), (2.0, 1.0), (1.7, 0.4)])
def test_roof_lockstep_matches_sequential_search(point):
    params = EntropyParams(*point)
    mixed3 = random_density((2, 2, 2), rank=3, seed=33)
    cases = [
        # Budget enough for restart 0 to converge while the best restart does not.
        (random_density((2, 2), rank=2, seed=33), (1,), (4, 1000), {}),
        # Budgets that cut each restart inside its first sweep (at most 32
        # candidates) and at or just past the end of that sweep.
        (random_density((2, 2), rank=2, seed=34), (1,), (3, 7), {}),
        (random_density((2, 2), rank=2, seed=34), (1,), (3, 33), {}),
        (random_density((2, 3), rank=3, seed=32), (1, 2), (3, 200), {}),
        # Rank 3 (mixer size 5) with seed ensembles of 6 and 3 members: the
        # 6-member restart searches 6 x 6 unitaries beside the 5 x 5 ones.
        (mixed3, (1, 2), (5, 200), {
            "seed_ensembles": [_isometry_ensemble(mixed3, 6, 0), _isometry_ensemble(mixed3, 3, 1)],
        }),
    ]
    for rho, subset, budget, kwargs in cases:
        got = cce_mixed_upper(rho, subset, params, budget=budget, seed=7, **kwargs)
        bound, restarts, converged, per_restart = _sequential_roof(rho, subset, params, budget, 7, **kwargs)
        assert (got.upper_bound, got.restarts_used, got.converged) == (bound, restarts, converged)
        assert [(t.value, t.evals, t.converged) for t in got.restarts] == per_restart
        assert all(t.computed >= t.evals for t in got.restarts)


def test_raw_averages_do_not_depend_on_batch():
    # Matrices of 3 and 4 member columns, one column too light to keep: each
    # value is bit-equal to that matrix evaluated on its own.
    rng = np.random.default_rng(35)
    plan = cut_plan((2, 2, 2), (1, 2), use_symmetry=False)
    stacks = [rng.standard_normal((3, 8, 3)) + 1j * rng.standard_normal((3, 8, 3)),
              rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4))]
    stacks[0][1, :, 2] = 0.0
    params = EntropyParams(1.7, 0.4)
    alone = [_raw_averages([raw[None]], plan, params)[0] for stack in stacks for raw in stack]
    assert _raw_averages(stacks, plan, params) == alone


def test_roof_eigensolves_once_per_round(monkeypatch):
    # (3, 3) on subset (1,) has one cut, of dimension 3: each lockstep round
    # is one stacked eigensolve for all candidates of all restarts, then each
    # final member is solved once (107 calls here). Qubit cuts take
    # closed-form spectra, so the same search on a (2, 2) state solves none.
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


def test_roof_rank_guard_and_budget_validation():
    rho = random_density((2, 2, 2), rank=7, seed=12)
    with pytest.raises(ResourceLimitError):
        cce_mixed_upper(rho, (1,), VN)
    small = random_density((2, 2), rank=2, seed=13)
    with pytest.raises(ValueError):
        cce_mixed_upper(small, (1,), VN, budget=(0, 100))


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


def test_mixed_ordering_pure_state_reduces_to_report():
    psi = haar_random((2, 2), seed=20)
    result = mixed_ordering_spotcheck(psi.density(), (1, 2), n_mixers=5, seed=0)
    assert result.all_hold
    assert ordering_report(psi, (1, 2)).all_hold


def test_mixed_ordering_separable_state():
    rho, _ = separable_mix(seed=21)
    result = mixed_ordering_spotcheck(rho, (1, 2), n_mixers=20, seed=0)
    assert result.all_hold


def test_mixed_ordering_random_rank2():
    rho = random_density((2, 2), rank=2, seed=22)
    result = mixed_ordering_spotcheck(rho, (1, 2), n_mixers=100, seed=0)
    assert result.ensembles_checked == 100
    assert result.all_hold


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
        {"start": t.start, "evals": t.evals, "computed": t.computed, "value": t.value, "converged": t.converged}
        for t in result.restarts
    ]


def test_roof_trace_per_restart():
    rho, ens = separable_mix(seed=24)
    result = cce_mixed_upper(rho, (1, 2), VN, budget=(4, 60), seed=0, seed_ensembles=[ens])
    assert [t.start for t in result.restarts] == ["eigen", "seed", "random", "random"]
    assert all(1 <= t.evals <= 60 and t.computed >= t.evals for t in result.restarts)
    # The best restart carries the bound and the reported convergence flag.
    best = min(result.restarts, key=lambda t: t.value)
    assert (best.value, best.converged) == (result.upper_bound, result.converged)
    pure = cce_mixed_upper(haar_random((2, 2), seed=25).density(), (1,), VN, budget=(2, 50), seed=0)
    assert pure.restarts == () and pure.restarts_used == 0
