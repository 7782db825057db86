"""The batched suites against trial-by-trial loops over the public functions."""
import math

import numpy as np
import pytest

import cekit.entropy as entropy
import cekit.measures as measures
import cekit.suites as suites
from cekit.cli import main
from cekit.entropy import EntropyParams, majorizes_rows, unified_entropy_rows, unified_entropy_spectrum
from cekit.measures import (
    BENCHMARKS,
    continuity_gap,
    locc_monotonicity_gaps,
    spectra_table,
    subadditivity_gaps,
    table_values,
)
from cekit.states import haar_random, random_density
from cekit.tensor import PureState, hermitian_eigenvalues


def _subadd_draw(rng, trial, seed):
    alphas = (1.0, 1.5, 2.0, 3.0)
    labels = rng.permutation(5) + 1
    k1 = int(rng.integers(1, 4))
    k2 = int(rng.integers(1, 6 - k1))
    s = tuple(int(x) for x in labels[:k1])
    s2 = tuple(int(x) for x in labels[k1 : k1 + k2])
    return ((2,) * 5, seed * 100_003 + trial), s, s2, EntropyParams(alphas[int(rng.integers(len(alphas)))], 1.0)


def _subadd_loop(seed, trials):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        haar, s, s2, params = _subadd_draw(rng, trial, seed)
        [gap] = subadditivity_gaps([(haar_random(*haar), s, s2, params)])
        out.append(f"trial {trial} seed {seed}: gap {gap} for s={s}, s'={s2}, alpha={params.alpha}")
    return out


def _rank1_instrument(rng, d=2):
    # Measure-and-prepare channel K_i = |a_i><b_i|: {b_i} the QR basis of a complex Gaussian z,
    # then each a_i a complex Gaussian vector scaled to unit norm.
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    kraus = []
    for b in basis.T:
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kraus.append(np.outer(a / np.linalg.norm(a), b.conj()))
    return kraus


def _locc_loop(seed, trials):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        psi = haar_random((2, 2, 2), seed=seed * 100_003 + trial)
        site = int(rng.integers(1, 4))
        kraus = _rank1_instrument(rng)
        params = suites.sample_concavity_params(rng)
        [gap] = locc_monotonicity_gaps([(psi, (1, 2, 3), params, site, kraus)])
        out.append(
            f"trial {trial} seed {seed}: gap {gap} at site {site}, alpha={params.alpha}, beta={params.beta}"
        )
    return out


def _majorization_pair_loop(rng, size):
    # mu ~ Dirichlet(1, ..., 1), then lam averaged along 1-3 random transpositions.
    mu = rng.dirichlet(np.ones(size))
    lam = mu.copy()
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.choice(size, size=2, replace=False)
        t = float(rng.uniform(0.0, 1.0))
        swapped = lam.copy()
        swapped[i], swapped[j] = lam[j], lam[i]
        lam = (1.0 - t) * lam + t * swapped
    return lam, mu


def _schur_loop(seed, trials):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        size = int(rng.integers(2, 7))
        lam, mu = _majorization_pair_loop(rng, size)
        a = float(rng.uniform(0.05, 4.0))
        b = float(rng.uniform(0.0, 3.0))
        assert majorizes_rows(mu, lam)
        s_lam, s_mu = unified_entropy_rows(np.array([lam, mu]), EntropyParams(a, b)).tolist()
        gap = s_lam - s_mu
        out.append(f"trial {trial} seed {seed}: gap {gap} at alpha={a}, beta={b}, lam={lam}, mu={mu}")
    return out


def _continuity_loop(seed, trials):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        psi = haar_random((2, 2, 2), seed=seed * 100_003 + trial)
        eps = float(rng.uniform(0.01, 0.399))
        phi = suites.nearby_state(psi, rng, eps)
        if trial % 2 == 0:
            params = EntropyParams(float(rng.uniform(1.2, 4.0)), float(rng.uniform(1.0, 3.0)))
        else:
            params = EntropyParams.von_neumann()
        lhs, bound = continuity_gap(psi, phi, (1, 2, 3), params)
        out.append(
            f"trial {trial} seed {seed}: |dE| {lhs} exceeds bound {bound} at "
            f"alpha={params.alpha}, beta={params.beta}, eps={eps}"
        )
    return out


def _alpha_mono_loop(seed, trials):
    rng = np.random.default_rng(seed)
    dims_pool = [(2,), (3,), (4,), (2, 2), (2, 3)]
    out = []
    for trial in range(trials):
        dims = dims_pool[int(rng.integers(len(dims_pool)))]
        rho = random_density(dims, rank=int(rng.integers(1, int(np.prod(dims)) + 1)), seed=seed * 100_003 + trial)
        a_lo, a_hi = np.sort(rng.uniform(0.05, 4.0, size=2))
        beta = float(rng.uniform(1.0, 3.0))
        lam = hermitian_eigenvalues(rho)
        lo = unified_entropy_spectrum(lam, EntropyParams(float(a_lo), beta))
        gap = lo - unified_entropy_spectrum(lam, EntropyParams(float(a_hi), beta))
        out.append(f"trial {trial} seed {seed}: gap {gap} at alpha_lo={a_lo}, alpha_hi={a_hi}, beta={beta}")
    return out


def _chain(table, tol=1e-10):
    # The ordering report's relations, from one-point values at its six points.
    points = [*BENCHMARKS.values(), EntropyParams.renyi(1.0), EntropyParams.renyi(2.0)]
    e, r2, t3, c, renyi_lo, renyi_hi = (table_values(table, [p])[0] for p in points)
    return {
        "e_ge_c_over_ln2": e >= c / math.log(2.0) - tol,
        "e_ge_2c_minus_half": e >= 2.0 * c - 0.5 - tol,
        "r2_ge_c_over_ln2": r2 >= c / math.log(2.0) - tol,
        "c_ge_t3": c >= t3 - tol,
        "renyi_alpha_monotone": renyi_lo >= renyi_hi - tol,
    }


def _ordering_loop(seed, trials):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        table = spectra_table(haar_random((2, 2, 2, 2), seed=seed * 100_003 + trial), (1, 2, 3, 4))
        out += [f"trial {trial} seed {seed}: {k} violated" for k, ok in _chain(table).items() if not ok]
        for _ in range(suites.ALPHA_PAIRS):
            a_lo, a_hi = np.sort(rng.uniform(0.3, 3.5, size=2))
            beta = float(rng.uniform(1.0, 3.0))
            lo = table_values(table, [EntropyParams(float(a_lo), beta)])[0]
            hi = table_values(table, [EntropyParams(float(a_hi), beta)])[0]
            if lo < hi - suites.GAP_TOL:
                out.append(f"trial {trial} seed {seed}: measure increased from alpha {a_lo} to {a_hi} at beta {beta}")
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_batched_ordering_matches_trial_by_trial_loop(monkeypatch, seed):
    # The messages carry no values, so the tolerance is set to split the pairs:
    # those whose measure falls by less than 0.05 report, the others do not.
    monkeypatch.setattr(suites, "GAP_TOL", -0.05)
    result = suites.run_suite("ordering", seed=seed, trials=40)
    assert 0 < len(result.failures) < 40 * 20
    assert result.failures == _ordering_loop(seed, 40)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "name,loop,trials",
    [
        ("subadd", _subadd_loop, 150),
        ("locc", _locc_loop, 150),
        ("schur", _schur_loop, 300),
        ("alpha-mono", _alpha_mono_loop, 150),
        ("continuity", _continuity_loop, 150),
    ],
)
def test_batched_gaps_match_trial_by_trial_loop(monkeypatch, name, loop, trials, seed):
    # A negative tolerance makes every trial report its gap, so the messages
    # carry every value the batched evaluation produced, across batch edges.
    monkeypatch.setattr(suites, "GAP_TOL", -10.0)
    result = suites.run_suite(name, seed=seed, trials=trials)
    assert trials > suites._BATCH
    assert result.failures == loop(seed, trials)


def test_ordering_eigensolves_once_per_batch(capsys, monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    planned = []  # the suite's own batches, at its own points per trial
    real_batches = suites._batches

    def spying(*args):
        planned.append(real_batches(*args))
        return planned[-1]

    monkeypatch.setattr(suites, "_batches", spying)
    assert main(["verify", "ordering", "--trials", "130"]) == 0
    [batches] = planned
    assert len(batches) > 1
    assert len(calls) == len(batches)  # one stacked call for the cuts of dimension 4; qubit cuts need none
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name,per_batch",
    [
        ("subadd", {"eigvalsh": 1}),  # one plan over all five qubits: cut dimension 4 (qubit cuts in closed form)
        ("locc", {"qr": 1, "svd": 1}),  # states and branches on one all-qubit plan; one draw stack
    ],
)
def test_stacked_linalg_calls_per_batch(capsys, monkeypatch, name, per_batch):
    calls = dict.fromkeys(("eigvalsh", "qr", "svd"), 0)
    for fn in calls:
        def counting(*args, _fn=fn, _real=getattr(np.linalg, fn), **kwargs):
            calls[_fn] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counting)
    assert main(["verify", name, "--trials", "150"]) == 0
    batches = len(suites._batches(150))
    assert batches == 3
    assert calls == {fn: per_batch.get(fn, 0) * batches for fn in calls}
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["schur", "alpha-mono"])
def test_one_entropy_call_per_batch(monkeypatch, name):
    calls = []
    real = entropy.unified_entropy_rows

    def counting(rows, p):
        calls.append(np.shape(rows))
        return real(rows, p)

    for module in (entropy, measures, suites):
        monkeypatch.setattr(module, "unified_entropy_rows", counting)
    assert suites.run_suite(name, seed=2, trials=150).passed
    assert len(suites._batches(150)) == 3
    pair_axis = 2 if name == "schur" else 1  # (lam, mu) rows, or one spectrum at a pair of points
    assert calls == [(64, pair_axis, 6), (64, pair_axis, 6), (22, pair_axis, 6)]


@pytest.mark.parametrize("name", ["schur", "swap-consistency"])
def test_run_suite_rejects_a_negative_seed_before_any_draw(monkeypatch, name):
    monkeypatch.setattr(suites, "_run", None)  # a suite that ran would call it
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        suites.run_suite(name, seed=-1, trials=5)


@pytest.mark.parametrize(
    "name,trials",
    [
        ("ordering", 40),
        ("subadd", 300),
        ("locc", 300),
        ("schur", 300),
        ("swap-consistency", 300),
        ("alpha-mono", 300),
        ("tensor-id", 70),
        ("continuity", 70),
        ("roof-separable", 3),
        ("roof-eof", 2),
    ],
)
def test_batch_size_does_not_change_output(monkeypatch, name, trials):
    # Every case fails, so every value prints: a batch and batches of one must give the same bits.
    monkeypatch.setattr(suites, "GAP_TOL", -10.0)
    monkeypatch.setattr(suites, "SWAP_TOL", -10.0)
    batched = suites.run_suite(name, seed=1, trials=trials)
    monkeypatch.setattr(suites, "_BATCH", 1)
    one_by_one = suites.run_suite(name, seed=1, trials=trials)
    assert batched.trials == one_by_one.trials
    assert batched.failures == one_by_one.failures


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 3_000_000_001])
def test_raw_ints_match_generator_integers(n):
    # Two generators from one seed: one draws through numpy, the other through the sampler. At n = 3e9
    # about 30 % of the words are rejected. The interleaved 64-bit draws must see the same stream.
    # `interval` makes the swaps of numpy's shuffle of m = 1..38 items (tops 0..37), sharing the kept halves.
    numpy_rng, raw_rng = np.random.default_rng(11), np.random.default_rng(11)
    ints = suites._RawInts(raw_rng)
    for step in range(2000):
        assert ints.below(n) == int(numpy_rng.integers(0, n))
        if step % 5 == 0:
            m, items = 1 + step % 38, list(range(1 + step % 38))
            for i in range(m - 1, 0, -1):
                j = ints.interval(i)
                items[i], items[j] = items[j], items[i]
            assert items == numpy_rng.permutation(m).tolist()
        if step % 3 == 0:
            assert raw_rng.random() == numpy_rng.random()
        if step % 7 == 0:
            assert raw_rng.standard_exponential(2).tolist() == numpy_rng.standard_exponential(2).tolist()
        assert raw_rng.bit_generator.state["state"] == numpy_rng.bit_generator.state["state"]


def test_raw_ints_need_pcg64():
    with pytest.raises(ValueError, match="need a PCG64 bit generator, got MT19937"):
        suites._RawInts(np.random.Generator(np.random.MT19937(0)))


# The draws of `schur`, `ordering`, `subadd` and `locc` as they read through numpy's `integers`, `choice`,
# `permutation`, `dirichlet`, `uniform` and one `standard_normal` call per array: the oracle the suites' draws
# must match. A Haar state is drawn as its (dims, seed), and the suite's check builds it with its batch.
def _schur_draw(rng, trial, seed):
    size = int(rng.integers(2, 7))
    mu = np.zeros(6)
    mu[:size] = rng.dirichlet(np.ones(size))
    steps = [(0, 1, 0.0)] * 3
    for k in range(int(rng.integers(1, 4))):
        i, j = rng.choice(size, size=2, replace=False)
        steps[k] = (i, j, float(rng.uniform(0.0, 1.0)))
    return mu, size, steps, EntropyParams(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 3.0)))


def _ordering_draw(rng, trial, seed):
    points = []
    for _ in range(suites.ALPHA_PAIRS):
        a_lo, a_hi = np.sort(rng.uniform(0.3, 3.5, size=2))
        beta = float(rng.uniform(1.0, 3.0))
        points += [EntropyParams(float(a_lo), beta), EntropyParams(float(a_hi), beta)]
    return ((2, 2, 2, 2), seed * 100_003 + trial), (1, 2, 3, 4), points


def _locc_draw(rng, trial, seed):
    # The a_i as drawn: `suite_locc`'s check norms them (see `test_unit_rows_match_linalg_norm_bit_for_bit`).
    site = int(rng.integers(1, 4))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
    return ((2, 2, 2), seed * 100_003 + trial), site, z, a, suites.sample_concavity_params(rng)


def _tensor_id_draw(rng, trial, seed):
    dims_a = (2, 2) if rng.integers(2) else (2,)
    dims_b = (2, 2) if rng.integers(2) else (3,)
    n = len(dims_a) + len(dims_b)
    labels = [int(x) for x in rng.permutation(n) + 1]
    s = tuple(sorted(labels[: int(rng.integers(1, n + 1))]))
    if trial % 4 == 0:
        params = EntropyParams.von_neumann()
    elif trial % 4 == 1:
        params = EntropyParams.renyi(float(rng.uniform(0.3, 3.0)))
    elif trial % 4 == 2:
        params = EntropyParams.linear()
    else:
        params = EntropyParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.2, 3.0)))
    return (dims_a, seed * 100_003 + 2 * trial), (dims_b, seed * 100_003 + 2 * trial + 1), s, params


def _bits(x):
    """Every int, and the hex of every float, that x holds, in order."""
    if isinstance(x, (int, np.integer)):
        return [int(x)]
    if isinstance(x, (float, np.floating)):
        return [float(x).hex()]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real).hex(), float(x.imag).hex()]
    if isinstance(x, EntropyParams):
        return _bits((x.alpha, x.beta))
    if isinstance(x, PureState):
        return _bits(x.amplitudes.ravel())
    return [b for item in x for b in _bits(item)]


def _suite_draws(monkeypatch, name, seed, trials):
    """The cases suite `name` draws through its own draw function, each beside itself with its Haar states
    built as its check builds them, batch by batch, then the generator state after them."""
    drawn = []

    def drawing(_name, seed, trials, draw, _check, points=1, **_kwargs):
        rng = np.random.default_rng(seed)
        for batch in suites._batches(trials, points):
            cases = [draw(rng, trial) for trial in batch]
            drawn.extend(zip(cases, suites._built(cases)))
        drawn.append(rng.bit_generator.state["state"])

    monkeypatch.setattr(suites, "_run", drawing)
    suites.run_suite(name, seed=seed, trials=trials)
    return drawn


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7919])
@pytest.mark.parametrize(
    "name,oracle,trials",
    [
        ("schur", _schur_draw, 1500),
        ("ordering", _ordering_draw, 12),
        ("subadd", _subadd_draw, 1500),
        ("tensor-id", _tensor_id_draw, 70),
        ("locc", _locc_draw, 100),
    ],
)
def test_suite_draws_match_numpy_draw_calls(monkeypatch, name, oracle, trials, seed):
    # Bit for bit, and the generator consumes the same raw outputs: if a numpy release changes a
    # draw method, this fails by name instead of the suites quietly drawing other cases. Each Haar
    # state the batch builds is `haar_random`'s, bit for bit.
    *cases, state = _suite_draws(monkeypatch, name, seed, trials)
    rng = np.random.default_rng(seed)
    for trial, (case, built) in enumerate(cases):
        assert _bits(case) == _bits(oracle(rng, trial, seed)), f"{name} trial {trial} seed {seed}"
        for drawn, psi in zip(case, built):
            if isinstance(drawn, suites._Haar):
                assert _bits(psi) == _bits(haar_random(drawn.dims, drawn.seed)), f"{name} trial {trial}"
    assert rng.bit_generator.state["state"] == state
