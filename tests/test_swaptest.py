import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cekit.errors import ResourceLimitError
from cekit.measures import named_measures
from cekit.states import dicke, ghz, haar_random, random_product, w
from cekit.swaptest import (
    ControlDistribution,
    ShotRecord,
    bounds_from_estimate,
    cce_from_distribution,
    estimate_from_shots,
    sample_shots,
    swap_test_distribution,
    swap_test_rows,
)
from cekit.tensor import PureState


def brute_force_distribution(psi: PureState) -> np.ndarray:
    """Matrix-level oracle: explicit gates on the full 3n-qubit space."""
    n = psi.n_subsystems
    total = 3 * n
    dim = 2**total
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

    def embed(gate_1q: np.ndarray, pos: int) -> np.ndarray:
        return np.kron(np.kron(np.eye(2**pos), gate_1q), np.eye(2 ** (total - pos - 1)))

    def cswap_matrix(control: int, a: int, b: int) -> np.ndarray:
        mat = np.zeros((dim, dim))
        for idx in range(dim):
            bits = [(idx >> (total - 1 - q)) & 1 for q in range(total)]
            if bits[control]:
                bits[a], bits[b] = bits[b], bits[a]
            new = sum(bit << (total - 1 - q) for q, bit in enumerate(bits))
            mat[new, idx] = 1.0
        return mat

    state = np.zeros(dim, dtype=complex)
    state[: 4**n] = np.kron(psi.amplitudes, psi.amplitudes)
    for c in range(n):
        state = embed(h, c) @ state
    for i in range(n):
        state = cswap_matrix(i, n + i, 2 * n + i) @ state
    for c in range(n):
        state = embed(h, c) @ state
    probs = np.abs(state.reshape(2**n, -1)) ** 2
    return probs.sum(axis=1)


def statevector_distribution(psi: PureState) -> np.ndarray:
    """Tensor-level oracle: the 3n-qubit circuit on a (2,)*3n statevector.

    Controls are qubits 1..n, the first copy sits on n+1..2n and the second
    on 2n+1..3n; control 1 is the most significant bit of z.
    """
    n = psi.n_subsystems
    assert n <= 4, "the oracle holds 2^(3n) amplitudes"
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

    def apply_single(t, gate, axis):
        return np.moveaxis(np.tensordot(gate, t, axes=([1], [axis])), 0, axis)

    def apply_cswap(t, control, a, b):
        idx = [slice(None)] * t.ndim
        idx[control] = 1
        out = t.copy()
        out[tuple(idx)] = np.swapaxes(t[tuple(idx)], a - (a > control), b - (b > control))
        return out

    state = np.zeros(8**n, dtype=complex)
    state[: 4**n] = np.kron(psi.amplitudes, psi.amplitudes)
    t = state.reshape([2] * (3 * n))
    for c in range(n):
        t = apply_single(t, h, c)
    for i in range(n):
        t = apply_cswap(t, i, n + i, 2 * n + i)
    for c in range(n):
        t = apply_single(t, h, c)
    return (np.abs(t.reshape(2**n, -1)) ** 2).sum(axis=1)


ORACLE_STATES = [haar_random((2,) * n, seed=seed) for n in (2, 3, 4) for seed in range(3)] + [
    ghz(4), w(4), dicke(4, 2)
]


@pytest.mark.parametrize("psi", ORACLE_STATES)
def test_purity_transform_matches_statevector_oracle(psi):
    got = swap_test_distribution(psi).probs
    assert np.abs(got - statevector_distribution(psi)).max() <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2**32 - 1), st.sets(st.integers(1, n), min_size=1)
)))
def test_distribution_identity_property(case):
    n, seed, subset = case
    psi = haar_random((2,) * n, seed=seed)
    got = cce_from_distribution(swap_test_distribution(psi), subset)
    assert abs(got - named_measures(psi, subset).c) <= 1e-12


@pytest.mark.parametrize("n", [6, 8])
def test_beyond_five_qubits_matches_direct(n):
    psi = haar_random((2,) * n, seed=n)
    dist = swap_test_distribution(psi)
    for subset in (range(1, n + 1), (1, 3, n)):
        assert cce_from_distribution(dist, subset) == pytest.approx(named_measures(psi, subset).c, abs=1e-12)


def test_product_state_reads_all_zeros():
    psi = random_product((2, 2, 2), seed=0)
    dist = swap_test_distribution(psi)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert cce_from_distribution(dist, (1, 2, 3)) == pytest.approx(0.0, abs=1e-12)


def test_bell_pair_distribution(bell):
    dist = swap_test_distribution(bell)
    zero_sum = sum(dist.probs[z] for z in range(4))
    assert zero_sum == pytest.approx(1.0, abs=1e-12)
    # Z0({1,2}) is the all-zeros string alone; its mass is (1/4)(1+1/2+1/2+1).
    assert dist.probs[0] == pytest.approx(0.75, abs=1e-12)
    assert cce_from_distribution(dist, (1, 2)) == pytest.approx(0.25, abs=1e-12)


def test_bell_pair_matches_brute_force_oracle(bell):
    got = swap_test_distribution(bell).probs
    want = brute_force_distribution(bell)
    assert np.allclose(got, want, atol=1e-12)


def test_haar_state_matches_brute_force_oracle():
    psi = haar_random((2, 2), seed=12)
    assert np.allclose(swap_test_distribution(psi).probs, brute_force_distribution(psi), atol=1e-12)


def test_ghz3_value():
    dist = swap_test_distribution(ghz(3))
    assert cce_from_distribution(dist, (1, 2, 3)) == pytest.approx(0.375, abs=1e-10)


def test_w4_value():
    dist = swap_test_distribution(w(4))
    assert cce_from_distribution(dist, (1, 2, 3, 4)) == pytest.approx(3 / 8, abs=1e-10)


@pytest.mark.parametrize("k", range(5))
def test_dicke_values_match_direct(k):
    psi = dicke(4, k)
    got = cce_from_distribution(swap_test_distribution(psi), (1, 2, 3, 4))
    assert got == pytest.approx(named_measures(psi, (1, 2, 3, 4)).c, abs=1e-10)


def test_identity_on_haar_states_and_subsets():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = 2 + trial % 4
        psi = haar_random((2,) * n, seed=trial)
        dist = swap_test_distribution(psi)
        size = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
        got = cce_from_distribution(dist, subset)
        want = named_measures(psi, subset).c
        assert got == pytest.approx(want, abs=1e-10)


def test_distribution_permutation_covariance(relabel):
    psi = haar_random((2, 2, 2), seed=21)
    base = swap_test_distribution(psi).probs
    order = (2, 3, 1)
    permuted = swap_test_distribution(relabel(psi, order)).probs
    n = 3
    for z in range(2**n):
        bits = [(z >> (n - 1 - i)) & 1 for i in range(n)]
        new_bits = [bits[order[i] - 1] for i in range(n)]
        z_new = sum(bit << (n - 1 - i) for i, bit in enumerate(new_bits))
        assert permuted[z_new] == pytest.approx(base[z], abs=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_distribution_is_the_one_row_case_of_the_stacked_kernel(n):
    # A state's distribution has the bits of its row in a stack of GHZ, W, a product and Haar states.
    states = [random_product((2,) * n, seed=n)] + [haar_random((2,) * n, seed=100 * n + i) for i in range(5)]
    states += [ghz(n), w(n)] if n >= 2 else []
    rows = swap_test_rows(np.stack([psi.amplitudes for psi in states]), (2,) * n)
    for psi, row in zip(states, rows):
        assert swap_test_distribution(psi).probs.tobytes() == row.tobytes()


def test_swap_test_rejects_qudits_and_large_n():
    with pytest.raises(ValueError):
        swap_test_distribution(haar_random((2, 3), seed=0))
    with pytest.raises(ResourceLimitError):
        swap_test_distribution(ghz(21))


def test_control_distribution_rejects_nan():
    for probs in ([np.nan, 0.5, 0.5, 0.0], [0.25, 0.25, 0.5, np.nan]):
        with pytest.raises(ValueError):
            ControlDistribution(probs, 2)


def test_sample_shots_deterministic_distribution():
    psi = random_product((2, 2), seed=5)
    record = sample_shots(swap_test_distribution(psi), shots=1000, seed=0)
    assert record.counts == {"00": 1000}


def test_sample_shots_seed_reproducibility():
    dist = swap_test_distribution(ghz(3))
    a = sample_shots(dist, shots=4096, seed=11)
    b = sample_shots(dist, shots=4096, seed=11)
    c = sample_shots(dist, shots=4096, seed=12)
    assert a.counts == b.counts
    assert a.counts != c.counts
    with pytest.raises(ValueError):
        sample_shots(dist, shots=0, seed=1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_shots(dist, shots=10, seed=-1)


def test_sample_shots_ignore_rounding_residues():
    # W-5 has impossible outcomes; its transform leaves 2.8e-17 on 01111 and
    # exact zeros elsewhere. Residues that small must not change any draw.
    dist = swap_test_distribution(w(5))
    assert 0 < dist.probs[0b01111] < 1e-16
    clean = dist.probs.copy()
    clean[0b01111] = 0.0
    nudged = clean.copy()
    nudged[[0b00001, 0b00111, 0b01011]] = 1e-17
    for seed in range(5):
        want = sample_shots(ControlDistribution(clean, 5), shots=10_000, seed=seed).counts
        assert sample_shots(dist, shots=10_000, seed=seed).counts == want
        assert sample_shots(ControlDistribution(nudged, 5), shots=10_000, seed=seed).counts == want


def test_shot_estimator_within_4_sigma():
    psi = ghz(3)
    dist = swap_test_distribution(psi)
    exact = cce_from_distribution(dist, (1, 2, 3))
    sigma = math.sqrt(exact * (1 - exact) / 100_000)
    misses = 0
    for seed in range(50):
        record = sample_shots(dist, shots=100_000, seed=seed)
        estimate, _ = estimate_from_shots(record, (1, 2, 3))
        if abs(estimate - exact) > 4 * sigma:
            misses += 1
    assert misses <= 1


@pytest.mark.parametrize(
    "counts,shots,message",
    [
        ({}, 0, "shots must be >= 1, got 0"),
        ({"01": 1, "1": 1}, 2, "0/1 bitstrings of one length, got '1' beside '01'"),
        ({"02": 1}, 1, "got '02'"),
        ({"": 1}, 1, "got ''"),
        ({3: 1}, 1, "got 3"),
        ({"00": 3, "10": -2}, 1, "count of '10' must be an int >= 0, got -2"),
        ({"00": 0.5, "10": 0.5}, 1, "count of '00' must be an int >= 0, got 0.5"),
        ({"0": 1}, 1.0, "shots must be an int, got 1.0"),
    ],
)
def test_shot_record_rejects_malformed_records(counts, shots, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ShotRecord(counts, shots, 0)


def test_shot_estimator_reads_the_register_from_the_record():
    # C({1}) of W-3 is 2/9; qubit 1 is the leading bit of a 3-bit string.
    record = sample_shots(swap_test_distribution(w(3)), shots=1000, seed=3)
    estimate, sigma = estimate_from_shots(record, (1,))
    assert abs(estimate - 2 / 9) <= 4 * sigma


def test_bounds_from_estimate_zero():
    triple = bounds_from_estimate(0.0)
    assert (triple.e_lower, triple.r2_lower, triple.t3_upper) == (0.0, 0.0, 0.0)


def test_bounds_from_estimate_ghz3():
    triple = bounds_from_estimate(0.375)
    assert triple.e_lower == pytest.approx(0.375 / math.log(2.0), abs=1e-12)
    assert triple.e_lower == pytest.approx(0.5410, abs=1e-4)
    e_true = named_measures(ghz(3), (1, 2, 3)).e
    assert e_true >= triple.e_lower


def test_bounds_from_estimate_validation():
    with pytest.raises(ValueError):
        bounds_from_estimate(-0.1)
    with pytest.raises(ValueError):
        bounds_from_estimate(1.1)


def test_bound_soundness_on_haar_states():
    for trial in range(1000):
        n = 2 + trial % 2
        psi = haar_random((2,) * n, seed=500 + trial)
        nm = named_measures(psi, range(1, n + 1))
        triple = bounds_from_estimate(nm.c)
        assert nm.e >= triple.e_lower - 1e-10
        assert nm.r2 >= triple.r2_lower - 1e-10
        assert nm.t3 <= triple.t3_upper + 1e-10


def test_serialization():
    dist = swap_test_distribution(ghz(2))
    data = json.loads(json.dumps(dist.to_dict()))
    assert data["n"] == 2
    assert data["probs"]["00"] == pytest.approx(0.75, abs=1e-12)
    record = sample_shots(dist, shots=100, seed=3)
    blob = json.loads(json.dumps(record.to_dict()))
    assert blob["shots"] == 100
    assert sum(blob["counts"].values()) == 100
