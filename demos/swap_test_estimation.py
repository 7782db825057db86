"""Estimating the measure from the parallelized SWAP test.

Two copies of the state run through per-qubit controlled swaps; the
probability that every control in s reads 0 fixes the linear-entropy
measure C(s) = 1 - sum_{z in Z0(s)} p(z). From a finite-shot estimate of
C we get certified bounds: E >= max(C/ln2, 2C - 1/2), R2 >= C/ln2, and
T3 <= C.
"""
from cekit.measures import named_measures
from cekit.states import ghz, w
from cekit.swaptest import (
    bounds_from_estimate,
    cce_from_distribution,
    estimate_from_shots,
    sample_shots,
    swap_test_distribution,
)

SHOTS = 100_000

for label, psi in [("ghz:4", ghz(4)), ("w:4", w(4))]:
    n = psi.n_subsystems
    s = tuple(range(1, n + 1))
    dist = swap_test_distribution(psi)
    exact = cce_from_distribution(dist, s)
    record = sample_shots(dist, shots=SHOTS, seed=7)
    estimate, sigma = estimate_from_shots(record, s)
    bounds = bounds_from_estimate(estimate)
    truth = named_measures(psi, s)
    print(f"{label}: exact C = {exact:.6f}, sampled C = {estimate:.6f} +- {sigma:.6f}")
    print(f"  E  >= {bounds.e_lower:.6f}   (true E  = {truth.e:.6f})")
    print(f"  R2 >= {bounds.r2_lower:.6f}   (true R2 = {truth.r2:.6f})")
    print(f"  T3 <= {bounds.t3_upper:.6f}   (true T3 = {truth.t3:.6f})")
    print()

# The marginal distribution itself, for the curious.
dist = swap_test_distribution(ghz(3))
print("ghz:3 control-register distribution:")
for z, p in sorted(dist.as_dict().items()):
    if p > 1e-12:
        print(f"  p({z}) = {p:.6f}")
