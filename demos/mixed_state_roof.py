"""Convex-roof upper bounds for mixed states.

The roof over pure-state decompositions is searched with seeded, restarted
conjugate gradient over decomposition mixers. Two checks anchor it: a
constructed separable state must collapse to zero once its product
decomposition seeds a restart, and on rank-2 two-qubit states the s = {1}
von Neumann roof must land on half the entanglement of formation (half,
because the power set of a singleton averages the one nonzero term with the
empty set).
"""
import math

import numpy as np

from cekit.convex_roof import Ensemble, cce_mixed_upper
from cekit.entropy import EntropyParams
from cekit.states import random_density, random_product
from cekit.suites import wootters_eof
from cekit.tensor import DensityOperator

vn = EntropyParams.von_neumann()

# Separable state: mix of three random product states.
rng = np.random.default_rng(0)
probs = rng.dirichlet(np.ones(3))
members = tuple((float(p), random_product((2, 2), seed=i)) for i, p in enumerate(probs))
ens = Ensemble(members)
rho = ens.density()
result = cce_mixed_upper(rho, (1, 2), vn, budget=(2, 400), seed=0, seed_ensembles=[ens])
print(f"separable mix: roof upper bound = {result.upper_bound:.2e} (target 0)")

# Werner-like state at p = 0.9 against the concurrence closed form.
psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
werner = DensityOperator(0.9 * np.outer(psi_minus, psi_minus) + 0.025 * np.eye(4), (2, 2))
result = cce_mixed_upper(werner, (1,), vn, budget=(6, 1000), seed=1)
print(
    f"werner p=0.9:  roof = {result.upper_bound:.6f}, "
    f"EOF/2 = {wootters_eof(werner) / 2:.6f}, "
    f"restarts = {result.restarts_used}"
)

# A few random rank-2 states.
for seed in range(3):
    rho = random_density((2, 2), rank=2, seed=seed)
    result = cce_mixed_upper(rho, (1,), vn, budget=(6, 1000), seed=seed)
    print(
        f"rank-2 #{seed}:    roof = {result.upper_bound:.6f}, "
        f"EOF/2 = {wootters_eof(rho) / 2:.6f}"
    )
