"""Four-qubit Dicke states under the four benchmark measures.

The k-excitation Dicke state is permutation symmetric, so the whole
power-set average collapses to two distinct reductions: one qubit and one
pair. The table shows the k <-> 4-k mirror symmetry and the maximum at
k = 2, where both reductions are the most mixed.
"""
from cekit.entropy import EntropyParams
from cekit.measures import cce_pure, named_measures, symmetric_values
from cekit.states import dicke, symmetric_coefficients
from cekit.tensor import reduced_state, hermitian_eigenvalues

print(f"{'k':>3} {'E':>9} {'R2':>9} {'T3':>9} {'C':>9}")
for k in range(5):
    nm = named_measures(dicke(4, k), (1, 2, 3, 4))
    print(f"{k:>3} {nm.e:>9.5f} {nm.r2:>9.5f} {nm.t3:>9.5f} {nm.c:>9.5f}")

print()
print("Spectra behind the k = 2 row:")
psi = dicke(4, 2)
single = hermitian_eigenvalues(reduced_state(psi, [1]))
pair = hermitian_eigenvalues(reduced_state(psi, [1, 2]))
print(f"  single qubit: {single.round(6)}")
print(f"  qubit pair:   {pair.round(6)}")

# The permutation symmetry means the average is (4 S_single + 3 S_pair) / 8:
# `symmetric_values` takes it from the five Dicke coefficients, no statevector.
vn = EntropyParams.von_neumann()
symmetric = symmetric_values(symmetric_coefficients("dicke", 4, 2), [4], [vn])[0][0]
full = cce_pure(psi, (1, 2, 3, 4), vn).value
print(f"  (4 S_A + 3 S_AB)/8 = {symmetric:.10f} (Dicke coefficients) vs power-set average {full:.10f}")
