import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cekit.states
from cekit.entropy import EntropyParams, unified_entropy_spectrum
from cekit.measures import BENCHMARKS, cce_pure, named_measures, symmetric_values, tensor_identity_residual
from cekit.states import (
    StateRecipe,
    dicke,
    ghz,
    _unit_rows,
    haar_random,
    haar_rows,
    random_density,
    random_product,
    star,
    symmetric_coefficients,
    w,
)
from cekit.tensor import DensityOperator, PureState, hermitian_eigenvalues, reduced_state


def test_ghz2_is_bell():
    assert np.allclose(ghz(2).amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_ghz3_amplitudes():
    amp = ghz(3).amplitudes
    assert amp[0] == pytest.approx(1 / math.sqrt(2))
    assert amp[7] == pytest.approx(1 / math.sqrt(2))
    assert np.allclose(amp[1:7], 0.0)


def test_ghz_single_site_reduction():
    rho = reduced_state(ghz(4), [2])
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_ghz_rejects_small_n():
    with pytest.raises(ValueError):
        ghz(1)


def test_w2_amplitudes():
    assert np.allclose(w(2).amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])


def test_w_subset_spectrum():
    lam = hermitian_eigenvalues(reduced_state(w(3), [1, 3]))
    nonzero = sorted(lam[lam > 1e-12])
    assert np.allclose(nonzero, [1 / 3, 2 / 3], atol=1e-12)


def test_w_linear_measure_closed_form():
    for n in range(3, 7):
        c = named_measures(w(n), range(1, n + 1)).c
        assert c == pytest.approx((n - 1) / (2 * n), abs=1e-12)


def test_dicke_edges_and_middle():
    assert np.allclose(dicke(4, 0).amplitudes, np.eye(16)[0])
    assert np.allclose(dicke(4, 4).amplitudes, np.eye(16)[15])
    amp = dicke(4, 2).amplitudes
    hot = np.flatnonzero(np.abs(amp) > 1e-12)
    assert len(hot) == 6
    assert np.allclose(amp[hot], 1 / math.sqrt(6))


def test_dicke_weight_one_is_w():
    for n in (3, 5):
        assert np.allclose(dicke(n, 1).amplitudes, w(n).amplitudes)


def test_dicke_rejects_bad_k():
    with pytest.raises(ValueError):
        dicke(4, 5)
    with pytest.raises(ValueError):
        dicke(4, -1)


def test_dicke_bitflip_symmetry_of_measures():
    s = (1, 2, 3, 4)
    for k in (0, 1, 2):
        a = named_measures(dicke(4, k), s)
        b = named_measures(dicke(4, 4 - k), s)
        assert np.allclose(a, b, atol=1e-10)


def test_star_theta_zero_is_product():
    psi = star(0.0)
    assert psi.dims == (8, 2, 2, 2)
    assert psi.amplitudes[0] == pytest.approx(1.0)
    for params in [EntropyParams.von_neumann(), EntropyParams.linear()]:
        assert cce_pure(psi, (1, 2, 3, 4), params).value == pytest.approx(0.0, abs=1e-12)


def test_star_quarter_pi_values():
    # Three maximally entangled pairs: each of the 16 cuts contributes one
    # bit per severed pair, 24 bits in total, so the average is 1.5.
    nm = named_measures(star(math.pi / 4), (1, 2, 3, 4))
    assert nm.e == pytest.approx(1.5, abs=1e-12)
    assert nm.r2 == pytest.approx(1.5, abs=1e-10)


def test_star_closed_forms_any_theta():
    # Every cut severs some number of pairs; with purity q per severed pair
    # the linear measure is 1 - (1 + q)^3 / 8.
    for theta in (0.3, 0.7, 1.1):
        nm = named_measures(star(theta), (1, 2, 3, 4))
        q = math.cos(theta) ** 4 + math.sin(theta) ** 4
        assert nm.c == pytest.approx(1 - (1 + q) ** 3 / 8, abs=1e-12)
        h = -(math.cos(theta) ** 2) * math.log2(math.cos(theta) ** 2) - (
            math.sin(theta) ** 2
        ) * math.log2(math.sin(theta) ** 2)
        assert nm.e == pytest.approx(1.5 * h, abs=1e-12)


def test_star_matches_pair_composition():
    pair_amp = np.array([math.cos(0.9), 0.0, 0.0, math.sin(0.9)])
    pair = PureState(pair_amp, (2, 2))
    for params in [EntropyParams.von_neumann(), EntropyParams(2.0, 1.0), EntropyParams(1.7, 0.6)]:
        residual = tensor_identity_residual(pair, pair, (1, 2, 3, 4), params)
        assert residual < 1e-10


def test_star_leaf_reductions_agree():
    # The three leaves are exchangeable by construction; verified, not assumed.
    psi = star(0.8)
    spectra = [hermitian_eigenvalues(reduced_state(psi, [site])) for site in (2, 3, 4)]
    assert np.allclose(spectra[0], spectra[1], atol=1e-12)
    assert np.allclose(spectra[0], spectra[2], atol=1e-12)


def test_star_periodicity_and_symmetry():
    s = (1, 2, 3, 4)
    for theta in (0.2, 0.6, 1.0):
        a = named_measures(star(theta), s)
        assert np.allclose(a, named_measures(star(theta + math.pi / 2), s), atol=1e-10)
        assert np.allclose(a, named_measures(star(math.pi / 2 - theta), s), atol=1e-10)


def test_haar_random_normalized_and_seeded():
    psi = haar_random((2, 2, 2), seed=5)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    again = haar_random((2, 2, 2), seed=5)
    assert np.array_equal(psi.amplitudes, again.amplitudes)
    other = haar_random((2, 2, 2), seed=6)
    assert not np.allclose(psi.amplitudes, other.amplitudes)


def _default_rng_row(dims, seed):
    # The oracle: one fresh generator per seed, two standard_normal(D) draws, over np.linalg.norm.
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


# One- to five-word seeds: 2**32 - 1 and 2**32 straddle the word edge, the bench's op seeds exceed 2**32,
# 2**64 takes three words and 2**130 + 3 five, past the four-word pool.
_ROW_SEEDS = [0, 1, 2**32 - 1, 2**32, 7919 * 1_000_003 * 100_003 + 17, 2**64 - 1, 2**64, 2**130 + 3]


@pytest.mark.parametrize("dims", [(2,), (2, 3), (2,) * 5, (2,) * 10])
@pytest.mark.parametrize("k", [1, 64, 3000])
def test_haar_rows_match_default_rng_bit_for_bit(dims, k):
    # 3000 rows make temporaries of 256 KiB and more, where numpy may evaluate a complex product in place.
    base = 7919 * 1_000_003 * 100_003
    stacks = [[seed] for seed in _ROW_SEEDS] if k == 1 else [_ROW_SEEDS + [base + t for t in range(k - 8)]]
    for seeds in stacks:
        seeds = seeds[len(seeds) // 2 :] + seeds[: len(seeds) // 2]  # the wide seeds mid-stack
        rows = haar_rows(dims, seeds)
        assert rows.shape == (k, math.prod(dims))
        for seed, row in zip(seeds, rows):
            assert row.tobytes() == _default_rng_row(dims, seed).tobytes(), seed
    assert haar_rows(dims, []).shape == (0, math.prod(dims))


def test_haar_rows_reject_seeds_as_default_rng_does():
    for bad, error in [(-1, ValueError), (1.5, TypeError)]:
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            haar_rows((2, 2), [3, bad])


@pytest.mark.parametrize("shape", [(1, 2), (300, 2, 2), (50, 3), (40, 16), (20, 1000), (4, 4096)])
def test_unit_rows_match_linalg_norm_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = [v / np.linalg.norm(v) for v in z.reshape(-1, shape[-1])]
    assert _unit_rows(z).reshape(-1, shape[-1]).tobytes() == np.array(want).tobytes()


def test_random_density_rank_bound():
    rho = random_density((2, 2), rank=2, seed=3)
    lam = hermitian_eigenvalues(rho)
    assert np.sum(lam > 1e-10) <= 2
    assert abs(lam.sum() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        random_density((2, 2), rank=5, seed=0)


def test_random_product_has_zero_measure():
    psi = random_product((2, 2, 3), seed=9)
    value = cce_pure(psi, (1, 2, 3), EntropyParams.von_neumann()).value
    assert abs(value) < 1e-12


def _ghz_w_closed_forms(n, size):
    """Benchmark measures of GHZ and W states on {1..size}, by name, from
    their cut spectra: (1/2, 1/2) on every nonempty proper GHZ cut, and
    (k/n, 1 - k/n) on a size-k W cut."""
    nonzero = (1 << size) - (1 if size < n else 2)
    ghz_vals, w_vals = {}, {}
    for key, params in BENCHMARKS.items():
        ghz_vals[key] = nonzero * unified_entropy_spectrum([0.5, 0.5], params) / (1 << size)
        w_vals[key] = math.fsum(
            math.comb(size, k) * unified_entropy_spectrum([k / n, (n - k) / n], params) for k in range(size + 1)
        ) / (1 << size)
    return ghz_vals, w_vals


def test_ghz_w_closed_forms_match_exact_at_n10():
    # The closed-form oracle against the statevectors, so it may stand in for them beyond n = 10.
    for size in range(1, 11):
        g_closed, w_closed = _ghz_w_closed_forms(10, size)
        subset = tuple(range(1, size + 1))
        g_exact = named_measures(ghz(10), subset)._asdict()
        w_exact = named_measures(w(10), subset)._asdict()
        for key in ("e", "r2", "t3", "c"):
            assert g_closed[key] == pytest.approx(g_exact[key], abs=1e-9)
            assert w_closed[key] == pytest.approx(w_exact[key], abs=1e-9)
    with pytest.raises(ValueError, match="subset size 5 out of range for n=4"):
        symmetric_values(symmetric_coefficients("ghz", 4), [5], list(BENCHMARKS.values()))


@pytest.mark.parametrize("coeffs", [[1.0, 1.0, 0.0], [math.nan, 1.0, 0.0], [0.0, 0.0, 0.0]])
def test_symmetric_values_rejects_coefficients_off_unit_norm(coeffs):
    # Coefficients that are not a state's: [1, 1, 0] would read -1.25 at the linear point.
    with pytest.raises(ValueError, match="^norm must be 1 within 1e-12, got norm"):
        symmetric_values(coeffs, [1], [EntropyParams.linear()])


def _symmetric_states(n):
    """(family, k, state) of GHZ, W and every Dicke state on n qubits."""
    yield "ghz", None, ghz(n)
    yield "w", None, w(n)
    for k in range(n + 1):
        yield "dicke", k, dicke(n, k)


@pytest.mark.parametrize("n", range(2, 11))
def test_symmetric_values_match_statevector(n):
    points, sizes = list(BENCHMARKS.values()), range(1, n + 1)
    for family, k, psi in _symmetric_states(n):
        got = symmetric_values(symmetric_coefficients(family, n, k), sizes, points)
        for size, row in zip(sizes, got):
            want = named_measures(psi, range(1, size + 1))
            assert row == pytest.approx(list(want), abs=1e-14, rel=0), (family, k, size)
    # Any point, and a subset of the sizes in any order.
    points = [EntropyParams(1.7, 0.4), EntropyParams(0.5, 0.0), EntropyParams(0.5, 1.0)]
    sizes = list(range(n, 0, -2))
    psi = dicke(n, n // 2)
    got = symmetric_values(symmetric_coefficients("dicke", n, n // 2), sizes, points)
    for size, row in zip(sizes, got):
        want = [cce_pure(psi, range(1, size + 1), p).value for p in points]
        assert row == pytest.approx(want, abs=1e-14, rel=0), size


def test_symmetric_values_match_closed_forms_beyond_statevectors():
    points = list(BENCHMARKS.values())
    for n in range(11, 31):
        sizes = range(1, n + 1)
        g, wv = (symmetric_values(symmetric_coefficients(family, n), sizes, points) for family in ("ghz", "w"))
        for size, g_row, w_row in zip(sizes, g, wv):
            g_want, w_want = _ghz_w_closed_forms(n, size)
            assert g_row == pytest.approx(list(g_want.values()), abs=1e-14, rel=0), (n, size)
            assert w_row == pytest.approx(list(w_want.values()), abs=1e-14, rel=0), (n, size)


def _reference_amplitudes(family, n, k=None):
    """Statevectors built one basis string at a time, as the families were first written."""
    amp = np.zeros(2**n, dtype=complex)
    if family == "ghz":
        amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    elif family == "w":
        for i in range(n):
            amp[1 << (n - 1 - i)] = 1.0 / math.sqrt(n)
    else:
        for ones in combinations(range(n), k):
            amp[sum(1 << (n - 1 - pos) for pos in ones)] = 1.0 / math.sqrt(math.comb(n, k))
    return amp


def test_symmetric_builders_match_reference_amplitudes():
    for n in range(2, 17):
        for family, k, psi in _symmetric_states(n):
            assert psi.amplitudes.tobytes() == _reference_amplitudes(family, n, k).tobytes(), (family, n, k)


def test_symmetric_coefficients_declare_each_family():
    half = 1.0 / math.sqrt(2.0)
    assert symmetric_coefficients("ghz", 3) == [half, 0.0, 0.0, half]
    assert symmetric_coefficients("w", 3) == [0.0, 1.0, 0.0, 0.0]
    assert symmetric_coefficients("dicke", 4, 2) == [0.0, 0.0, 1.0, 0.0, 0.0]
    for args, match in [
        (("star", 3), "not a symmetric family"),
        (("w", 1), "w needs n >= 2, got 1"),
        (("dicke", 4, 5), "need 0 <= k <= n"),
        (("dicke", 4), "need 0 <= k <= n"),
    ]:
        with pytest.raises(ValueError, match=match):
            symmetric_coefficients(*args)


@pytest.mark.parametrize(
    "text,family",
    [
        ("ghz:4", "ghz"),
        ("w:5", "w"),
        ("dicke:4:2", "dicke"),
        ("star:0.7853", "star"),
        ("haar:2x2x2:7", "haar"),
        ("product:2x3", "product"),
        ("mixed-random:2x2:2:11", "mixed-random"),
    ],
)
def test_recipe_parse_and_build(text, family):
    recipe = StateRecipe.parse(text)
    assert recipe.family == family
    built = recipe.build()
    if family == "mixed-random":
        assert isinstance(built, DensityOperator)
    else:
        assert isinstance(built, PureState)
    assert StateRecipe.parse(recipe.label()).build().dims == built.dims


def test_recipe_rejects_garbage():
    for text in ["nope:3", "ghz", "dicke:4", "ghz:1", "dicke:4:9", "mixed-random:2x2"]:
        with pytest.raises(ValueError):
            StateRecipe.parse(text)
    # A negative seed or a non-finite angle fails when parsed, naming the field, not later in numpy or as a NaN.
    for text, field in [("haar:2x2:-1", "seed"), ("product:2x3:-7", "seed"), ("mixed-random:2x2:2:-1", "seed"),
                        ("star:nan", "theta"), ("star:inf", "theta"), ("star:-inf", "theta")]:
        with pytest.raises(ValueError, match=field):
            StateRecipe.parse(text)
    # A missing field is named, and dicke needs n >= 2 at the recipe, as ghz and w do.
    for text, match in [("ghz", r"ghz is missing field\(s\) n"), ("dicke:4", r"dicke is missing field\(s\) k"),
                        ("haar", r"haar is missing field\(s\) dims"), ("product", "missing field.*dims"),
                        ("mixed-random:2x2", r"mixed-random is missing field\(s\) rank"),
                        ("dicke:0:0", "dicke needs n >= 2"), ("dicke:1:1", "dicke needs n >= 2")]:
        with pytest.raises(ValueError, match=match):
            StateRecipe.parse(text)
    # A field beyond the family's grammar, even an empty one, is rejected, not dropped.
    for text in ["ghz:3:7", "w:3:", "ghz:3:", "dicke:4:2:1", "star:0.5:1", "haar:2x2:3:junk", "product:2:0:1",
                 "mixed-random:2x2:2:0:0"]:
        with pytest.raises(ValueError, match="at most"):
            StateRecipe.parse(text)


def test_recipe_fields_are_the_familys():
    # The constructor takes a family's fields and no others, so `label` writes every field it was given.
    with pytest.raises(ValueError, match=r"ghz takes no field\(s\) dims"):
        StateRecipe("ghz", n=3, dims=(2, 2, 2))
    with pytest.raises(ValueError, match=r"star takes no field\(s\) k, seed"):
        StateRecipe("star", theta=0.5, k=1, seed=4)
    with pytest.raises(ValueError, match=r"mixed-random is missing field\(s\) dims, rank"):
        StateRecipe("mixed-random")


def test_recipe_build_looks_the_factory_up_when_called(monkeypatch):
    # A factory replaced on the module after import is the one `build` calls.
    monkeypatch.setattr(cekit.states, "haar_random", lambda dims, seed: ("haar_random", dims, seed))
    assert StateRecipe.parse("haar:2x3:5").build() == ("haar_random", (2, 3), 5)


_DIMS = st.lists(st.integers(2, 5), min_size=1, max_size=4).map(tuple)
_SEEDS = st.integers(0, 2**32 - 1)
_RECIPES = st.one_of(
    st.builds(StateRecipe, st.sampled_from(["ghz", "w"]), n=st.integers(2, 30)),
    st.integers(2, 30).flatmap(lambda n: st.builds(StateRecipe, st.just("dicke"), n=st.just(n), k=st.integers(0, n))),
    st.builds(StateRecipe, st.just("star"), theta=st.floats(-10.0, 10.0, allow_nan=False)),
    st.builds(StateRecipe, st.sampled_from(["haar", "product"]), dims=_DIMS, seed=_SEEDS),
    st.builds(StateRecipe, st.just("mixed-random"), dims=_DIMS, rank=st.integers(1, 6), seed=_SEEDS),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_RECIPES)
def test_recipe_label_parse_roundtrip(recipe):
    parsed = StateRecipe.parse(recipe.label())
    assert parsed.label() == recipe.label()
    if recipe.family == "star":
        # The label keeps six significant digits of the angle.
        assert parsed.theta == float(f"{recipe.theta:.6g}")
    else:
        assert parsed == recipe
