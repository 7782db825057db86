import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cekit.entropy import EntropyParams
from cekit.measures import cce_pure, named_measures, tensor_identity_residual
from cekit.states import (
    StateRecipe,
    dicke,
    ghz,
    ghz_w_closed_forms,
    haar_random,
    random_density,
    random_product,
    star,
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


def test_ghz_w_closed_forms_match_exact_at_n10():
    # Dual-path comparison at the exact-path ceiling.
    for size in range(1, 11):
        g_closed, w_closed = ghz_w_closed_forms(10, size)
        subset = tuple(range(1, size + 1))
        g_exact = named_measures(ghz(10), subset)._asdict()
        w_exact = named_measures(w(10), subset)._asdict()
        for key in ("e", "r2", "t3", "c"):
            assert g_closed[key] == pytest.approx(g_exact[key], abs=1e-9)
            assert w_closed[key] == pytest.approx(w_exact[key], abs=1e-9)
    with pytest.raises(ValueError):
        ghz_w_closed_forms(4, 5)


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


def test_recipe_json_roundtrip():
    recipe = StateRecipe.from_json({"family": "dicke", "n": 4, "k": 2})
    assert recipe == StateRecipe.parse("dicke:4:2")
    recipe = StateRecipe.from_json('{"family": "haar", "dims": [2, 2], "seed": 3}')
    assert recipe.dims == (2, 2)
    assert recipe.seed == 3


def test_recipe_rejects_garbage():
    for text in ["nope:3", "ghz", "dicke:4", "ghz:1", "dicke:4:9", "mixed-random:2x2"]:
        with pytest.raises(ValueError):
            StateRecipe.parse(text)
    with pytest.raises(ValueError):
        StateRecipe.from_json({"n": 3})


_DIMS = st.lists(st.integers(2, 5), min_size=1, max_size=4).map(tuple)
_SEEDS = st.integers(0, 2**32 - 1)
_RECIPES = st.one_of(
    st.builds(StateRecipe, st.sampled_from(["ghz", "w"]), n=st.integers(2, 30)),
    st.integers(0, 30).flatmap(lambda n: st.builds(StateRecipe, st.just("dicke"), n=st.just(n), k=st.integers(0, n))),
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
