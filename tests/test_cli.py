import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cekit
from cekit.cli import main
from cekit.measures import NamedMeasures, named_measures
from cekit.states import StateRecipe, dicke


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_module_entry_point_runs_the_cli(capsys):
    # `python -m cekit` is the console script: same output, same exit codes.
    src = os.path.dirname(os.path.dirname(cekit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["compute", "--state", "ghz:3", "--named"]
    done = subprocess.run([sys.executable, "-m", "cekit", *argv], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == run_cli(capsys, *argv)[:2]
    bad = subprocess.run([sys.executable, "-m", "cekit", "verify", "ordering", "--trials", "0"], env=env,
                         capture_output=True, text=True)
    assert bad.returncode == 2


def test_compute_ghz3_named(capsys):
    code, out, _ = run_cli(capsys, "compute", "--state", "ghz:3", "--s", "1,2,3", "--named")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["value"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["e"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["r2"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["t3"]) == pytest.approx(0.28125, abs=1e-12)
    assert float(row["c"]) == pytest.approx(0.375, abs=1e-12)


def test_compute_product_state_zero(capsys):
    code, out, _ = run_cli(capsys, "compute", "--state", "product:2x2x2:5")
    assert code == 0
    assert float(parse_csv(out)[0]["value"]) == pytest.approx(0.0, abs=1e-12)


def test_compute_dicke42_matches_library(capsys):
    code, out, _ = run_cli(capsys, "compute", "--state", "dicke:4:2", "--named")
    assert code == 0
    row = parse_csv(out)[0]
    nm = named_measures(dicke(4, 2), (1, 2, 3, 4))
    assert float(row["e"]) == pytest.approx(nm.e, abs=1e-12)
    assert float(row["c"]) == pytest.approx(nm.c, abs=1e-12)


def test_compute_alpha_grid(capsys):
    code, out, _ = run_cli(capsys, "compute", "--state", "ghz:3", "--alpha", "1:3:3", "--beta", "1")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["alpha"]) for r in rows] == [1.0, 2.0, 3.0]
    values = [float(r["value"]) for r in rows]
    assert values[0] >= values[1] >= values[2]


def test_ghz_w_sweep_separation(capsys):
    code, out, _ = run_cli(capsys, "ghz-w-sweep", "--nmin", "2", "--nmax", "5")
    assert code == 0
    rows = parse_csv(out)
    for row in rows:
        if int(row["n"]) >= 3:
            assert float(row["delta"]) > 0.0
        else:
            assert abs(float(row["delta"])) < 1e-10
    assert {row["measure"] for row in rows} == {"e", "r2", "t3", "c"}


def test_ghz_w_sweep_closed_form_path(capsys):
    code, out, _ = run_cli(capsys, "ghz-w-sweep", "--nmin", "12", "--nmax", "12", "--sizes", "1,6,12")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    for row in rows:
        assert float(row["delta"]) > 0.0
    full = [r for r in rows if r["size"] == "12" and r["measure"] == "e"][0]
    assert float(full["ghz"]) == pytest.approx(1 - 2**-11, abs=1e-12)


def test_star_sweep_structure(capsys):
    code, out, _ = run_cli(capsys, "star-sweep", "--grid", f"0:{math.pi/2}:21")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 21
    assert float(rows[0]["e"]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[-1]["e"]) == pytest.approx(0.0, abs=1e-10)
    mid = rows[10]
    assert float(mid["e"]) == pytest.approx(1.5, abs=1e-10)
    for row in rows:
        assert float(row["e"]) >= float(row["r2"]) - 1e-10
        assert float(row["r2"]) >= float(row["c"]) - 1e-10
        assert float(row["c"]) >= float(row["t3"]) - 1e-10


@pytest.mark.parametrize(
    "values,relation",
    [(NamedMeasures(e=0.5, r2=0.6, t3=0.1, c=0.2), "renyi_alpha_monotone"),
     (NamedMeasures(e=0.9, r2=0.8, t3=0.3, c=0.2), "c_ge_t3")],
)
def test_star_sweep_names_the_violated_relation(capsys, monkeypatch, values, relation):
    # The sweep checks the chain `ordering_reports` checks, and a failure names the relation it breaks.
    monkeypatch.setattr(cekit.cli, "named_measures", lambda psi, subset: values)
    code, _, err = run_cli(capsys, "star-sweep", "--grid", "0.5")
    assert (code, err) == (3, f"ordering chain: {relation} violated at theta=0.5\n")


def test_dicke_table_symmetry(capsys):
    code, out, _ = run_cli(capsys, "dicke-table")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    for measure in ("e", "r2", "t3", "c"):
        vals = [float(r[measure]) for r in rows]
        assert vals[0] == pytest.approx(vals[4], abs=1e-10)
        assert vals[1] == pytest.approx(vals[3], abs=1e-10)
        assert max(vals) == pytest.approx(vals[2], abs=1e-12)


def test_verify_quick_suites(capsys):
    assert run_cli(capsys, "verify", "schur", "--trials", "50")[0] == 0
    assert run_cli(capsys, "verify", "ordering", "--trials", "5")[0] == 0
    assert run_cli(capsys, "verify", "swap-consistency", "--trials", "2")[0] == 0
    assert run_cli(capsys, "verify", "tensor-id", "--trials", "5")[0] == 0


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["schur", "swap-consistency"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_trials_below_one(capsys, name, trials):
    # `swap-consistency` also runs fixed cases, which a negative count must not trim.
    code, out, err = run_cli(capsys, "verify", name, "--trials", trials)
    assert code == 2
    assert out == ""
    assert f"trials must be >= 1, got {trials}" in err


def test_verify_failing_suite_exits_3(capsys, monkeypatch):
    import cekit.suites as suites
    from cekit.suites import SuiteResult

    def broken(seed=0, trials=1):
        return SuiteResult("schur", trials, ["trial 0 seed 0: synthetic failure"])

    monkeypatch.setitem(suites.SUITES, "schur", broken)
    code, out, _ = run_cli(capsys, "verify", "schur", "--trials", "1")
    assert code == 3
    assert "FAIL" in out


def test_swaptest_command(capsys):
    code, out, _ = run_cli(
        capsys, "swaptest", "--state", "ghz:3", "--shots", "20000", "--seed", "7"
    )
    assert code == 0
    assert "exact C = 0.375" in out
    assert "estimate C" in out
    assert "E lower bound" in out


def test_swaptest_resource_guard(capsys):
    code, _, err = run_cli(capsys, "swaptest", "--state", "ghz:21")
    assert code == 4
    assert "resource guard" in err


def test_swaptest_rejects_non_qubit(capsys):
    code, _, err = run_cli(capsys, "swaptest", "--state", "star:0.5")
    assert code == 2
    assert "qubit" in err


@pytest.mark.parametrize("command", ["compute", "swaptest"])
def test_mixed_recipe_rejected_before_it_is_built(capsys, monkeypatch, command):
    # Building a 14-qubit mixed state would take O(d^3) time and O(d^2) memory.
    def build(self):
        raise AssertionError("recipe built")

    monkeypatch.setattr(StateRecipe, "build", build)
    code, out, err = run_cli(capsys, command, "--state", "mixed-random:" + "x".join(["2"] * 14) + ":3")
    assert code == 2
    assert out == ""
    assert "pure-state recipe" in err


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["compute", "--state", "ghz:25"], 4, "power set of 25 labels exceeds the enumeration guard of 20"),
        (["compute", "--state", "haar:" + "x".join(["2"] * 21)], 4, "power set of 21 labels"),
        (["swaptest", "--state", "ghz:21"], 4, "SWAP test of 21 qubits exceeds the n <= 16 guard"),
        (["swaptest", "--state", "ghz:17"], 4, "SWAP test of 17 qubits exceeds the n <= 16 guard"),
        (["compute", "--state", "ghz:21", "--s", "1,22"], 2, "subsystem labels must lie in 1..21"),
        (["compute", "--state", "haar:1x" + "x".join(["2"] * 20)], 2, "every local dimension must be >= 2"),
        (["swaptest", "--state", "haar:3x" + "x".join(["2"] * 20)], 2, "defined for qubit registers"),
        (["swaptest", "--state", "ghz:3", "--s", "4"], 2, "subsystem labels must lie in 1..3"),
    ],
    ids=["compute-ghz25", "compute-haar21", "swaptest-ghz21", "swaptest-ghz17", "bad-label", "bad-dim",
         "swaptest-qutrit", "swaptest-bad-label"],
)
def test_recipe_checked_before_it_is_built(capsys, monkeypatch, argv, code, message):
    # The statevector alone takes 2^n amplitudes, so the labels, the local dimensions and the
    # size guards are read from the recipe; each keeps the exit code it had after building.
    def build(self):
        raise AssertionError("recipe built")

    monkeypatch.setattr(StateRecipe, "build", build)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--state", "ghz:10000000"],
        ["compute", "--state", "w:63", "--s", "1"],
        ["swaptest", "--state", "dicke:100000000:3"],
    ],
)
def test_symmetric_recipe_guarded_by_n_alone(capsys, monkeypatch, argv):
    # A ghz, w or dicke recipe whose 2^n amplitudes pass an array's index range exits 4 on n
    # alone: neither its local dimensions nor its default labels, each of length n, are built.
    monkeypatch.setattr(StateRecipe, "local_dims", property(lambda self: pytest.fail("local dims built")))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("resource guard: state of 2^") and err.endswith(" amplitudes exceeds an array's index range\n")


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["--state", "haar:20000x20000"], 4, "state of dimension 400000000 exceeds the guard of 1048576"),
        (["--state", "haar:1025x1024"], 4, "state of dimension 1049600 exceeds the guard of 1048576"),
        (["--state", "haar:1024x1024"], 2, "built"),  # 2^20 amplitudes, as many as 20 qubits: admitted
        (["--state", "ghz:20", "--s", "1"], 2, "built"),
        (["--state", "ghz:21", "--s", "1"], 4, "state of dimension 2097152 exceeds the guard of 1048576"),
        # Past 2^64 the dimension reads as a power of 2: 2^15000 has more decimal digits than Python prints.
        (["--state", "haar:" + "x".join(["2"] * 15_000), "--s", "1"], 4,
         "state of dimension at least 2^15000 exceeds the guard of 1048576"),
        (["--state", "haar:" + "x".join(["2"] * 3_000), "--s", "1"], 4,
         "state of dimension at least 2^3000 exceeds the guard of 1048576"),
    ],
)
def test_compute_state_size_guard(capsys, monkeypatch, argv, code, message):
    # The total dimension is guarded before the state is built, not only the label count.
    def build(self):
        raise ValueError("built")

    monkeypatch.setattr(StateRecipe, "build", build)
    assert run_cli(capsys, "compute", *argv) == (code, "", f"{'resource guard' if code == 4 else 'error'}: {message}\n")


@pytest.mark.parametrize(
    "alpha,beta,what",
    [
        ("0.5", "1e308", "overflows"),
        ("0.5", "3000", "overflows"),
        ("2000", "0", "underflows to 0"),
        ("2000", "0.001", "underflows to 0"),
    ],
)
def test_compute_power_outside_double_range_exits_2(capsys, alpha, beta, what):
    # A GHZ cut has Tr rho^alpha = 2^(1 - alpha): sqrt(2)^3000 overflows, and 2^-1999 underflows
    # to 0, which at beta = 0.001 would read as (0 - 1)/((1 - alpha) beta), not the true 0.2813.
    code, out, err = run_cli(capsys, "compute", "--state", "ghz:3", "--alpha", alpha, "--beta", beta)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: entropy at alpha={float(alpha)}, beta={float(beta)} ")
    assert what in err


def test_sweeps_build_no_statevector(capsys, monkeypatch):
    # Both sweeps read GHZ, W and Dicke states from their n + 1 Dicke coefficients, at every n.
    def built(self):
        raise AssertionError("statevector built")

    monkeypatch.setattr(cekit.tensor.PureState, "__post_init__", built)
    assert run_cli(capsys, "ghz-w-sweep", "--nmin", "2", "--nmax", "30")[0] == 0
    assert run_cli(capsys, "dicke-table")[0] == 0


def test_compute_note_counts_eigensolves(capsys, monkeypatch):
    # Over 12 labels a note gives the eigensolves per state: 13 qubits have
    # 4095 planned cuts, and the 13 one-qubit cuts take the closed form.
    def tabulate(psi, subset):
        raise ValueError("tabulated")

    monkeypatch.setattr(cekit.cli, "spectra_table", tabulate)
    code, _, err = run_cli(capsys, "compute", "--state", "haar:" + "x".join(["2"] * 13))
    assert code == 2
    assert err == "note: subset of 13 labels means 4082 reduced-state eigensolves per state\nerror: tabulated\n"


def test_module_all_names_exist():
    # A stale name in `__all__` fails `from cekit.<module> import *`, and tools
    # that read `__all__` through getattr(..., None) would skip it silently.
    for info in pkgutil.iter_modules(cekit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"cekit.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"cekit.{info.name}"


def test_readme_removed_forms_are_gone():
    # The README's table of removed forms: each bare `module.name`,
    # `cekit.name` or `Class.attr` in its first column must not resolve, so a
    # deleted form cannot come back unnoticed and a row cannot name something
    # that exists. A form with `...` or a keyword names a removed signature.
    names = [info.name for info in pkgutil.iter_modules(cekit.__path__) if info.name != "__main__"]
    modules = {name: importlib.import_module(f"cekit.{name}") for name in names}

    def owner(head):  # `cekit`, a cekit module, or a class of one
        if head == "cekit" or head in modules:
            return cekit if head == "cekit" else modules[head]
        found = [getattr(m, head) for m in modules.values() if hasattr(m, head)]
        assert found, f"{head} names no cekit module or attribute"
        return found[0]

    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[lines.index("| removed | use instead |") + 2 :])
    checked = []
    for row in rows:
        for form in re.findall(r"`([^`]*)`", row.split(" | ")[0]):
            head, *attrs = form.split("(")[0].split(".")
            if "..." in form or "=" in form or not attrs:
                continue
            obj = owner(head)
            for attr in attrs[:-1]:
                obj = getattr(obj, attr)
            assert not hasattr(obj, attrs[-1]), f"{form} is in the removed-forms table but still exists"
            checked.append(form.split("(")[0])
    assert {"cekit.ordering_report", "entropy.max_entropy_value", "DensityOperator.dim"} <= set(checked)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["compute", "--state", "ghz:3:7"], "ghz takes at most 1 field(s)"),
        (["compute", "--state", "ghz:3:"], "ghz takes at most 1 field(s)"),
        (["compute", "--state", "star:0.5:1"], "star takes at most 1 field(s)"),
        (["compute", "--state", "haar:2x2:3:junk"], "haar takes at most 2 field(s)"),
        (["swaptest", "--state", "ghz:3:7"], "ghz takes at most 1 field(s)"),
        (["compute", "--state", "ghz:3", "--s", ""], "invalid literal"),
        (["swaptest", "--state", "ghz:3", "--s", ""], "invalid literal"),
        (["compute", "--state", "ghz:3", "--s", "1,,2"], "--s takes comma-separated integers, got '1,,2'"),
        (["swaptest", "--state", "ghz:3", "--s", "1,a"], "--s takes comma-separated integers"),
        (["ghz-w-sweep", "--sizes", "1,x"], "--sizes takes comma-separated integers"),
        (["compute", "--state", "ghz:3", "--alpha", "2:1:x"], "--alpha takes a finite number or start:stop:steps"),
        (["compute", "--state", "ghz:3", "--alpha", "1:inf:3"], "--alpha takes a finite number"),
        (["compute", "--state", "ghz:3", "--beta", "1:2"], "--beta takes a finite number or start:stop:steps"),
        (["star-sweep", "--grid", "nan"], "--grid takes a finite number"),
        (["star-sweep", "--grid", "0:nan:3"], "--grid takes a finite number"),
        (["compute", "--state", "haar:2x2:-1"], "seed must be >= 0, got -1"),
        (["compute", "--state", "mixed-random:2x2:2:-3"], "seed must be >= 0, got -3"),
        (["compute", "--state", "star:nan"], "star needs a finite angle theta"),
        (["verify", "ordering", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["verify", "swap-consistency", "--seed", "-3"], "--seed must be >= 0, got -3"),
        (["swaptest", "--state", "ghz:3", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["compute", "--state", "dicke:4"], "cannot parse state recipe 'dicke:4': dicke is missing field(s) k"),
        (["swaptest", "--state", "haar"], "haar is missing field(s) dims"),
        (["compute", "--state", "dicke:0:0"], "dicke needs n >= 2"),
    ],
)
def test_input_is_rejected_not_reinterpreted(capsys, argv, message):
    # A recipe field beyond the family's grammar, or an empty --s, is an error: neither is
    # dropped to run the command on another state or on all subsystems. A malformed option
    # value names the option and the form it takes, and a negative seed or a non-finite angle
    # fails when it is parsed, not later in numpy or as a NaN.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_compute_rejects_bad_recipe(capsys):
    code, _, err = run_cli(capsys, "compute", "--state", "nope:3")
    assert code == 2


def test_compute_enumeration_guard_exits_4(capsys):
    code, _, err = run_cli(capsys, "compute", "--state", "product:" + "x".join(["2"] * 21))
    assert code == 4


def test_compute_rejects_non_finite_beta(capsys):
    code, out, err = run_cli(capsys, "compute", "--state", "ghz:3", "--alpha", "1.5", "--beta", "nan")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_compute_grid_steps_guard_exits_4(capsys):
    code, out, err = run_cli(capsys, "compute", "--state", "ghz:3", "--alpha", "0:1:100000000")
    assert code == 4
    assert out == ""
    assert "resource guard" in err


def test_compute_grid_points_guard_exits_4(capsys, monkeypatch):
    # Each axis passes the per-axis guard; their product does not, and the
    # guard fires before any state is tabulated. Axes are parsed once.
    import cekit.cli

    parsed = []
    parse = cekit.cli._parse_grid
    monkeypatch.setattr(cekit.cli, "_parse_grid", lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(cekit.cli, "spectra_table", lambda *a, **k: pytest.fail("row work before the guard"))
    code, out, err = run_cli(
        capsys, "compute", "--state", "ghz:3", "--state", "w:3", "--alpha", "0:1:10000", "--beta", "0:1:10000"
    )
    assert code == 4
    assert out == ""
    assert "resource guard" in err
    assert parsed == ["0:1:10000", "0:1:10000"]


def test_csv_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(
            ["star-sweep", "--grid", "0:1.5:11", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_json_roundtrip_precision(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["compute", "--state", "haar:2x2x2:3", "--named", "--format", "json", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["columns"][0] == "state"
    row = data["rows"][0]
    from cekit.states import haar_random

    nm = named_measures(haar_random((2, 2, 2), seed=3), (1, 2, 3))
    assert row["e"] == nm.e  # exact float round trip
    assert row["c"] == nm.c


def test_csv_fifteen_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "compute", "--state", "haar:2x2:9")
    assert code == 0
    value = parse_csv(out)[0]["value"]
    mantissa = value.replace(".", "").replace("-", "").lstrip("0")
    assert len(mantissa) >= 14


def test_compute_grid_eigensolves_each_cut_once(capsys, monkeypatch):
    # Six qubits: 31 nontrivial canonical cuts (6 of dimension 2, 15 of 4,
    # 10 of 8), shared by all nine grid points and the four named measures.
    # The qubit cuts take closed-form spectra; the others are stacked into
    # one eigensolve per cut dimension.
    stacks = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        stacks.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    code, out, _ = run_cli(
        capsys, "compute", "--state", "haar:2x2x2x2x2x2:1", "--named",
        "--alpha", "0.5:3:3", "--beta", "0:2:3",
    )
    assert code == 0
    assert len(parse_csv(out)) == 9
    assert [a.shape for a in stacks] == [(1, 15, 4, 4), (1, 10, 8, 8)]
    # Match every stacked matrix to the cut {chi, complement} with its
    # Schmidt spectrum: each of the 25 cuts must be matched exactly once.
    t = StateRecipe.parse("haar:2x2x2x2x2x2:1").build().amplitudes.reshape((2,) * 6)
    cuts = [chi for size in (2, 3) for chi in itertools.combinations(range(6), size) if 0 in chi or size < 3]
    schmidt = [
        np.linalg.svd(np.moveaxis(t, chi, range(len(chi))).reshape(2 ** len(chi), -1), compute_uv=False) ** 2
        for chi in cuts
    ]
    matched = []
    for a in stacks:
        for lam in original(a[0])[:, ::-1]:
            matched += [i for i, sv in enumerate(schmidt) if sv.size == lam.size and np.allclose(sv, lam, atol=1e-10)]
    assert sorted(matched) == list(range(25))
