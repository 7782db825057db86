"""Self-test of the benchmark, run with `python3 bench/run.py --self-test`.

- One op per workload, untraced and traced: every metric named in
  BENCHMARK.json is printed with its unit, and no op fails.
- Two traced runs of the same seed give identical counts.
- Deliberately perturbed outputs are counted as failed ops.
- In a directory holding only BENCHMARK.json and bench/, the benchmark exits
  with a non-zero code and prints no result.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
WORKLOADS = ("pure-grid", "roof-mixed", "suites-small")


def bench(*args: str, cwd: Path = ROOT, script: Path = RUN) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def result(code: int, output: str, what: str) -> dict:
    lines = [line for line in output.splitlines() if line.startswith("{")]
    if code != 0 or not lines:
        raise AssertionError(f"{what}: exit {code}\n{output[-3000:]}")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(res)}")
    if not (res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError(f"{what}: ops failed: {res}")
    return res


def expect_metrics(res: dict, spec: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = res["metrics"]
    if set(got) != set(want):
        raise AssertionError(f"{what}: metrics differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{what}: {name} = {got[name]}, expected a finite value in {unit}")


def check_runs(spec: dict) -> None:
    import harness

    for w in WORKLOADS:
        res = result(*bench("--workload", w, "--seed", "0", "--ops", "1", "--trace", "0"), f"{w} untraced")
        expect_metrics(res, spec["end_to_end"], w)
        traced = [
            result(*bench("--workload", w, "--seed", "0", "--ops", "1", "--trace", "1"), f"{w} traced")
            for _ in range(2)
        ]
        for t in traced:
            expect_metrics(t, spec["per_layer"], f"{w} traced")
        exact = harness.EXACT_COUNTS + ("measures.spectra_reuse_ratio", "convex_roof.converged_frac",
                                        "convex_roof.max_err_vs_eof")
        differ = {n: (traced[0]["metrics"][n]["value"], traced[1]["metrics"][n]["value"]) for n in exact
                  if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]}
        if differ:
            raise AssertionError(f"{w}: counts differ between two traced runs: {differ}")
        print(f"ok {w}: metrics printed with units; traced counts repeat exactly")


def perturbed_outputs(name: str, inp, out) -> list:
    """Outputs a correct program would never produce for `inp`."""
    if name == "pure-grid":
        code, text = out
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[4] = repr(float(fields[4]) + 1e-10)
        return [(code, "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"), (2, text)]
    if name == "roof-mixed":
        return [
            dataclasses.replace(out, upper_bound=out.upper_bound + 6e-3),
            dataclasses.replace(out, upper_bound=-1e-6),
        ]
    code, text = out
    return [(code, text.replace("PASS", "FAIL")), (3, text)]


def check_perturbations() -> None:
    import harness
    from workloads import WORKLOADS as IMPLS
    from workloads import op_seed

    for name, w in IMPLS.items():
        inp = w.make_input(op_seed(0, 0), 0)  # slot 0: roof point (1, 1), suite `ordering`
        out = w.run(inp)
        tally = harness.Tally()
        tally.record(harness.verdict(w, inp, out, None))
        if tally.failed:
            raise AssertionError(f"{name}: unperturbed output rejected: {tally.reasons}")
        bad = perturbed_outputs(name, inp, out)
        for p in bad:
            tally.record(harness.verdict(w, inp, p, None))
        if tally.failed != len(bad) or tally.attempted != 1 + len(bad):
            raise AssertionError(f"{name}: perturbed outputs not all counted as failures: {tally}")
        print(f"ok {name}: {len(bad)} perturbed outputs counted as failed ops")


def check_tail() -> None:
    import harness

    for times, want in (([float(i) for i in range(1, 21)], (10.0, 50.0)), ([3.0, 1.0, 2.0], (3.0, 100.0))):
        if harness.tail(times) != want:
            raise AssertionError(f"tail({times}) = {harness.tail(times)}, expected {want}")
    print("ok op_s_tail: highest order statistic with ten ops beyond it")


def check_bare_directory() -> None:
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy2(f, bare / "bench" / f.name)
    try:
        code, output = bench("--workload", "pure-grid", "--seed", "0", "--ops", "1", "--trace", "0",
                             cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in output.splitlines()):
        raise AssertionError(f"bare directory: exit {code}, output {output[-500:]!r}")
    print(f"ok bare directory: exit {code}, no result printed")


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tail()
    check_bare_directory()
    check_perturbations()
    check_runs(spec)
    print("self-test passed")
    return 0
