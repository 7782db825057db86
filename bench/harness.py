"""Set-up, measurement loops and the result line of the cekit benchmark.

Untraced runs give the end-to-end metrics; a traced run (--trace 1) gives the
per-layer metrics. Both print one JSON object as the last line of stdout.
"""
from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import envinfo
import spans
from workloads import UNTRACED_OFFSET, WARMUP_INDEX, WORKLOADS, op_seed

#: (name, unit) of every end-to-end metric, printed by untraced runs.
END_TO_END = (
    ("wall_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed by traced runs. Counts are
#: per op over the first traced pass, whose inputs depend only on the seed, so
#: they repeat exactly; times are per op, the median over traced passes.
PER_LAYER = (
    ("measures.subset_spectra.calls", "count"),
    ("measures.subset_spectra.self_s", "s"),
    ("measures.cce_pure.calls", "count"),
    ("measures.cce_pure.self_s", "s"),
    ("measures.spectra_reuse_ratio", "ratio"),
    ("entropy.unified_entropy_spectrum.calls", "count"),
    ("entropy.unified_entropy_spectrum.self_s", "s"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigvalsh.self_s", "s"),
    ("linalg.eigvalsh.sum_d3", "count"),
    ("linalg.eigh.calls", "count"),
    ("linalg.self_s", "s"),
    ("tensor.self_s", "s"),
    ("convex_roof.cce_mixed_upper.self_s", "s"),
    ("convex_roof.eigvalsh_per_call", "count"),
    ("convex_roof.restarts", "count"),
    ("convex_roof.converged_frac", "ratio"),
    ("convex_roof.max_err_vs_eof", "bits"),
    ("swaptest.swap_test_distribution.calls", "count"),
    ("swaptest.swap_test_distribution.self_s", "s"),
    ("suites.run_suite.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("states.build.self_s", "s"),
    ("parallel.parallel_map.self_s", "s"),
    ("tracing.overhead_s", "s"),
)

#: Counted metrics that must repeat exactly between two traced runs of a seed.
EXACT_COUNTS = tuple(n for n, u in PER_LAYER if u == "count")

#: Untraced runs keep going past --seconds until this many ops are done, so
#: that op_s_tail always has ten ops beyond it, unless MAX_MEASURE_S is hit.
MIN_OPS = 11
MAX_MEASURE_S = 120.0
#: Set-up samples per run: this process plus fresh child interpreters.
SETUP_SAMPLES = 3


@dataclass
class Tally:
    """Ops attempted and failed; an op counts only after its output is checked."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.reasons.append(failure)
            print(f"op failed: {failure}", file=sys.stderr)


def verdict(workload, inp, out, error: str | None) -> str | None:
    if error is not None:
        return error
    try:
        return workload.check(inp, out)
    except Exception:  # a checker crash is a failed op, not a crashed run
        return "checker raised: " + traceback.format_exc(limit=3)


def _run_op(workload, inp):
    """(output, error, seconds) of one op; an exception is a failed op."""
    t0 = perf_counter()
    try:
        out, error = workload.run(inp), None
    except Exception:
        out, error = None, "op raised: " + traceback.format_exc(limit=3)
    return out, error, perf_counter() - t0


def setup_sample(workload, seed: int, import_s: float) -> tuple[dict, str | None]:
    """Generate the warm-up input and run the warm-up op once."""
    t0 = perf_counter()
    inp = workload.make_input(op_seed(seed, WARMUP_INDEX), 0)
    gen_s = perf_counter() - t0
    out, error, warm_s = _run_op(workload, inp)
    sample = {"import_s": import_s, "gen_s": gen_s, "warmup_s": warm_s}
    sample["setup_s"] = import_s + gen_s + warm_s
    return sample, verdict(workload, inp, out, error)


def child_setup_samples(script: Path, workload: str, seed: int, count: int) -> list[dict]:
    """Set-up samples from fresh interpreters, run one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten ops beyond it.

    With ten or fewer ops no such statistic exists and the maximum is given.
    """
    ordered = sorted(times)
    k = len(ordered) - 10
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, ops: int | None) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.ops = ops
        self.tally = Tally()
        self.t_begin = perf_counter()

    def pass_inputs(self, offset: int, k: int, done: int) -> list:
        """Inputs of pass k; in --ops mode the pass stops at the op budget."""
        size = self.workload.ops_per_pass
        if self.ops is not None:
            size = min(size, self.ops - done)
        first = offset + k * self.workload.ops_per_pass
        return [self.workload.make_input(op_seed(self.seed, first + j), j) for j in range(size)]

    def one_pass(self, inputs: list, rec: spans.Recorder | None = None) -> tuple[float, list[float], list]:
        """Run a pass, then check its outputs; returns (wall, op times, outputs)."""
        runs = []
        t0 = perf_counter()
        for inp in inputs:
            if rec is None:
                runs.append(_run_op(self.workload, inp))
            else:
                i = rec.open(rec.name_id(spans.OP_SPAN))
                runs.append(_run_op(self.workload, inp))
                rec.close(i)
        wall = perf_counter() - t0
        for inp, (out, error, _) in zip(inputs, runs):
            self.tally.record(verdict(self.workload, inp, out, error))
        return wall, [t for _, _, t in runs], [out for out, _, _ in runs]

    def finished(self, count_ops: int) -> bool:
        if self.ops is not None:
            return count_ops >= self.ops
        elapsed = perf_counter() - self.t_begin
        return elapsed >= self.seconds and (count_ops >= MIN_OPS or elapsed >= MAX_MEASURE_S)

    def measure(self) -> tuple[dict, list[str]]:
        walls, times = [], []
        k = 0
        while True:
            wall, op_times, _ = self.one_pass(self.pass_inputs(0, k, len(times)))
            walls.append(wall)
            times += op_times
            k += 1
            if self.finished(len(times)):
                break
        value, pct = tail(times)
        metrics = {
            "wall_s": statistics.median(walls),
            "op_s_p50": statistics.median(times),
            "op_s_tail": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = [
            f"ops {len(times)} in {k} passes of up to {self.workload.ops_per_pass}",
            f"op_s_tail is p{pct:.1f} of {len(times)} ops",
            f"pass walls {[round(w, 4) for w in walls]}",
            f"op times {[round(t, 4) for t in times]}",
        ]
        return metrics, notes

    def measure_traced(self, out_dir: Path) -> tuple[dict, list[str]]:
        """Alternate traced passes (inputs 0, 1, ...) with untraced passes on
        disjoint inputs, so the traced pass 0 depends only on the seed."""
        rec = spans.Recorder()
        traced, plain = [], []
        k = 0
        while True:
            inputs = self.pass_inputs(0, k, 0)
            rec.counts = spans.PassCounts()
            lo = len(rec)
            with spans.Installed(rec):
                wall, _, outs = self.one_pass(inputs, rec)
            traced.append((lo, len(rec), rec.counts, inputs, outs, wall))
            plain.append(self.one_pass(self.pass_inputs(UNTRACED_OFFSET, k, 0))[0])
            k += 1
            if self.ops is not None or perf_counter() - self.t_begin >= self.seconds:
                break
        trace_path = out_dir / f"trace-{self.workload.name}-seed{self.seed}.npz"
        rec.write(trace_path)
        metrics = self.layer_metrics(rec, traced)
        metrics["tracing.overhead_s"] = (
            statistics.median(t[-1] for t in traced) - statistics.median(plain)
        )
        notes = [
            f"traced passes {len(traced)}, untraced passes {len(plain)}, spans {len(rec)}",
            "counts are per op over traced pass 0; times are per op, median over traced passes",
            "linalg.eigvalsh.sum_d3 is computed from matrix sizes (sum of batch*d^3), not measured",
            f"spans written to {trace_path}",
        ]
        return metrics, notes

    def layer_metrics(self, rec: spans.Recorder, traced: list) -> dict:
        own = rec.self_times()
        lo, hi, counts, inputs, outs, _ = traced[0]
        calls, _ = rec.totals(lo, hi, own)
        n0 = len(inputs)
        m: dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.endswith(".calls"):
                m[name] = calls.get(name[: -len(".calls")], 0) / n0
        m["linalg.eigvalsh.sum_d3"] = counts.eigvalsh_sum_d3 / n0
        m["measures.spectra_reuse_ratio"] = (
            len(counts.distinct_measures_inputs) / counts.eigvalsh_under_measures
            if counts.eigvalsh_under_measures else 0.0
        )
        roof_calls = calls.get("convex_roof.cce_mixed_upper", 0)
        m["convex_roof.eigvalsh_per_call"] = counts.eigvalsh_under_roof / roof_calls if roof_calls else 0.0
        for key in ("convex_roof.restarts", "convex_roof.converged_frac", "convex_roof.max_err_vs_eof"):
            m[key] = 0.0
        stats = getattr(self.workload, "stats", None)
        if stats is not None and None not in outs:
            m.update(stats(inputs, outs))

        per_pass = []
        for lo, hi, _, inputs, _, _ in traced:
            _, own_by_name = rec.totals(lo, hi, own)
            per_pass.append({n: t / len(inputs) for n, t in own_by_name.items()})
        for name, unit in PER_LAYER:
            if unit != "s" or name in ("cli.import_s", "tracing.overhead_s"):
                continue
            span = name[: -len(".self_s")]
            if span in ("linalg", "tensor"):
                values = [sum(t for n, t in p.items() if n.startswith(span + ".")) for p in per_pass]
            else:
                values = [p.get(span, 0.0) for p in per_pass]
            m[name] = statistics.median(values)
        return m


def result_line(metrics: dict, units: tuple, tally: Tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted >= 1,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def main(args, import_s: float, script: Path, root: Path, env: dict) -> int:
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        sample, failure = setup_sample(workload, args.seed, import_s)
        if failure is not None:
            print(failure, file=sys.stderr)
            return 1
        print(json.dumps(sample))
        return 0

    print("env " + json.dumps(envinfo.record(root, env)))
    run = Run(args.workload, args.seed, args.seconds, args.ops)
    sample, failure = setup_sample(workload, args.seed, import_s)
    run.tally.record(failure)
    reps = 1 if args.ops is not None else SETUP_SAMPLES
    samples = [sample] + child_setup_samples(script, args.workload, args.seed, reps - 1)
    run.t_begin = perf_counter()
    if args.trace:
        metrics, notes = run.measure_traced(script.parent / "out")
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in samples)
        units = PER_LAYER
    else:
        metrics, notes = run.measure()
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        units = END_TO_END
    notes.append(f"setup samples {[round(s['setup_s'], 4) for s in samples]}")
    print(f"workload {args.workload}: closed loop, 1 client, seed {args.seed}")
    for note in notes:
        print("note " + note)
    print(result_line(metrics, units, run.tally))
    return 0
