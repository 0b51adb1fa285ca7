"""The lpiso benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout::

    python3 bench/run.py --workload synth-growth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, each in a fresh process
    python3 bench/run.py --smoke                 # tiny sizes, checks the harness itself
    python3 bench/run.py --write-golden          # re-record golden report digests

A run is a closed loop with one client in one single-threaded process: it
repeats passes over its workload's ops until ``--seconds`` have gone by
(at least one pass), checks every output, and prints one line per metric
followed by a JSON summary as the last line.  With ``--trace 0`` the
summary holds the end-to-end metrics.  With ``--trace 1`` it runs one
untraced pass, then the same ops again under the span tracer, and holds the
per-layer metrics; spans go to ``bench/out/``.

The library is called from outside only: ``lpiso.iso_cli.main(argv)`` for
CLI ops and the public ``scalar_core``/``lp_vectors`` functions for kernel
ops.  Nothing is patched.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

import mpmath

import checks
import spans
import speed
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
LAYER_MODULES = (
    "scalar_core",
    "lp_vectors",
    "presentations",
    "tree_maps",
    "extension_engine",
    "chain_partition",
    "iso_cli",
)

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 9

now = time.perf_counter


def require_source() -> None:
    """Fail before any output when the checkout has no library to measure."""
    if not os.path.isfile(os.path.join(SRC, "lpiso", "__init__.py")):
        sys.exit(f"bench: no lpiso sources under {SRC}; run from a checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def prepare(workload: str, seed: int, smoke: bool):
    """Import every layer and build the first pass: the work set-up covers."""
    mods = {name: importlib.import_module(f"lpiso.{name}") for name in LAYER_MODULES}
    return mods, workloads.build(workload, seed, 0, smoke)


def measure_setup(workload: str, seed: int, smoke: bool) -> List[float]:
    """Reference seconds from process start until the first op is ready,
    each sample from a fresh process.

    The child probes machine speed itself, on its own CPU, once before the
    imports and once when ready; the probes are taken out of the span."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import speed; p1 = speed.probe(); "
        "import run; run.prepare(%r, %d, %r); p2 = speed.probe(); "
        "print('ready', p1, p2, flush=True)" % (SRC, BENCH_DIR, workload, seed, smoke)
    )
    samples = []
    for _ in range(1 if smoke else SETUP_SAMPLES):
        t0 = now()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline().split()
            t1 = now()
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"set-up process failed with exit code {rc}")
        p1, p2 = float(line[1]), float(line[2])
        samples.append((t1 - t0 - p1 - p2) * speed.scale(p1, p2))
    return samples


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def run_op(op):
    """Run one op; only this is timed.

    A CLI op returns (exit code, stdout), with exit code None when the CLI
    raised; a kernel op returns (0, enclosures) or (1, the typed error)."""
    if op.call is not None:
        from lpiso.errors import LpisoError

        try:
            return 0, op.call(*op.args)
        except LpisoError as exc:
            return 1, exc
    from lpiso.iso_cli import main

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(op.argv)
    except Exception:  # a traceback is a harness error; keep measuring
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, buf.getvalue()


def judge(op, result, golden: Optional[str]):
    rc, out = result
    if op.call is None:
        return checks.check_cli(op, rc, out, golden)
    if rc != 0:
        return checks.Outcome(False, True, error=type(out).__name__, detail=str(out))
    outcome = checks.check_kernel(op, out)
    if outcome.correct:
        outcome.units = len(out) if isinstance(out, tuple) else 1
    return outcome


def result_text(op, result) -> str:
    """The bytes a later pass, a traced pass or the golden file must reproduce."""
    rc, out = result
    if op.call is None:
        return f"{rc}\n{out}"
    return checks.kernel_text(out) if rc == 0 else f"error {type(out).__name__}"


def pass_text(ops, results) -> str:
    return "\n".join(result_text(op, r) for op, r in zip(ops, results))


def golden_key(workload: str, smoke: bool, label: str) -> str:
    return f"{workload}{'/smoke' if smoke else ''}/{label}"


def load_golden(workload: str, seed: int, smoke: bool) -> Dict[str, str]:
    if seed != workloads.DEFAULT_SEED:
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    prefix = golden_key(workload, smoke, "")
    return {k[len(prefix):]: v for k, v in table["digests"].items() if k.startswith(prefix)}


def judge_pass(workload, ops, results, golden, reference: Optional[List[str]]):
    """Outcomes of one pass.  ``reference`` holds pass-0 texts: later passes
    of the CLI workloads must reproduce them byte for byte."""
    outcomes = []
    for i, (op, res) in enumerate(zip(ops, results)):
        text = result_text(op, res)
        if reference is not None and text != reference[i]:
            outcomes.append(checks.Outcome(False, True, detail="output changed between passes"))
            continue
        gold = golden.get(op.label) if op.call is None else None
        outcomes.append(judge(op, res, gold))
    if "pass0" in golden:
        if checks.digest(pass_text(ops, results)) != golden["pass0"]:
            outcomes[0] = checks.Outcome(False, True, detail="kernel outputs differ from golden")
    return outcomes


# ---------------------------------------------------------------------------
# untraced measurement
# ---------------------------------------------------------------------------


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def timed_pass(ops, runner):
    """Run ``runner(op)`` for each op under the speed sampler; return the
    results and each op's time in reference seconds."""
    results, marks = [], []
    with speed.Sampler() as sampler:
        for op in ops:
            spent = sampler.spent
            t0 = now()
            results.append(runner(op))
            t1 = now()
            marks.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
    return results, [raw * sampler.factor(t0, t1) for t0, t1, raw in marks]


@dataclass
class PassRecord:
    """What the metrics need from one pass; ops and outputs are not kept,
    so a long run's peak RSS stays the library's."""

    times: List[float]  # per op, reference seconds
    synth: List[bool]  # per op: is it a ``synthesize`` op
    units: int
    completed: int
    failed: int
    errors: Dict[str, int]
    wrong: List[str]

    @staticmethod
    def of(ops, times, outcomes) -> "PassRecord":
        errors: Dict[str, int] = {}
        for o in outcomes:
            if o.error:
                errors[o.error] = errors.get(o.error, 0) + 1
        return PassRecord(
            times=times,
            synth=[op.kind == "synthesize" for op in ops],
            units=sum(o.units for o in outcomes),
            completed=sum(not o.failed for o in outcomes),
            failed=sum(o.failed for o in outcomes),
            errors=errors,
            wrong=[f"{op.label}: {o.detail}" for op, o in zip(ops, outcomes) if not o.correct],
        )


def measure(workload: str, seed: int, seconds: float, smoke: bool):
    golden = load_golden(workload, seed, smoke)
    setup = measure_setup(workload, seed, smoke)
    start = now()
    passes: List[PassRecord] = []
    reference = None
    while True:
        ops = workloads.build(workload, seed, len(passes), smoke)
        gc.collect()
        results, times = timed_pass(ops, run_op)
        # kernel passes draw fresh inputs, so only the first has a golden digest
        gold = golden if workload != "kernel-sweep" or not passes else {}
        outcomes = judge_pass(workload, ops, results, gold, reference)
        if workload != "kernel-sweep" and reference is None:
            reference = [result_text(op, r) for op, r in zip(ops, results)]
        passes.append(PassRecord.of(ops, times, outcomes))
        if smoke or now() - start >= seconds:
            break
    return setup, passes, now() - start


def latencies(workload: str, passes: List[PassRecord]) -> List[float]:
    """Per-op times: every kernel call, or each CLI op's median over passes."""
    if workload == "kernel-sweep":
        return sorted(t for p in passes for t in p.times)
    return sorted(statistics.median(p.times[i] for p in passes) for i in range(len(passes[0].times)))


def end_to_end(workload: str, setup, passes: List[PassRecord]) -> Dict[str, float]:
    """End-to-end metrics from the passes of one run, in reference seconds.

    A pass's wall time is the sum of its op times; the benchmark's own
    checks and probes are left out.  The CLI workloads repeat the same ops
    every pass, so each op's time is its median over the passes and the
    pass is the sum of those medians: one slow stretch of a shared machine
    then moves one sample, not the result.  Kernel passes draw fresh
    inputs; there each rate and the p99 (1200 calls a pass, 12 beyond it)
    is the median over passes.
    """
    if workload == "kernel-sweep":
        walls = [sum(p.times) for p in passes]
        unit_rates = [p.units / w for p, w in zip(passes, walls)]
        op_rates = [p.completed / w for p, w in zip(passes, walls)]
        p99 = statistics.median(percentile(sorted(p.times), 0.99) for p in passes)
    else:
        first = passes[0]
        op_times = [statistics.median(p.times[i] for p in passes) for i in range(len(first.times))]
        walls = [sum(op_times)]
        synth = sum(t for t, is_synth in zip(op_times, first.synth) if is_synth)
        unit_rates = [first.units / synth]
        op_rates = [first.completed / walls[0]]
        p99 = percentile(sorted(op_times), 0.99)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(unit_rates),
        "ops_per_s": statistics.median(op_rates),
        "op_p99_ms": p99 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summarize_outcomes(passes: List[PassRecord]):
    errors: Dict[str, int] = {}
    for p in passes:
        for name, count in p.errors.items():
            errors[name] = errors.get(name, 0) + count
        for line in p.wrong:
            print(f"  WRONG {line}", file=sys.stderr)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    return not any(p.wrong for p in passes), attempted, failed, errors


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    setup, passes, elapsed = measure(workload, seed, seconds, smoke)
    metrics = end_to_end(workload, setup, passes)
    correct, attempted, failed, errors = summarize_outcomes(passes)
    lat = latencies(workload, passes)
    per_op = len(passes[0].times)
    beyond = f"{per_op} op samples, {per_op - math.ceil(0.99 * per_op)} beyond"
    if workload == "kernel-sweep":
        per_pass = f"median of {len(passes)} passes"
        p99_samples = f"median of {len(passes)} passes of {beyond}"
    else:
        per_pass = f"one pass of per-op medians over {len(passes)} passes"
        p99_samples = beyond
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": per_pass,
        "units_per_s": per_pass,
        "ops_per_s": per_pass,
        "op_p99_ms": p99_samples,
        "peak_rss_mb": "whole process",
    }
    print(f"workload {workload} seed {seed}: {len(passes)} passes, {attempted} ops, {elapsed:.1f} s")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {metrics[name]:>14.6f} {unit:<4} ({samples[name]})")
    # printed, not gated: on the synth workloads it is whichever of a few
    # seed-chosen ops sits in the middle of the pass
    print(f"  op_p50_ms    {percentile(lat, 0.5) * 1000:>14.6f} ms   ({len(lat)} op samples)")
    err_text = ", ".join(f"{n} x{c}" for n, c in sorted(errors.items())) or "none"
    print(f"  fail_ratio   {failed / attempted:>14.6f}      ({failed} failed / {attempted} attempted; typed errors: {err_text})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced_pass(workload: str, seed: int, smoke: bool):
    """One untraced pass, then the same ops, built afresh, under the tracer."""
    mods, _ = prepare(workload, seed, smoke)
    ops = workloads.build(workload, seed, 0, smoke)
    gc.collect()
    plain, plain_times = timed_pass(ops, run_op)
    tracer = spans.Tracer(mods, os.path.dirname(mpmath.__file__))
    traced_ops = workloads.build(workload, seed, 0, smoke)
    gc.collect()
    traced, traced_times = timed_pass(
        traced_ops, lambda op: tracer.trace_op(op.index, lambda: run_op(op))
    )
    neutral = pass_text(ops, plain) == pass_text(traced_ops, traced)
    overhead = sum(traced_times) / sum(plain_times)
    return tracer, traced_ops, traced, neutral, tracer.metrics(overhead)


def code_digest() -> str:
    """Short SHA-256 over the library's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "lpiso"), BENCH_DIR):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


def run_traced(workload: str, seed: int, smoke: bool) -> dict:
    tracer, ops, results, neutral, metrics = traced_pass(workload, seed, smoke)
    outcomes = judge_pass(workload, ops, results, load_golden(workload, seed, smoke), None)
    correct, attempted, failed, _ = summarize_outcomes([PassRecord.of(ops, results, outcomes)])
    if not neutral:
        print("  WRONG traced outputs differ from untraced ones", file=sys.stderr)
        correct = False
    counts = {name: metrics[name] for name in spans.COUNT_METRICS}
    tag = f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
    # keyed by the code measured, so a change that moves a count on purpose
    # is not compared with counts of the code before it
    counts_path = os.path.join(OUT_DIR, f"counts-{tag}-{code_digest()}.json")
    if os.path.exists(counts_path):
        with open(counts_path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != counts:
            diff = sorted(k for k in counts if earlier.get(k) != counts[k])
            print(f"  WRONG per-layer counts differ from the last traced run: {diff}", file=sys.stderr)
            correct = False
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(counts_path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    # one spans file per workload: the last traced run's
    tracer.write(
        os.path.join(OUT_DIR, f"spans-{workload}.gz"),
        {"workload": workload, "seed": seed, "smoke": smoke},
    )
    print(f"workload {workload} seed {seed}: traced {attempted} ops, trace neutral: {neutral}")
    for name, unit in spans.PER_LAYER_METRICS.items():
        print(f"  {name:<34} {metrics[name]:>14.6f} {unit}")
    print(f"  (pow_repeat_ratio base: {metrics['scalar_core.pow_calls']} calls; "
          f"oracle_repeat_ratio base: {metrics['presentations.oracle_queries']} queries)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in spans.PER_LAYER_METRICS.items()
        },
    }


# ---------------------------------------------------------------------------
# whole-benchmark modes
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][name] = result["metrics"]
    return summary


def declared_metrics() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def smoke(seed: int) -> dict:
    """Each op kind once at tiny sizes; every declared metric must appear with
    its unit, and two traced passes must agree on every count."""
    declared = declared_metrics()
    problems = []
    if declared["workloads"] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    attempted = failed = 0
    correct = True
    for name in workloads.WORKLOADS:
        traced = run_traced(name, seed, True)
        for kind, result in (("end_to_end", run_untraced(name, seed, 0, True)), ("per_layer", traced)):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[kind]:
                problems.append(f"{name}: {kind} metrics or units differ from BENCHMARK.json")
            if any(not math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name}: a {kind} metric is not finite")
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
        again = traced_pass(name, seed, True)[4]
        if any(traced["metrics"][k]["value"] != again[k] for k in spans.COUNT_METRICS):
            problems.append(f"{name}: two traced passes disagree on per-layer counts")
    for p in problems:
        print(f"  SMOKE {p}", file=sys.stderr)
    return {"correct": correct and not problems, "attempted": attempted, "failed": failed,
            "metrics": {}}


def write_golden() -> dict:
    """Record report digests for the default seed, full and smoke sizes.

    Refuses to record a pass whose outputs fail the structural checks."""
    digests = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for small in (False, True):
            ops = workloads.build(name, workloads.DEFAULT_SEED, 0, small)
            results = [run_op(op) for op in ops]
            outcomes = judge_pass(name, ops, results, {}, None)
            bad = [op.label for op, o in zip(ops, outcomes) if not o.correct]
            if bad:
                raise RuntimeError(f"{name}: refusing to record failing ops {bad}")
            attempted += len(ops)
            failed += sum(o.failed for o in outcomes)
            if name == "kernel-sweep":
                digests[golden_key(name, small, "pass0")] = checks.digest(pass_text(ops, results))
            else:
                for op, (rc, out) in zip(ops, results):
                    digests[golden_key(name, small, op.label)] = checks.digest(out)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": {}}


def main(argv: Optional[List[str]] = None) -> int:
    require_source()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"default {workloads.DEFAULT_SEED}; held-out {workloads.HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="tiny sizes; checks the harness")
    mode.add_argument("--write-golden", action="store_true", help="re-record golden digests")
    args = parser.parse_args(argv)

    if args.smoke:
        result = smoke(args.seed)
    elif args.write_golden:
        result = write_golden()
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        result = run_traced(args.workload, args.seed, False)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, False)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
