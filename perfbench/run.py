"""grflab benchmark: time to a certified answer, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deturck_relax --seed 0 --seconds 34 --trace 0

One process, one client, closed loop: each operation starts when the previous
one returned. An operation is one canned pipeline call of
``grflab.experiments`` on one seeded input (see workloads.py), checked
against its certificate. The run takes the workload's inputs in turn, each
at least once, while the next operation is expected to end within
``--seconds``.

``--trace 0`` reports the end-to-end metrics: set-up time, wall time per
operation and per accepted flow step, accepted flow steps per operation, and
peak resident memory. The machine's speed drifts, so times are reported
against references that run no grflab code. Wall times are in units of the
mean timing of a fixed numpy kernel sampled throughout the run (see
reference.py). Set-up time is the median over several fresh interpreters of
their set-up time over that of a fixed set of stdlib imports, timed in fresh
interpreters just before and just after, times IMPORT_REF_S: seconds at the
import speed of an unloaded host. The raw seconds are in the report.

``--trace 1`` runs one pass over the first TRACED_INPUTS inputs untraced,
one with spans around every public grflab function, then the layer sweep,
and reports the per-layer metrics.

The last line of standard output is the JSON result. The run's provenance,
every operation's physics next to its timing, and the spans are written
under perfbench/out/. BLAS threads are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# workloads, tracing, sweep and reference import grflab or numpy, so they are
# imported inside functions, after the set-up clock has started.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# inputs of a traced run: enough for every layer's counts, few enough that
# the untraced and traced passes and the sweep end well within three minutes
TRACED_INPUTS = 3
# stdlib modules that grflab, numpy and scipy do not import, and what their
# import takes in a fresh interpreter on an unloaded 2-vCPU x86-64 host
IMPORT_REF_MODULES = (
    "xml.dom.minidom", "http.client", "smtplib", "xmlrpc.client", "asyncio",
    "urllib.request", "pdb", "tarfile", "decimal", "sqlite3",
    "email.mime.multipart", "logging.handlers", "configparser", "mailbox",
    "ssl")
IMPORT_REF_S = 0.1
DEFAULT_SEED = 0

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("steps", "count"),
              ("step_ref", "ref"), ("rss_peak_mb", "MB"))


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup(workload, seed):
    """Seconds from `import grflab` to the first input's state and reference
    metric, in a fresh interpreter."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]
    wl.setup(wl.inputs(seed)[0])
    return time.perf_counter() - t0


def _fresh_interpreter(args):
    out = subprocess.run([sys.executable, *args], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def import_reference_s():
    """Seconds a fresh interpreter takes to import IMPORT_REF_MODULES."""
    return _fresh_interpreter([
        "-c", "import time; t0 = time.perf_counter(); import "
        + ", ".join(IMPORT_REF_MODULES)
        + "; print(repr(time.perf_counter() - t0))"])


def setup_sample(workload, seed):
    """One set-up time, bracketed by two timings of the import reference."""
    before = import_reference_s()
    setup = _fresh_interpreter([
        os.path.abspath(__file__), "--setup-only", "--workload", workload,
        "--seed", str(seed)])
    after = import_reference_s()
    return {"setup_s": setup, "ref_s": [before, after],
            "scaled_s": setup * IMPORT_REF_S / statistics.fmean((before, after))}


def provenance():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_lines": src_lines,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_op(wl, inp, out_dir, tracer=None, timings=()):
    """One operation: the timed pipeline call, then its certificate.

    Reference timings appended to ``timings`` during the call are taken out
    of its wall time.
    """
    record = {"input": inp}
    n0 = len(timings)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            phys = wl.op(wl, inp, out_dir)
        else:
            with tracer.span("harness.op"):
                phys = wl.op(wl, inp, out_dir)
    except Exception as exc:  # a failed operation is counted, not fatal
        record["wall_s"] = time.perf_counter() - t0 - sum(timings[n0:])
        record.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
        return record
    record["wall_s"] = time.perf_counter() - t0 - sum(timings[n0:])
    reason = wl.certify(wl, phys)
    record.update(ok=not reason, reason=reason, physics=phys)
    return record


def run_loop(wl, inputs, seconds, out_dir):
    """The inputs in turn, each at least once, while the next operation is
    expected to end within ``seconds``, with the reference kernel sampled
    throughout. Returns the operations and the reference timings."""
    import reference

    ops, timings = [], []
    start = time.perf_counter()
    with reference.sampling(timings):
        for done in itertools.count(1):
            ops.append(run_op(wl, inputs[(done - 1) % len(inputs)], out_dir,
                              timings=timings))
            elapsed = time.perf_counter() - start
            if done >= len(inputs) and elapsed * (done + 1) / done > seconds:
                return ops, timings


def answers_repeat(ops):
    """Problems where one input gave different steps or CSV bytes."""
    seen = {}
    problems = []
    for op in ops:
        phys = op.get("physics")
        if phys is None:
            continue
        key = op["input"]
        answer = (phys["steps"], phys.get("csv_sha256"))
        if seen.setdefault(key, answer) != answer:
            problems.append(f"input {key}: {seen[key]} vs {answer}")
    return problems


def end_to_end(ops, ref_timings, setup_samples):
    """Operation times in units of the mean of the run's reference timings.

    wall_ref is the mean over inputs of each input's mean operation time,
    step_ref the operations' total time over their total accepted steps.
    Means, not medians or minima: the reference timings sample the host's
    fast and slow spells as the operations live through them, so the spells'
    share divides out of a ratio of means. Nor does a mean's expected value
    move with the number of operations that fit into the run. setup_s is the
    median of the scaled set-up samples.
    """
    ref_s = statistics.fmean(ref_timings)
    by_input = {}
    for op in ops:
        by_input.setdefault(op["input"], []).append(op)
    wall_s = statistics.fmean(
        statistics.fmean(op["wall_s"] for op in group)
        for group in by_input.values())
    steps = [group[0]["physics"]["steps"] for group in by_input.values()
             if "physics" in group[0]]
    stepped = [op for op in ops if op.get("physics", {}).get("steps")]
    step_s = (sum(op["wall_s"] for op in stepped)
              / sum(op["physics"]["steps"] for op in stepped)
              if stepped else 0.0)
    return {
        "setup_s": statistics.median(s["scaled_s"] for s in setup_samples),
        "wall_ref": wall_s / ref_s,
        "steps": statistics.fmean(steps) if steps else 0.0,
        "step_ref": step_s / ref_s,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, inputs, seed, out_dir, sweep_sizes, spans_path):
    """Untraced pass, traced pass, layer sweep; returns (ops, metrics,
    problems)."""
    import sweep
    import tracing

    plain = [run_op(wl, inp, out_dir) for inp in inputs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spanned = [run_op(wl, inp, out_dir, tracer) for inp in inputs]
    finally:
        tracer.remove()
    problems = [f"still wrapped after the traced run: {name}"
                for name in tracer.leftovers()]
    problems += answers_repeat(plain + spanned)
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(
        tracer.spans, sum(op["wall_s"] for op in plain),
        sum(op["wall_s"] for op in spanned))
    metrics.update(sweep.sweep(seed, sweep_sizes))
    return plain + spanned, metrics, problems


def units(trace, sweep_sizes):
    """(name, unit) of every metric a run reports."""
    if not trace:
        return list(END_TO_END)
    import sweep
    import tracing
    return list(tracing.LAYER_METRICS) + [
        (name, "ms") for name in sweep.metric_names(sweep_sizes)]


def measure(wl, seed, seconds, trace, probe, sweep_sizes=None, out_dir=OUT):
    """One benchmark run; returns (result line, full report).

    An untraced run takes SETUP_REPEATS set-up samples from probe(), as
    setup_sample returns them, half before and half after the timed loop, so
    that one slow moment of the machine does not set the median.
    """
    import sweep
    sweep_sizes = sweep.SIZES if sweep_sizes is None else sweep_sizes
    inputs = wl.inputs(seed)
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    csv_dir = os.path.join(out_dir, "csv", tag)
    os.makedirs(csv_dir, exist_ok=True)
    setup_samples, ref_timings = [], []
    if trace:
        ops, values, problems = traced(
            wl, inputs[:TRACED_INPUTS], seed, csv_dir, sweep_sizes,
            os.path.join(out_dir, f"{tag}-spans.jsonl.gz"))
    else:
        setup_samples = [probe() for _ in range(SETUP_REPEATS // 2)]
        ops, ref_timings = run_loop(wl, inputs, seconds, csv_dir)
        setup_samples += [probe()
                          for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        values = end_to_end(ops, ref_timings, setup_samples)
        problems = answers_repeat(ops)
    failed = sum(1 for op in ops if not op["ok"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units(trace, sweep_sizes)}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    report = {"tag": tag, "workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "params": wl.params, "inputs": inputs,
              "setup_samples": setup_samples, "ref_timings_s": ref_timings,
              "problems": problems,
              "ops": ops, "result": result}
    return result, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh interpreter")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    if args.setup_only:
        print(repr(measure_setup(args.workload, args.seed)))
        return 0
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    result, report = measure(
        wl, args.seed, args.seconds, bool(args.trace),
        lambda: setup_sample(args.workload, args.seed))
    report["provenance"] = provenance()
    with open(os.path.join(OUT, f"{report['tag']}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"provenance": report["provenance"],
                      "problems": report["problems"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
