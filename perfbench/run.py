"""Closed-loop benchmark of the psbp CLI: render -> reconstruct -> evaluate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  One caller drives psbp.cli.main in process and starts the
next loop only when the previous one has finished.  Set-up (imports, input
generation, one untimed cold loop) is measured in this process and in two
fresh ones, started between timed loops at one and two thirds of the timed
window, and reported as a median.  Every timed loop's artifacts must be
byte-identical to the cold loop's.  --trace 1 alternates untraced and traced
loops and reports per-layer metrics from the traced ones.  The last line of
standard output is the JSON result; everything above it is a readable
report.  Run files go to .perfbench_runs/ in the checkout.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# The closed loop has one caller.  BLAS threads default to one, so a run
# uses one core and its timings do not depend on how a shared machine
# schedules extra threads.  A value already set in the environment wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer, layer_table, loop_metrics  # noqa: E402
from workloads import WORKLOADS, add_sensor_noise, generate  # noqa: E402

MODES = ("render", "reconstruct", "evaluate")
OUTPUT_DIRS = ("render", "recon", "eval")
SETUP_REPEATS = 3
MIN_LOOPS = 4
PROBE_TIMEOUT_S = 120

# End-to-end metrics: name -> unit.  mse_normalized and error_rate are
# reported but not bounded: see perfbench/README.md.
E2E_UNITS = {
    "setup_s": "s", "loop_s": "s", "render_s": "s", "reconstruct_s": "s",
    "evaluate_s": "s", "mse_reprojection": "1", "solved_fraction": "1",
    "peak_rss_mb": "MB",
}


class LoopFailure(Exception):
    """A loop exited nonzero or produced artifacts that fail the checks."""


def import_package():
    if not (SRC / "psbp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/psbp; "
                         "run from the root of a psbp checkout")
    sys.path.insert(0, str(SRC))
    import psbp.cli
    return psbp.cli


def write_configs(configs, loop_dir):
    if loop_dir.exists():
        shutil.rmtree(loop_dir)
    loop_dir.mkdir(parents=True)
    for mode in MODES:
        (loop_dir / f"{mode}.json").write_text(json.dumps(configs[mode]))


def run_loop(cli, workload, seed, configs, loop_dir, tracer=None):
    """One render -> reconstruct -> evaluate pass; returns per-mode seconds.
    The sensor-noise step of noisy workloads is harness work, not timed."""
    write_configs(configs, loop_dir)
    seconds = {}
    for mode in MODES:
        argv = [mode, "--config", str(loop_dir / f"{mode}.json")]
        captured = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(captured), redirect_stderr(captured):
            with tracer.span("cli.main") if tracer else nullcontext():
                code = cli.main(argv)
        seconds[mode] = time.perf_counter() - start
        if code != 0:
            raise LoopFailure(f"{mode} exited with code {code}: {captured.getvalue().strip()}")
        if mode == "render" and workload.noise:
            add_sensor_noise(loop_dir / "render", seed)
    return seconds


def artifacts(loop_dir):
    """Every output file of a loop except the wall-clock timings."""
    return {f"{d}/{p.name}": p for d in OUTPUT_DIRS for p in sorted((loop_dir / d).iterdir())
            if p.name != "timings.json"}


def check_loop(workload, loop_dir, reference=None):
    """Raise LoopFailure unless the loop's outputs are valid; returns the
    evaluation and reconstruction reports."""
    evaluation = json.loads((loop_dir / "eval" / "evaluation.json").read_text())
    report = json.loads((loop_dir / "recon" / "report.json").read_text())
    values = [evaluation["mse_normalized"], *evaluation["mse_reprojection"]]
    if not all(math.isfinite(v) for v in values):
        raise LoopFailure(f"non-finite error metric in {values}")
    if not evaluation["mse_normalized"] < workload.mse_gate:
        raise LoopFailure(f"mse_normalized {evaluation['mse_normalized']:.3e} "
                          f"not under {workload.mse_gate:g}")
    if reference is not None:
        mine, theirs = artifacts(loop_dir), artifacts(reference)
        if sorted(mine) != sorted(theirs):
            raise LoopFailure(f"artifact set {sorted(mine)} differs from {sorted(theirs)}")
        for name, path in mine.items():
            if path.read_bytes() != theirs[name].read_bytes():
                raise LoopFailure(f"{name} differs from the cold loop's")
    return evaluation, report


def set_up(workload, seed, work, scale=1.0):
    """Import the package, generate the inputs and run and check the cold
    loop.  Returns (cli module, configs, seconds since process start,
    evaluation report, reconstruction report)."""
    cli = import_package()
    configs = generate(workload, seed, work / "inputs", scale)
    run_loop(cli, workload, seed, configs, work / "cold")
    evaluation, report = check_loop(workload, work / "cold")
    return cli, configs, time.perf_counter() - T0, evaluation, report


def probe_setup(workload, seed, work, scale):
    """Set-up time of a fresh process, as measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe", str(work), "--scale", str(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise LoopFailure(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def components(mask_path):
    import scipy.ndimage
    from psbp.fileio import load_mask
    return int(scipy.ndimage.label(load_mask(mask_path))[1])


def timed_loops(cli, workload, seed, configs, work, seconds, tracer=None, pauses=()):
    """Closed loop for `seconds` of loop time (at least MIN_LOOPS loops).
    With a tracer, odd-numbered loops run traced.  Each of `pauses` is
    called once between loops, at evenly spaced points of the window, and
    its time is left out of the window.  Returns the per-loop records."""
    records = []
    pending = list(pauses)
    busy = 0.0
    while len(records) < MIN_LOOPS or busy < seconds:
        done = len(pauses) - len(pending)
        if pending and busy >= seconds * (done + 1) / (len(pauses) + 1):
            pending.pop(0)()
        start = time.perf_counter()
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        record = {"loop": index, "traced": traced, "ok": False}
        loop_dir = work / "loop"
        try:
            with tracer.installed(index) if traced else nullcontext():
                record.update(run_loop(cli, workload, seed, configs, loop_dir,
                                       tracer if traced else None))
            check_loop(workload, loop_dir, reference=work / "cold")
            record["ok"] = True
        except Exception:  # a failed loop is counted, and the loop goes on
            record["error"] = traceback.format_exc()
            print(f"perfbench: loop {index} failed:\n{record['error']}", file=sys.stderr)
        records.append(record)
        busy += time.perf_counter() - start
    for pause in pending:
        pause()
    return records


def plain_report(untraced, setups, evaluation, report, attempted, failed):
    """End-to-end metrics of an untraced run, plus report-only lines."""
    values = {
        "setup_s": median(setups),
        **{f"{m}_s": median([r[m] for r in untraced]) for m in MODES},
        "loop_s": median([r["loop_s"] for r in untraced]),
        "mse_reprojection": max(evaluation["mse_reprojection"]),
        "solved_fraction": report["solved_pixels"] / report["input_pixels"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "loop_s": len(untraced),
               **{f"{m}_s": len(untraced) for m in MODES}}
    rows = [(name, values[name], unit, samples.get(name, 1)) for name, unit in E2E_UNITS.items()]
    rows += [("mse_normalized", evaluation["mse_normalized"], "1", 1),
             ("error_rate", failed / attempted, "1", attempted)]
    extra = {"setup_samples_s": setups, "mse_normalized": evaluation["mse_normalized"],
             "error_rate": failed / attempted}
    return values, rows, [], extra


def traced_report(tracer, traced, untraced, n_components, spans_path):
    """Per-layer metrics of a traced run, the layer table and the overhead."""
    per_loop = [loop_metrics(tracer.spans, r["loop"], n_components) for r in traced]
    values = {name: median([m[name] for m in per_loop]) for name in LAYER_METRICS}
    rows = [(name, values[name], unit, len(traced))
            for name, (unit, _) in LAYER_METRICS.items()]
    overhead = median([r["loop_s"] for r in traced]) - median([r["loop_s"] for r in untraced])
    table = layer_table(tracer.spans, [r["loop"] for r in traced])
    spans_path.write_text(json.dumps(tracer.export(T0)))
    lines = [f"tracing overhead: {overhead:+.4f} s per loop (traced loop_s minus untraced "
             f"loop_s, medians of {len(traced)} and {len(untraced)} loops)",
             f"{'layer':<10} {'busy_s':>10} {'self_s':>10}   (median per traced loop)",
             *(f"{name:<10} {busy:10.4f} {own:10.4f}" for name, (busy, own) in table.items()),
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return values, rows, lines, {"tracing_overhead_s": overhead, "layers": table}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: --setup-probe runs only the set-up in a fresh process, and
    # --scale shrinks every image for the self-test's smoke runs.
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe is not None:
        work = Path(args.setup_probe) / f"probe-{os.getpid()}"
        try:
            print(json.dumps({"setup_s": set_up(workload, args.seed, work, args.scale)[2]}))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{tag}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        cli, configs, setup, evaluation, report = set_up(workload, args.seed, work, args.scale)
        # The machine's speed drifts over seconds, so set-ups run back to back
        # would share one drift; spread over the window they do not.
        setups = [setup]
        probes = [] if args.trace else [
            lambda: setups.append(probe_setup(workload, args.seed, work, args.scale))
        ] * (SETUP_REPEATS - 1)
        records = timed_loops(cli, workload, args.seed, configs, work, args.seconds, tracer,
                              probes)
        n_components = components(work / "cold" / "recon" / "mask.pgm")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no timed loop of a needed kind succeeded", file=sys.stderr)
        return 1
    for r in ok:
        r["loop_s"] = sum(r[m] for m in MODES)

    if args.trace:
        values, rows, lines, extra = traced_report(tracer, traced, untraced, n_components,
                                                   RUNS / f"{tag}-spans.json")
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values, rows, lines, extra = plain_report(untraced, setups, evaluation, report,
                                                  len(records), failed)
        units = E2E_UNITS
    env = environment()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    header = [f"perfbench {workload.name}: seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g} loops={len(records)} failed={failed}",
              "environment: " + json.dumps(env, sort_keys=True)]
    table = [f"{'metric':<26} {'value':>14} {'unit':<12} samples",
             *(f"{name:<26} {value:14.6g} {unit:<12} {n}" for name, value, unit, n in rows)]
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "loops": records, "metrics": metrics, **extra}
    (RUNS / f"{tag}-result.json").write_text(json.dumps(result, indent=1))
    print("\n".join(header + lines + table))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
