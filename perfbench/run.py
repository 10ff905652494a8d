#!/usr/bin/env python3
"""covertq benchmark: wall time of whole CLI calls, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/covertq``,
``data/`` and ``tests/golden/``). The seed generates the channel spec files
and argv of the workload (``inputs.py``); the program receives only those.

``--trace 0`` runs a closed loop: one ``python -m covertq.cli`` process at a
time, the next started when the previous has exited. Every input runs once;
the inputs that passed then run again in turn while the next call would end
within S seconds of the first. Each result is judged by ``oracles.py``;
``attempted`` and ``failed`` count inputs, so they depend on the seed only.
It reports

- ``wall_s``: median wall time of a successful call, process start to exit;
- ``wall_s_tail``: the highest percentile of successful calls with at least
  ten samples beyond it, or the slowest call when fewer than 30 succeeded;
- ``setup_s``: median wall time of ``python -c "import covertq.cli"``, timed
  between the calls every few seconds;
- ``peak_rss_mb``: the largest peak RSS of any child, from ``os.wait4``.

``--trace 1`` calls ``covertq.cli.main`` in-process on the same inputs, once
untraced and once traced, then repeats traced calls to check that the counts
repeat (``tracing.py``), and reports per-layer self times and counts per
successful call.

BLAS threads are pinned with COVERTQ_THREADS = min(2, nproc). The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
import oracles

ROOT = Path.cwd()
REQUIRED = (Path("src") / "covertq" / "cli.py", inputs.SHIPPED_SPEC, inputs.GOLDEN_DIR)
# setup_s: one import is timed whenever this many seconds have passed since
# the last, so the samples spread over the whole run; at least SETUP_MIN.
SETUP_GAP = 3.0
SETUP_MIN = 5
TAIL_BEYOND = 10
# A call still running after this long is killed and counts as failed.
CALL_TIMEOUT = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["COVERTQ_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list, env: dict, workdir: Path) -> tuple[float, int, str, str, float]:
    """(wall seconds, exit code, stdout, stderr, peak RSS in MiB) of one
    child, killed if it outlives CALL_TIMEOUT."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024.0)


def environment(env: dict) -> dict:
    """Machine and library record, read-only from lscpu and the children's
    interpreter."""
    probe = (
        "import contextlib, importlib.metadata as md, io, json, platform, numpy\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf): numpy.show_runtime()\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "  'scipy': md.version('scipy'), 'blas': blas.get('name', '') + ' ' + blas.get('version', ''),\n"
        "  'numpy_runtime': buf.getvalue()}))\n"
    )
    rec = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True,
                                    text=True, timeout=120, check=True).stdout)
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except OSError:
        lscpu = ""
    fields = dict(line.split(":", 1) for line in lscpu.splitlines() if ":" in line)
    for key, name in (("cpu", "Model name"), ("l2", "L2 cache"), ("l3", "L3 cache")):
        rec[key] = fields.get(name, "").strip()
    rec["nproc"] = len(os.sched_getaffinity(0))
    rec["COVERTQ_THREADS"] = env["COVERTQ_THREADS"]
    return rec


def tail(walls: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples above it. Below 3 * TAIL_BEYOND samples no percentile of at
    least two thirds has that many, and the maximum is reported instead; the
    cut keeps a workload's usual sample count away from the jump between
    the two rules."""
    walls = sorted(walls)
    if len(walls) < 3 * TAIL_BEYOND:
        return walls[-1], 100.0
    idx = len(walls) - TAIL_BEYOND - 1
    return walls[idx], 100.0 * (idx + 1) / len(walls)


def _tally(verdicts: list) -> tuple[int, dict]:
    """(failed inputs, count per first failure reason)."""
    reasons: dict = {}
    for v in verdicts:
        if v is not None:
            reasons[v] = reasons.get(v, 0) + 1
    return sum(reasons.values()), reasons


def timed_run(calls: list, seconds: float, env: dict, workdir: Path) -> tuple[dict, dict, int, int]:
    """Closed loop of CLI processes; end-to-end metrics over successful calls.

    Every input runs once, in order. Then the inputs whose first call passed
    run again, in turn, while the next call, taking as long as that input's
    last one, would end within ``seconds`` of the first call. An input fails
    if any of its calls fails. ``attempted`` counts inputs, so it and
    ``failed`` depend on the seed only, not on how many calls fit."""
    importer = [sys.executable, "-c", "import covertq.cli"]
    run_child(importer, env, workdir)  # compile bytecode, fill the page cache
    setup, rss = [], []
    last_setup = -math.inf

    def time_setup() -> None:
        nonlocal last_setup
        wall, code, _, err, peak = run_child(importer, env, workdir)
        if code != 0:
            raise RuntimeError(f"import covertq.cli failed: {err.strip()[-300:]}")
        setup.append(wall)
        rss.append(peak)
        last_setup = time.perf_counter()

    cli = [sys.executable, "-m", "covertq.cli"]
    walls, log = [], []
    verdicts = [None] * len(calls)  # first failure reason of each input
    last_wall = [0.0] * len(calls)

    def call(idx: int) -> None:
        if time.perf_counter() - last_setup >= SETUP_GAP:
            time_setup()
        wall, code, out, err, peak = run_child(cli + calls[idx].argv, env, workdir)
        rss.append(peak)
        log.append([idx, code, round(wall, 4)])
        last_wall[idx] = wall
        reason = oracles.check(calls[idx], code, out, err)
        if reason is None:
            walls.append(wall)
        elif verdicts[idx] is None:
            verdicts[idx] = reason

    deadline = time.perf_counter() + seconds
    for idx in range(len(calls)):
        call(idx)
    passing = [i for i, v in enumerate(verdicts) if v is None]
    repeats = 0
    while passing:
        idx = passing[repeats % len(passing)]
        if time.perf_counter() + last_wall[idx] > deadline:
            break  # it would end after the deadline
        call(idx)
        repeats += 1
    while len(setup) < SETUP_MIN:
        time_setup()
    failed, reasons = _tally(verdicts)
    summary = {"failed_frac": failed / len(calls), "successes": len(walls), "failures": reasons, "calls": log,
               "setup_samples": len(setup)}
    if not walls:
        return {}, summary, len(calls), failed
    tail_value, pct = tail(walls)
    summary.update(tail_percentile=pct, tail_samples=len(walls))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (tail_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return metrics, summary, len(calls), failed


def traced_run(calls: list, seconds: float, env: dict) -> tuple[dict, dict, int, int]:
    """Per-layer metrics per successful call, averaged over the run.

    Every input runs in-process once untraced and once traced; traced stdout
    must equal untraced stdout. Then the inputs that passed run traced again,
    in turn, at least once and until ``seconds`` have passed: stdout and the
    exact counters must repeat. ``attempted`` and ``failed`` count inputs."""
    import tracing

    os.environ["COVERTQ_THREADS"] = env["COVERTQ_THREADS"]
    sys.path.insert(0, str(ROOT / "src"))
    from covertq import cli

    imports = tracing.measure_imports(env, ROOT)
    golden = inputs.golden_detect()
    problems = []
    if oracles.check(golden, *tracing.run_in_process(cli, golden.argv)):  # also warms up numpy
        problems.append("in-process golden call differs")
    verdicts = [None] * len(calls)
    first, per_call, overheads = {}, [], []
    deadline = time.perf_counter() + seconds
    for idx, call in enumerate(calls):
        t0 = time.perf_counter()
        code, out, err = tracing.run_in_process(cli, call.argv)
        untraced = time.perf_counter() - t0
        traced = tracing.traced_call(cli, call.argv)
        if (traced.code, traced.out) != (code, out):
            problems.append(f"traced stdout differs: {call.argv[0]}")
        verdicts[idx] = oracles.check(call, code, out, err)
        if verdicts[idx] is not None:
            continue
        layers = tracing.layer_metrics(traced.spans, call.warden_dim**call.n if call.n else 0)
        if call.kind == "twirl-check":
            layers["_mc_samples"] = int(call.argv[call.argv.index("--samples") + 1])
        first[idx] = (code, out, layers)
        per_call.append(layers)
        overheads.append(traced.wall - untraced)
    repeats = 0
    while first and (repeats == 0 or time.perf_counter() < deadline):
        idx = list(first)[repeats % len(first)]
        repeats += 1
        code, out, layers = first[idx]
        again = tracing.traced_call(cli, calls[idx].argv)
        if (again.code, again.out) != (code, out):
            problems.append(f"traced stdout differs between repeats: {calls[idx].argv[0]}")
        cap = calls[idx].warden_dim**calls[idx].n if calls[idx].n else 0
        if tracing.counters(tracing.layer_metrics(again.spans, cap)) != tracing.counters(layers):
            problems.append(f"counters differ between traced repeats: {calls[idx].argv[0]}")
    failed, reasons = _tally(verdicts)
    summary = {"failed_frac": failed / len(calls), "successes": len(per_call), "failures": reasons,
               "traced_repeats": repeats, "problems": problems}
    if not per_call:
        return {}, summary, len(calls), failed
    metrics = {k: (v, "s") for k, v in imports.items()}
    for key in tracing.PER_CALL_METRICS:
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (statistics.fmean(m[key] for m in per_call), unit)
    metrics["linops.peak_dim"] = (max(m["linops.peak_dim"] for m in per_call), "dim")
    mc_seconds = sum(m["_mc_seconds"] for m in per_call)
    mc_samples = sum(m.get("_mc_samples", 0) for m in per_call)
    metrics["twirl.mc_samples_per_s"] = (mc_samples / mc_seconds if mc_seconds else 0.0, "1/s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    summary["counters_first_call"] = tracing.counters(per_call[0])
    return metrics, summary, len(calls), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from a covertq source checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the cleanup below: the running child is
    # killed and reaped, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = child_env()
    workdir = Path("perfbench") / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(env), sort_keys=True))
        correct = True
        bad = oracles.self_check()
        golden = inputs.golden_detect()
        _, code, out, err, _ = run_child([sys.executable, "-m", "covertq.cli", *golden.argv], env, workdir)
        bad = bad or oracles.check(golden, code, out, err)
        if bad:
            print(f"oracle self-check failed: {bad}", file=sys.stderr)
            correct = False
        calls = inputs.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, summary, attempted, failed = traced_run(calls, args.seconds, env)
        else:
            metrics, summary, attempted, failed = timed_run(calls, args.seconds, env, workdir)
        if summary.get("problems") or not metrics:
            correct = False
        print("summary " + json.dumps(summary, sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
