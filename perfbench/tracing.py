"""In-process traced run: spans around calls into each package layer.

The tracer replaces the listed public functions in every ``covertq`` module
namespace that holds them, plus numpy's Hermitian eigensolvers and SVD, with
wrappers that record a span (name, start, end, parent) while installed. No
file under ``src/`` changes; uninstalling restores the original objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import re
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

# Layer functions wrapped in every covertq namespace that holds them.
TARGETS = {
    "channels": ("load_channel", "willie_model"),
    "twirl": ("projection_stats", "twirl_parameters", "monte_carlo_twirl"),
    "rates": ("hashing_rate", "distillation_rate", "unassisted_bound", "assisted_bound"),
    "covert": ("qre", "chi2", "vn_entropy", "support_contained", "covert_constant"),
    "sparse": ("willie_state_exact", "bound_chain", "decomposition_report"),
    "detect": ("detection_at_n",),
    "linops": ("tensor_power", "trace_norm"),
}
MODULES = ("cli", "channels", "twirl", "covert", "sparse", "rates", "detect", "linops")
EIG_FUNCS = ("eigh", "eigvalsh", "svd")

# Per-layer metrics that are the summed self time of the named spans.
SELF_TIME_METRICS = {
    "cli.main_self_s": ("cli.main",),
    "channels.load_channel_s": ("channels.load_channel",),
    "channels.willie_model_s": ("channels.willie_model",),
    "twirl.projection_stats_s": ("twirl.projection_stats",),
    "twirl.twirl_parameters_s": ("twirl.twirl_parameters",),
    "rates.bounds_s": tuple(f"rates.{f}" for f in TARGETS["rates"]),
    "twirl.monte_carlo_twirl_s": ("twirl.monte_carlo_twirl",),
    "covert.qre_s": ("covert.qre",),
    "covert.chi2_s": ("covert.chi2",),
    "covert.vn_entropy_s": ("covert.vn_entropy",),
    "covert.support_contained_s": ("covert.support_contained",),
    "covert.covert_constant_s": ("covert.covert_constant",),
    "sparse.willie_state_exact_s": ("sparse.willie_state_exact",),
    "sparse.bound_chain_s": ("sparse.bound_chain",),
    "sparse.decomposition_report_s": ("sparse.decomposition_report",),
    "detect.detection_at_n_s": ("detect.detection_at_n",),
    "linops.eig_s": ("linops.eig",),
    "linops.density_operator_s": ("linops.density_operator",),
    "linops.tensor_power_s": ("linops.tensor_power",),
    "linops.trace_norm_s": ("linops.trace_norm",),
}
COUNT_METRICS = {
    "covert.qre_calls": "covert.qre",
    "sparse.willie_state_exact_calls": "sparse.willie_state_exact",
    "linops.density_operator_calls": "linops.density_operator",
}
# Averaged per successful call; linops.peak_dim is a maximum instead.
PER_CALL_METRICS = (*SELF_TIME_METRICS, *COUNT_METRICS, "linops.eig_calls_at_cap", "trace.unattributed_s")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, dim]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _span(self, name, fn, dim_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            dim = dim_of(args) if dim_of else 0
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, dim])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy

        mods = {m: importlib.import_module(f"covertq.{m}") for m in MODULES}
        for layer, names in TARGETS.items():
            for name in names:
                orig = getattr(mods[layer], name)
                wrapped = self._span(f"{layer}.{name}", orig)
                for mod in mods.values():
                    if getattr(mod, name, None) is orig:
                        self._replace(mod, name, wrapped)
        self._replace(mods["cli"], "main", self._span("cli.main", mods["cli"].main))
        dop = mods["linops"].DensityOperator
        self._replace(
            dop, "__post_init__",
            self._span("linops.density_operator", dop.__post_init__, lambda a: numpy.shape(a[0].mat)[0]),
        )
        for name in EIG_FUNCS:
            self._replace(
                numpy.linalg, name,
                self._span("linops.eig", getattr(numpy.linalg, name), lambda a: numpy.shape(a[0])[0]),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def root(self) -> int:
        """Open the per-call root span; close it with ``close``."""
        self.spans.append(["call", time.perf_counter(), 0.0, -1, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()


def run_in_process(cli, argv) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured; an uncaught exception
    is printed as the interpreter would and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - reported as the process would
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class TracedCall(NamedTuple):
    code: int
    out: str
    err: str
    spans: list
    wall: float


def traced_call(cli, argv) -> TracedCall:
    """One in-process call with the tracer installed."""
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        root = tracer.root()
        code, out, err = run_in_process(cli, argv)
        tracer.close(root)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return TracedCall(code, out, err, tracer.spans, wall)


def layer_metrics(spans: list, cap_dim: int) -> dict:
    """Self times and counts of one traced call."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict = {}
    counts: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        counts[name] = counts.get(name, 0) + 1
    out = {m: sum(self_time.get(n, 0.0) for n in names) for m, names in SELF_TIME_METRICS.items()}
    out.update({m: counts.get(n, 0) for m, n in COUNT_METRICS.items()})
    eig_dims = [s[4] for s in spans if s[0] == "linops.eig"]
    out["linops.eig_calls"] = len(eig_dims)
    out["linops.eig_calls_at_cap"] = sum(1 for d in eig_dims if cap_dim and d == cap_dim)
    out["linops.peak_dim"] = max([s[4] for s in spans] + [0])
    out["trace.unattributed_s"] = self_time.get("call", 0.0)
    mc = [s for s in spans if s[0] == "twirl.monte_carlo_twirl"]
    out["_mc_seconds"] = sum(end - start for _, start, end, _, _ in mc)
    return out


def counters(metrics: dict) -> dict:
    """The exact counts of one call's metrics, which must repeat."""
    return {k: v for k, v in metrics.items() if k.endswith(("_calls", "_at_cap", "peak_dim"))}


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)$")


def import_split(stderr: str) -> dict:
    """Seconds under covertq, scipy and numpy from ``-X importtime`` output.

    Entries are printed children first, indented by depth; a package's time
    is the cumulative time of its outermost entries."""
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4)))
    totals = {"covertq": 0, "scipy": 0, "numpy": 0}
    # Walk from the end: a row's ancestors are the open rows of smaller depth.
    open_rows: list = []
    for depth, cum, name in reversed(rows):
        while open_rows and open_rows[-1][0] >= depth:
            open_rows.pop()
        top = name.split(".")[0]
        if top in totals and all(a[1] != top for a in open_rows):
            totals[top] += cum
        open_rows.append((depth, top))
    return {
        "cli.import_s": totals["covertq"] / 1e6,
        "cli.import_scipy_s": totals["scipy"] / 1e6,
        "cli.import_numpy_s": totals["numpy"] / 1e6,
    }


def measure_imports(env: dict, cwd, repeats: int = 3) -> dict:
    """Median ``-X importtime`` split of ``import covertq.cli``."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import covertq.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(import_split(proc.stderr))
    return {k: sorted(r[k] for r in runs)[len(runs) // 2] for k in runs[0]}
