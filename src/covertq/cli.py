r"""Command-line front end.

Subcommands: report, srl-curve, detect-sim, twirl-check. Channel specs are
JSON files (see ``channels.load_channel``); CSV output uses a header row,
'.' decimals, and 17 significant digits so doubles round-trip losslessly.

Each subcommand returns its output text and a summary; ``main`` alone
writes them, the output to ``--out`` or stdout and the summary (detect-sim
only) to stdout when ``--out`` is given and to stderr otherwise. The
process entry ``run`` then freezes the garbage collector, so the exit skips
its last collections (~8 ms a call with numpy loaded); ``main`` does not.

Exit codes (their ``code=`` names are tabulated in the README): 0 success,
2 usage, 3 unreadable or invalid input, or an output that cannot be
written, 4 trace preservation failure, 5 support-condition failure,
6 dimension cap, 7 degenerate analysis parameter, 8 failed internal
self-check or any other unexpected error. ``_EXIT_TABLE`` is the one map
from failure to exit code and name. Every failure prints one
machine-parseable line ``covertq: error code=<name> msg="..."`` on stderr,
and never a traceback. Inside the quotes, backslash, double quote, line
feed and carriage return are escaped as ``\\``, ``\"``, ``\n`` and ``\r``.

BLAS runs on one thread: a second worker costs CPU in every call, and the
eigensolve round-off, hence the printed digits, would follow the core
count. A thread count the caller sets in OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or NUMEXPR_NUM_THREADS wins. The pin
must precede numpy's load, which is why this module sets it at import time
and the package __init__ imports nothing eagerly.

Each call imports only what its subcommand needs. Module level holds the
thread pin, numpy, the layers every call loads to read a channel
(``channels``, ``linops``, ``errors``) and ``covert``, which report,
srl-curve and detect-sim all call; deferring them would move their cost
from import into each call and make no call faster. ``twirl`` and
``rates`` load inside the subcommands that call them, ``sparse`` and
``detect`` inside detect-sim, and ``hashlib``, which maps OpenSSL's
libcrypto, only where report and twirl-check compute the channel id.
twirl-check's sampler maps libcrypto anyway, through ``numpy.random``.
No call loads ``dataclasses`` or ``logging`` (see ``channels.load_channel``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_pin_threads()

from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

from . import channels, covert, linops  # noqa: E402
from .errors import (  # noqa: E402
    ChannelFormatError,
    DegenerateChannelError,
    DimensionCapError,
    SupportViolationError,
    TracePreservationError,
)
from .linops import DensityOperator  # noqa: E402

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_TP = 4
EXIT_SUPPORT = 5
EXIT_DIM = 6
EXIT_DEGENERATE = 7
EXIT_INTERNAL = 8

class _UsageError(Exception):
    """A command line that argparse cannot parse."""


class _InnocentFormatError(ValueError):
    """An ``--innocent`` spec that names no state of the right shape."""


class _NFormatError(ValueError):
    """An ``--n`` list or log grid that holds no usable block length."""


# Exit code and error name per exception class, the only such map. An
# exception takes the entry of the first class along its MRO, so subclasses
# listed here override their bases. A RuntimeError is a failed self-check;
# any other exception is a bug, and its message carries its class name.
_EXIT_TABLE = {
    _UsageError: (EXIT_USAGE, "usage"),
    _InnocentFormatError: (EXIT_PARSE, "innocent-format"),
    _NFormatError: (EXIT_PARSE, "n-format"),
    ChannelFormatError: (EXIT_PARSE, "channel-format"),
    TracePreservationError: (EXIT_TP, "trace-preservation"),
    SupportViolationError: (EXIT_SUPPORT, "support-violation"),
    DimensionCapError: (EXIT_DIM, "dimension"),
    DegenerateChannelError: (EXIT_DEGENERATE, "degenerate"),
    ValueError: (EXIT_PARSE, "invalid-input"),
    RuntimeError: (EXIT_INTERNAL, "internal-check"),
    Exception: (EXIT_INTERNAL, "internal-check"),
}


# Escapes that keep a message inside one quoted field on one line.
_MSG_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _channel_id(ch: channels.QuantumChannel) -> str:
    import hashlib

    blob = repr(
        [
            [[(_fmt(e.real), _fmt(e.imag)) for e in row] for row in k]
            for k in ch.kraus
        ]
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_innocent(spec: str, dim: int) -> DensityOperator:
    spec = spec.strip()
    try:
        idx = int(spec)
    except ValueError:
        idx = None
    if idx is not None:
        try:
            return DensityOperator.basis_state(dim, idx)
        except ValueError as exc:
            raise _InnocentFormatError(str(exc)) from exc
    try:
        raw = json.loads(spec)
        rows = [[e if isinstance(e, list) else [e, 0] for e in row] for row in raw]
        mat = np.array([[channels.complex_entry(e) for e in r] for r in rows], dtype=np.complex128)
    except (json.JSONDecodeError, TypeError, IndexError, ValueError) as exc:
        raise _InnocentFormatError(f"cannot parse innocent state spec: {exc}") from exc
    if mat.shape != (dim, dim):
        raise _InnocentFormatError(
            f"innocent state has shape {mat.shape}, channel input needs {(dim, dim)}"
        )
    return DensityOperator(mat)


def _parse_n_list(spec: str) -> list[int]:
    spec = spec.strip()
    try:
        if spec.startswith("log:"):
            _, lo, hi, count = spec.split(":")
            # geomspace warns on stderr about a negative or infinite end;
            # int() below refuses such a grid instead.
            with np.errstate(all="ignore"):
                grid = np.geomspace(float(lo), float(hi), int(count))
            ns = sorted({int(round(g)) for g in grid})
        else:
            ns = [int(tok) for tok in spec.split(",") if tok]
    except (ValueError, OverflowError) as exc:
        kind = "log grid spec" if spec.startswith("log:") else "n list"
        raise _NFormatError(f"bad {kind} {spec!r}: {exc}") from exc
    if not ns:
        raise _NFormatError(f"n list {spec!r} holds no block length")
    return ns


def _build_model(args) -> tuple[channels.QuantumChannel, str, channels.WillieModel]:
    """Returns (receiver channel, warden mode, warden model)."""
    bob = channels.load_channel(args.channel)
    if args.willie_file:
        willie = channels.load_channel(args.willie_file)
        mode = "direct"
        if willie.d_in != bob.d_in:
            raise ChannelFormatError(
                "receiver and warden channels must share the input dimension"
            )
    else:
        willie = channels.complementary(bob)
        mode = "complementary"
    innocent = _parse_innocent(args.innocent, willie.d_in)
    model = channels.willie_model(willie, innocent)
    return bob, mode, model


def _analyze(args) -> tuple:
    """The figures that report and srl-curve share, as (receiver channel,
    warden mode, c_q, projection stats, q_tw, p_vec, R, R_d, bound rows).
    R and R_d are the hashing and distillation rates, each taken once. A
    bound row is (n, unassisted bound, assisted bound); there are none when
    c_q is infinite, but each n's bounds are taken, and so checked, all the
    same."""
    from . import rates, twirl

    bob, mode, model = _build_model(args)
    twirl.require_qubit_input(bob)
    c_q = covert.covert_constant(model)
    stats = twirl.projection_stats(bob)
    q_tw = twirl.twirl_parameters(stats)
    p_vec = twirl.compose_with_failure(q_tw, stats.p_f)
    r, r_d = rates.hashing_rate(p_vec), rates.distillation_rate(q_tw, stats.p_f)
    rows = []
    for n in _parse_n_list(args.n):
        b1 = rates.unassisted_bound(n, args.vartheta, c_q, args.delta, r)
        b2 = rates.assisted_bound(n, args.vartheta, c_q, args.delta, r_d)
        if not math.isinf(c_q):
            rows.append((n, b1, b2))
    return bob, mode, c_q, stats, q_tw, p_vec, r, r_d, rows


def _pauli_line(p: channels.PauliDistribution) -> str:
    from .twirl import PAULI_LABELS

    return " ".join(f"{lbl}={_fmt(x)}" for lbl, x in zip(PAULI_LABELS, p.weights))


def _write(text: str, path: Optional[str], stream) -> None:
    """Write text to the file at ``path``, or to ``stream`` (flushed) when no
    path is given. A failed open, write or flush, such as a full disk or a
    closed pipe, is refused as invalid input."""
    try:
        if path:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            stream.write(text)
            stream.flush()
    except OSError as exc:
        if path:
            where = f"file {path}"
        else:
            where = "to <stdout>" if stream is sys.stdout else "to <stderr>"
        raise ValueError(f"cannot write output {where}: {exc.strerror or exc}") from exc


def cmd_report(args) -> tuple[str, str]:
    bob, mode, c_q, stats, q_tw, p_vec, r, r_d, rows = _analyze(args)
    trivial = math.isinf(c_q)
    lines = [
        f"channel-id: {_channel_id(bob)}",
        f"willie-mode: {mode}",
        f"tp-residual: {_fmt(bob.residual)}",
        "support-ok: true",
        f"trivially-covert: {'true' if trivial else 'false'}",
        f"p_f: {_fmt(stats.p_f)}",
        f"q_tw: {_pauli_line(q_tw)}",
        f"p_vec: {_pauli_line(p_vec)}",
        f"c_q: {'inf' if trivial else _fmt(c_q)}",
        f"R: {_fmt(r)}",
        f"R_d: {_fmt(r_d)}",
    ]
    if trivial:
        lines.append(
            "note: warden outputs are identical; any signal density is covert "
            "and the qubit count bounds are unbounded"
        )
    for n, b1, b2 in rows:
        lines.append(
            f"n={n}: m_lower_unassisted={_fmt(b1.m_lower)} "
            f"m_lower_assisted={_fmt(b2.m_lower)} "
            f"classical_bits_upper={_fmt(b2.classical_bits_upper)}"
        )
    return "\n".join(lines) + "\n", ""


def cmd_srl_curve(args) -> tuple[str, str]:
    _, _, c_q, _, _, _, _, _, rows = _analyze(args)
    if math.isinf(c_q):
        raise DegenerateChannelError(
            "trivially covert channel: qubit count bounds are unbounded, "
            "no finite curve to emit"
        )
    lines = ["n,m_lower_unassisted,m_lower_assisted,classical_bits_upper"]
    for n, b1, b2 in rows:
        lines.append(
            f"{n},{_fmt(b1.m_lower)},{_fmt(b2.m_lower)},{_fmt(b2.classical_bits_upper)}"
        )
    return "\n".join(lines) + "\n", ""


def cmd_detect_sim(args) -> tuple[str, str]:
    _, mode, model = _build_model(args)
    c_q = covert.covert_constant(model)
    # A past-cap block length is refused before any work on it. The budget,
    # block length and weight tolerance are checked also when c_q is
    # infinite and the model is refused as degenerate.
    linops.check_exact_block(args.n_single, model.dim)
    q = covert.q_for_budget(c_q, args.delta, args.n_single)
    covert.check_vartheta(args.vartheta)
    if math.isinf(c_q):
        raise DegenerateChannelError(
            "warden outputs are identical (trivially covert); any density is "
            "covert and the detection figures are degenerate"
        )
    if q >= 1.0:
        raise DegenerateChannelError(
            f"budget saturates the signal density (q=1) at n={args.n_single}; "
            "sparse signaling needs q < 1, raise n or lower the budget"
        )
    if q == 0.0:
        raise ValueError(
            f"budget {args.delta} leaves no signal density (q=0) at n={args.n_single}; "
            "sparse signaling needs q > 0, raise the budget"
        )
    from . import detect, sparse

    cfg = sparse.SparseSignalConfig(n=args.n_single, q=q, vartheta=args.vartheta)
    states = sparse.WardenStates(model, cfg)
    chain = sparse.bound_chain(states)
    report = sparse.decomposition_report(states)
    res = detect.detection_at_n(states, args.delta)
    fig = states.figures
    header = "n,q,vartheta,d_exact,d_product,d_chi2_bound,epsilon,chernoff,fannes,holder"
    holder = "" if report.holder_bound is None else _fmt(report.holder_bound)
    row = ",".join(
        [
            str(cfg.n),
            _fmt(cfg.q),
            _fmt(cfg.vartheta),
            _fmt(fig.d_exact),
            _fmt(fig.d_product),
            _fmt(chain.d_chi2_bound),
            _fmt(fig.epsilon),
            _fmt(report.chernoff_bound),
            _fmt(report.fannes_bound),
            holder,
        ]
    )
    summary = [
        f"willie-mode: {mode}",
        f"c_q: {_fmt(c_q)}",
        f"trace-distance: {_fmt(fig.trace_distance)}",
        f"p_e_willie: {_fmt(res.p_e_willie)}",
        f"qre-exact: {_fmt(fig.d_exact)}",
        f"qre-budget: {_fmt(args.delta)}",
        f"covert-ok: {'true' if res.covert_ok else 'false'}",
    ]
    return header + "\n" + row + "\n", "\n".join(summary) + "\n"


def cmd_twirl_check(args) -> tuple[str, str]:
    from . import twirl

    ch = channels.load_channel(args.channel)
    stats = twirl.projection_stats(ch)
    analytic = twirl.twirl_parameters(stats)
    empirical = twirl.monte_carlo_twirl(analytic, stats.p_f, args.samples, args.seed)
    gap = float(np.max(np.abs(analytic.weights - empirical.weights)))
    lines = [
        f"channel-id: {_channel_id(ch)}",
        f"tp-residual: {_fmt(ch.residual)}",
        f"p_f: {_fmt(stats.p_f)}",
        f"samples: {args.samples}",
        f"seed: {args.seed}",
        f"analytic:  {_pauli_line(analytic)}",
        f"empirical: {_pauli_line(empirical)}",
        f"max-gap: {_fmt(gap)}",
    ]
    return "\n".join(lines) + "\n", ""


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", required=True, help="receiver-side channel spec file")
    p.add_argument(
        "--willie-file",
        default=None,
        help="warden-side channel spec file; default derives the warden side "
        "as the complementary channel of --channel",
    )
    p.add_argument(
        "--innocent",
        required=True,
        help="innocent input: a basis-state index or an inline JSON density matrix",
    )


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, required=True, help="divergence budget in nats")
    half_width = "weight-set half width in (0, 1]; the set in force is |w/n - q| <= vartheta"
    p.add_argument("--vartheta", type=float, required=True, help=half_width)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a coded line instead of argparse's own text;
    subcommand parsers inherit this class."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="covertq",
        description="Covert qubit signaling analysis over noisy channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
        ("report", cmd_report, "full covertability report for a channel"),
        ("srl-curve", cmd_srl_curve, "square-root scaling curve as CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_model_args(p)
        _add_budget_args(p)
        p.add_argument(
            "--n", required=True, help="comma-separated block lengths, or log:LO:HI:COUNT"
        )
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser(
        "detect-sim", help="exact warden detection figures and bound chain at one n"
    )
    _add_model_args(p)
    _add_budget_args(p)
    p.add_argument("--n", dest="n_single", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_detect_sim)

    p = sub.add_parser(
        "twirl-check", help="analytic vs Monte Carlo twirled Pauli weights"
    )
    p.add_argument("--channel", required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_twirl_check)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        output, summary = args.fn(args)
        _write(output, args.out, sys.stdout)
        if summary:
            # Keep the output stream byte-clean: the summary goes to stdout
            # only when the output goes to a file.
            _write(summary, None, sys.stdout if args.out else sys.stderr)
        return 0
    except Exception as exc:
        cls = next(c for c in type(exc).__mro__ if c in _EXIT_TABLE)
        code, name = _EXIT_TABLE[cls]
        msg = f"{type(exc).__name__}: {exc}" if cls is Exception else str(exc)
        line = f'covertq: error code={name} msg="{msg.translate(_MSG_ESCAPES)}"\n'
        try:
            _write(line, None, sys.stderr)
        except ValueError:
            pass  # stderr cannot take the line; the exit code still reports
        return code


def run() -> None:
    """Process entry of the ``covertq`` script and ``python -m covertq.cli``."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
