r"""Command-line front end.

Subcommands: report, srl-curve, detect-sim, twirl-check. Channel specs are
JSON files (see ``channels.load_channel``); CSV output uses a header row,
'.' decimals, and 17 significant digits so doubles round-trip losslessly.

Exit codes: 0 success, 2 usage, 3 channel file parse error, 4 trace
preservation failure, 5 support-condition failure, 6 dimension cap,
7 degenerate analysis parameter, 8 failed internal self-check or any other
unexpected error. Every failure prints one machine-parseable line
``covertq: error code=<name> msg="..."`` on stderr, and never a traceback.
Inside the quotes, backslash, double quote, line feed and carriage return
are escaped as ``\\``, ``\"``, ``\n`` and ``\r``.

The environment variable COVERTQ_THREADS caps the linear-algebra thread
pool; it must be honored before numpy loads, which is why this module pins
it at import time and the package __init__ imports nothing eagerly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys


def _pin_threads() -> None:
    v = os.environ.get("COVERTQ_THREADS")
    if not v:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, v)


_pin_threads()

from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

from . import channels, covert, detect, rates, sparse, twirl  # noqa: E402
from .errors import (  # noqa: E402
    ChannelFormatError,
    DegenerateChannelError,
    DimensionCapError,
    EstimationFailureError,
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

# Exit code and error name per exception class. An exception takes the entry
# of the first class along its MRO, so subclasses listed here override their
# bases: EstimationFailureError is a RuntimeError but exits 7, while the
# other RuntimeErrors are failed self-checks. Any other exception is a bug;
# its message carries its class name.
_EXIT_TABLE = {
    ChannelFormatError: (EXIT_PARSE, "channel-format"),
    TracePreservationError: (EXIT_TP, "trace-preservation"),
    SupportViolationError: (EXIT_SUPPORT, "support-violation"),
    DimensionCapError: (EXIT_DIM, "dimension"),
    DegenerateChannelError: (EXIT_DEGENERATE, "degenerate"),
    EstimationFailureError: (EXIT_DEGENERATE, "degenerate"),
    ValueError: (EXIT_PARSE, "invalid-input"),
    RuntimeError: (EXIT_INTERNAL, "internal-check"),
    Exception: (EXIT_INTERNAL, "internal-check"),
}


# Escapes that keep a message inside one quoted field on one line.
_MSG_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


class _CliError(Exception):
    def __init__(self, code: int, name: str, msg: str):
        super().__init__(msg)
        self.code = code
        self.name = name


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _channel_id(ch: channels.QuantumChannel) -> str:
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
            raise _CliError(EXIT_PARSE, "innocent-format", str(exc)) from exc
    try:
        raw = json.loads(spec)
        mat = np.array(
            [
                [complex(e[0], e[1]) if isinstance(e, list) else complex(e) for e in row]
                for row in raw
            ],
            dtype=np.complex128,
        )
    except (json.JSONDecodeError, TypeError, IndexError, ValueError) as exc:
        raise _CliError(
            EXIT_PARSE, "innocent-format", f"cannot parse innocent state spec: {exc}"
        ) from exc
    if mat.shape != (dim, dim):
        raise _CliError(
            EXIT_PARSE,
            "innocent-format",
            f"innocent state has shape {mat.shape}, channel input needs {(dim, dim)}",
        )
    return DensityOperator(mat)


def _parse_n_list(spec: str) -> list[int]:
    spec = spec.strip()
    try:
        if spec.startswith("log:"):
            _, lo, hi, count = spec.split(":")
            ns = sorted({int(round(g)) for g in np.geomspace(float(lo), float(hi), int(count))})
        else:
            ns = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        kind = "log grid spec" if spec.startswith("log:") else "n list"
        raise _CliError(EXIT_PARSE, "n-format", f"bad {kind} {spec!r}: {exc}") from exc
    if not ns:
        raise _CliError(EXIT_PARSE, "n-format", f"n list {spec!r} holds no block length")
    return ns


@dataclass(frozen=True)
class ChannelReport:
    """Everything the report command prints, in recomputable form."""

    channel_id: str
    willie_mode: str
    tp_residual: float
    trivially_covert: bool
    p_f: float
    q_tw: twirl.PauliDistribution
    p_vec: twirl.PauliDistribution
    c_q: float
    rate_hashing: float
    rate_distill: float
    bounds: tuple


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


def _require_qubit_input(ch: channels.QuantumChannel) -> None:
    if ch.d_in != 2:
        raise DimensionCapError(
            f"twirl analysis needs a qubit-input channel, got d_in={ch.d_in}"
        )


def _analyze(args) -> ChannelReport:
    bob, mode, model = _build_model(args)
    _require_qubit_input(bob)
    c_q = covert.covert_constant(model)
    stats = twirl.projection_stats(bob)
    q_tw = twirl.twirl_parameters(stats)
    p_vec = twirl.compose_with_failure(q_tw, stats.p_f)
    rate_h = rates.hashing_rate(p_vec)
    rate_d = rates.distillation_rate(q_tw, stats.p_f)
    bounds = []
    if not math.isinf(c_q):
        for n in _parse_n_list(args.n):
            b1 = rates.unassisted_bound(n, args.vartheta, c_q, args.delta, p_vec)
            b2 = rates.assisted_bound(n, args.vartheta, c_q, args.delta, q_tw, stats.p_f)
            bounds.append((n, b1, b2))
    return ChannelReport(
        channel_id=_channel_id(bob),
        willie_mode=mode,
        tp_residual=channels.tp_residual(bob),
        trivially_covert=math.isinf(c_q),
        p_f=stats.p_f,
        q_tw=q_tw,
        p_vec=p_vec,
        c_q=c_q,
        rate_hashing=rate_h,
        rate_distill=rate_d,
        bounds=tuple(bounds),
    )


def _pauli_line(p: twirl.PauliDistribution) -> str:
    v = p.as_array()
    return " ".join(f"{lbl}={_fmt(x)}" for lbl, x in zip(twirl.PAULI_LABELS, v))


def _report_text(rep: ChannelReport) -> str:
    lines = [
        f"channel-id: {rep.channel_id}",
        f"willie-mode: {rep.willie_mode}",
        f"tp-residual: {_fmt(rep.tp_residual)}",
        "support-ok: true",
        f"trivially-covert: {'true' if rep.trivially_covert else 'false'}",
        f"p_f: {_fmt(rep.p_f)}",
        f"q_tw: {_pauli_line(rep.q_tw)}",
        f"p_vec: {_pauli_line(rep.p_vec)}",
        f"c_q: {'inf' if math.isinf(rep.c_q) else _fmt(rep.c_q)}",
        f"R: {_fmt(rep.rate_hashing)}",
        f"R_d: {_fmt(rep.rate_distill)}",
    ]
    if rep.trivially_covert:
        lines.append(
            "note: warden outputs are identical; any signal density is covert "
            "and the qubit count bounds are unbounded"
        )
    for n, b1, b2 in rep.bounds:
        lines.append(
            f"n={n}: m_lower_unassisted={_fmt(b1.m_lower)} "
            f"m_lower_assisted={_fmt(b2.m_lower)} "
            f"classical_bits_upper={_fmt(b2.classical_bits_upper)}"
        )
    return "\n".join(lines) + "\n"


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_report(args) -> int:
    rep = _analyze(args)
    _write_out(_report_text(rep), args.out)
    return 0


def cmd_srl_curve(args) -> int:
    rep = _analyze(args)
    if rep.trivially_covert:
        raise DegenerateChannelError(
            "trivially covert channel: qubit count bounds are unbounded, "
            "no finite curve to emit"
        )
    rows = ["n,m_lower_unassisted,m_lower_assisted,classical_bits_upper"]
    for n, b1, b2 in rep.bounds:
        rows.append(
            f"{n},{_fmt(b1.m_lower)},{_fmt(b2.m_lower)},{_fmt(b2.classical_bits_upper)}"
        )
    _write_out("\n".join(rows) + "\n", args.out)
    return 0


def cmd_detect_sim(args) -> int:
    _, mode, model = _build_model(args)
    c_q = covert.covert_constant(model)
    if math.isinf(c_q):
        raise DegenerateChannelError(
            "warden outputs are identical (trivially covert); any density is "
            "covert and the detection figures are degenerate"
        )
    q = covert.q_for_budget(c_q, args.delta, args.n_single)
    if q >= 1.0:
        raise DegenerateChannelError(
            f"budget saturates the signal density (q=1) at n={args.n_single}; "
            "sparse signaling needs q < 1, raise n or lower the budget"
        )
    cfg = sparse.SparseSignalConfig(n=args.n_single, q=q, vartheta=args.vartheta)
    states = sparse.WardenStates(model, cfg)
    chain = sparse.bound_chain(states)
    report = sparse.decomposition_report(states)
    res = detect.detection_at_n(states, args.delta)
    header = "n,q,vartheta,d_exact,d_product,d_chi2_bound,epsilon,chernoff,fannes,holder"
    holder = "" if report.holder_bound is None else _fmt(report.holder_bound)
    row = ",".join(
        [
            str(cfg.n),
            _fmt(cfg.q),
            _fmt(cfg.vartheta),
            _fmt(chain.d_exact),
            _fmt(chain.d_product),
            _fmt(chain.d_chi2_bound),
            _fmt(report.epsilon),
            _fmt(report.chernoff_bound),
            _fmt(report.fannes_bound),
            holder,
        ]
    )
    _write_out(header + "\n" + row + "\n", args.out)
    # Keep the CSV stream byte-clean: the summary goes to stdout only when
    # the CSV goes to a file.
    s = sys.stdout if args.out else sys.stderr
    s.write(f"willie-mode: {mode}\n")
    s.write(f"c_q: {_fmt(c_q)}\n")
    s.write(f"trace-distance: {_fmt(res.trace_distance)}\n")
    s.write(f"p_e_willie: {_fmt(res.p_e_willie)}\n")
    s.write(f"qre-exact: {_fmt(res.qre_exact)}\n")
    s.write(f"qre-budget: {_fmt(res.qre_budget)}\n")
    s.write(f"covert-ok: {'true' if res.covert_ok else 'false'}\n")
    return 0


def cmd_twirl_check(args) -> int:
    ch = channels.load_channel(args.channel)
    _require_qubit_input(ch)
    stats = twirl.projection_stats(ch)
    analytic = twirl.twirl_parameters(stats)
    empirical = twirl.monte_carlo_twirl(ch, args.samples, args.seed)
    gap = float(np.max(np.abs(analytic.as_array() - empirical.as_array())))
    lines = [
        f"channel-id: {_channel_id(ch)}",
        f"tp-residual: {_fmt(channels.tp_residual(ch))}",
        f"p_f: {_fmt(stats.p_f)}",
        f"samples: {args.samples}",
        f"seed: {args.seed}",
        f"analytic:  {_pauli_line(analytic)}",
        f"empirical: {_pauli_line(empirical)}",
        f"max-gap: {_fmt(gap)}",
    ]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


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


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a coded line instead of argparse's own text;
    subcommand parsers inherit this class."""

    def error(self, message):
        raise _CliError(EXIT_USAGE, "usage", message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="covertq",
        description="Covert qubit signaling analysis over noisy channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full covertability report for a channel")
    _add_model_args(p)
    p.add_argument("--delta", type=float, required=True, help="divergence budget")
    p.add_argument("--vartheta", type=float, required=True, help="weight-set half width")
    p.add_argument("--n", required=True, help="comma-separated block lengths, or log:LO:HI:COUNT")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("srl-curve", help="square-root scaling curve as CSV")
    _add_model_args(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--vartheta", type=float, required=True)
    p.add_argument("--n", required=True, help="comma-separated block lengths, or log:LO:HI:COUNT")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_srl_curve)

    p = sub.add_parser(
        "detect-sim", help="exact warden detection figures and bound chain at one n"
    )
    _add_model_args(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--vartheta", type=float, required=True)
    p.add_argument("--n", dest="n_single", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="reserved; detection is exact")
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
        return args.fn(args)
    except Exception as exc:
        if isinstance(exc, _CliError):
            code, name, msg = exc.code, exc.name, str(exc)
        else:
            cls = next(c for c in type(exc).__mro__ if c in _EXIT_TABLE)
            code, name = _EXIT_TABLE[cls]
            msg = f"{type(exc).__name__}: {exc}" if cls is Exception else str(exc)
        msg = msg.translate(_MSG_ESCAPES)
        sys.stderr.write(f'covertq: error code={name} msg="{msg}"\n')
        return code


if __name__ == "__main__":
    sys.exit(main())
