"""Oracles that judge each CLI result.

Each oracle recomputes what it can from the channel's Kraus operators with
code that shares nothing with the package under test: pure-Python complex
arithmetic and ``math`` for everything but the pseudo-inverse behind the
covert constant, which uses numpy. ``check`` returns None for an accepted
result and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import math
import re

from inputs import GOLDEN_DIR, PAULIS, Call, amplitude_damping, basis_state, dagger, matmul

# Relative tolerance for values the oracle recomputes along another route.
RTOL = 1e-9
# Absolute tolerance for probabilities recomputed from the Kraus operators.
ATOL_PROB = 1e-12
# Slack of the program's own inequalities, as in its test suite.
SLACK = 1e-9
# Twirl-check: the empirical weights lie within this many standard errors.
MC_SIGMAS = 5.0

ERROR_LINE = re.compile(r'^covertq: error code=[a-z0-9-]+ msg=".*"$')

# Self-check target: d_exact of the shipped model at n = 6 in
# tests/golden/detect_amplitude_damping.csv.
SELF_CHECK_D_EXACT = 0.035936496513443217


# ---------------------------------------------------------------------------
# Independent model quantities
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def channel_id(kraus: list) -> str:
    blob = repr(
        [[[(_fmt(e.real), _fmt(e.imag)) for e in row] for row in k] for k in kraus]
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def tp_residual(kraus: list) -> float:
    acc = [[0j, 0j], [0j, 0j]]
    for k in kraus:
        kk = matmul(dagger(k), k)
        acc = [[acc[i][j] + kk[i][j] for j in range(2)] for i in range(2)]
    return max(abs(acc[i][j] - (1 if i == j else 0)) for i in range(2) for j in range(2))


def warden_state(kraus: list, rho: list) -> list:
    """Complementary-channel output [N_c(rho)]_ij = tr(K_i rho K_j^dag)."""
    left = [matmul(k, rho) for k in kraus]
    d_out = len(kraus[0])
    return [
        [sum(left[i][a][b] * complex(kraus[j][a][b]).conjugate() for a in range(d_out) for b in range(2))
         for j in range(len(kraus))]
        for i in range(len(kraus))
    ]


def twirl_weights(kraus: list) -> tuple[float, list]:
    """(p_f, conditional twirled Pauli weights) from the qubit block of each
    Kraus operator: q_j = sum_k |tr(P_j K_k)|^2 / (4 (1 - p_f))."""
    blocks = [[row[:2] for row in k[:2]] for k in kraus]
    succ = sum(abs(e) ** 2 for b in blocks for row in b for e in row) / 2
    q = []
    for p in PAULIS:
        q.append(sum(abs(sum(p[i][j] * b[j][i] for i in range(2) for j in range(2))) ** 2 for b in blocks))
    total = sum(q)
    return min(1.0, max(0.0, 1.0 - succ)), [x / total for x in q]


def chi2(rho_pi: list, rho0: list) -> float:
    """tr(rho_pi^2 rho0^+) - 1 with numpy's Hermitian pseudo-inverse."""
    import numpy as np

    a = np.array(rho0, dtype=complex)
    b = np.array(rho_pi, dtype=complex)
    inv = np.linalg.pinv(a, rcond=1e-10, hermitian=True)
    return float(np.real(np.trace(b @ b @ inv))) - 1.0


def covert_constant(kraus: list, innocent: list) -> float:
    rho0 = warden_state(kraus, innocent)
    rho_pi = warden_state(kraus, [[0.5, 0], [0, 0.5]])
    return 1.0 / math.sqrt(chi2(rho_pi, rho0))


def entropy_bits(p: list) -> float:
    return -sum(x * math.log2(x) for x in p if x > 0)


def n_grid(spec: str) -> list[int]:
    if spec.startswith("log:"):
        _, lo, hi, count = spec.split(":")
        lo, hi, count = math.log10(float(lo)), math.log10(float(hi)), int(count)
        return sorted({int(round(10 ** (lo + (hi - lo) * i / (count - 1)))) for i in range(count)})
    return [int(t) for t in spec.split(",")]


# ---------------------------------------------------------------------------
# Type-class oracle for commuting warden models
# ---------------------------------------------------------------------------


def type_class_detection(a: tuple, b: tuple, n: int, q: float, vartheta: float) -> tuple[float, float]:
    """Exact divergence (bits) and trace distance between the warden's
    weight-set mixture and the innocent product when the qubit states rho0
    and rho_pi commute, with eigenvalues a and b in a shared eigenbasis.

    Output strings with k ones are equiprobable under both hypotheses, so
    both figures are sums over the type k. Under transmission, a string of
    type k arises from a pattern of weight w with j signal slots on its ones.
    """
    weights = [w for w in range(n + 1) if abs(q - w / n) <= vartheta + 1e-15]
    prior = {w: q**w * (1 - q) ** (n - w) for w in weights}
    p_set = sum(math.comb(n, w) * prior[w] for w in weights)
    d, td = 0.0, 0.0
    for k in range(n + 1):
        inn = a[1] ** k * a[0] ** (n - k)
        sig = 0.0
        for w in weights:
            for j in range(max(0, w - (n - k)), min(k, w) + 1):
                sig += prior[w] * (
                    math.comb(k, j) * math.comb(n - k, w - j)
                    * b[1] ** j * a[1] ** (k - j) * b[0] ** (w - j) * a[0] ** (n - k - w + j)
                )
        sig /= p_set
        if sig > 0:
            d += math.comb(n, k) * sig * math.log2(sig / inn)
        td += math.comb(n, k) * abs(sig - inn)
    return d, td


def commuting_spectra(rho0: list, rho_pi: list) -> tuple | None:
    """Eigenvalues (a, b) of two commuting qubit states in a shared
    eigenbasis, or None when they do not commute."""
    ab, ba = matmul(rho0, rho_pi), matmul(rho_pi, rho0)
    if max(abs(ab[i][j] - ba[i][j]) for i in range(2) for j in range(2)) > 1e-14:
        return None
    # The eigenvectors of a generic combination diagonalize both states.
    m = [[rho0[i][j] + math.sqrt(2) * rho_pi[i][j] for j in range(2)] for i in range(2)]
    p, c, r = m[0][0].real, m[0][1], m[1][1].real
    if abs(c) <= 1e-15:
        vecs = [(1, 0), (0, 1)]
    else:
        half = math.sqrt(((p - r) / 2) ** 2 + abs(c) ** 2)
        vecs = []
        for lam in ((p + r) / 2 + half, (p + r) / 2 - half):
            norm = math.sqrt(abs(c) ** 2 + (lam - p) ** 2)
            vecs.append((c / norm, (lam - p) / norm))

    def expect(rho, v):
        return sum(complex(v[i]).conjugate() * rho[i][j] * v[j] for i in range(2) for j in range(2)).real

    return tuple(expect(rho0, v) for v in vecs), tuple(expect(rho_pi, v) for v in vecs)


def self_check() -> str | None:
    """The type-class oracle must reproduce the golden d_exact at n = 6."""
    kraus = amplitude_damping(0.3)
    inn = basis_state(1)
    a, b = commuting_spectra(warden_state(kraus, inn), warden_state(kraus, [[0.5, 0], [0, 0.5]]))
    q = covert_constant(kraus, inn) * math.sqrt(0.05 / 6)
    d, _ = type_class_detection(a, b, 6, q, 0.5)
    if abs(d - SELF_CHECK_D_EXACT) > 1e-12:
        return f"type-class oracle gives d_exact={d!r}, golden {SELF_CHECK_D_EXACT!r}"
    return None


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _close(x: float, y: float, rtol: float = RTOL, atol: float = 1e-15) -> bool:
    return abs(x - y) <= atol + rtol * abs(y)


def _fields(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _pauli(text: str) -> list:
    return [float(tok.split("=")[1]) for tok in text.split()]


def _check_model_lines(f: dict, call: Call) -> str | None:
    if f["channel-id"] != channel_id(call.kraus):
        return "channel-id"
    if abs(float(f["tp-residual"]) - tp_residual(call.kraus)) > 1e-14:
        return "tp-residual"
    if abs(float(f["p_f"]) - twirl_weights(call.kraus)[0]) > ATOL_PROB:
        return "p_f"
    return None


def _arg(call: Call, flag: str) -> str:
    return call.argv[call.argv.index(flag) + 1]


def _report_values(call: Call):
    """Expected (q_tw, p_vec, c_q, R, R_d, bound rows) for report and
    srl-curve; p_vec follows the documented compose_with_failure formula."""
    delta, vartheta = float(_arg(call, "--delta")), float(_arg(call, "--vartheta"))
    p_f, q = twirl_weights(call.kraus)
    p_vec = [(1 - 0.75 * p_f) * x + (0.25 * p_f if i else 0.0) for i, x in enumerate(q)]
    c_q = covert_constant(call.kraus, call.innocent)
    r_h = max(0.0, 1.0 - entropy_bits(p_vec))
    r_d = (1.0 - p_f) * max(0.0, 1.0 - entropy_bits(q))
    rows = []
    for n in n_grid(_arg(call, "--n")):
        m1 = (1 - vartheta) * math.sqrt(n) * c_q * r_h * math.sqrt(delta)
        m2 = (1 - vartheta) * math.sqrt(n) * c_q * r_d * math.sqrt(delta)
        bits = (1 + vartheta) * math.sqrt(n) * c_q * (1 + 2 * r_d) * math.sqrt(delta)
        rows.append((n, m1, m2, bits))
    return q, p_vec, c_q, r_h, r_d, rows


def _check_rows(got: list, want: list) -> str | None:
    if [g[0] for g in got] != [w[0] for w in want]:
        return "n grid"
    for g, w in zip(got, want):
        for x, y, name in zip(g[1:], w[1:], ("m_lower_unassisted", "m_lower_assisted", "classical_bits_upper")):
            if not _close(x, y, atol=1e-12):
                return f"{name} at n={w[0]}: {x!r} vs {y!r}"
    return None


def check_report(call: Call, out: str) -> str | None:
    f = _fields(out)
    bad = _check_model_lines(f, call)
    if bad:
        return bad
    q, p_vec, c_q, r_h, r_d, rows = _report_values(call)
    if f["willie-mode"] != "complementary" or f["support-ok"] != "true" or f["trivially-covert"] != "false":
        return "model flags"
    for name, want in (("q_tw", q), ("p_vec", p_vec)):
        if any(abs(x - y) > ATOL_PROB for x, y in zip(_pauli(f[name]), want)):
            return name
    if not _close(float(f["c_q"]), c_q):
        return f"c_q {f['c_q']} vs {c_q!r}"
    if abs(float(f["R"]) - r_h) > 1e-9 or abs(float(f["R_d"]) - r_d) > 1e-9:
        return "rates"
    got = []
    for line in out.splitlines():
        if line.startswith("n="):
            head, rest = line.split(": ", 1)
            got.append((int(head[2:]), *(float(t.split("=")[1]) for t in rest.split())))
    return _check_rows(got, rows)


def check_srl_curve(call: Call, out: str) -> str | None:
    lines = out.splitlines()
    if lines[0] != "n,m_lower_unassisted,m_lower_assisted,classical_bits_upper":
        return "header"
    got = [(int(r.split(",")[0]), *map(float, r.split(",")[1:])) for r in lines[1:]]
    return _check_rows(got, _report_values(call)[-1])


def check_detect_sim(call: Call, out: str, err: str) -> str | None:
    header, row = out.splitlines()
    v = dict(zip(header.split(","), row.split(",")))
    s = _fields(err)
    td = float(s["trace-distance"])
    if abs(float(s["p_e_willie"]) - (0.5 - 0.25 * td)) > 1e-12:
        return "p_e != 1/2 - td/4"
    if float(v["d_product"]) > float(v["d_chi2_bound"]) + SLACK:
        return "d_product > d_chi2_bound"
    if float(v["epsilon"]) > float(v["chernoff"]):
        return "epsilon > chernoff"
    if s["qre-exact"] != v["d_exact"]:
        return "summary and CSV disagree on d_exact"
    c_q = covert_constant(call.kraus, call.innocent)
    q = c_q * math.sqrt(float(_arg(call, "--delta")) / call.n)
    if not _close(float(s["c_q"]), c_q) or not _close(float(v["q"]), q):
        return "c_q or q"
    pair = commuting_spectra(warden_state(call.kraus, call.innocent),
                             warden_state(call.kraus, [[0.5, 0], [0, 0.5]]))
    if pair is not None:
        d, dist = type_class_detection(*pair, call.n, q, float(v["vartheta"]))
        if not _close(float(v["d_exact"]), d):
            return f"d_exact {v['d_exact']} vs type-class {d!r}"
        if not _close(td, dist):
            return f"trace distance {td!r} vs type-class {dist!r}"
    return None


def check_twirl(call: Call, out: str) -> str | None:
    f = _fields(out)
    bad = _check_model_lines(f, call)
    if bad:
        return bad
    p_f, q = twirl_weights(call.kraus)
    analytic, empirical = _pauli(f["analytic"].strip()), _pauli(f["empirical"].strip())
    if any(abs(x - y) > ATOL_PROB for x, y in zip(analytic, q)):
        return "analytic weights"
    kept = int(_arg(call, "--samples")) * (1.0 - p_f)
    for x, y in zip(empirical, q):
        if abs(x - y) > MC_SIGMAS * math.sqrt(y * (1 - y) / kept) + ATOL_PROB:
            return f"empirical weight {x!r} outside {MC_SIGMAS:g} SE of {y!r}"
    if float(f["max-gap"]) != max(abs(x - y) for x, y in zip(analytic, empirical)):
        return "max-gap"
    return None


def check(call: Call, code: int, out: str, err: str) -> str | None:
    """None when the result is correct, else the reason it is not."""
    if "Traceback (most recent call last)" in err:
        return "traceback: " + err.strip().splitlines()[-1][:160]
    if code != call.expect_code:
        return f"exit code {code}, expected {call.expect_code}"
    if call.kind == "refused":
        lines = err.splitlines()
        if out or len(lines) != 1 or not ERROR_LINE.match(lines[0]):
            return "refusal is not a single coded error line"
        return None
    if call.golden:
        if out != (GOLDEN_DIR / call.golden).read_text(encoding="utf-8"):
            return f"differs from golden {call.golden}"
        return None
    try:
        if call.kind == "report":
            return check_report(call, out)
        if call.kind == "srl-curve":
            return check_srl_curve(call, out)
        if call.kind == "detect-sim":
            return check_detect_sim(call, out, err)
        return check_twirl(call, out)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparseable output: {exc!r}"

