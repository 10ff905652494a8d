"""Seeded input generator for the benchmark workloads.

Every input is a list of CLI arguments plus the channel spec files it names,
all derived from one seed with ``random.Random``. Matrices are nested lists of
Python complex numbers, so this module needs only the standard library and
never imports the package under test. Models are drawn and kept: a model on
which the program fails stays in the list, and the failure is counted.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SHIPPED_SPEC = Path("data") / "amplitude_damping.json"
GOLDEN_DIR = Path("tests") / "golden"

N_GRID = "log:1e3:1e7:9"
DETECT_N = 9
DETECT_MODELS = 6
TWIRL_SAMPLES = 10_000_000


@dataclass
class Call:
    """One CLI invocation and what its oracle needs to judge the result."""

    argv: list
    kind: str  # report | srl-curve | detect-sim | twirl-check | refused
    expect_code: int = 0
    # Model facts the oracle recomputes independently.
    kraus: list = field(default=None, repr=False)
    innocent: list = field(default=None, repr=False)
    golden: str = None
    warden_dim: int = 0
    n: int = 0


# ---------------------------------------------------------------------------
# Channel constructors on plain nested lists
# ---------------------------------------------------------------------------

PAULIS = (
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dagger(a):
    return [[a[j][i].conjugate() for j in range(len(a))] for i in range(len(a[0]))]


def scale(a, s):
    return [[s * e for e in row] for row in a]


def amplitude_damping(gamma: float) -> list:
    return [
        [[1, 0], [0, math.sqrt(1 - gamma)]],
        [[0, math.sqrt(gamma)], [0, 0]],
    ]


def depolarizing(lam: float) -> list:
    weights = (1 - 0.75 * lam, lam / 4, lam / 4, lam / 4)
    return [scale(p, math.sqrt(w)) for w, p in zip(weights, PAULIS)]


def qubit_leak(p_leak: float) -> list:
    """Qubit into qutrit: level 2 is reached with probability p_leak."""
    keep = [[math.sqrt(1 - p_leak), 0], [0, math.sqrt(1 - p_leak)], [0, 0]]
    l0 = [[0, 0], [0, 0], [math.sqrt(p_leak), 0]]
    l1 = [[0, 0], [0, 0], [0, math.sqrt(p_leak)]]
    return [keep, l0, l1]


def compose(second: list, first: list) -> list:
    return [matmul(k2, k1) for k2 in second for k1 in first]


def mix_kraus(kraus: list, u: list) -> list:
    """The same channel with Kraus operators K'_i = sum_j u_ij K_j. For a
    unitary u, the complementary outputs are conjugated by u."""
    return [
        [[sum(u[i][j] * kraus[j][a][b] for j in range(len(kraus))) for b in range(len(kraus[0][0]))]
         for a in range(len(kraus[0]))]
        for i in range(len(kraus))
    ]


def random_isometry(rng: random.Random, d_out: int, kraus_count: int) -> list:
    """Kraus set of a random qubit-input channel: Gram-Schmidt on two complex
    Gaussian columns of length d_out * kraus_count gives an isometry."""
    rows = d_out * kraus_count
    cols = []
    for _ in range(2):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rows)]
        for u in cols:
            dot = sum(x.conjugate() * y for x, y in zip(u, v))
            v = [y - dot * x for x, y in zip(u, v)]
        norm = math.sqrt(sum(abs(y) ** 2 for y in v))
        cols.append([y / norm for y in v])
    return [
        [[cols[c][k * d_out + b] for c in range(2)] for b in range(d_out)]
        for k in range(kraus_count)
    ]


def random_mixed_qubit(rng: random.Random) -> list:
    """Full-rank qubit state: Bloch vector of length in [0.2, 0.9]."""
    r = rng.uniform(0.2, 0.9)
    theta = math.acos(rng.uniform(-1, 1))
    phi = rng.uniform(0, 2 * math.pi)
    x, y, z = r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi), r * math.cos(theta)
    return [[(1 + z) / 2, complex(x, -y) / 2], [complex(x, y) / 2, (1 - z) / 2]]


def basis_state(index: int) -> list:
    m = [[0, 0], [0, 0]]
    m[index][index] = 1
    return m


def _pair(e) -> list:
    e = complex(e)
    return [e.real, e.imag]


def write_spec(path: Path, kraus: list) -> None:
    doc = {
        "d_in": len(kraus[0][0]),
        "d_out": len(kraus[0]),
        "kraus": [[[_pair(e) for e in row] for row in k] for k in kraus],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def read_spec(path: Path) -> list:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [[[complex(e[0], e[1]) for e in row] for row in k] for k in doc["kraus"]]


def innocent_json(rho: list) -> str:
    return json.dumps([[_pair(e) for e in row] for row in rho])


def _rounded(rho: list) -> list:
    # The oracle must see exactly the matrix the program parses.
    return [[complex(e[0], e[1]) for e in row] for row in json.loads(innocent_json(rho))]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class _Writer:
    """Numbered files in the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def path(self) -> Path:
        self.count += 1
        return self.workdir / f"ch{self.count:03d}.json"

    def spec(self, kraus: list) -> tuple[str, list]:
        """Write a spec file; return its path and the Kraus set as parsed."""
        path = self.path()
        write_spec(path, kraus)
        return str(path), read_spec(path)


def seeded_channel(rng: random.Random, family: int) -> list:
    """Kraus set of a qubit-input channel: amplitude damping, depolarizing
    after damping, damping that leaks into a third level (p_f > 0), or a
    random 2-Kraus isometry into a qutrit (p_f > 0)."""
    if family == 0:
        return amplitude_damping(rng.uniform(0.05, 0.9))
    if family == 1:
        return compose(depolarizing(rng.uniform(0.02, 0.3)), amplitude_damping(rng.uniform(0.05, 0.6)))
    if family == 2:
        return compose(qubit_leak(rng.uniform(0.01, 0.3)), amplitude_damping(rng.uniform(0.05, 0.6)))
    return random_isometry(rng, 3, 2)


def golden_detect() -> Call:
    """The shipped model at n = 6; its CSV must equal the golden bytes."""
    return Call(argv=["detect-sim", "--channel", str(SHIPPED_SPEC), "--innocent", "1", "--delta", "0.05",
                      "--vartheta", "0.5", "--n", "6"],
                kind="detect-sim", golden="detect_amplitude_damping.csv")


def detect_dense(seed: int, workdir: Path) -> list[Call]:
    """detect-sim at n = 9 on qubit wardens: amplitude damping alternating
    with random 2-Kraus isometries (generically non-commuting warden outputs).

    Each damping Kraus pair is mixed by a random unitary. The channel stays
    the same, and the warden's two outputs still commute, but they are dense
    matrices rather than diagonal ones. Diagonal inputs make the program's
    eigensolvers about 15 % faster, which would split successful calls into
    two timing modes whose mix varies with the seed.

    Six models: each call takes about 6 s, so every model runs at least once
    in a run."""
    rng = random.Random(seed)
    w = _Writer(workdir)
    calls = []
    for i in range(DETECT_MODELS):
        if i % 2 == 0:
            kraus = mix_kraus(amplitude_damping(rng.uniform(0.05, 0.5)), random_isometry(rng, 2, 1)[0])
        else:
            kraus = random_isometry(rng, 2, 2)
        path, kraus = w.spec(kraus)
        calls.append(
            Call(
                argv=["detect-sim", "--channel", path, "--innocent", "1",
                      "--delta", "0.05", "--vartheta", "0.5", "--n", str(DETECT_N)],
                kind="detect-sim",
                kraus=kraus,
                innocent=basis_state(1),
                warden_dim=len(kraus),
                n=DETECT_N,
            )
        )
    return calls


def _refused(rng: random.Random, w: _Writer) -> list[Call]:
    """One input per refusal the CLI must produce, with its exit code."""
    out = []
    bad = w.path()
    bad.write_text('{"d_in": 2, "d_out": 2, "kraus": [[[1, 0], [0, ', encoding="utf-8")
    out.append(Call(argv=["report", "--channel", str(bad), "--innocent", "1",
                          "--delta", "0.05", "--vartheta", "0.1", "--n", N_GRID],
                    kind="refused", expect_code=3))
    non_tp = [scale(k, 1.0 + rng.uniform(0.01, 0.2)) for k in amplitude_damping(rng.uniform(0.1, 0.9))]
    path, _ = w.spec(non_tp)
    out.append(Call(argv=["srl-curve", "--channel", path, "--innocent", "1",
                          "--delta", "0.05", "--vartheta", "0.1", "--n", N_GRID],
                    kind="refused", expect_code=4))
    # Innocent |0> keeps the damping warden in a pure state that the
    # maximally mixed input leaves.
    path, _ = w.spec(amplitude_damping(rng.uniform(0.05, 0.9)))
    out.append(Call(argv=["report", "--channel", path, "--innocent", "0",
                          "--delta", "0.05", "--vartheta", "0.1", "--n", N_GRID],
                    kind="refused", expect_code=5))
    path, _ = w.spec(amplitude_damping(rng.uniform(0.05, 0.9)))
    out.append(Call(argv=["detect-sim", "--channel", path, "--innocent", "1",
                          "--delta", "0.05", "--vartheta", "0.5", "--n", str(rng.randint(11, 40))],
                    kind="refused", expect_code=6))
    path, _ = w.spec(amplitude_damping(rng.uniform(0.05, 0.9)))
    out.append(Call(argv=["detect-sim", "--channel", path, "--innocent", "1",
                          "--delta", str(rng.randint(20, 50)), "--vartheta", "0.5", "--n", "2"],
                    kind="refused", expect_code=7))
    return out


def _twirl_checks(rng: random.Random, w: _Writer, families: tuple) -> list[Call]:
    """twirl-check with TWIRL_SAMPLES Monte Carlo samples, one channel per
    family."""
    calls = []
    for family in families:
        path, kraus = w.spec(seeded_channel(rng, family))
        calls.append(
            Call(argv=["twirl-check", "--channel", path, "--samples", str(TWIRL_SAMPLES),
                       "--seed", str(rng.randrange(2**31))],
                 kind="twirl-check", kraus=kraus)
        )
    return calls


def cli_quick(seed: int, workdir: Path) -> list[Call]:
    """report and srl-curve on seeded damping, depolarizing-damping and leaky
    channels with basis or inline mixed innocent states, the two
    shipped-model golden calls, one refused input per exit code 3-7, and two
    twirl-check calls with 10^7 samples (a damping channel and a leaky one,
    so the Monte Carlo sampler and its memory are measured too), shuffled by
    the seed."""
    rng = random.Random(seed)
    w = _Writer(workdir)
    calls = [
        Call(argv=["report", "--channel", str(SHIPPED_SPEC), "--innocent", "1", "--delta", "0.05",
                   "--vartheta", "0.1", "--n", "1000,1000000"],
             kind="report", golden="report_amplitude_damping.txt"),
        Call(argv=["srl-curve", "--channel", str(SHIPPED_SPEC), "--innocent", "1", "--delta", "0.05",
                   "--vartheta", "0.1", "--n", "log:1e3:1e7:5"],
             kind="srl-curve", golden="srl_amplitude_damping.csv"),
    ]
    for i in range(6):
        family = i % 3
        path, kraus = w.spec(seeded_channel(rng, family))
        if family == 0 and rng.random() < 0.5:
            rho, inn = basis_state(1), "1"
        else:
            rho = _rounded(random_mixed_qubit(rng))
            inn = innocent_json(rho)
        delta = f"{rng.uniform(0.01, 0.1):.4f}"
        vartheta = f"{rng.uniform(0.05, 0.3):.4f}"
        for cmd in ("report", "srl-curve"):
            calls.append(
                Call(argv=[cmd, "--channel", path, "--innocent", inn, "--delta", delta,
                           "--vartheta", vartheta, "--n", N_GRID],
                     kind=cmd, kraus=kraus, innocent=rho)
            )
    calls += _refused(rng, w)
    calls += _twirl_checks(rng, w, (0, 2))
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "detect-dense": detect_dense,
    "cli-quick": cli_quick,
}
