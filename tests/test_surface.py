"""Guards for the public surface that the README and the benchmark's tracer
use, so that trimming the package cannot silently break either."""

import ast
import collections
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

import covertq
from covertq import channels, cli, covert, linops
from covertq.linops import DensityOperator

REPO = Path(__file__).resolve().parent.parent


def _readme_python_blocks() -> list:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def _tracing() -> types.ModuleType:
    """The benchmark's tracer module, compiled from the source text so that
    no bytecode is written next to it."""
    path = REPO / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    return tracing


def test_readme_python_blocks_run(capsys):
    # Later blocks use names that earlier blocks define.
    blocks = _readme_python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert float(capsys.readouterr().out) > 0  # the quick start's m_lower


def test_benchmark_tracer_targets_exist():
    tracing = _tracing()
    for layer in tracing.MODULES:
        importlib.import_module(f"covertq.{layer}")
    for layer, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"covertq.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"covertq.{layer}.{name}"
    assert callable(cli.main)
    assert callable(DensityOperator.__post_init__)


def _referenced(tree) -> collections.Counter:
    """How often each name is used in ``tree``, as a bare name or as an
    attribute; imports do not count."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


# Channel-side builders and the spec writer, documented for users and called
# by the tests, though no subcommand needs them.
USER_HELPERS = {"depolarizing", "identity_channel", "qubit_leak", "save_channel"}


def test_every_public_name_is_reached():
    # A top-level def or class must be used by another package definition.
    # A public one may instead be named by a README python block, traced by
    # the benchmark or listed above; a private one has no caller outside the
    # package, so it may not. Anything else is a helper only its own tests
    # call. Dunder hooks are called by Python.
    defs, used = [], collections.Counter()
    for path in sorted((REPO / "src" / "covertq").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += _referenced(tree)
        defs += [
            (path.stem, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
        ]
    readme = {name for block in _readme_python_blocks() for name in _referenced(ast.parse(block))}
    traced = {name for names in _tracing().TARGETS.values() for name in names}
    outside = readme | traced | USER_HELPERS
    unreached = [
        f"{module}.{node.name}"
        for module, node in defs
        if used[node.name] - _referenced(node)[node.name] <= 0
        and (node.name.startswith("_") or node.name not in outside)
    ]
    assert not unreached, "no caller: " + ", ".join(unreached)


def _readme_exit_table() -> dict:
    """Exit code -> set of ``code=`` names, from the README's exit-code table."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \|([^|]*)\|", text, flags=re.M)
    codes = [int(code) for code, _ in rows]
    assert codes and codes == sorted(set(codes)), "one row per exit code, ascending"
    return {int(code): set(re.findall(r"`([a-z-]+)`", names)) for code, names in rows}


def test_readme_exit_table_matches_cli():
    table = {0: set()}
    for code, name in cli._EXIT_TABLE.values():
        table.setdefault(code, set()).add(name)
    assert _readme_exit_table() == table


def test_readme_tolerances_match_the_code():
    # Each tolerance the README states appears once and is the code's own.
    text = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    stated = {
        "tp": r"`sum K\^dag K = I` within (\S+?);",
        "trace": r"trace within (\S+) of 1",
        "support": r"at most (\S+) per site",
        "hermitian": r"Hermitian within (\S+) ",
        "qre": r"its floor, (\S+) bits per site",
    }
    found = {key: [float(x) for x in re.findall(p, text)] for key, p in stated.items()}
    assert found == {
        "tp": [channels.TAU_TP],
        "trace": [linops.TAU_TRACE],
        "support": [linops.SUPPORT_TOL],
        "hermitian": [linops.TAU_HERM],
        "qre": [covert.QRE_FLOOR],
    }


def _writes_std_stream(node) -> bool:
    """A reference to sys.stdout or sys.stderr, or a call of print."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "sys" and node.attr in ("stdout", "stderr")
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"


def _owners(pred) -> list:
    """(module, innermost enclosing function) of every package node that
    satisfies ``pred``."""
    found = []
    for path in sorted((REPO / "src" / "covertq").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {c: node for node in ast.walk(tree) for c in ast.iter_child_nodes(node)}
        for node in filter(pred, ast.walk(tree)):
            owner = node
            while owner in parent and not isinstance(owner, ast.FunctionDef):
                owner = parent[owner]
            found.append((path.stem, getattr(owner, "name", None)))
    return found


def _forms_n_use_state(node) -> bool:
    """A reference to ``tensor_power`` or ``willie_state_exact``, the two
    builders of an n-use state."""
    names = ("tensor_power", "willie_state_exact")
    if isinstance(node, ast.Name) and node.id in names:
        return True
    return isinstance(node, ast.Attribute) and node.attr in names


def test_only_the_warden_pass_forms_n_use_states():
    # Every n-use figure comes from sparse.WardenStates.figures, so another
    # route (type classes, Schur-Weyl blocks) can replace that one pass.
    assert set(_owners(_forms_n_use_state)) == {("sparse", "figures")}


def test_only_the_cli_writer_touches_std_streams():
    # Every output and error line goes through cli._write or cli.main, so a
    # failed write is refused in one place.
    assert set(_owners(_writes_std_stream)) == {("cli", "_write"), ("cli", "main")}


def _raisers(exc_name: str) -> list:
    """Where the package raises ``exc_name(...)``."""

    def raises(node) -> bool:
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        return isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == exc_name

    return _owners(raises)


def _subtracts_dagger(node) -> bool:
    """A subtraction with a ``dagger(...)`` call on either side."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and any(
        isinstance(side, ast.Call) and getattr(side.func, "id", None) == "dagger"
        for side in (node.left, node.right)
    )


def _raises_with(text: str):
    """A predicate for a ``raise`` whose message, a string or an f-string,
    has ``text`` in its literal part."""

    def pred(node) -> bool:
        exc = node.exc if isinstance(node, ast.Raise) else None
        args = exc.args[:1] if isinstance(exc, ast.Call) else []
        parts = [v for a in args for v in (a.values if isinstance(a, ast.JoinedStr) else [a])]
        return any(isinstance(v, ast.Constant) and text in str(v.value) for v in parts)

    return pred


def _subtracts_one_from_a_sum(node) -> bool:
    """``<array>.sum() - 1.0``, the test that a weight vector sums to 1."""
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Call) and getattr(node.left.func, "attr", None) == "sum"
        and isinstance(node.right, ast.Constant) and node.right.value == 1.0
    )


def _calls_np(name: str):
    """A predicate for a call of ``np.<name>``."""

    def pred(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return (
            isinstance(func, ast.Attribute)
            and func.attr == name
            and getattr(func.value, "id", None) == "np"
        )

    return pred


def test_each_rule_is_decided_once():
    assert _raisers("SupportViolationError") == [("covert", "require_support")]
    # The block-length cap, the operator-size cap and the qubit-input check.
    assert sorted(_raisers("DimensionCapError")) == [
        ("linops", "__post_init__"),
        ("linops", "check_exact_block"),
        ("twirl", "require_qubit_input"),
    ]
    sources = [p.read_text(encoding="utf-8") for p in (REPO / "src" / "covertq").glob("*.py")]
    assert sum(s.count("failure probability must be in [0, 1]") for s in sources) == 1
    # The weight tolerance's range, (0, 1], for every subcommand and config.
    assert _owners(_raises_with("weight tolerance")) == [("covert", "check_vartheta")]
    # A Pauli vector's weights are held to sum 1 by PauliDistribution alone.
    assert _owners(_subtracts_one_from_a_sum) == [("channels", "__init__")]
    # Hermiticity: one blocked scan, whose gap both callers hold to TAU_HERM.
    assert _owners(_subtracts_dagger) == [("linops", "hermitian_gap")]
    # Spelled in two parts so that this file does not name them either.
    gone = [
        "trace_norm" + "_diff",
        "is_" + "hermitian",
        "clip_" + "spectrum",
        "_xlogx" + "_bits",
        "_entropy" + "_bits",
        "entropy" + "4",
        "Estimation" + "FailureError",
        "_SUB" + "MODULES",
        "_Power" + "Spectrum",
        "eigvec" + "_blocks",
        "_power" + "_columns",
        "_real" + "_frame",
        "_log2_on" + "_support",
        "kron" + "_into",
        "_block" + "_figures",
        "as_complex" + "_matrix",
        "_finite" + "_matrix",
        "binary" + "_entropy",
        "all weights" + " vanish",
        "_twirl" + "_branches",
        "_categorical" + "_counts",
        "_compose" + "_rows",
        "COVERTQ" + "_THREADS",
    ]
    for path in [*(REPO / "src").rglob("*.py"), *(REPO / "tests").rglob("*.py")]:
        text = path.read_text(encoding="utf-8")
        assert not [name for name in gone if name in text], path
    # One Shannon entropy: covert.entropy_bits is the one sum of p log2 p,
    # which the spectra, the Pauli rates and the Fannes bound's two-outcome
    # term share; qre_spectral and the cross term take the logs of a
    # reference spectrum.
    assert sorted(_owners(_calls_np("log2"))) == [
        ("covert", "entropy_bits"),
        ("covert", "qre_spectral"),
        ("sparse", "decomposition_report"),
    ]
    # A tensor power's spectrum is read from its site's by the warden pass;
    # a DensityOperator holds one matrix and its own spectrum.
    for attr in ("power", "eigvec" + "_blocks", "sites", "_power"):
        assert not hasattr(DensityOperator, attr), attr
    # The package init imports nothing and resolves no submodule lazily.
    init = ast.parse((REPO / "src" / "covertq" / "__init__.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert "__getattr__" not in vars(covertq)


def _calls(name: str):
    """A predicate for a call of ``name``, plain or as an attribute."""

    def pred(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) == name or getattr(func, "attr", None) == name

    return pred


def test_both_warden_routes_share_one_block_loop():
    # A route only cuts the states into blocks: every n-use trace norm is
    # taken in WardenStates.figures, and one helper turns spectra and
    # diagonals into divergences.
    def in_sparse(name):
        return {owner for owner in _owners(_calls(name)) if owner[0] == "sparse"}

    assert in_sparse("trace_norm") == {("sparse", "figures")}
    assert len(in_sparse("qre_spectral")) == 1


def test_one_channel_action():
    # channels.apply_mat is the one channel action; no other module sends a
    # state through a channel.
    assert {owner[0] for owner in _owners(_calls("apply_mat"))} == {"channels"}


def test_only_channels_builds_a_channel():
    # No extended channel is built outside channels, so channels.choi is
    # the one place a qubit block is formed, never from a (2 d_out)-square
    # output.
    assert {owner[0] for owner in _owners(_calls("QuantumChannel"))} == {"channels"}


def _writes_environ(node) -> bool:
    """A write to ``os.environ``: an item assignment or deletion, or a call
    of one of its mutating methods."""
    def is_environ(x):
        return isinstance(x, ast.Attribute) and x.attr == "environ" and getattr(x.value, "id", None) == "os"

    if isinstance(node, ast.Subscript):
        return is_environ(node.value) and not isinstance(node.ctx, ast.Load)
    mutators = ("setdefault", "update", "pop", "popitem", "clear")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in mutators and is_environ(node.func.value))


def test_only_the_thread_pin_writes_the_environment():
    # cli._pin_threads is the one place a BLAS thread variable is set.
    assert _owners(_writes_environ) == [("cli", "_pin_threads")]


def test_one_kronecker_writer():
    # Every Kronecker product in the package is linops.kron, which has
    # np.kron's bits; no function calls np.kron itself.
    assert _owners(_calls_np("kron")) == []


def test_warden_pass_takes_its_dtype_from_the_frame():
    # sparse never names complex128: the n-use pass computes in the dtype of
    # WardenStates.model, which the real-frame rule alone decides.
    tree = ast.parse((REPO / "src" / "covertq" / "sparse.py").read_text(encoding="utf-8"))
    named = [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "complex128")
        or (isinstance(node, ast.Attribute) and node.attr == "complex128")
        or (isinstance(node, ast.Constant) and node.value == "complex128")
    ]
    assert named == []


def test_each_n_use_figure_is_held_once():
    # sparse.WardenFigures holds every n-use figure; each report returns only
    # what its own function adds, and none re-checks its producer's formulas.
    from covertq import detect, rates, sparse

    records = [sparse.WardenFigures, sparse.BoundChain, sparse.DecompositionReport,
               detect.DetectionResult]
    names = [rec._fields for rec in records]
    shared = collections.Counter(n for fields in names for n in fields)
    assert [n for n, count in shared.items() if count > 1] == []
    # Nor does a throughput bound re-check what its two producers guarantee.
    checked = [*records[1:], rates.ThroughputBound]
    assert [rec.__name__ for rec in checked if "__post_init__" in vars(rec)] == []


def test_records_hold_read_only_arrays_and_no_new_attributes():
    # The records are plain slotted classes: what keeps them unchanged is
    # that every array they hold is read-only and no attribute can be added.
    from covertq import sparse, twirl

    ch = channels.amplitude_damping(0.3)
    entered = DensityOperator(np.diag([0.75, 0.25, 0.0]))
    derived = channels.apply(ch, DensityOperator.basis_state(2, 1))
    model = channels.willie_model(channels.complementary(ch), DensityOperator.basis_state(2, 0))
    stats = twirl.projection_stats(ch)
    q_tw = twirl.twirl_parameters(stats)
    records = [entered, derived, ch, model, sparse.SparseSignalConfig(n=4, q=0.5, vartheta=0.25),
               q_tw, stats]
    arrays = [*ch.kraus, q_tw.weights, stats.conditional_choi]
    for rho in (entered, derived, model.rho0, model.rho_pi):
        arrays += [rho.mat, rho.eigvals, rho.kernel, rho.eigh()[1]]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    for rec in records:
        assert not hasattr(rec, "__dict__"), type(rec).__name__
        with pytest.raises(AttributeError):
            rec.extra = None


def _sets_writeable(node) -> bool:
    """Whether ``node`` assigns to some ``<array>.flags.writeable``."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(
        isinstance(t, ast.Attribute) and t.attr == "writeable"
        and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
        for t in targets
    )


def test_records_keep_their_own_copy_of_a_callers_array():
    # A record copies each array it is given, through one helper, whether it
    # accepts the array or refuses it: the caller's array stays writable and
    # unchanged, and the record never holds it.
    from covertq import twirl

    eye2 = np.eye(2, dtype=np.complex128)
    cases = [
        (lambda a: channels.QuantumChannel((a,)), eye2, 2 * eye2, lambda r: r.kraus[0]),
        (lambda a: twirl.ProjectionStats(0.0, a), np.eye(4, dtype=np.complex128) / 4,
         np.eye(4, dtype=np.complex128) / 2, lambda r: r.conditional_choi),
        (twirl.PauliDistribution, np.array([0.7, 0.1, 0.1, 0.1]), np.full(4, 0.3),
         lambda r: r.weights),
    ]
    for build, good, bad, held in cases:
        before = good.copy()
        assert not np.shares_memory(held(build(good)), good)
        with pytest.raises(ValueError):
            build(bad)
        for a in (good, bad):
            assert a.flags.writeable
        np.testing.assert_array_equal(good, before)
    # Only linops sets an array's write flag: records freeze what they keep
    # through linops.read_only_copy, and derived states through _frozen.
    setters = set()
    for path in (REPO / "src" / "covertq").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(_sets_writeable(node) for node in ast.walk(tree)):
            setters.add(path.stem)
    assert setters == {"linops"}


def test_console_script_is_the_main_block_entry():
    # The installed script and ``python -m covertq.cli`` run one entry.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, entry = pyproject["project"]["scripts"]["covertq"].partition(":")
    assert module == "covertq.cli"
    tree = ast.parse((REPO / "src" / "covertq" / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{entry}()"]


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10, but the suite may only ever run
    # on a newer interpreter; this keeps every file in 3.10's grammar (no
    # except*).
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((REPO / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
