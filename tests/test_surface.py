"""Guards for the public surface that the README and the benchmark's tracer
use, so that trimming the package cannot silently break either."""

import ast
import importlib
import re
import types
from pathlib import Path

from covertq import cli
from covertq.linops import DensityOperator

REPO = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(capsys):
    # Later blocks use names that earlier blocks define.
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert float(capsys.readouterr().out) > 0  # the quick start's m_lower


def test_benchmark_tracer_targets_exist():
    # Compiled from the source text, so no bytecode is written next to it.
    path = REPO / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    for layer in tracing.MODULES:
        importlib.import_module(f"covertq.{layer}")
    for layer, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"covertq.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"covertq.{layer}.{name}"
    assert callable(cli.main)
    assert callable(DensityOperator.__post_init__)


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
    # Spelled in two parts so that this file does not name it either.
    gone = "trace_norm" + "_diff"
    for path in [*(REPO / "src").rglob("*.py"), *(REPO / "tests").rglob("*.py")]:
        assert gone not in path.read_text(encoding="utf-8"), path
