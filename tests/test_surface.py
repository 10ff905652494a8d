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


def _cli_exit_names() -> dict:
    """Exit code -> set of names, from ``cli._EXIT_TABLE`` and every
    ``_CliError(EXIT_*, "<name>", ...)`` call in cli.py."""
    table = {0: set()}
    for code, name in cli._EXIT_TABLE.values():
        table.setdefault(code, set()).add(name)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_CliError"
    ]
    assert calls
    for node in calls:
        code, name = node.args[:2]
        assert isinstance(code, ast.Name) and code.id.startswith("EXIT_"), ast.dump(code)
        assert isinstance(name, ast.Constant) and isinstance(name.value, str), ast.dump(name)
        table.setdefault(getattr(cli, code.id), set()).add(name.value)
    return table


def test_readme_exit_table_matches_cli():
    assert _readme_exit_table() == _cli_exit_names()
