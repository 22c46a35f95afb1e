"""README's Library section: the package exports what it imports, and it runs."""

import ast
import re
from pathlib import Path

import numpy as np

import asymcause
from asymcause.montecarlo import DgpConfig, simulate_dgp

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_exports_are_readme_library_imports():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "asymcause"
        for alias in node.names
    ]
    assert sorted(asymcause.__all__) == sorted([*imported, "__version__"])


def test_library_example_runs_on_positive_prices(capsys):
    walks = simulate_dgp(DgpConfig(drift=(0.003, 0.002), t_obs=200, seed=7))
    prices = [np.exp(4.0 + walk.values / 10) for walk in walks]
    exec(library_example(), {"prices_us": prices[0], "prices_china": prices[1]})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == [f"H{i}" for i in range(1, 11)]
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)
