"""Spans around the program's public functions, recorded from outside.

The tracer replaces each listed function with a timing wrapper in every
`asymcause` module that binds it (for example `fgls_fit` is bound in `cli`,
`mgarch` and `montecarlo`), so calls made through any import site are seen.
Spans are kept in memory and written out when the run ends.  No file of the
program is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# One layer per module; the functions timed in each.
LAYERS = {
    "cli": ("main", "load_csv", "run_pipeline", "render_report"),
    "decomposition": ("decompose",),
    "sure": ("lag_order_table", "build_design", "ols_fit", "fgls_fit", "gls_solve"),
    "mgarch": ("arch_lm_diag", "fit_sure_garch_t", "garch_t_loglik"),
    "optim": ("minimize_bfgs", "central_gradient", "central_hessian"),
    "wald": ("restriction_for", "wald_test", "run_catalog"),
    "montecarlo": ("simulate_dgp", "empirical_size"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counters read from returned values.
OBSERVED = {
    "sure.fgls_fit": lambda r: {"iterations": r.iterations},
    "optim.minimize_bfgs": lambda r: {"iterations": r.iterations, "n_evals": r.n_evals},
}

LOGLIK = "mgarch.garch_t_loglik"
LOGLIK_PARENTS = ("optim.minimize_bfgs", "optim.central_hessian")

# span fields
NAME, START, END, PARENT, OP, FAILED, EXTRA = range(7)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        self._find_bindings()

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        observe = OBSERVED.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if observe is not None:
                record[EXTRA] = observe(result)
            return result

        return traced

    def install(self) -> None:
        """Swap every listed function for its wrapper at all its bindings."""
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def _find_bindings(self) -> None:
        """Every (module, attribute) of the package bound to a listed function."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "asymcause" or n.startswith("asymcause.")]
        for mod_name, functions in LAYERS.items():
            module = importlib.import_module(f"asymcause.{mod_name}")
            for fn in functions:
                original = getattr(module, fn, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn}")
                    continue
                wrapper = self.wrap(f"{mod_name}.{fn}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original, wrapper))

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "failed", "extra")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another inside it, so the time they
    cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _under(spans: list[list], index: int, ancestor: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-function calls, total and self time, plus the named counters."""
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, own_s in zip(spans, own):
        name = span[NAME]
        calls[name] += 1
        total[name] += span[END] - span[START]
        self_s[name] += own_s
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.total_s"] = (total[name], "s")
        metrics[f"{name}.self_s"] = (self_s[name], "s")

    def extras(name: str, key: str) -> list[float]:
        return [s[EXTRA][key] for s in spans if s[NAME] == name and s[EXTRA]]

    metrics["sure.fgls_fit.iterations"] = (_mean(extras("sure.fgls_fit", "iterations")), "count")
    metrics["optim.minimize_bfgs.iterations"] = (
        _mean(extras("optim.minimize_bfgs", "iterations")), "count")
    metrics["optim.minimize_bfgs.n_evals"] = (
        _mean(extras("optim.minimize_bfgs", "n_evals")), "count")
    loglik = [i for i, s in enumerate(spans) if s[NAME] == LOGLIK]
    for parent in LOGLIK_PARENTS:
        under = sum(1 for i in loglik if _under(spans, i, parent))
        metrics[f"{parent}.loglik_calls"] = (under / max(calls[parent], 1), "count")
    failed = sum(1 for i in loglik if spans[i][FAILED])
    metrics[f"{LOGLIK}.fail_ratio"] = (failed / max(len(loglik), 1), "ratio")
    return metrics
