"""Per-layer tracing for the clgames benchmark, from outside the package.

A traced pass runs under ``cProfile``; its statistics are reduced per
module file (summed self time of the functions defined there) and per named
public function (call count and inclusive time).  Hot inner calls such as
``formulas.evaluate`` and the ``Fraction`` operators are only counted this
way.  Spans are kept for each operation and for each entry into a layer's
public function from the CLI or from the benchmark, so their number is
bounded by the operations run, not by the work inside them.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import os
import pstats
import time
from contextlib import contextmanager

# name -> (module, public functions); ``.calls`` sums the call counts of
# the functions, ``.s`` (TIMED only) their inclusive time.  A function
# missing from the module reads 0.
TIMED = {
    "game.game_value": ("game", ("game_value",)),
    "game.certificates": ("game", ("GameSolver.ii_strategy_tree", "GameSolver.i_witness_tree")),
    "game.strategy_to_json": ("game", ("strategy_to_json",)),
    "infinitary.r_alpha": ("infinitary", ("r_alpha",)),
    "infinitary.dynamic_game_value": ("infinitary", ("dynamic_game_value",)),
    "infinitary.omega_game_value_atomic": ("infinitary", ("omega_game_value_atomic",)),
    "structures.validate": ("structures", ("validate",)),
    "structures.load": ("structures", ("load_pair", "load_structure")),
    "formulas.evaluate": ("formulas", ("evaluate",)),
    "formulas.modulus_calculus": ("formulas", ("modulus_of", "theta_of")),
    "formulas.parse_format": ("formulas", ("parse_formula", "format_formula")),
}
COUNTED = {
    "formulas.enumerate_atomic": ("formulas", ("enumerate_atomic",)),
    "game.GameSolver.leaf": ("game", ("GameSolver.leaf",)),
    "game.GameSolver.value": ("game", ("GameSolver.value",)),
    "moduli.PwlModulus.evaluate": ("moduli", ("PwlModulus.evaluate",)),
    "moduli.compose": ("moduli", ("compose",)),
    "moduli.modulus_max": ("moduli", ("modulus_max",)),
}
SELF_TIMED = (
    "cli", "structures", "moduli", "formulas", "game", "infinitary", "witnesses", "rationals",
    "fractions",
)

# Public functions whose entry from the CLI or the benchmark gets a span:
# (module, attribute) pairs, patched only for the traced pass.  The CLI
# imported its helpers by name, so those are patched in the CLI's namespace.
SPANNED = (
    ("cli", "load_pair"), ("cli", "load_structure"), ("cli", "validate"),
    ("cli", "game_value"), ("cli", "strategy_to_json"),
    ("infinitary", "r_alpha"), ("infinitary", "dynamic_game_value"),
    ("infinitary", "omega_game_value_atomic"),
    ("structures", "load_structure"), ("formulas", "evaluate"), ("formulas", "theta_of"),
    ("formulas", "modulus_of"), ("formulas", "parse_formula"), ("formulas", "format_formula"),
)


class Spans:
    """Span records (id, parent id, name, start, end), kept in memory."""

    def __init__(self):
        self.records = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.records), self._open[-1][0] if self._open else None, name,
                  time.perf_counter(), None]
        self.records.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` recording a span per entry; a recursive call, made while
        its own span is innermost, records none."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self._open[-1][2] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def as_json(self) -> list:
        return [
            {"id": i, "parent": parent, "name": name, "start": start, "end": end}
            for i, parent, name, start, end in self.records
        ]


@contextmanager
def spans_at_layer_entries(cg, spans: Spans):
    """Route the SPANNED entry points through span-recording wrappers."""
    saved = []
    for module_name, attr in SPANNED:
        module = getattr(cg, module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        target = getattr(fn, "__module__", module.__name__).rsplit(".", 1)[-1]
        saved.append((module, attr, fn))
        setattr(module, attr, spans.wrap(fn, f"{target}.{attr}"))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def profiled(run):
    """Run ``run()`` under cProfile; return its result and the raw statistics."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    return result, pstats.Stats(profile).stats


def _code_key(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def reduce_stats(stats: dict, cg) -> dict:
    """Per-layer metrics from cProfile statistics of one traced pass."""
    modules = {name: getattr(cg, name) for name in SELF_TIMED if name != "fractions"}
    modules["fractions"] = fractions
    by_file = {os.path.realpath(m.__file__): name for name, m in modules.items()}
    self_s = dict.fromkeys(SELF_TIMED, 0.0)
    fraction_calls = 0
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        layer = by_file.get(os.path.realpath(filename))
        if layer is None:
            continue
        self_s[layer] += tottime
        if layer == "fractions":
            fraction_calls += ncalls

    def entries(module_name, functions):
        keys = [_code_key(modules[module_name], fn) for fn in functions]
        return [stats[k] for k in keys if k is not None and k in stats]

    metrics = {f"{layer}.self_s": (value, "s") for layer, value in self_s.items()}
    metrics["fractions.calls"] = (fraction_calls, "count")
    for name, (module_name, functions) in {**COUNTED, **TIMED}.items():
        metrics[f"{name}.calls"] = (sum(e[1] for e in entries(module_name, functions)), "count")
    for name, (module_name, functions) in TIMED.items():
        metrics[f"{name}.s"] = (sum(e[3] for e in entries(module_name, functions)), "s")
    return metrics
