"""Record ``golden.json``: exact answers for the default seed.

    python3 perfbench/record_golden.py

Game values come from the unmemoized game-tree oracle and infinite-game
values from the value-iteration oracle in ``tests/helpers.py``, both
independent of the production solvers.  Formula values come from the
benchmark's reference evaluator.  The theta and modulus reports have no
independent oracle, so the values of the commit that recorded the file are
stored.  Run it again only when the seeded inputs change.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.clgames_source()))
    cg = workloads.import_clgames()
    sys.path.insert(0, str(run.ROOT / "tests"))
    import helpers

    seed = workloads.DEFAULT_SEED
    golden = {
        "about": (
            f"exact answers for seed {seed}; see record_golden.py for where each comes from"
        ),
    }
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        small = workloads.build("small-pairs", cg, seed, Path(tmp) / "small")
        entries = {}
        rounds = workloads.SMALL_PAIR_ROUNDS
        for i, (path, (nl, nr)) in enumerate(zip(small.files, workloads.PAIR_SIZES)):
            label = f"{i}:{nl}x{nr}"
            pair = cg.structures.load_pair(path)
            t0 = time.perf_counter()
            value = helpers.brute_force_game_value(pair, (), (), rounds)
            entries[f"game:{label}"] = [value.numerator, value.denominator]
            if nl * nr <= workloads.OMEGA_MAX_PAIRS:
                omega = helpers.value_iteration_omega(pair)
                entries[f"omega:{label}"] = [omega.numerator, omega.denominator]
            print(f"small-pairs {label}: {value} ({time.perf_counter() - t0:.1f} s)", flush=True)
        golden["small-pairs"] = entries

        formulas = workloads.build("formulas-structures", cg, seed, Path(tmp) / "formulas")
        entries = {}
        for op in formulas.ops:
            kind, _, rest = op.name.partition(":")
            if kind == "load":
                loaded = op.run()
                phis = cg.formulas.sample_formulas(
                    loaded.signature, workloads.FORMULA_QR, workloads.FORMULA_COUNT,
                    workloads.FORMULA_SEED,
                )
            elif kind == "evaluate":
                value = workloads.reference_value(phis[int(rest.rsplit("=", 1)[1])], loaded)
                entries[op.name] = [value.numerator, value.denominator]
            elif kind in ("theta", "modulus"):
                entries[op.name] = op.answer(op.run())
        golden["formulas-structures"] = entries
    workloads.GOLDEN_PATH.write_text(_one_entry_per_line(golden))
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


def _one_entry_per_line(golden: dict) -> str:
    sections = []
    for key, value in golden.items():
        if isinstance(value, dict):
            inner = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(value.items())
            )
            value_text = "{\n" + inner + "\n }"
        else:
            value_text = json.dumps(value)
        sections.append(f" {json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
