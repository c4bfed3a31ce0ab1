"""Self-tests of the benchmark: seeded inputs, trace determinism, the checker.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pace
import run
import workloads

sys.path.insert(0, str(run.clgames_source()))


def _input_bytes(name: str, seed: int, workdir: Path) -> dict:
    workload = workloads.build(name, workloads.import_clgames(), seed, workdir)
    return {p.name: p.read_bytes() for p in workload.files}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    first = _input_bytes(name, 3, tmp_path / "a")
    again = _input_bytes(name, 3, tmp_path / "b")
    other = _input_bytes(name, 4, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


# Builds a workload from a fresh import and prints the .calls metrics of
# one traced pass over its first operations.
_TRACED_CALLS = """
import json, sys, tempfile
from pathlib import Path
import run, workloads
sys.path.insert(0, str(run.clgames_source()))
cg = workloads.import_clgames()
with tempfile.TemporaryDirectory() as tmp:
    workload = workloads.build(sys.argv[1], cg, 5, Path(tmp))
    (_, _, failed, _), metrics, spans = run.traced_pass(workload.ops[: int(sys.argv[2])], cg)
assert not failed, failed
assert spans.records
print(json.dumps({k: v for k, (v, _) in metrics.items() if k.endswith(".calls")}))
"""


@pytest.mark.parametrize("name, count", [
    ("small-pairs", 8), ("witness-families", 20), ("formulas-structures", 40),
])
def test_traced_call_counts_repeat(name, count):
    counts = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _TRACED_CALLS, name, str(count)],
            cwd=run.HERE, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert counts[0] == counts[1]
    assert counts[0]["fractions.calls"] > 0


def _answers(workload, names):
    ops = [op for op in workload.ops if op.name.split(":")[0] in names]
    answers, _, failures, _ = run.run_pass(ops)
    assert not failures
    return answers


def test_checker_rejects_corrupted_golden_value(tmp_path, monkeypatch):
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    label = "0:3x3"
    num, den = golden["small-pairs"][f"game:{label}"]
    golden["small-pairs"][f"game:{label}"] = [num + 1, den + 2]
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))

    cg = workloads.import_clgames()
    workload = workloads.build("small-pairs", cg, workloads.DEFAULT_SEED, tmp_path / "ok")
    ops = [op for op in workload.ops if op.name.endswith(label)]
    answers, _, failures, _ = run.run_pass(ops)
    assert not failures
    assert workload.check(answers) == []

    monkeypatch.setattr(workloads, "GOLDEN_PATH", corrupted)
    workload = workloads.build("small-pairs", cg, workloads.DEFAULT_SEED, tmp_path / "bad")
    answers, _, _, _ = run.run_pass([op for op in workload.ops if op.name.endswith(label)])
    assert any("golden" in line for line in workload.check(answers))


def test_checker_rejects_wrong_closed_form_and_disagreeing_solvers(tmp_path):
    cg = workloads.import_clgames()
    witness = workloads.build("witness-families", cg, 7, tmp_path / "w")
    answers = _answers(witness, {"cardinality"})
    assert witness.check(answers) == []
    name = "cardinality:eps=1/4:r=3"
    answers[name] = {**answers[name], "value": [1, 4]}
    assert witness.check(answers) == [f"{name} = 1/4, expected 1/8"]

    small = workloads.build("small-pairs", cg, 7, tmp_path / "s")
    label = "0:3x3"
    answers, _, failures, _ = run.run_pass([op for op in small.ops if op.name.endswith(label)])
    assert not failures and small.check(answers) == []
    game = Fraction(*answers[f"game:{label}"]["value"])
    wrong = game + 1 if game == 0 else game / 2
    answers[f"dynamic:{label}"] = {"value": [wrong.numerator, wrong.denominator]}
    assert any(line.startswith(f"dynamic:{label}") for line in small.check(answers))


def test_reference_evaluator_matches_on_sampled_sentences(tmp_path):
    cg = workloads.import_clgames()
    workload = workloads.build("formulas-structures", cg, 11, tmp_path)
    answers = _answers(workload, {"load", "evaluate"})
    assert workload.check(answers) == []
    name = next(n for n in answers if n.startswith("evaluate:"))
    answers[name] = answers[name] + 1
    assert any(line.startswith(name) for line in workload.check(answers))


def test_pacer_scales_by_the_probes_of_the_span():
    pacer = pace.Pacer()
    # probes ending at 1.0, 1.1, ...; twice the reference time from 1.3 on
    pacer.ends = [1.0 + i / 10 for i in range(6)]
    pacer.durations = [pace.REFERENCE_PROBE_S] * 3 + [2 * pace.REFERENCE_PROBE_S] * 3
    assert pacer.scale(1.0, 1.15) == pytest.approx(1.0)
    assert pacer.scale(1.35, 1.5) == pytest.approx(0.5)
    # the probes at 1.1 (within the look-back), 1.2 and 1.3
    assert pacer.scale(1.15, 1.35) == pytest.approx(3 / 4)
    # a span with no probe of its own takes the last one before it
    assert pacer.scale(1.56, 1.57) == pytest.approx(0.5)


def test_pacer_probes_and_restores_the_signal_handler():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        start = pacer.mark()
        while len(pacer.ends) < 5:
            pace.probe()
        assert pacer.elapsed(start) > 0
    assert pacer.probed_s == pytest.approx(sum(pacer.durations))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-pairs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
