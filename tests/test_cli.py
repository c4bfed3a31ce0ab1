"""Command-line interface: exit codes, JSON output, demos, scripted play."""

import json
import random
import time
from fractions import Fraction

import pytest

from clgames.cli import main
from clgames.infinitary import build_nested_levels_pair
from clgames.moduli import (
    Aggregator,
    WeakModulus,
    linear_modulus,
    weak_modulus_to_json,
)
from clgames.rationals import format_rat
from clgames.structures import (
    FunctionSymbol,
    MetricStructure,
    NamedPair,
    Signature,
    load_pair,
    save_pair,
    save_structure,
    structure_from_json,
)
from clgames.witnesses import cardinality_witness_pair, discrete_structure, line_structure

import helpers

F = Fraction


def _certificate_leaves(pair, node, left=(), right=()):
    """The leaf of every play a certificate file allows, scored by
    ``helpers.plain_leaf``."""
    if node is None:
        yield helpers.plain_leaf(pair, left, right)
        return
    if node["kind"] == "duplicator":
        steps = [(move, step["reply"], step["next"]) for move, step in node["responses"].items()]
    else:
        steps = [(node["move"], int(reply), child)
                 for reply, child in node["continuations"].items()]
    for move, reply, child in steps:
        side, element = move.split(":")
        a, b = (int(element), reply) if side == "L" else (reply, int(element))
        yield from _certificate_leaves(pair, child, left + (a,), right + (b,))


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    save_pair(cardinality_witness_pair(F(1, 4)), path)
    return path


@pytest.fixture
def structure_file(tmp_path):
    path = tmp_path / "s.json"
    save_structure(discrete_structure(2), path)
    return path


@pytest.fixture
def bad_structure_file(tmp_path):
    s = MetricStructure(
        signature=Signature(),
        points=("a", "b", "c"),
        dist=(
            (F(0), F(1, 4), F(1)),
            (F(1, 4), F(0), F(1, 4)),
            (F(1), F(1, 4), F(0)),
        ),
    )
    path = tmp_path / "bad.json"
    save_structure(s, path)
    return path


class TestValidateCommand:
    def test_valid_structure(self, structure_file, capsys):
        assert main(["validate", str(structure_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_structure_exit_one_with_witness(self, bad_structure_file, capsys):
        assert main(["validate", str(bad_structure_file)]) == 1
        assert "triangle" in capsys.readouterr().out

    def test_skip_validation(self, bad_structure_file, capsys):
        assert main(["validate", str(bad_structure_file), "--skip-validation"]) == 0

    def test_json_output(self, bad_structure_file, capsys):
        assert main(["--json", "validate", str(bad_structure_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(v["kind"] == "triangle" for v in payload["violations"])

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_negative_gap_reported(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        save_structure(helpers.negative_gap_structure("predicate"), path)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:2] == ["3 violation(s)", "  - negative-distance at ('a', 'b'): -1/5"]
        assert all(line.startswith("  - triangle at") for line in lines[2:])
        assert captured.err == ""


    def test_function_image_not_a_point(self, tmp_path, capsys):
        # f(a) = 2 on two points: reported once, in one line, with no
        # traceback; a command that loads the file fails in one line too
        sig = Signature(functions=(FunctionSymbol("f", 1, linear_modulus(F(1, 7))),))
        dist = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        bad = MetricStructure(sig, ("a", "b"), dist, function_tables={"f": {(0,): 2, (1,): 0}})
        path, pair_path = tmp_path / "f.json", tmp_path / "pair.json"
        save_structure(bad, path)
        save_pair(NamedPair(bad, bad), pair_path)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "1 violation(s)",
            "  - function-range at ('f', (0,)): image 2 not a point",
        ]
        assert captured.err == ""
        assert main(["game", "--pair", str(pair_path), "--rounds", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "function-range" in err and err.count("\n") == 1


class TestEvalCommand:
    def test_sentence(self, structure_file, capsys):
        rc = main(
            ["eval", "--structure", str(structure_file), "--formula", "inf x0. sup y. d(y, x0)"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_with_assignment(self, structure_file, capsys):
        rc = main(
            ["eval", "--structure", str(structure_file), "--formula", "d(x0, x1)",
             "--at", "p0,p1"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_json_rationals(self, structure_file, capsys):
        rc = main(
            ["--json", "eval", "--structure", str(structure_file),
             "--formula", "1/4", "--at", ""]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == [1, 4]

    def test_unknown_point_message_has_no_quotes_around_it(self, tmp_path, capsys):
        path = tmp_path / "line5.json"
        save_structure(line_structure(["0", "1/4", "1/2", "3/4", "1"]), path)
        rc = main(["eval", "--structure", str(path), "--formula", "d(x0, x1)", "--at", "0,9"])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown point '9'\n"

    def test_parse_error_exit_one(self, structure_file, capsys):
        rc = main(["eval", "--structure", str(structure_file), "--formula", "min("])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestGameCommand:
    def test_value_and_epsilon_verdict(self, pair_file, capsys):
        rc = main(["game", "--pair", str(pair_file), "--rounds", "2", "--epsilon", "1/4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1/8" in out and "II wins" in out

    def test_spoiler_win_exit_code(self, pair_file, capsys):
        rc = main(["game", "--pair", str(pair_file), "--rounds", "2", "--epsilon", "1/16"])
        assert rc == 1
        assert "I wins" in capsys.readouterr().out

    def test_start_position_and_json(self, pair_file, capsys):
        rc = main(
            ["--json", "game", "--pair", str(pair_file), "--rounds", "1",
             "--start", "p1/p1"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == [1, 8]

    def test_unknown_start_point_message_has_no_quotes_around_it(self, pair_file, capsys):
        rc = main(["game", "--pair", str(pair_file), "--rounds", "1", "--start", "p99/p1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown point 'p99'\n"

    def test_strategy_file(self, pair_file, tmp_path, capsys):
        out = tmp_path / "strategy.json"
        rc = main(
            ["game", "--pair", str(pair_file), "--rounds", "2", "--strategy", str(out)]
        )
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["ii_strategy"][0]["kind"] == "duplicator"
        assert blob["i_witness"][0]["kind"] == "spoiler"
        # a 3-round certificate read back from the file: II's replies hold
        # every play to the value, and I's moves force it
        rc = main(
            ["game", "--pair", str(pair_file), "--rounds", "3", "--strategy", str(out)]
        )
        assert rc == 0
        assert "game value (3 round(s)): 1/8" in capsys.readouterr().out
        blob = json.loads(out.read_text())
        pair = load_pair(pair_file)
        assert blob["value"] == [1, 8]
        ii_tree, i_tree = (helpers.tree_from_table(blob[k]) for k in ("ii_strategy", "i_witness"))
        assert max(_certificate_leaves(pair, ii_tree)) == F(1, 8)
        assert min(_certificate_leaves(pair, i_tree)) == F(1, 8)

    def test_certificate_over_the_cap_writes_nothing(self, pair_file, tmp_path, capsys):
        # the certificates' nodes are charged to the solve's cap as they are
        # built: at 10 rounds the solve holds 45 leaf and 34 value entries
        # and 152 certificate nodes, 231 entries, so a cap of 230 stops it
        # before the file is opened
        out = tmp_path / "cert.json"
        argv = ["game", "--pair", str(pair_file), "--rounds", "10", "--strategy", str(out)]
        assert main(argv + ["--max-positions", "230"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "cap of 230 entries" in captured.err
        assert "certificate table" in captured.err and "certificate 151" in captured.err
        assert not out.exists()
        assert main(argv + ["--max-positions", "231"]) == 0
        assert json.loads(out.read_text())["value"] == [1, 8]
        out.unlink()
        # at 4 rounds the solve holds 73 entries and 44 certificate nodes
        argv = ["game", "--pair", str(pair_file), "--rounds", "4", "--strategy", str(out)]
        assert main(argv + ["--max-positions", "116"]) == 1
        err = capsys.readouterr().err
        assert "cap of 116 entries" in err and "certificate 43" in err
        assert not out.exists()
        assert main(argv + ["--max-positions", "117"]) == 0
        assert json.loads(out.read_text())["value"] == [1, 8]

    def test_twenty_round_certificate(self, pair_file, tmp_path, capsys, monkeypatch):
        # the full trees would have 5^20 leaves; the DAG's tables are small
        monkeypatch.delenv("CLGAMES_MAX_POSITIONS", raising=False)
        out = tmp_path / "cert.json"
        start = time.perf_counter()
        rc = main(["--json", "game", "--pair", str(pair_file), "--rounds", "20",
                   "--strategy", str(out)])
        assert time.perf_counter() - start < 1
        assert rc == 0
        game = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text())["value"] == game["value"] == [1, 8]

    def test_resource_cap_message(self, pair_file, capsys):
        rc = main(["game", "--pair", str(pair_file), "--rounds", "3", "--max-positions", "4"])
        assert rc == 1
        assert "cap" in capsys.readouterr().err

    def test_negative_rounds_exit_one(self, pair_file, capsys):
        rc = main(["game", "--pair", str(pair_file), "--rounds", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rounds" in err and err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_usage_error(self, pair_file, capsys, cap):
        with pytest.raises(SystemExit) as err:
            main(["game", "--pair", str(pair_file), "--rounds", "1", "--max-positions", cap])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error:") and "--max-positions must be at least 1" in err_text
        assert err_text.count("\n") == 1

    def test_non_positive_cap_from_environment(self, pair_file, capsys, monkeypatch):
        monkeypatch.setenv("CLGAMES_MAX_POSITIONS", "0")
        rc = main(["game", "--pair", str(pair_file), "--rounds", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "CLGAMES_MAX_POSITIONS must be at least 1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["game", "--rounds", "5000"], ["ralpha", "--alpha", "5000"]]
    )
    def test_too_many_rounds_exit_one(self, tmp_path, capsys, argv):
        # the rounds clamp at the points left uncovered, so the search is
        # only as deep as the pair is large: 400 points make it deeper than
        # the default limit of 1000 frames
        pair_file = tmp_path / "deep.json"
        save_pair(NamedPair(discrete_structure(200), discrete_structure(200)), pair_file)
        rc = main([argv[0], "--pair", str(pair_file), *argv[1:]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "recursion" in err and err.count("\n") == 1

    def test_certificates_built_only_for_strategy_file(self, pair_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("strategy tree built without --strategy")

        monkeypatch.setattr("clgames.game.GameSolver.ii_strategy_tree", refuse)
        monkeypatch.setattr("clgames.game.GameSolver.i_witness_tree", refuse)
        rc = main(["game", "--pair", str(pair_file), "--rounds", "2"])
        assert rc == 0
        assert "1/8" in capsys.readouterr().out


class TestMalformedPairJson:
    def run_with(self, pair_file, capsys, edit):
        blob = json.loads(pair_file.read_text())
        edit(blob)
        pair_file.write_text(json.dumps(blob))
        rc = main(["game", "--pair", str(pair_file), "--rounds", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_dist_not_a_matrix(self, pair_file, capsys):
        err = self.run_with(pair_file, capsys, lambda blob: blob["left"].update(dist=5))
        assert "'left'" in err and "'dist'" in err

    def test_float_distance(self, pair_file, capsys):
        def edit(blob):
            blob["right"]["dist"][0][1] = 0.5

        err = self.run_with(pair_file, capsys, edit)
        assert "'right'" in err and "'dist'" in err and "float" in err

    def test_boolean_distance(self, pair_file, capsys):
        # [true, true] would load as 1, the distance it replaces
        def edit(blob):
            blob["left"]["dist"][0][1] = blob["left"]["dist"][1][0] = [True, True]

        err = self.run_with(pair_file, capsys, edit)
        assert "'left'" in err and "field 'dist'" in err and "with integers" in err

    def test_missing_side(self, pair_file, capsys):
        err = self.run_with(pair_file, capsys, lambda blob: blob.pop("right"))
        assert "missing field 'right'" in err


class TestRalphaCommand:
    def test_finite_alpha(self, pair_file, capsys):
        rc = main(["ralpha", "--pair", str(pair_file), "--alpha", "2"])
        assert rc == 0
        assert "r_2 = 1/8" in capsys.readouterr().out

    def test_dynamic_flag(self, pair_file, capsys):
        rc = main(["ralpha", "--pair", str(pair_file), "--alpha", "2", "--dynamic"])
        assert rc == 0
        assert "1/8" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["abc", "1.5"])
    def test_alpha_neither_integer_nor_omega(self, pair_file, capsys, alpha):
        rc = main(["ralpha", "--pair", str(pair_file), "--alpha", alpha])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --alpha must be an integer or 'omega', got '{alpha}'\n"

    def test_deep_dynamic_clock_clamps(self, pair_file, capsys):
        # the kernel's rounds clamp cuts the clock to the uncovered points
        rc = main(["ralpha", "--pair", str(pair_file), "--alpha", "9999", "--dynamic"])
        assert rc == 0
        assert capsys.readouterr().out == "dynamic game value (clock 9999) = 1/8\n"

    def test_omega_clock(self, pair_file, capsys):
        rc = main(["ralpha", "--pair", str(pair_file), "--alpha", "omega"])
        assert rc == 0
        assert "r_omega = 1/8" in capsys.readouterr().out

    def test_omega_clock_with_function_symbols(self, tmp_path, capsys):
        pair = helpers.random_pair(
            random.Random(47), max_points=3, with_constant=True, with_function=True
        )
        path = tmp_path / "functions.json"
        save_pair(pair, path)
        rc = main(["ralpha", "--pair", str(path), "--alpha", "omega", "--term-depth", "1"])
        assert rc == 0
        expected = helpers.value_iteration_omega(pair, term_depth=1)
        assert f"r_omega = {format_rat(expected)}" in capsys.readouterr().out

    def test_omega_leaf(self, pair_file, tmp_path, capsys):
        omega = WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX)
        omega_file = tmp_path / "omega.json"
        omega_file.write_text(json.dumps(weak_modulus_to_json(omega)))
        rc = main(
            ["ralpha", "--pair", str(pair_file), "--alpha", "1",
             "--leaf", "omega", "--omega", str(omega_file)]
        )
        assert rc == 0

    def test_omega_leaf_needs_file(self, pair_file, capsys):
        rc = main(["ralpha", "--pair", str(pair_file), "--alpha", "1", "--leaf", "omega"])
        assert rc == 1


class TestThetaAndDist:
    def test_theta_report(self, structure_file, capsys):
        rc = main(["theta", "--structure", str(structure_file), "--formula", "1 - d(x0, x1)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "qr: 0" in out and "theta" in out

    def test_dist_needs_two_formulas(self, structure_file, capsys):
        rc = main(["dist", "--formula", "d(x0,x1)", "--corpus", str(structure_file)])
        assert rc == 1

    def test_dist_value(self, structure_file, capsys):
        rc = main(
            ["dist", "--formula", "d(x0,x1)", "--formula", "1 - d(x0,x1)",
             "--corpus", str(structure_file)]
        )
        assert rc == 0
        assert "1" in capsys.readouterr().out

    def test_dist_over_structures_of_other_signatures(self, tmp_path, capsys):
        # the formulas are parsed against the first structure; the line lacks P0
        left, line = tmp_path / "left.json", tmp_path / "line5.json"
        save_structure(build_nested_levels_pair(2, 1).left, left)
        save_structure(line_structure(["0", "1/4", "1/2", "3/4", "1"]), line)
        argv = ["dist", "--formula", "P0(x0)", "--formula", "1 - P0(x0)",
                "--corpus", str(left), str(line)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unknown predicate 'P0'\n"

    def test_dist_over_two_denominators(self, tmp_path, capsys):
        # the line's distances are over 4 and the discrete space's over 1;
        # the scaled formula's denominator is twice the structure's
        line, discrete = tmp_path / "line5.json", tmp_path / "discrete4.json"
        save_structure(line_structure(["0", "1/4", "1/2", "3/4", "1"]), line)
        save_structure(discrete_structure(4), discrete)
        argv = ["dist", "--formula", "d(x0, x1)", "--formula", "1/2 * d(x0, x1)",
                "--corpus", str(line), str(discrete)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("corpus logical distance: 1/2\n")

    def test_repeated_calls_share_no_arguments(self, structure_file, capsys):
        # the parser is built once; an appended --formula list must not carry
        # over from one call to the next
        argv = ["dist", "--formula", "d(x0,x1)", "--formula", "1 - d(x0,x1)",
                "--corpus", str(structure_file)]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("corpus logical distance: 1\n")


class TestDemos:
    @pytest.mark.parametrize("name", ["covering", "corollary54", "corollary55", "section6"])
    def test_demo_passes(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "FAIL" not in out

    def test_demo_emits_files(self, tmp_path, capsys):
        assert main(["demo", "section6", "--m", "3", "--out", str(tmp_path)]) == 0
        emitted = sorted(p.name for p in tmp_path.glob("*.json"))
        assert "nested_levels_m3.json" in emitted
        pair = load_pair(tmp_path / "nested_levels_m3.json")
        assert pair.left.size == pair.right.size

    def test_demo_json_reproducible(self, capsys):
        assert main(["--json", "demo", "corollary55"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "demo", "corollary55"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True

    def test_unknown_demo_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["demo", "nonsense"])
        assert err.value.code == 2


class TestPlayCommand:
    def test_scripted_play(self, pair_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("B p1\nB p2\n"))
        rc = main(
            ["play", "--pair", str(pair_file), "--rounds", "2", "--epsilon", "1/4"]
        )
        assert rc == 0
        assert "II wins" in capsys.readouterr().out

    def test_negative_rounds_exit_one(self, pair_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main(["play", "--pair", str(pair_file), "--rounds", "-1", "--epsilon", "1/4"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "rounds" in captured.err
        assert captured.err.count("\n") == 1

    def test_input_ending_mid_game_exit_one(self, pair_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main(["play", "--pair", str(pair_file), "--rounds", "1", "--epsilon", "1/4",
                   "--human-side", "II"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "I plays" in captured.out
        assert captured.err == "error: input ended mid-game\n"


class TestInputTooDeep:
    """Inputs nested deeper than the parsers can follow end in one line."""

    def expect_one_line_error(self, capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "nested too deeply" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "theta"])
    def test_deep_formula(self, structure_file, capsys, command):
        formula = "1 - (" * 2000 + "1" + ")" * 2000
        self.expect_one_line_error(
            capsys, [command, "--structure", str(structure_file), "--formula", formula]
        )

    @pytest.mark.parametrize(
        "argv", [["validate", "{path}"], ["game", "--pair", "{path}", "--rounds", "1"]]
    )
    def test_deep_json(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.expect_one_line_error(capsys, [a.format(path=path) for a in argv])


class TestMalformedWeakModulus:
    def run_with(self, pair_file, tmp_path, capsys, blob):
        omega_file = tmp_path / "omega.json"
        omega_file.write_text(json.dumps(blob))
        rc = main(
            ["ralpha", "--pair", str(pair_file), "--alpha", "1",
             "--leaf", "omega", "--omega", str(omega_file)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_not_an_object(self, pair_file, tmp_path, capsys):
        err = self.run_with(pair_file, tmp_path, capsys, [])
        assert "JSON object" in err

    def test_coords_not_a_list(self, pair_file, tmp_path, capsys):
        omega = WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX)
        blob = {**weak_modulus_to_json(omega), "coords": 5}
        err = self.run_with(pair_file, tmp_path, capsys, blob)
        assert "'coords'" in err

    def test_missing_tail(self, pair_file, tmp_path, capsys):
        err = self.run_with(pair_file, tmp_path, capsys, {"coords": []})
        assert "missing field 'tail'" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "--rounds", "1"],
            ["ralpha", "--alpha", "1"],
            ["play", "--rounds", "1", "--epsilon", "1/4"],
        ],
    )
    def test_negative_term_depth(self, pair_file, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--pair", str(pair_file), *argv[1:], "--term-depth", "-1"])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error:") and "--term-depth" in err_text
        assert err_text.count("\n") == 1

    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag(self, pair_file):
        with pytest.raises(SystemExit) as err:
            main(["game", "--pair", str(pair_file), "--bogus"])
        assert err.value.code == 2


class TestJsonSchemas:
    def test_structure_json_round_trips_through_documented_schema(self, tmp_path):
        rng = random.Random(51)
        s = helpers.random_structure(rng, helpers.random_signature(rng, with_constant=True))
        path = tmp_path / "s.json"
        save_structure(s, path)
        blob = json.loads(path.read_text())
        assert set(blob) == {"signature", "points", "dist", "predicates", "functions", "constants"}
        for table in blob["predicates"].values():
            for key, value in table.items():
                assert key.startswith("(") and key.endswith(")")
                assert isinstance(value, list) and len(value) == 2
        assert structure_from_json(blob) == s
