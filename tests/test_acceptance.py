"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every assertion is an exact rational equality or inequality;
there are no tolerances anywhere.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import product

from clgames.formulas import (
    covering_sentence,
    evaluate,
    format_formula,
    modulus_of,
    normalize_sup,
    parse_formula,
    qr,
    sample_formulas,
    theta_of,
)
from clgames.game import GameSolver, Position, game_value
from clgames.infinitary import AtomicLeaf, RAlphaSolver, omega_game_value_atomic
from clgames.moduli import capped_linear, compose, concave_envelope, linear_modulus
from clgames.structures import (
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    find_isomorphism,
    validate,
)
from clgames.witnesses import (
    cardinality_witness_pair,
    discrete_structure,
    distance_witness_pair,
    line_structure,
)
from clgames.infinitary import build_nested_levels_pair

import helpers

F = Fraction


def _report(criterion: str, detail: str, started: float):
    print(f"[PASS] {criterion}: {detail} ({time.monotonic() - started:.1f}s)")


def criterion(label: str):
    """Print the fail line before letting pytest report the details."""

    def deco(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label}")
                raise

        return run

    return deco


def _random_pairs(seed: int, count: int, max_points: int) -> list:
    rng = random.Random(seed)
    return [helpers.random_pair(rng, max_points=max_points) for _ in range(count)]


@criterion("criterion 1")
def test_criterion_1_dynamic_game_equals_rank_recursion():
    """Clocked game-tree search and the rank recursion agree exactly."""
    started = time.monotonic()
    pairs = _random_pairs(seed=101, count=50, max_points=4)
    checked = 0
    for pair in pairs:
        recursion = RAlphaSolver(pair, AtomicLeaf())
        search = helpers.DynamicSolver(pair, AtomicLeaf())
        for alpha in range(5):
            assert search.value(Position(), alpha) == recursion.value(Position(), alpha)
            checked += 1
    _report(
        "criterion 1",
        f"dynamic value == rank recursion on {len(pairs)} pairs x alpha<=4 "
        f"({checked} exact equalities)",
        started,
    )


@criterion("criterion 2")
def test_criterion_2_value_gaps_bounded_by_theta():
    """Game precision propagates through formulas: |phi(A) - phi(B)| <=
    theta(phi)(V_qr) with zero violations."""
    started = time.monotonic()
    sig = Signature(
        predicates=(
            PredicateSymbol("P", 1, capped_linear(2)),
            PredicateSymbol("Q", 2, capped_linear(2)),
        )
    )
    rng = random.Random(202)
    pairs = [
        NamedPair(
            helpers.random_structure(rng, sig, max_points=4),
            helpers.random_structure(rng, sig, max_points=4),
        )
        for _ in range(20)
    ]
    formulas = sample_formulas(sig, qr_bound=2, count=200, seed=203)
    thetas = {i: theta_of(phi, sig) for i, phi in enumerate(formulas)}
    ranks = {i: qr(phi) for i, phi in enumerate(formulas)}
    checked = 0
    for pair in pairs:
        solver = GameSolver(pair)
        values = {n: solver.value(Position(), n) for n in (0, 1, 2)}
        for i, phi in enumerate(formulas):
            gap = abs(evaluate(phi, pair.left) - evaluate(phi, pair.right))
            assert gap <= thetas[i].evaluate(values[ranks[i]])
            checked += 1
    _report(
        "criterion 2",
        f"{len(formulas)} formulas x {len(pairs)} pairs, {checked} exact bounds, 0 violations",
        started,
    )


@criterion("criterion 3")
def test_criterion_3_rank_monotone_symmetric_triangle():
    """Rank values grow with the clock and form a pseudometric."""
    started = time.monotonic()
    pairs = _random_pairs(seed=301, count=20, max_points=4)
    for pair in pairs:
        solver = RAlphaSolver(pair, AtomicLeaf())
        values = [solver.value(Position(), alpha) for alpha in range(5)]
        for beta in range(5):
            for alpha in range(beta, 5):
                assert values[beta] <= values[alpha]
    rng = random.Random(302)
    triples = []
    for _ in range(20):
        sig = helpers.random_signature(rng)
        triples.append(
            tuple(helpers.random_structure(rng, sig, max_points=3) for _ in range(3))
        )
    for a, b, c in triples:
        sab = RAlphaSolver(NamedPair(a, b), AtomicLeaf())
        sba = RAlphaSolver(NamedPair(b, a), AtomicLeaf())
        sbc = RAlphaSolver(NamedPair(b, c), AtomicLeaf())
        sac = RAlphaSolver(NamedPair(a, c), AtomicLeaf())
        for alpha in range(4):
            ab = sab.value(Position(), alpha)
            assert ab == sba.value(Position(), alpha)
            assert sac.value(Position(), alpha) <= ab + sbc.value(Position(), alpha)
    _report(
        "criterion 3",
        f"monotone over {len(pairs)} pairs (all beta<=alpha<=4); symmetry and "
        f"triangle over {len(triples)} triples x alpha<=3",
        started,
    )


@criterion("criterion 4")
def test_criterion_4_covering_sentence_equals_brute_force():
    """The covering sentence computes the exact n-center covering radius."""
    from clgames.cli import brute_force_covering_value

    started = time.monotonic()
    rng = random.Random(404)
    spaces = [
        discrete_structure(5),
        discrete_structure(6),
        line_structure(["0", "1/4", "1/2", "3/4", "1"]),
        line_structure(["0", "1/8", "1/4", "1/2", "7/8", "1"]),
        line_structure(["0", "1/2", "1"]),
    ]
    spaces += [
        helpers.random_structure(rng, Signature(), n_points=rng.randint(4, 6))
        for _ in range(5)
    ]
    checked = 0
    for space in spaces:
        assert validate(space).ok
        for n in (1, 2, 3, 4):
            assert evaluate(covering_sentence(n), space) == brute_force_covering_value(space, n)
            checked += 1
    _report(
        "criterion 4",
        f"{len(spaces)} spaces (<=6 points) x n<=4, {checked} exact equalities",
        started,
    )


@criterion("criterion 5")
def test_criterion_5_cardinality_witness_reproduction():
    """Game value eps/2 at every length, and the duplicator's certificate is
    the pretend map 0->0, 1->1, 2->1."""
    started = time.monotonic()
    for eps in (F(1, 4), F(1, 8)):
        pair = cardinality_witness_pair(eps)
        start = Position((1,), (1,))
        for rounds in (1, 2, 3):
            result = game_value(pair, start=start, rounds=rounds, build_strategies=False)
            assert result.value == eps / 2
        # certificate replay at every length: following the emitted tree, no
        # spoiler play exceeds eps/2, and the replies are the pretend map
        for rounds in (1, 2, 3):
            result = game_value(pair, start=start, rounds=rounds)
            replies = {move: reply for move, (reply, _) in result.ii_strategy.responses.items()}
            assert replies == {("L", 0): 0, ("L", 1): 1, ("R", 0): 0, ("R", 1): 1, ("R", 2): 1}
            worst = helpers.worst_leaf_following_ii(pair, start, result.ii_strategy)
            assert worst == eps / 2
        # the empty-start game reaches the same value once both near points
        # can be played
        for rounds in (2, 3):
            assert game_value(pair, rounds=rounds, build_strategies=False).value == eps / 2
    _report(
        "criterion 5",
        "value == eps/2 for eps in {1/4, 1/8}, rounds 1..3; strategy map verified by replay",
        started,
    )


@criterion("criterion 6")
def test_criterion_6_truncation_decay():
    """Edge effects fade exactly as the truncations grow."""
    started = time.monotonic()
    previous = None
    for m in (3, 6, 12):
        pair = distance_witness_pair(F(1, 2), m)
        assert validate(pair.left).ok and validate(pair.right).ok
        value = game_value(pair, rounds=2, build_strategies=False).value
        assert value <= F(1, m + 1)
        if previous is not None:
            assert value < previous
        previous = value
    previous = None
    for m in (2, 4, 8):
        pair = build_nested_levels_pair(m, 2)
        assert validate(pair.left).ok and validate(pair.right).ok
        value = game_value(pair, rounds=1, build_strategies=False).value
        assert value <= F(2, m + 1)
        if previous is not None:
            assert value < previous
        previous = value
    _report(
        "criterion 6",
        "2-round values strictly decreasing <= 1/(m+1) for m in {3,6,12}; "
        "1-round values strictly decreasing <= 2/(m+1) for m in {2,4,8}",
        started,
    )


@criterion("criterion 7")
def test_criterion_7_kernel_invariants():
    """Exact kernel checks: moduli algebra, sup-rewriting, modulus soundness,
    validation completeness, parser round-trips."""
    started = time.monotonic()
    rng = random.Random(707)

    # modulus subadditivity and exact composition, 1000 sampled points each
    def random_modulus():
        samples = [(F(0), F(0))]
        for _ in range(rng.randint(0, 4)):
            samples.append((F(rng.randint(1, 24), 8), F(rng.randint(0, 16), 8)))
        return concave_envelope(samples, F(rng.randint(0, 8), 8))

    moduli = [random_modulus() for _ in range(25)]
    for _ in range(1000):
        delta = rng.choice(moduli)
        x = F(rng.randint(0, 64), 16)
        y = F(rng.randint(0, 64), 16)
        assert delta.evaluate(x) <= delta.evaluate(x + y)
        assert delta.evaluate(x + y) <= delta.evaluate(x) + delta.evaluate(y)
    for _ in range(1000):
        outer, inner = rng.choice(moduli), rng.choice(moduli)
        t = F(rng.randint(0, 64), 16)
        assert compose(outer, inner).evaluate(t) == outer.evaluate(inner.evaluate(t))

    # sup-rewriting preserves values on 500 (formula, structure, assignment)
    sig = Signature(
        predicates=(
            PredicateSymbol("P", 1, capped_linear(2)),
            PredicateSymbol("Q", 2, capped_linear(2)),
        ),
        constants=("c",),
    )
    structures = [
        helpers.random_structure(rng, sig, max_points=4, values=(F(1, 4), F(1, 2), F(3, 4)))
        for _ in range(5)
    ]
    assert all(validate(s).ok for s in structures)
    formulas = sample_formulas(sig, qr_bound=2, count=100, seed=708, free_vars_count=1)
    checked = 0
    for phi in formulas:
        rewritten = normalize_sup(phi)
        for _ in range(5):
            s = rng.choice(structures)
            env = {0: rng.randrange(s.size)}
            assert evaluate(rewritten, s, env) == evaluate(phi, s, env)
            checked += 1
    assert checked == 500

    # modulus soundness on 500 (formula, structure, assignment-pair) triples
    tight_sig = Signature(
        predicates=(
            PredicateSymbol("P", 1, linear_modulus(1)),
            PredicateSymbol("Q", 2, capped_linear(2)),
        )
    )
    tight_structures = [
        helpers.random_structure(
            rng, tight_sig, max_points=4, values=(F(1, 4), F(1, 2), F(3, 4))
        )
        for _ in range(5)
    ]
    assert all(validate(s).ok for s in tight_structures)
    sound_formulas = sample_formulas(tight_sig, qr_bound=1, count=100, seed=709, free_vars_count=1)
    checked = 0
    for phi in sound_formulas:
        bound = modulus_of(phi, tight_sig)
        for _ in range(5):
            s = rng.choice(tight_structures)
            x, y = rng.randrange(s.size), rng.randrange(s.size)
            gap = abs(evaluate(phi, s, {0: x}) - evaluate(phi, s, {0: y}))
            assert gap <= bound.evaluate(s.distance(x, y))
            checked += 1
    assert checked == 500

    # validation completeness under 200 single-entry perturbations
    base_sig = Signature(predicates=(PredicateSymbol("P", 1, linear_modulus(F(3, 4))),))
    base = MetricStructure(
        signature=base_sig,
        points=("a", "b", "c"),
        dist=(
            (F(0), F(1, 2), F(3, 4)),
            (F(1, 2), F(0), F(1)),
            (F(3, 4), F(1), F(0)),
        ),
        predicate_tables={"P": {(0,): F(1, 2), (1,): F(1, 2), (2,): F(1, 2)}},
    )
    assert validate(base).ok
    perturbations = 0
    flips = 0
    values_grid = [F(n, 8) for n in range(9)]
    for idx in range(3):
        for value in values_grid:
            table = dict(base.predicate_tables["P"])
            table[(idx,)] = value
            mutated = MetricStructure(
                signature=base_sig,
                points=base.points,
                dist=base.dist,
                predicate_tables={"P": table},
            )
            expected_ok = all(
                abs(table[(i,)] - table[(j,)]) <= F(3, 4) * base.dist[i][j]
                for i, j in product(range(3), repeat=2)
            )
            assert validate(mutated).ok == expected_ok
            perturbations += 1
            flips += not expected_ok
    # distance perturbations: shrink one edge and recheck the triangle oracle
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        for value in values_grid:
            dist = [list(row) for row in base.dist]
            dist[i][j] = dist[j][i] = value
            mutated = MetricStructure(
                signature=base_sig,
                points=base.points,
                dist=tuple(tuple(row) for row in dist),
                predicate_tables={k: dict(v) for k, v in base.predicate_tables.items()},
            )
            expected_ok = (
                all(
                    dist[a][c] <= dist[a][b] + dist[b][c]
                    for a, b, c in product(range(3), repeat=3)
                )
                and all(dist[a][b] > 0 for a in range(3) for b in range(3) if a != b)
                and all(
                    abs(F(1, 2) - F(1, 2)) <= F(3, 4) * dist[a][b]
                    for a, b in product(range(3), repeat=2)
                )
            )
            assert validate(mutated).ok == expected_ok
            perturbations += 1
            flips += not expected_ok
    # top up to 200 with random two-point perturbations of a fresh fixture
    while perturbations < 200:
        s = helpers.random_structure(rng, base_sig, n_points=3, values=(F(1, 2),))
        table = dict(s.predicate_tables["P"])
        table[(rng.randrange(3),)] = rng.choice(values_grid)
        mutated = MetricStructure(
            signature=base_sig,
            points=s.points,
            dist=s.dist,
            predicate_tables={"P": table},
        )
        expected_ok = all(
            abs(table[(i,)] - table[(j,)]) <= F(3, 4) * s.dist[i][j]
            for i, j in product(range(3), repeat=2)
        )
        assert validate(mutated).ok == expected_ok
        perturbations += 1
        flips += not expected_ok
    assert perturbations >= 200 and flips > 0

    # parser round-trips on 500 sampled formulas
    parse_sig = Signature(
        predicates=(
            PredicateSymbol("P", 1, capped_linear(2)),
            PredicateSymbol("R", 2, capped_linear(2)),
        ),
        constants=("c", "e"),
    )
    round_trips = sample_formulas(parse_sig, qr_bound=2, count=500, seed=710, free_vars_count=1)
    for phi in round_trips:
        assert parse_formula(format_formula(phi), parse_sig) == phi
    _report(
        "criterion 7",
        "1000+1000 modulus samples, 500 sup-rewrite triples, 500 soundness "
        f"triples, {perturbations} perturbations ({flips} flips), 500 parser round-trips",
        started,
    )


@criterion("criterion 8")
def test_criterion_8_omega_fixpoint():
    """The infinite-game value is the stabilized finite-clock value, and
    vanishes exactly on isomorphic pairs."""
    started = time.monotonic()
    rng = random.Random(808)
    fixtures = []
    for i in range(20):
        sig = helpers.random_signature(rng)
        left = helpers.random_structure(rng, sig, max_points=3)
        if i % 3 == 0:
            right = helpers.permuted_copy(left, rng)
        else:
            right = helpers.random_structure(rng, sig, max_points=3)
        fixtures.append(NamedPair(left, right))
    checked_zero = 0
    for pair in fixtures:
        omega = omega_game_value_atomic(pair)
        solver = RAlphaSolver(pair, AtomicLeaf())
        values = [solver.value(Position(), alpha) for alpha in range(12)]
        assert values[-1] == values[-2] == values[-3] == values[-4]
        assert omega == values[-1]
        iso = find_isomorphism(pair.left, pair.right)
        assert (omega == 0) == (iso is not None)
        checked_zero += iso is not None
    assert checked_zero >= 5
    _report(
        "criterion 8",
        f"omega value == stabilized clock value on {len(fixtures)} fixtures; "
        f"zero exactly on the {checked_zero} isomorphic ones",
        started,
    )
