"""Formulas of [0,1]-valued first-order logic over finite metric structures.

The AST has distance atoms ``d(t, t')``, predicate atoms, connective nodes
over an explicit basis, and inf/sup quantifiers.  The basis:

    ConstVal(q)   constant q in [0,1]
    Neg           t -> 1 - t (truncated at 0)
    TruncSub      (s, t) -> max(0, s - t)
    MinOf(k)      k-ary minimum
    MaxOf(k)      k-ary maximum
    TruncAdd      (s, t) -> min(1, s + t)
    Scale(q)      t -> min(1, q*t)

Every basis element carries an exactly computable modulus in the max metric
on its arguments, which drives the formula modulus recursion, the
error-propagation modulus ``theta_of`` and the delta-formula check.

``evaluate`` runs in integers.  ``compile_formula`` turns a formula, once
per structure and variable tuple, into closures over the cached
``integer_form``, atoms being integers over its common denominator D.  Each
node carries its own denominator: D for an atom, q's for ConstVal(q), s
times its child's for Scale(p/s), and the lcm of its children's for every
other connective.  The value is one Fraction over the root's denominator,
equal to the value over the structure's Fractions.  A quantifier whose
variable is not free in its body (``sup x2. d(x0, x1)``, or the outer
``inf x0`` of ``inf x0. sup x0. P(x0)``) compiles to its body: a structure
has at least one point, so the inf or sup of a constant is that constant.
Every other quantifier is one min or max over its body's row, the body's
integers at all points of its variable made by one call: atoms along the
variable read lines of the integer form (``IntegerForm.line``), a
subformula without the variable is computed once and repeated, connectives
combine rows element by element, and the rest runs per point (see
``compile_formula``).

Concrete syntax (ASCII): variables ``x0, x1, ...`` (or ``v0, v1, ...``);
any other bound identifier, such as ``y`` in ``sup y.``, gets the smallest
index that is neither bound around its binder nor spelled out as ``x<i>``
or ``v<i>`` anywhere in the text; bare identifiers are constants;
``d(t, t)`` and ``P(t, ...)`` atoms; ``1 - f`` (Neg), ``f -. g``
(TruncSub), ``f (+) g`` (TruncAdd), ``min(...)``, ``max(...)``, ``q * f``
(Scale), rational literals like ``1/4`` or ``0.25``; quantifiers
``inf x0. f`` and ``sup x0. f`` extend as far right as possible.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, itemgetter
from typing import Sequence, Union

from .moduli import (
    _IDENTITY,
    _ZERO_MODULUS,
    PwlModulus,
    cap_at_one,
    capped_linear,
    compose,
    modulus_leq,
    modulus_max,
)
from .rationals import format_rat, rat
from .structures import MetricStructure, Signature, _is_point

__all__ = [
    "Var",
    "Const",
    "Apply",
    "Term",
    "ConstVal",
    "Neg",
    "TruncSub",
    "MinOf",
    "MaxOf",
    "TruncAdd",
    "Scale",
    "ComposedConnective",
    "Dist",
    "Pred",
    "Conn",
    "Inf",
    "Sup",
    "Formula",
    "FormulaError",
    "ParseError",
    "free_vars",
    "check_well_formed",
    "qr",
    "evaluate",
    "compile_formula",
    "term_modulus",
    "modulus_of",
    "theta_of",
    "is_delta_formula",
    "normalize_sup",
    "collapse_connectives",
    "enumerate_terms",
    "enumerate_atomic",
    "logical_distance_corpus",
    "sample_formulas",
    "covering_sentence",
    "parse_formula",
    "format_formula",
]

_ZERO = Fraction(0)
_NO_VARS = frozenset()


class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- terms -------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple


Term = Union[Var, Const, Apply]


def term_depth(t: Term) -> int:
    if isinstance(t, Apply):
        return 1 + max(term_depth(a) for a in t.args)
    return 0


def term_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.index,))
    if isinstance(t, Apply):
        out = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    return frozenset()


# --- connective basis ----------------------------------------------------------

def _check_rational(q, what: str):
    """Values are exact: a float would leave the evaluator's integers."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise FormulaError(f"{what} {q!r} is not an int or a Fraction")


@dataclass(frozen=True)
class ConstVal:
    value: Fraction

    def __post_init__(self):
        _check_rational(self.value, "constant")
        if not (0 <= self.value <= 1):
            raise FormulaError(f"constant {self.value} outside [0,1]")


@dataclass(frozen=True)
class Neg:
    pass


@dataclass(frozen=True)
class TruncSub:
    pass


@dataclass(frozen=True)
class MinOf:
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise FormulaError("min needs at least one argument")


@dataclass(frozen=True)
class MaxOf:
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise FormulaError("max needs at least one argument")


@dataclass(frozen=True)
class TruncAdd:
    pass


@dataclass(frozen=True)
class Scale:
    factor: Fraction

    def __post_init__(self):
        _check_rational(self.factor, "scale factor")
        if self.factor < 0:
            raise FormulaError("scale factor must be non-negative")


# A composed connective is a tree of basis connectives over argument slots.
# It exists so that consecutive connective nodes can be collapsed into a
# single node without changing values or quantifier rank; it has no concrete
# syntax and never appears on the wire.

@dataclass(frozen=True)
class _Slot:
    index: int


@dataclass(frozen=True)
class _CNode:
    base: object
    children: tuple


@dataclass(frozen=True)
class ComposedConnective:
    arity: int
    tree: object  # _Slot | _CNode

    def modulus(self) -> PwlModulus:
        def go(node) -> PwlModulus:
            if isinstance(node, _Slot):
                return _IDENTITY
            return compose(conn_modulus(node.base), modulus_max(*map(go, node.children)))

        return go(self.tree)


def conn_arity(conn) -> int:
    if isinstance(conn, ConstVal):
        return 0
    if isinstance(conn, (Neg, Scale)):
        return 1
    if isinstance(conn, (TruncSub, TruncAdd)):
        return 2
    if isinstance(conn, (MinOf, MaxOf)):
        return conn.arity
    if isinstance(conn, ComposedConnective):
        return conn.arity
    raise FormulaError(f"unknown connective {conn!r}")


# min(2t, 1): a truncated sum or difference, and a distance atom (the
# triangle inequality, both endpoints may move)
_DOUBLE_CAPPED = capped_linear(2)


def conn_modulus(conn) -> PwlModulus:
    """Exact modulus of the connective in the max metric on its arguments.

    Neg/min/max are 1-Lipschitz; the truncated binary operations shift by up
    to the sum of their argument shifts, hence min(2t, 1) under the max
    metric; Scale(q) gives min(q*t, 1); a constant never moves.  The fixed
    moduli are shared constants: a PwlModulus is frozen.
    """
    if isinstance(conn, ConstVal):
        return _ZERO_MODULUS
    if isinstance(conn, (Neg, MinOf, MaxOf)):
        return _IDENTITY
    if isinstance(conn, (TruncSub, TruncAdd)):
        return _DOUBLE_CAPPED
    if isinstance(conn, Scale):
        return capped_linear(conn.factor)
    if isinstance(conn, ComposedConnective):
        return conn.modulus()
    raise FormulaError(f"unknown connective {conn!r}")


# --- formulas ------------------------------------------------------------------

@dataclass(frozen=True)
class Dist:
    left: Term
    right: Term


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple


@dataclass(frozen=True)
class Conn:
    conn: object
    args: tuple


@dataclass(frozen=True)
class Inf:
    var: int
    body: object


@dataclass(frozen=True)
class Sup:
    var: int
    body: object


Formula = Union[Dist, Pred, Conn, Inf, Sup]


def is_atomic(phi: Formula) -> bool:
    return isinstance(phi, (Dist, Pred))


def free_vars(phi: Formula) -> frozenset:
    if isinstance(phi, Dist):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, Pred):
        out = frozenset()
        for t in phi.args:
            out |= term_vars(t)
        return out
    if isinstance(phi, Conn):
        out = frozenset()
        for f in phi.args:
            out |= free_vars(f)
        return out
    if isinstance(phi, (Inf, Sup)):
        return free_vars(phi.body) - {phi.var}
    raise FormulaError(f"unknown formula node {phi!r}")


def _check_term(t: Term, sig: Signature):
    if isinstance(t, Var):
        if t.index < 0:
            raise FormulaError("variable index must be non-negative")
    elif isinstance(t, Const):
        if t.name not in sig.constants:
            raise FormulaError(f"unknown constant {t.name!r}")
    elif isinstance(t, Apply):
        sym = sig.function(t.func)
        if len(t.args) != sym.arity:
            raise FormulaError(
                f"function {t.func!r} expects {sym.arity} arguments, got {len(t.args)}"
            )
        for a in t.args:
            _check_term(a, sig)
    else:
        raise FormulaError(f"unknown term node {t!r}")


def check_well_formed(phi: Formula, sig: Signature):
    """Raise FormulaError on arity mismatches or unknown symbols."""
    if isinstance(phi, Dist):
        _check_term(phi.left, sig)
        _check_term(phi.right, sig)
    elif isinstance(phi, Pred):
        sym = sig.predicate(phi.name)
        if len(phi.args) != sym.arity:
            raise FormulaError(
                f"predicate {phi.name!r} expects {sym.arity} arguments, got {len(phi.args)}"
            )
        for t in phi.args:
            _check_term(t, sig)
    elif isinstance(phi, Conn):
        if conn_arity(phi.conn) != len(phi.args):
            raise FormulaError(
                f"connective {phi.conn!r} expects {conn_arity(phi.conn)} arguments,"
                f" got {len(phi.args)}"
            )
        for f in phi.args:
            check_well_formed(f, sig)
    elif isinstance(phi, (Inf, Sup)):
        if phi.var < 0:
            raise FormulaError("variable index must be non-negative")
        check_well_formed(phi.body, sig)
    else:
        raise FormulaError(f"unknown formula node {phi!r}")


def qr(phi: Formula) -> int:
    """Quantifier rank: nesting depth of inf/sup."""
    if is_atomic(phi):
        return 0
    if isinstance(phi, Conn):
        return max((qr(f) for f in phi.args), default=0)
    return 1 + qr(phi.body)


# --- evaluation ------------------------------------------------------------------

def evaluate(phi: Formula, structure: MetricStructure, assignment: dict | None = None) -> Fraction:
    """Exact value in [0,1]; quantifiers are min/max over the finite domain.

    ``assignment`` maps variable indices to point indices; a point that is
    not an ``int`` in ``range(structure.size)`` is a FormulaError.  The
    formula runs in integers over the structure's integer form (see
    ``compile_formula``).
    """
    assignment = _checked_points(assignment or {}, structure.size)
    run, den = compile_formula(phi, structure, tuple(assignment))
    return Fraction(run(tuple(assignment.values())), den)


def _checked_points(assignment: dict, size: int) -> dict:
    for var, point in assignment.items():
        if not _is_point(point, size):
            raise FormulaError(f"x{var} is assigned {point!r}, not a point index in 0..{size - 1}")
    return assignment


def compile_formula(phi: Formula, structure: MetricStructure, variables: Sequence[int]):
    """``(run, N)``: ``run(points)`` is phi's value times N at ``points[i]`` for ``variables[i]``.

    Each node has its own N: an atom the form's ``den``, ConstVal(q) q's
    denominator, Scale(p/s) s times its child's N, and every other
    connective the lcm of its children's, each child scaled up to it.
    Variables live in one environment list, ``variables`` first, where
    ``run`` writes the points unchecked, so ``points`` must have exactly
    ``len(variables)`` entries.

    A quantifier is one ``min`` or ``max`` over its body's row: the body's
    integers at every point of the bound variable x, in point order, made
    by one call.  The row compiler, case by case:

    * an atom whose arguments are x itself or terms without x, at most two
      of them, reads a line of the integer form (``IntegerForm.line``): a
      unary predicate's column, the diagonal of a binary table or of the
      distances, or their line along x at the point the other term names;
    * a subformula without x is computed once, and its integer repeated;
    * a connective combines its arguments' rows element by element, with
      the integers and denominators of the scalar closures;
    * everything else (a predicate of arity 3 or more, a function term
      with x, a nested quantifier whose body reads x) runs its scalar
      closure at each point, writing the point into x's slot and restoring
      the slot afterwards.

    Each node's free variables are computed once per compile, bottom up,
    and they answer every variable question: a node runs as a row exactly
    when the enclosing quantifier's variable is free in it, so formulas
    outside every quantifier keep their scalar closures; and the root's
    free variables, less ``variables``, must be empty, else a FormulaError
    names the smallest unassigned one.  Lines are built on first use and
    kept on the form, one per table, argument position and fixed point,
    each by reading the table at every point in order.  They hold the
    form's own integers, so values stay exact, and a malformed table fails
    where a per-point loop fails: a missing key only when its line is read,
    a short distance row wherever it is read.
    """
    env = [0] * len(variables)
    slots = {var: i for i, var in enumerate(variables)}
    form = structure.integer_form
    den, size = form.den, structure.size
    points, line = range(size), form.line

    def slot(var: int) -> int:
        if var not in slots:
            slots[var] = len(env)
            env.append(0)
        return slots[var]

    def term(t: Term):
        if isinstance(t, Var):
            i = slot(t.index)
            return lambda: env[i]
        if isinstance(t, Const):
            p = structure.constant_map[t.name]
            return lambda: p
        if isinstance(t, Apply):
            table = structure.function_tables[t.func]
            args = [term(a) for a in t.args]
            return lambda: table[tuple([a() for a in args])]
        raise FormulaError(f"unknown term node {t!r}")

    def atom(f: Formula):
        if isinstance(f, Dist):
            dist = form.dist
            if isinstance(f.left, Var) and isinstance(f.right, Var):
                i, j = slot(f.left.index), slot(f.right.index)
                return lambda: dist[env[i]][env[j]]
            left, right = term(f.left), term(f.right)
            return lambda: dist[left()][right()]
        table = form.predicates[f.name]
        if all(isinstance(a, Var) for a in f.args):
            idx = [slot(a.index) for a in f.args]
            if len(idx) == 1:
                i = idx[0]
                return lambda: table[env[i],]
            args = itemgetter(*idx)
            return lambda: table[args(env)]
        args = [term(a) for a in f.args]
        return lambda: table[tuple([a() for a in args])]

    def line_row(name, args: tuple, var: int):
        """The row over x``var`` of the atom ``name`` (None: the distance)
        on ``args``, read from the form's lines, or None when the atom reads
        no line: it has more than two arguments, or one of them is a term
        that mentions x``var`` and is not x``var`` itself."""
        if len(args) > 2:
            return None
        fixed, other = [], None
        for a in args:
            if isinstance(a, Var) and a.index == var:
                fixed.append(None)
            elif var in term_vars(a):
                return None
            else:
                fixed.append(a)
                other = a
        if other is None:
            fixed = tuple(fixed)
            return lambda: line(name, fixed, size)
        point = term(other)
        if fixed[0] is None:
            return lambda: line(name, (None, point()), size)
        return lambda: line(name, (point(), None), size)

    def node(f: Formula, var: int | None):
        """(run, N, free): ``free`` holds f's free variables, and ``run()``
        is f's integer times N, or f's row over x``var`` when x``var`` is
        free in f (never at the root, where ``var`` is None)."""
        if isinstance(f, (Dist, Pred)):
            name, args = (None, (f.left, f.right)) if isinstance(f, Dist) else (f.name, f.args)
            free = _NO_VARS.union(*map(term_vars, args))
            if var not in free:
                return atom(f), den, free
            if name is not None and name not in form.predicates:
                raise KeyError(name)  # at compile time, as for a scalar atom
            row = line_row(name, args, var)
            return row or _each(atom(f), env, slot(var), points), den, free
        if isinstance(f, Conn):
            args, free = [], _NO_VARS
            for a in f.args:
                run, n, fv = node(a, var)
                args.append((run, n, fv))
                free = free | fv if free else fv
            if var not in free:
                run, n = _connective(f.conn, [(run, n) for run, n, _ in args])
                return run, n, free
            rows = [(run, n) if var in fv else (_repeat(run, size), n) for run, n, fv in args]
            run, n = _connective(f.conn, rows, size)
            return run, n, free
        if isinstance(f, (Inf, Sup)):
            run, n, free = node(f.body, f.var)
            if f.var in free:
                run = _best(min if isinstance(f, Inf) else max, run)
                free = free - {f.var}
            # else the domain is never empty: inf or sup of a constant is it
            if var in free:
                run = _each(run, env, slot(var), points)
            return run, n, free
        raise FormulaError(f"unknown formula node {f!r}")

    body, n, free = node(phi, None)
    if unassigned := free.difference(variables):
        raise FormulaError(f"unassigned free variable x{min(unassigned)}")

    def run(points):
        env[:len(points)] = points
        return body()

    return run, n


def _connective(conn, args: list, size: int | None = None):
    """The (closure, N) of a connective over its compiled arguments; given a
    ``size``, the arguments and the result are rows of ``size`` integers."""
    if isinstance(conn, ConstVal):
        value = conn.value.numerator
        if size is not None:
            return (lambda: [value] * size), conn.value.denominator
        return (lambda: value), conn.value.denominator
    if isinstance(conn, Scale):
        (run, n), p = args[0], conn.factor.numerator
        cap = conn.factor.denominator * n
        if size is not None:
            return (lambda: [v if v < cap else cap for v in map(p.__mul__, run())]), cap
        return (lambda: min(cap, p * run())), cap
    if isinstance(conn, ComposedConnective):

        def go(node):
            if isinstance(node, _Slot):
                return args[node.index]
            return _connective(node.base, [go(c) for c in node.children], size)

        return go(conn.tree)
    n = lcm(*(m for _, m in args))
    runs = [run if m == n else _times(n // m, run, size) for run, m in args]
    if isinstance(conn, Neg):
        a = runs[0]
        if size is not None:
            return (lambda: [n - v if v < n else 0 for v in a()]), n
        return (lambda: max(0, n - a())), n
    if isinstance(conn, TruncSub):
        a, b = runs[:2]
        if size is not None:
            return (lambda: [u - v if u > v else 0 for u, v in zip(a(), b())]), n
        return (lambda: max(0, a() - b())), n
    if isinstance(conn, TruncAdd):
        a, b = runs[:2]
        if size is not None:
            return (lambda: [s if s < n else n for s in map(add, a(), b())]), n
        return (lambda: min(n, a() + b())), n
    if isinstance(conn, (MinOf, MaxOf)):
        pick = min if isinstance(conn, MinOf) else max
        if len(runs) == 1:  # min or max of one argument is that argument
            return runs[0], n
        if size is not None:
            return (lambda: list(map(pick, *[r() for r in runs]))), n
        return (lambda: pick([r() for r in runs])), n
    raise FormulaError(f"unknown connective {conn!r}")


def _best(pick, row):
    """A quantifier's closure: ``pick``, min or max, over its body's row."""
    return lambda: pick(row())


def _each(run, env: list, i: int, points: range):
    """The row of a scalar closure, run with each point in slot ``i``,
    which is restored afterwards."""

    def row():
        saved = env[i]
        values = [run() for env[i] in points]
        env[i] = saved
        return values

    return row


def _repeat(run, size: int):
    return lambda: [run()] * size


def _times(k: int, run, size: int | None):
    if size is not None:
        return lambda: [k * v for v in run()]
    return lambda: k * run()

# --- modulus calculus -----------------------------------------------------------

def term_modulus(t: Term, sig: Signature) -> PwlModulus:
    """Upper-bound modulus of the term function in the max tuple metric.

    Variables move exactly with their coordinate (identity); constants never
    move; an application composes the symbol's modulus over the argument
    bound.
    """
    if isinstance(t, Var):
        return _IDENTITY
    if isinstance(t, Const):
        return _ZERO_MODULUS
    sym = sig.function(t.func)
    return modulus_max(*(compose(sym.modulus, term_modulus(a, sig)) for a in t.args))


def modulus_of(phi: Formula, sig: Signature) -> PwlModulus:
    """Upper-bound modulus of the formula in the max tuple metric.

    Follows the recursion over the basis: atoms compose the predicate (or
    distance) modulus with the term moduli, connectives compose their own
    modulus over the children, quantifiers change nothing.  The result is an
    upper bound; no leastness is claimed after composition.
    """
    if isinstance(phi, (Dist, Pred)):
        if isinstance(phi, Dist):
            atom, terms = _DOUBLE_CAPPED, (phi.left, phi.right)
        else:
            atom, terms = sig.predicate(phi.name).modulus, phi.args
        return cap_at_one(modulus_max(*(compose(atom, term_modulus(t, sig)) for t in terms)))
    if isinstance(phi, Conn):
        conn = conn_modulus(phi.conn)
        return modulus_max(*(compose(conn, modulus_of(f, sig)) for f in phi.args))
    if isinstance(phi, (Inf, Sup)):
        return modulus_of(phi.body, sig)
    raise FormulaError(f"unknown formula node {phi!r}")


def theta_of(phi: Formula, sig: Signature) -> PwlModulus:
    """Error-propagation modulus: a game precision eps on a pair of length
    qr(phi) bounds the value gap by theta_of(phi)(eps).

    Atoms propagate exactly (identity); a connective applies its own modulus
    to the worst child bound; quantifiers change nothing.
    """
    if is_atomic(phi):
        return _IDENTITY
    if isinstance(phi, Conn):
        return compose(conn_modulus(phi.conn), modulus_max(*(theta_of(f, sig) for f in phi.args)))
    if isinstance(phi, (Inf, Sup)):
        return theta_of(phi.body, sig)
    raise FormulaError(f"unknown formula node {phi!r}")


def is_delta_formula(phi: Formula, sig: Signature, delta: PwlModulus) -> bool:
    """Syntactic delta-formula check.

    Atoms must have modulus <= delta; quantifiers recurse; a connective node
    needs its connective to respect delta or be 1-Lipschitz and each child to
    be an atomic delta-formula or a quantified delta-formula (consecutive
    connective nodes are not allowed; collapse them first).
    """
    if is_atomic(phi):
        return modulus_leq(modulus_of(phi, sig), delta)
    if isinstance(phi, (Inf, Sup)):
        return is_delta_formula(phi.body, sig, delta)
    if isinstance(phi, Conn):
        cm = conn_modulus(phi.conn)
        return (modulus_leq(cm, delta) or modulus_leq(cm, _IDENTITY)) and all(
            (is_atomic(f) or isinstance(f, (Inf, Sup))) and is_delta_formula(f, sig, delta)
            for f in phi.args
        )
    raise FormulaError(f"unknown formula node {phi!r}")


def normalize_sup(phi: Formula) -> Formula:
    """Rewrite every sup to 1 - inf(1 - body); values are preserved exactly."""
    if is_atomic(phi):
        return phi
    if isinstance(phi, Conn):
        return Conn(phi.conn, tuple(normalize_sup(f) for f in phi.args))
    if isinstance(phi, Inf):
        return Inf(phi.var, normalize_sup(phi.body))
    if isinstance(phi, Sup):
        body = normalize_sup(phi.body)
        return Conn(Neg(), (Inf(phi.var, Conn(Neg(), (body,))),))
    raise FormulaError(f"unknown formula node {phi!r}")


def collapse_connectives(phi: Formula) -> Formula:
    """Collapse consecutive connective nodes into one composed connective.

    Preserves values exactly and the quantifier rank; the result's connective
    nodes never have connective children.
    """
    if is_atomic(phi):
        return phi
    if isinstance(phi, Inf):
        return Inf(phi.var, collapse_connectives(phi.body))
    if isinstance(phi, Sup):
        return Sup(phi.var, collapse_connectives(phi.body))
    leaves: list[Formula] = []

    def split(f: Formula):
        if isinstance(f, Conn):
            return _CNode(f.conn, tuple(split(a) for a in f.args))
        leaves.append(collapse_connectives(f))
        return _Slot(len(leaves) - 1)

    tree = split(phi)
    if isinstance(tree, _CNode) and all(isinstance(c, _Slot) for c in tree.children) and not isinstance(tree.base, ComposedConnective):
        return Conn(tree.base, tuple(leaves))
    return Conn(ComposedConnective(len(leaves), tree), tuple(leaves))


# --- atomic enumeration and logical distance ------------------------------------

def enumerate_terms(sig: Signature, k: int, depth: int) -> list:
    """All terms in variables x0..x{k-1} with nesting depth <= depth."""
    level: list[Term] = [Var(i) for i in range(k)] + [Const(c) for c in sig.constants]
    seen = dict.fromkeys(level)  # a set in insertion order
    for _ in range(depth if sig.functions else 0):
        new = dict.fromkeys(
            Apply(f.name, args) for f in sig.functions for args in product(seen, repeat=f.arity)
        )
        if new.keys() <= seen.keys():
            break
        seen.update(new)
    return sorted(seen, key=_term_sort_key)


def _term_sort_key(t: Term):
    return (term_depth(t), _term_text(t))


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Const):
        return t.name
    return f"{t.func}({', '.join(_term_text(a) for a in t.args)})"


def enumerate_atomic(sig: Signature, k: int, term_depth: int = 0) -> list:
    """All atomic formulas in variables x0..x{k-1}, deduplicated.

    Distance atoms are kept as one of d(t,t')/d(t',t) and d(t,t) is dropped
    (identically zero).  For relational signatures the term depth is
    irrelevant: terms are variables and constants.
    """
    terms = enumerate_terms(sig, k, term_depth)
    atoms: list[Formula] = []
    for i, t in enumerate(terms):
        for u in terms[i + 1 :]:
            atoms.append(Dist(t, u))
    for p in sig.predicates:
        for args in product(terms, repeat=p.arity):
            atoms.append(Pred(p.name, tuple(args)))
    return atoms


def logical_distance_corpus(phi: Formula, psi: Formula, corpus: Sequence[MetricStructure]) -> Fraction:
    """Max over the corpus structures and assignments of |phi - psi|.

    This is a lower bound of the logical distance (the sup over all
    structures); it equals it only if the corpus happens to contain a
    maximizing structure.
    """
    fv_phi, fv_psi = free_vars(phi), free_vars(psi)
    if fv_phi != fv_psi:
        raise FormulaError(f"free-variable mismatch: {sorted(fv_phi)} vs {sorted(fv_psi)}")
    fv = sorted(fv_phi)
    best = _ZERO
    for structure in corpus:
        check_well_formed(phi, structure.signature)
        check_well_formed(psi, structure.signature)
        (run_phi, n_phi), (run_psi, n_psi) = (compile_formula(f, structure, fv) for f in (phi, psi))
        gap = max(abs(n_psi * run_phi(p) - n_phi * run_psi(p))
                  for p in product(range(structure.size), repeat=len(fv)))
        best = max(best, Fraction(gap, n_phi * n_psi))
    return best


def covering_sentence(n: int) -> Formula:
    """inf x0..x{n-1} sup y min_i d(y, x_i): how badly n balls fail to cover."""
    if n < 1:
        raise FormulaError("covering sentence needs n >= 1")
    y = n
    legs = tuple(Dist(Var(y), Var(i)) for i in range(n))
    body = legs[0] if n == 1 else Conn(MinOf(n), legs)
    phi: Formula = Sup(y, body)
    for i in reversed(range(n)):
        phi = Inf(i, phi)
    return phi


# --- random sampling -------------------------------------------------------------

def sample_formulas(
    sig: Signature,
    qr_bound: int,
    count: int,
    seed: int,
    free_vars_count: int = 0,
    term_depth: int = 1,
) -> list:
    """Deterministic random well-formed formulas with qr <= qr_bound.

    With ``free_vars_count = 0`` every output is a sentence.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(_sample_formula(rng, sig, qr_bound, free_vars_count, term_depth))
    return out


_SCALE_CHOICES = (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(1, 3))
_CONST_CHOICES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))


def _sample_term(rng: random.Random, sig: Signature, scope: list, depth: int) -> Term:
    leaves: list[Term] = [Var(i) for i in scope] + [Const(c) for c in sig.constants]
    if sig.functions and depth > 0 and rng.random() < 0.4:
        f = rng.choice(sig.functions)
        return Apply(
            f.name, tuple(_sample_term(rng, sig, scope, depth - 1) for _ in range(f.arity))
        )
    if not leaves:
        raise FormulaError("cannot sample a term: no variables in scope and no constants")
    return rng.choice(leaves)


def _sample_atom(rng: random.Random, sig: Signature, scope: list, depth: int) -> Formula:
    if not scope and not sig.constants:
        return Conn(ConstVal(rng.choice(_CONST_CHOICES)), ())
    choices = ["dist"] + [p.name for p in sig.predicates]
    pick = rng.choice(choices)
    if pick == "dist":
        return Dist(_sample_term(rng, sig, scope, depth), _sample_term(rng, sig, scope, depth))
    sym = sig.predicate(pick)
    return Pred(sym.name, tuple(_sample_term(rng, sig, scope, depth) for _ in range(sym.arity)))


def _sample_formula(rng, sig, budget: int, free_count: int, depth: int) -> Formula:
    def go(budget: int, scope: list, size: int) -> Formula:
        opts = ["atom"]
        if size > 0:
            opts += ["conn", "conn"]
        if budget > 0:
            opts += ["quant", "quant", "quant"]
        pick = rng.choice(opts)
        if pick == "atom":
            return _sample_atom(rng, sig, scope, depth)
        if pick == "quant":
            var = (max(scope) + 1) if scope else free_count
            body = go(budget - 1, scope + [var], size)
            return rng.choice([Inf, Sup])(var, body)
        conn = rng.choice(["neg", "scale", "sub", "add", "min", "max", "const"])
        if conn == "neg":
            return Conn(Neg(), (go(budget, scope, size - 1),))
        if conn == "scale":
            return Conn(Scale(rng.choice(_SCALE_CHOICES)), (go(budget, scope, size - 1),))
        if conn == "const":
            return Conn(ConstVal(rng.choice(_CONST_CHOICES)), ())
        if conn in ("sub", "add"):
            cls = TruncSub() if conn == "sub" else TruncAdd()
            return Conn(cls, (go(budget, scope, size - 1), go(budget, scope, size - 1)))
        k = rng.choice([2, 2, 3])
        cls = MinOf(k) if conn == "min" else MaxOf(k)
        return Conn(cls, tuple(go(budget, scope, size - 1) for _ in range(k)))

    return go(budget, list(range(free_count)), 2)


# --- parser and printer -----------------------------------------------------------

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<truncadd>\(\+\))
      | (?P<truncsub>-\.)
      | (?P<number>[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[(),.*-])
    )""",
    re.VERBOSE,
)

_VAR_NAME = re.compile(r"^[xv]([0-9]+)$")
_KEYWORDS = {"inf", "sup", "min", "max", "d"}


@dataclass
class _Token:
    kind: str
    text: str
    pos: int
    index: int | None = None  # i for an ident spelled x<i> or v<i>


def _tokenize(text: str) -> list:
    """The tokens of ``text``, each kind from the group that matched; an
    ident's variable index is read here, once."""
    tokens = []
    end = 0
    # the scanner matches only where the last token ended: a search would
    # retry a long run of blanks from each of its positions
    for m in iter(_TOKEN.scanner(text).match, None):
        end = m.end()
        kind = m.lastgroup
        word = m[kind]
        var = _VAR_NAME.match(word) if kind == "ident" else None
        tokens.append(_Token(kind, word, m.start(kind), int(var[1]) if var else None))
    rest = text[end:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", end)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens = _tokenize(text)
        self.i = 0
        self.bound: dict[str, list[int]] = {}

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.peek().pos)

    # formula := quantified | binary chain
    def formula(self) -> Formula:
        if self.peek().kind == "ident" and self.peek().text in ("inf", "sup"):
            return self.quantified()
        left = self.unary()
        while self.peek().kind in ("truncsub", "truncadd"):
            op = self.take()
            right = self.unary()
            conn = TruncSub() if op.kind == "truncsub" else TruncAdd()
            left = Conn(conn, (left, right))
        return left

    def quantified(self) -> Formula:
        which = self.take().text
        name_tok = self.take()
        if name_tok.kind != "ident":
            raise ParseError("expected a variable name after the quantifier", name_tok.pos)
        name = name_tok.text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} cannot be a variable name", name_tok.pos)
        index = self._bind_index(name_tok)
        self.expect(".")
        self.bound.setdefault(name, []).append(index)
        try:
            body = self.formula()
        finally:
            self.bound[name].pop()
        cls = Inf if which == "inf" else Sup
        return cls(index, body)

    def _bind_index(self, tok: _Token) -> int:
        if tok.index is not None:
            return tok.index
        # a bespoke bound name gets the smallest index neither bound around
        # it nor spelled out as x<i>/v<i> anywhere in the text
        used = {idx for stack in self.bound.values() for idx in stack}
        used.update(t.index for t in self.tokens if t.index is not None)
        idx = 0
        while idx in used:
            idx += 1
        return idx

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "number":
            try:
                q = rat(tok.text if "/" in tok.text or "." in tok.text else int(tok.text))
            except ValueError:
                raise ParseError(f"bad rational literal {tok.text!r}", tok.pos) from None
            self.take()
            nxt = self.peek()
            if nxt.text == "*":
                self.take()
                return Conn(Scale(q), (self.unary(),))
            if nxt.text == "-":
                if q != 1:
                    raise ParseError("negation sugar is '1 - formula'", nxt.pos)
                self.take()
                return Conn(Neg(), (self.unary(),))
            if not (0 <= q <= 1):
                raise ParseError(f"constant {format_rat(q)} outside [0,1]", tok.pos)
            return Conn(ConstVal(q), ())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text in ("inf", "sup"):
                return self.quantified()
            if tok.text == "d":
                self.take()
                self.expect("(")
                left = self.term()
                self.expect(",")
                right = self.term()
                self.expect(")")
                return Dist(left, right)
            if tok.text in ("min", "max"):
                which = self.take().text
                args = self._arguments(self.formula)
                cls = MinOf(len(args)) if which == "min" else MaxOf(len(args))
                return Conn(cls, args)
            # predicate application
            name = self.take().text
            if self.peek().text != "(":
                raise ParseError(f"expected '(' after predicate {name!r}", self.peek().pos)
            try:
                sym = self.sig.predicate(name)
            except KeyError:
                raise ParseError(f"unknown predicate {name!r}", tok.pos) from None
            args = self._arguments(self.term)
            if len(args) != sym.arity:
                raise ParseError(
                    f"predicate {name!r} expects {sym.arity} arguments, got {len(args)}", tok.pos
                )
            return Pred(name, args)
        self.fail(f"unexpected token {tok.text!r}")

    def _arguments(self, item) -> tuple:
        """``( item {, item} )``: the parenthesised argument list of
        ``min``/``max``, a predicate or a function."""
        self.expect("(")
        args = [item()]
        while self.peek().text == ",":
            self.take()
            args.append(item())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        tok = self.take()
        if tok.kind != "ident":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.pos)
        name = tok.text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} cannot start a term", tok.pos)
        if self.peek().text == "(":
            try:
                sym = self.sig.function(name)
            except KeyError:
                raise ParseError(f"unknown function {name!r}", tok.pos) from None
            args = self._arguments(self.term)
            if len(args) != sym.arity:
                raise ParseError(
                    f"function {name!r} expects {sym.arity} arguments, got {len(args)}", tok.pos
                )
            return Apply(name, args)
        if name in self.bound and self.bound[name]:
            return Var(self.bound[name][-1])
        if tok.index is not None:
            return Var(tok.index)
        if name in self.sig.constants:
            return Const(name)
        raise ParseError(f"unknown symbol {name!r}", tok.pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    try:
        parser = _Parser(text, sig)
        phi = parser.formula()
        tok = parser.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    except RecursionError:
        # the parser recurses once per level of nesting
        raise FormulaError(
            f"formula nested too deeply for the interpreter's recursion limit "
            f"of {sys.getrecursionlimit()} frames"
        ) from None
    return phi


_LEVEL_FORMULA, _LEVEL_BINARY, _LEVEL_UNARY = 0, 1, 2


def format_formula(phi: Formula) -> str:
    """Canonical text; parse(format(phi)) == phi for basis-only formulas."""

    def wrap(text: str, level: int, required: int) -> str:
        return f"({text})" if level < required else text

    def go(f: Formula, required: int) -> str:
        if isinstance(f, Dist):
            return f"d({_term_text(f.left)}, {_term_text(f.right)})"
        if isinstance(f, Pred):
            return f"{f.name}({', '.join(_term_text(t) for t in f.args)})"
        if isinstance(f, (Inf, Sup)):
            q = "inf" if isinstance(f, Inf) else "sup"
            return wrap(f"{q} x{f.var}. {go(f.body, _LEVEL_FORMULA)}", _LEVEL_FORMULA, required)
        if isinstance(f, Conn):
            c = f.conn
            if isinstance(c, ConstVal):
                return format_rat(c.value)
            if isinstance(c, Neg):
                return wrap(f"1 - {go(f.args[0], _LEVEL_UNARY)}", _LEVEL_UNARY, required)
            if isinstance(c, Scale):
                return wrap(
                    f"{format_rat(c.factor)} * {go(f.args[0], _LEVEL_UNARY)}",
                    _LEVEL_UNARY,
                    required,
                )
            if isinstance(c, TruncSub):
                left = go(f.args[0], _LEVEL_BINARY)
                right = go(f.args[1], _LEVEL_UNARY)
                return wrap(f"{left} -. {right}", _LEVEL_BINARY, required)
            if isinstance(c, TruncAdd):
                left = go(f.args[0], _LEVEL_BINARY)
                right = go(f.args[1], _LEVEL_UNARY)
                return wrap(f"{left} (+) {right}", _LEVEL_BINARY, required)
            if isinstance(c, MinOf):
                return f"min({', '.join(go(a, _LEVEL_FORMULA) for a in f.args)})"
            if isinstance(c, MaxOf):
                return f"max({', '.join(go(a, _LEVEL_FORMULA) for a in f.args)})"
            if isinstance(c, ComposedConnective):
                raise FormulaError("composed connectives have no concrete syntax")
        raise FormulaError(f"unknown formula node {f!r}")

    return go(phi, _LEVEL_FORMULA)
