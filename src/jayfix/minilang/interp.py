"""Fuel-bounded interpreter and test-suite runner.

A program is compiled once into nested Python closures, one per AST
node (Feeley & Lapalme, "Using closures for code generation", 1987), and
every run executes the closures. Variables are resolved to slots of a
per-call frame at compile time, following the language's block scoping.

Every statement execution, expression evaluation and `while` condition
check charges one unit of fuel, so results are a pure deterministic
function of (ast, entry, args, fuel). Exceeding the budget yields a
FUEL_EXHAUSTED outcome rather than an exception; runtime failures
(division by zero, bad index, oversized allocations, runaway recursion,
integer overflow) become RUNTIME_ERROR outcomes. Arrays are plain value
types: assignment and calls copy. Reading an array only to index it or
take its length does not copy it.

A loop that comes back to a control state it was in ends FUEL_EXHAUSTED
at once, which is the outcome this budget reaches. A program has no
globals and no I/O, so the state at a `while` condition check is the
calling function's frame. The loop compares each check's state with a
deep copy taken at its check 1, 2, 4, 8, ... (Brent, "An improved Monte
Carlo factorization algorithm", BIT 1980), so it finds a cycle within a
few iterations of its period. Values must match in type as well (True ==
1 holds in Python, not in Jay), and only frames of at most
MAX_STATE_VALUES values are copied, so that the check costs each
iteration a bounded amount.

The state compared is the whole frame, except in a loop that calls no
function and has accumulators: slots it writes whole and reads only as
`a` in its updates `a = a + e` and `a = a - e`. No condition, index,
divisor, modulus, allocation size or `return` in the loop reads one, nor
any other value it assigns, so an accumulator's value never changes
what the loop does, and the values assigned to it read only control
slots and constants. Such a loop compares only the control slots it
writes. A repeat of them proves that the loop never exits and that each
later period repeats the same steps, moving each accumulator by the
same amount. The loop then runs one more period on a copy of its frame
that records each accumulator's least and greatest value, and ends the
run only if every accumulator holds an int and none can leave int64
before the budget runs out. Otherwise it runs on, to the overflow or to
the end of its budget.
"""

from __future__ import annotations

import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .ast import (
    ArrayLit,
    Assign,
    AssignIndex,
    Ast,
    Binary,
    Block,
    BoolLit,
    Call,
    FunctionDecl,
    If,
    Index,
    IntLit,
    Let,
    Return,
    Unary,
    Var,
    While,
)

DEFAULT_FUEL = 100_000
MAX_CALL_DEPTH = 200
MAX_ARRAY_LEN = 1 << 20
MAX_STATE_VALUES = 256  # the largest frame, an array counting its length, checked for a repeat
INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

Value = Any  # int | bool | list[int]


class ExecStatus(Enum):
    OK = "ok"
    RUNTIME_ERROR = "runtime_error"
    FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass(frozen=True)
class ExecResult:
    status: ExecStatus
    value: Optional[Value] = None
    detail: Optional[str] = None


class _RuntimeFailure(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class _FuelExhausted(Exception):
    pass


def values_equal(a: Value, b: Value) -> bool:
    """Type-strict equality: bool never equals int, arrays compare elementwise."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, list) or isinstance(b, list):
        return isinstance(a, list) and isinstance(b, list) and a == b
    return isinstance(a, int) and isinstance(b, int) and a == b


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C/Java-style)."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


# --- compilation ----------------------------------------------------------
#
# An expression compiles to `ev(frame, run) -> value` and a statement to
# `ex(frame, run) -> value | None`: None lets the enclosing block go on,
# anything else is the value of a `return` (no Jay value is None). `frame`
# is the calling function's list of variable slots and `run` the state of
# one execution. Each closure charges its own unit of fuel before it does
# anything else, in the order the language defines. A call finds its
# callee through `run`, so compiled functions never refer to each other
# and a program is freed as soon as its last run ends.


class _Program:
    """A compiled program: each function's arity and `run(args, state)`,
    and the most statements and expressions nested inside one another in
    any function body."""

    def __init__(self, ast: Ast):
        decls = {fn.name: fn for fn in ast.functions}
        self.arity = {name: len(fn.params) for name, fn in decls.items()}
        self.functions = {}
        self.nesting = 0
        for name, fn in decls.items():
            compiler = _Compiler(self.arity)
            self.functions[name] = compiler.function(fn)
            self.nesting = max(self.nesting, compiler.deepest)

    @property
    def frames_per_call(self) -> int:
        """The Python frames one call can stack up: its `run`, then at each
        level of nesting the node's closure and, for a call or an array
        literal, the comprehension that evaluates its items."""
        return 1 + 2 * self.nesting


# Python frames a run may need besides its calls: the caller's, and the
# helpers a closure calls at the deepest point (comparisons, division)
_FRAME_HEADROOM = 50


@contextmanager
def stack_room(frames_per_call: int):
    """Raise Python's recursion limit, for the duration, to what
    MAX_CALL_DEPTH nested calls of `frames_per_call` frames each need from
    here, so that the depth check binds rather than the host's limit;
    then restore it."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, depth + (MAX_CALL_DEPTH + 1) * frames_per_call + _FRAME_HEADROOM))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class _Run:
    """The state of one execution: the program's functions, the fuel left
    and the current call depth."""

    __slots__ = ("functions", "fuel", "depth")

    def __init__(self, functions: dict[str, Callable], fuel: int):
        self.functions = functions
        self.fuel = fuel
        self.depth = 0


def _store(slot: int, value):
    def ex(f, r):
        r.fuel -= 1
        if r.fuel < 0:
            raise _FuelExhausted
        f[slot] = value(f, r)

    return ex


def _plain(f: list) -> bool:
    """Whether frame `f` is a state a loop may be checked for returning
    to: at most MAX_STATE_VALUES values, and no array nested in another or
    held by two slots. Only ill-typed programs nest or share arrays, and
    then two frames with equal values may still run differently."""
    if sum(len(value) if isinstance(value, list) else 1 for value in f) > MAX_STATE_VALUES:
        return False
    arrays = [value for value in f if isinstance(value, list)]
    if any(isinstance(item, list) for array in arrays for item in array):
        return False
    return len({id(array) for array in arrays}) == len(arrays)


def _snapshot(f: list, project: Optional[Callable] = None):
    """A deep copy of frame `f`, or of the tuple `project(f)`, to compare
    later checks with, or None when `f` is not a plain state."""
    if not _plain(f):
        return None
    if project is None:
        return [list(value) if isinstance(value, list) else value for value in f]
    return tuple(list(value) if isinstance(value, list) else value for value in project(f))


def _projection(slots: tuple[int, ...]) -> Callable:
    """`f -> tuple(f[slot] for slot in slots)`, in C where it can be."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda f: (f[slot],)
    return lambda f: ()


class _Recorder(list):
    """A copy of a loop's frame to run one period of the loop on, from a
    check whose control state repeats an earlier one's to the next such
    check. It keeps the least and the greatest value of each accumulator.
    The period repeats one that went on to the next check, so the loop
    does not exit inside it: it reaches that check or the run ends."""

    def __init__(self, f: list, accumulators: tuple[int, ...], fuel: int):
        super().__init__(f)
        self.fuel = fuel  # left after the period's first check
        self.start = {slot: f[slot] for slot in accumulators}
        self.low, self.high = dict(self.start), dict(self.start)
        self.ints = True  # every value written to an accumulator is an int

    def __setitem__(self, slot, value):
        super().__setitem__(slot, value)
        if slot in self.start:
            if type(value) is not int:
                self.ints = False
            elif value < self.low[slot]:
                self.low[slot] = value
            elif value > self.high[slot]:
                self.high[slot] = value

    def bounded(self, fuel: int) -> bool:
        """Whether every accumulator stays inside int64 while later periods
        repeat this one until `fuel` runs out: each takes this period's
        values, moved by its change over the period once for each period
        that can start."""
        if not self.ints:
            return False
        periods = fuel // (self.fuel - fuel) + 1
        for slot, start in self.start.items():
            drift = periods * (self[slot] - start)
            if self.low[slot] + min(drift, 0) < INT_MIN or self.high[slot] + max(drift, 0) > INT_MAX:
                return False
        return True


def _repeated(f: list, g: list, r: _Run, accumulators: tuple[int, ...]) -> list:
    """At a check of a loop on frame `f` whose control state in `g` repeats
    an earlier one: end the run, or return the frame to go on with, a
    `_Recorder` of the next period or else `f`."""
    if g is f:
        if not accumulators:
            raise _FuelExhausted
        if all(type(f[slot]) is int for slot in accumulators):
            return _Recorder(f, accumulators, r.fuel)
        return f
    if g.bounded(r.fuel):
        raise _FuelExhausted
    for slot, value in enumerate(g):
        f[slot] = value
    return f


def _undefined(name: str):
    def ev(f, r):
        r.fuel -= 1
        if r.fuel < 0:
            raise _FuelExhausted
        raise _RuntimeFailure(f"undefined variable '{name}'")

    return ev


class _Compiler:
    """Compiles one function; `scopes` maps each visible name to its slot.

    A loop's split into control slots and accumulators reads what its
    guard and body added to `reads`, the slots read, and to `writes`, the
    slots written with the kind of each write ("update" for `a = a + e`
    or `a = a - e`, "whole" or "element"), and whether they added to
    `calls`, the calls of user functions."""

    def __init__(self, arity: dict[str, int]):
        self.arity = arity
        self.scopes: list[dict[str, int]] = [{}]
        self.slots = 0
        self.level = 0  # statements and expressions around the node being compiled
        self.deepest = 0
        self.reads: list[int] = []
        self.writes: list[tuple[int, str]] = []
        self.calls = 0

    def declare(self, name: str) -> int:
        scope = self.scopes[-1]
        if name not in scope:
            scope[name] = self.slots
            self.slots += 1
        return scope[name]

    def resolve(self, name: str) -> Optional[int]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def function(self, fn: FunctionDecl):
        params = tuple(self.declare(param.name) for param in fn.params)
        body = self.block(fn.body)
        size = self.slots
        missing = f"function '{fn.name}' finished without returning"

        def run(args, r):
            if r.depth >= MAX_CALL_DEPTH:
                raise _RuntimeFailure("call depth exceeded")
            r.depth += 1
            f = [None] * size
            for slot, arg in zip(params, args):
                f[slot] = list(arg) if isinstance(arg, list) else arg
            for ex in body:
                value = ex(f, r)
                if value is not None:
                    r.depth -= 1
                    return value
            raise _RuntimeFailure(missing)

        return run

    def block(self, block: Block) -> tuple:
        self.scopes.append({})
        try:
            return tuple(self.statement(stmt) for stmt in block.statements)
        finally:
            self.scopes.pop()

    # --- statements

    def statement(self, stmt):
        self.level += 1
        if self.level > self.deepest:
            self.deepest = self.level
        compiled = self._statement(stmt)
        self.level -= 1
        return compiled

    def _statement(self, stmt):
        if isinstance(stmt, Let):
            own = self.updated(stmt.value)
            value = self.expr(stmt.value)  # before the new name is in scope
            slot = self.declare(stmt.name)
            self.writes.append((slot, "update" if own == slot else "whole"))
            return _store(slot, value)
        if isinstance(stmt, (Assign, AssignIndex)):
            slot = self.resolve(stmt.name)
            if slot is None:
                return _undefined(stmt.name)
            if isinstance(stmt, Assign):
                self.writes.append((slot, "update" if self.updated(stmt.value) == slot else "whole"))
                return _store(slot, self.expr(stmt.value))
            return self.assign_index(slot, stmt)
        if isinstance(stmt, If):
            return self.if_(stmt)
        if isinstance(stmt, While):
            return self.while_(stmt)
        if isinstance(stmt, Return):
            value = self.expr(stmt.value)

            def ex(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                return value(f, r)

            return ex
        raise AssertionError(f"unknown statement {stmt!r}")  # pragma: no cover

    def updated(self, value) -> Optional[int]:
        """The slot that `a` of a value `a + e` or `a - e` reads: writing
        the value to that slot updates it."""
        if isinstance(value, Binary) and value.op in ("+", "-") and isinstance(value.left, Var):
            return self.resolve(value.left.name)
        return None

    def split(self, reads: int, writes: int, calls: int) -> tuple[tuple[int, ...], Optional[Callable]]:
        """The accumulators of the loop whose guard and body added
        `self.reads[reads:]`, `self.writes[writes:]` and no call, and the
        projection of a frame to the other slots the loop writes, guard
        slots first; or `((), None)`, to compare whole frames.

        An accumulator is a slot the loop writes whole and reads only as
        `a` in its updates `a = a + e` and `a = a - e`. A slot the loop
        does not write is not compared: while frames are plain no other
        slot can hold its array."""
        if self.calls > calls:
            return (), None
        loop, read = self.writes[writes:], self.reads[reads:]
        updates = [slot for slot, kind in loop if kind == "update"]
        accumulators = {slot for slot, kind in loop if read.count(slot) == updates.count(slot)}
        accumulators.difference_update(slot for slot, kind in loop if kind == "element")
        if not accumulators:
            return (), None
        written = dict.fromkeys(slot for slot, _ in loop)
        order = dict.fromkeys([*read, *written])  # the guard's slots first
        compared = tuple(slot for slot in order if slot in written and slot not in accumulators)
        return tuple(sorted(accumulators)), _projection(compared)

    def assign_index(self, slot: int, stmt: AssignIndex):
        index, value, name = self.expr(stmt.index), self.expr(stmt.value), stmt.name
        self.writes.append((slot, "element"))

        def ex(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            array = f[slot]
            i = index(f, r)
            v = value(f, r)
            if not isinstance(array, list):
                raise _RuntimeFailure(f"'{name}' is not an array")
            if not 0 <= i < len(array):
                raise _RuntimeFailure(f"index {i} out of bounds for length {len(array)}")
            array[i] = v

        return ex

    def if_(self, stmt: If):
        cond, then = self.expr(stmt.cond), self.block(stmt.then_block)
        otherwise: tuple = ()
        if isinstance(stmt.else_branch, Block):
            otherwise = self.block(stmt.else_branch)
        elif isinstance(stmt.else_branch, If):
            otherwise = (self.statement(stmt.else_branch),)  # an `else if` is charged as a statement

        def ex(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            for inner in then if cond(f, r) else otherwise:
                value = inner(f, r)
                if value is not None:
                    return value

        return ex

    def while_(self, stmt: While):
        mark = len(self.reads), len(self.writes), self.calls
        cond, body = self.expr(stmt.cond), self.block(stmt.body)
        accumulators, project = self.split(*mark)

        def ex(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            g, checks, next_snapshot, seen = f, 0, 1, None  # g: the frame the loop runs on
            while True:
                r.fuel -= 1  # each iteration's condition check costs fuel
                if r.fuel < 0:
                    raise _FuelExhausted
                # an earlier control state again, with the same types (`==` takes True for 1)
                if seen is not None:
                    state = g if project is None else project(g)
                    if state == seen and repr(state) == repr(seen) and _plain(g):
                        g, next_snapshot = _repeated(f, g, r, accumulators), 0
                        if g is f:  # no cut: run on, with no more checks
                            seen = None
                checks += 1
                if checks == next_snapshot:
                    seen, next_snapshot = _snapshot(g, project), 2 * next_snapshot
                if not cond(g, r):
                    return None
                for inner in body:
                    value = inner(g, r)
                    if value is not None:
                        return value

        return ex

    # --- expressions

    def expr(self, expr, copy: bool = True):
        """`copy=False` compiles a variable read whose array is only
        indexed or measured, so it is not copied."""
        self.level += 1
        if self.level > self.deepest:
            self.deepest = self.level
        compiled = self._expr(expr, copy)
        self.level -= 1
        return compiled

    def _expr(self, expr, copy: bool):
        if isinstance(expr, (IntLit, BoolLit)):
            constant = expr.value

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                return constant

            return ev
        if isinstance(expr, Var):
            return self.var(expr.name, copy)
        if isinstance(expr, ArrayLit):
            items = tuple(self.expr(item) for item in expr.items)

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                return [item(f, r) for item in items]

            return ev
        if isinstance(expr, Unary):
            return self.unary(expr)
        if isinstance(expr, Binary):
            return self.binary(expr)
        if isinstance(expr, Call):
            return self.call(expr)
        if isinstance(expr, Index):
            return self.index(expr)
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def var(self, name: str, copy: bool):
        slot = self.resolve(name)
        if slot is None:
            return _undefined(name)
        self.reads.append(slot)
        if not copy:

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                return f[slot]

            return ev

        def ev(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            value = f[slot]
            return list(value) if isinstance(value, list) else value

        return ev

    def unary(self, expr: Unary):
        operand = self.expr(expr.operand)
        if expr.op == "-":

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                v = -operand(f, r)
                if v < INT_MIN or v > INT_MAX:
                    raise _RuntimeFailure("integer overflow")
                return v

            return ev

        def ev(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            return not operand(f, r)

        return ev

    def binary(self, expr: Binary):
        left, right, op = self.expr(expr.left), self.expr(expr.right), expr.op
        if op in ("&&", "||"):
            conjunction = op == "&&"

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                if bool(left(f, r)) is conjunction:
                    return bool(right(f, r))
                return not conjunction

            return ev
        if op in _ARITHMETIC:
            arithmetic = _ARITHMETIC[op]

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                v = arithmetic(left(f, r), right(f, r))
                if v < INT_MIN or v > INT_MAX:
                    raise _RuntimeFailure("integer overflow")
                return v

            return ev
        if op not in _COMPARISONS:  # pragma: no cover
            raise AssertionError(f"unknown operator {op}")
        compare = _COMPARISONS[op]

        def ev(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            return compare(left(f, r), right(f, r))

        return ev

    def call(self, expr: Call):
        name = expr.func
        args = tuple(self.expr(arg, copy=name != "len") for arg in expr.args)
        if name == "len":

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                return len([arg(f, r) for arg in args][0])

            return ev
        if name == "zeros":

            def ev(f, r):
                r.fuel -= 1
                if r.fuel < 0:
                    raise _FuelExhausted
                n = [arg(f, r) for arg in args][0]
                if n < 0:
                    raise _RuntimeFailure(f"zeros({n}): negative length")
                if n > MAX_ARRAY_LEN:
                    raise _RuntimeFailure(f"zeros({n}): array too large")
                return [0] * n

            return ev
        self.calls += 1
        if name not in self.arity:
            failure = f"undefined function '{name}'"
        elif len(args) != self.arity[name]:
            failure = f"'{name}' takes {self.arity[name]} argument(s)"
        else:
            failure = None

        def ev(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            values = [arg(f, r) for arg in args]
            if failure is not None:
                raise _RuntimeFailure(failure)
            return r.functions[name](values, r)

        return ev

    def index(self, expr: Index):
        base, index = self.expr(expr.base, copy=False), self.expr(expr.index)

        def ev(f, r):
            r.fuel -= 1
            if r.fuel < 0:
                raise _FuelExhausted
            array = base(f, r)
            i = index(f, r)
            if not isinstance(array, list):
                raise _RuntimeFailure("cannot index a non-array value")
            if not 0 <= i < len(array):
                raise _RuntimeFailure(f"index {i} out of bounds for length {len(array)}")
            return array[i]

        return ev


def _checked_div(a: int, b: int) -> int:
    if b == 0:
        raise _RuntimeFailure("division by zero")
    return _trunc_div(a, b)


def _checked_mod(a: int, b: int) -> int:
    if b == 0:
        raise _RuntimeFailure("modulo by zero")
    return a - _trunc_div(a, b) * b


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _checked_div,
    "%": _checked_mod,
}

_COMPARISONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": values_equal,
    "!=": lambda a, b: not values_equal(a, b),
}


def _execute(program: _Program, entry: str, args: list[Value], fuel: int) -> ExecResult:
    if entry not in program.arity:
        return ExecResult(ExecStatus.RUNTIME_ERROR, detail=f"no function '{entry}'")
    arity = program.arity[entry]
    if len(args) != arity:
        return ExecResult(
            ExecStatus.RUNTIME_ERROR,
            detail=f"'{entry}' takes {arity} argument(s), got {len(args)}",
        )
    try:
        value = program.functions[entry](list(args), _Run(program.functions, fuel))
    except _RuntimeFailure as failure:
        return ExecResult(ExecStatus.RUNTIME_ERROR, detail=failure.detail)
    except _FuelExhausted:
        return ExecResult(ExecStatus.FUEL_EXHAUSTED)
    except RecursionError:
        return ExecResult(ExecStatus.RUNTIME_ERROR, detail="call depth exceeded")
    return ExecResult(ExecStatus.OK, value=value)


def interpret(
    ast: Ast,
    entry: str,
    args: list[Value],
    fuel: int = DEFAULT_FUEL,
) -> ExecResult:
    """Run `entry(args)` under the given step budget."""
    program = _Program(ast)
    with stack_room(program.frames_per_call):
        return _execute(program, entry, args, fuel)


# --- test suites ----------------------------------------------------------


class CaseOutcome(Enum):
    PASS = "pass"
    WRONG_VALUE = "wrong_value"
    RUNTIME_ERROR = "runtime_error"
    FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass(frozen=True)
class TestCase:
    id: str
    entry: str
    args: tuple[Value, ...]
    expect: Value


@dataclass(frozen=True)
class TestSuite:
    cases: tuple[TestCase, ...]

    def __post_init__(self) -> None:
        ids = [case.id for case in self.cases]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate test case ids")


@dataclass(frozen=True)
class TestReport:
    """Outcomes of a suite's cases in order, up to and including the
    first case that does not pass; `counts` and `total` count the cases
    that ran."""

    outcomes: tuple[tuple[str, CaseOutcome], ...]  # (case id, outcome)
    counts: dict[CaseOutcome, int] = field(compare=False, default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(outcome is CaseOutcome.PASS for _, outcome in self.outcomes)

    @property
    def any_failure(self) -> bool:
        return not self.all_pass

    @property
    def total(self) -> int:
        return len(self.outcomes)


def run_tests(ast: Ast, suite: TestSuite, fuel: int = DEFAULT_FUEL) -> TestReport:
    """Compile once, then run the cases in order, each with its own fuel
    budget, and stop at the first that does not pass."""
    program = _Program(ast)
    outcomes: list[tuple[str, CaseOutcome]] = []
    counts = {kind: 0 for kind in CaseOutcome}
    with stack_room(program.frames_per_call):
        for case in suite.cases:
            result = _execute(program, case.entry, list(case.args), fuel)
            if result.status is ExecStatus.FUEL_EXHAUSTED:
                outcome = CaseOutcome.FUEL_EXHAUSTED
            elif result.status is ExecStatus.RUNTIME_ERROR:
                outcome = CaseOutcome.RUNTIME_ERROR
            elif values_equal(result.value, case.expect):
                outcome = CaseOutcome.PASS
            else:
                outcome = CaseOutcome.WRONG_VALUE
            outcomes.append((case.id, outcome))
            counts[outcome] += 1
            if outcome is not CaseOutcome.PASS:
                break
    return TestReport(tuple(outcomes), counts)
