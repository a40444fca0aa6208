"""The tree-walking Jay interpreter, kept as the oracle of the
differential tests in `test_interp.py`.

This is the interpreter `jayfix.minilang.interp` shipped before it
compiled programs to closures: an `isinstance` dispatch over the AST at
every node, one unit of fuel per statement, per expression and per
`while` condition check, and a full copy of an array on every variable
read. `run_tests` here runs every case of a suite, with no early exit.
"""

from __future__ import annotations

from jayfix.minilang.ast import (
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
from jayfix.minilang.interp import (
    DEFAULT_FUEL,
    INT_MAX,
    INT_MIN,
    MAX_ARRAY_LEN,
    MAX_CALL_DEPTH,
    CaseOutcome,
    ExecResult,
    ExecStatus,
    TestReport,
    TestSuite,
    Value,
    _Program,
    stack_room,
    values_equal,
)


class _RuntimeFailure(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class _FuelExhausted(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Value):
        self.value = value


class _Machine:
    def __init__(self, ast: Ast, fuel: int):
        self.functions = {fn.name: fn for fn in ast.functions}
        self.fuel = fuel
        self.depth = 0

    def charge(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise _FuelExhausted()

    def check_int(self, v: int) -> int:
        if v < INT_MIN or v > INT_MAX:
            raise _RuntimeFailure("integer overflow")
        return v

    def call(self, fn: FunctionDecl, args: list[Value]) -> Value:
        if self.depth >= MAX_CALL_DEPTH:
            raise _RuntimeFailure("call depth exceeded")
        self.depth += 1
        env: list[dict[str, Value]] = [{}]
        for param, arg in zip(fn.params, args):
            env[0][param.name] = list(arg) if isinstance(arg, list) else arg
        try:
            self.exec_block(fn.body, env)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self.depth -= 1
        raise _RuntimeFailure(f"function '{fn.name}' finished without returning")

    def exec_block(self, block: Block, env: list[dict[str, Value]]) -> None:
        env.append({})
        try:
            for stmt in block.statements:
                self.exec_statement(stmt, env)
        finally:
            env.pop()

    def lookup_scope(self, env: list[dict[str, Value]], name: str) -> dict[str, Value]:
        for scope in reversed(env):
            if name in scope:
                return scope
        raise _RuntimeFailure(f"undefined variable '{name}'")

    def exec_statement(self, stmt, env: list[dict[str, Value]]) -> None:
        self.charge()
        if isinstance(stmt, Let):
            env[-1][stmt.name] = self.eval(stmt.value, env)
        elif isinstance(stmt, Assign):
            scope = self.lookup_scope(env, stmt.name)
            scope[stmt.name] = self.eval(stmt.value, env)
        elif isinstance(stmt, AssignIndex):
            scope = self.lookup_scope(env, stmt.name)
            array = scope[stmt.name]
            index = self.eval(stmt.index, env)
            value = self.eval(stmt.value, env)
            if not isinstance(array, list):
                raise _RuntimeFailure(f"'{stmt.name}' is not an array")
            if not 0 <= index < len(array):
                raise _RuntimeFailure(f"index {index} out of bounds for length {len(array)}")
            array[index] = value
        elif isinstance(stmt, If):
            if self.eval(stmt.cond, env):
                self.exec_block(stmt.then_block, env)
            elif isinstance(stmt.else_branch, Block):
                self.exec_block(stmt.else_branch, env)
            elif isinstance(stmt.else_branch, If):
                self.exec_statement(stmt.else_branch, env)
        elif isinstance(stmt, While):
            while True:
                self.charge()  # each iteration's condition check costs fuel
                if not self.eval(stmt.cond, env):
                    break
                self.exec_block(stmt.body, env)
        elif isinstance(stmt, Return):
            raise _ReturnSignal(self.eval(stmt.value, env))
        else:  # pragma: no cover
            raise AssertionError(f"unknown statement {stmt!r}")

    def eval(self, expr, env: list[dict[str, Value]]) -> Value:
        self.charge()
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, Var):
            value = self.lookup_scope(env, expr.name)[expr.name]
            return list(value) if isinstance(value, list) else value
        if isinstance(expr, ArrayLit):
            return [self.eval(item, env) for item in expr.items]
        if isinstance(expr, Unary):
            operand = self.eval(expr.operand, env)
            if expr.op == "-":
                return self.check_int(-operand)
            return not operand
        if isinstance(expr, Binary):
            return self.eval_binary(expr, env)
        if isinstance(expr, Call):
            args = [self.eval(arg, env) for arg in expr.args]
            if expr.func == "len":
                return len(args[0])
            if expr.func == "zeros":
                n = args[0]
                if n < 0:
                    raise _RuntimeFailure(f"zeros({n}): negative length")
                if n > MAX_ARRAY_LEN:
                    raise _RuntimeFailure(f"zeros({n}): array too large")
                return [0] * n
            fn = self.functions.get(expr.func)
            if fn is None:
                raise _RuntimeFailure(f"undefined function '{expr.func}'")
            if len(args) != len(fn.params):
                raise _RuntimeFailure(f"'{expr.func}' takes {len(fn.params)} argument(s)")
            return self.call(fn, args)
        if isinstance(expr, Index):
            base = self.eval(expr.base, env)
            index = self.eval(expr.index, env)
            if not isinstance(base, list):
                raise _RuntimeFailure("cannot index a non-array value")
            if not 0 <= index < len(base):
                raise _RuntimeFailure(f"index {index} out of bounds for length {len(base)}")
            return base[index]
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def eval_binary(self, expr: Binary, env) -> Value:
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.left, env)) and bool(self.eval(expr.right, env))
        if op == "||":
            return bool(self.eval(expr.left, env)) or bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op == "+":
            return self.check_int(left + right)
        if op == "-":
            return self.check_int(left - right)
        if op == "*":
            return self.check_int(left * right)
        if op == "/":
            if right == 0:
                raise _RuntimeFailure("division by zero")
            return self.check_int(_trunc_div(left, right))
        if op == "%":
            if right == 0:
                raise _RuntimeFailure("modulo by zero")
            return self.check_int(left - _trunc_div(left, right) * right)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        raise AssertionError(f"unknown operator {op}")  # pragma: no cover


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C/Java-style)."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def interpret(
    ast: Ast,
    entry: str,
    args: list[Value],
    fuel: int = DEFAULT_FUEL,
) -> ExecResult:
    """Run `entry(args)` under the given step budget."""
    machine = _Machine(ast, fuel)
    fn = machine.functions.get(entry)
    if fn is None:
        return ExecResult(ExecStatus.RUNTIME_ERROR, detail=f"no function '{entry}'")
    if len(args) != len(fn.params):
        return ExecResult(
            ExecStatus.RUNTIME_ERROR,
            detail=f"'{entry}' takes {len(fn.params)} argument(s), got {len(args)}",
        )
    try:
        # a call's frames: `call`, then `exec_block` or `eval_binary` and the
        # node's own frame at each level of nesting
        with stack_room(2 + 2 * _Program(ast).nesting):
            value = machine.call(fn, list(args))
    except _RuntimeFailure as failure:
        return ExecResult(ExecStatus.RUNTIME_ERROR, detail=failure.detail)
    except _FuelExhausted:
        return ExecResult(ExecStatus.FUEL_EXHAUSTED)
    except RecursionError:
        return ExecResult(ExecStatus.RUNTIME_ERROR, detail="call depth exceeded")
    return ExecResult(ExecStatus.OK, value=value)


def run_tests(ast: Ast, suite: TestSuite, fuel: int = DEFAULT_FUEL) -> TestReport:
    """Execute every case with its own fuel budget; failures become outcomes."""
    outcomes: list[tuple[str, CaseOutcome]] = []
    for case in suite.cases:
        result = interpret(ast, case.entry, list(case.args), fuel=fuel)
        if result.status is ExecStatus.FUEL_EXHAUSTED:
            outcome = CaseOutcome.FUEL_EXHAUSTED
        elif result.status is ExecStatus.RUNTIME_ERROR:
            outcome = CaseOutcome.RUNTIME_ERROR
        elif values_equal(result.value, case.expect):
            outcome = CaseOutcome.PASS
        else:
            outcome = CaseOutcome.WRONG_VALUE
        outcomes.append((case.id, outcome))
    counts = {kind: 0 for kind in CaseOutcome}
    for _, outcome in outcomes:
        counts[outcome] += 1
    return TestReport(tuple(outcomes), counts)
