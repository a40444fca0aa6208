from __future__ import annotations

import re
import sys

import pytest
import treewalk
from hypothesis import given, settings, strategies as st
from test_pretty_locations import _exprs

from jayfix.mechanical import DEFAULT_RULES, generate_mechanical_dataset
from jayfix.minilang import (
    DEFAULT_FUEL,
    CaseOutcome,
    ExecStatus,
    Span,
    TestCase,
    TestSuite,
    analyze,
    interp,
    interpret,
    parse,
    run_tests,
    splice,
)
from jayfix.representation import RepresentationConfig

GCD = """\
fn gcd(a: int, b: int) -> int {
    while (b != 0) {
        let t: int = b;
        b = a % b;
        a = t;
    }
    return a;
}
"""


def test_gcd_hand_evaluated():
    # Euclid by hand: (12,18)->(18,12)->(12,6)->(6,0) => 6
    result = interpret(parse(GCD), "gcd", [12, 18])
    assert result.status is ExecStatus.OK and result.value == 6


def test_nontermination_exhausts_fuel():
    ast = parse("fn loop() -> int { while (true) {} return 0; }")
    assert interpret(ast, "loop", [], fuel=1000).status is ExecStatus.FUEL_EXHAUSTED


def test_division_by_zero():
    ast = parse("fn f(x: int) -> int { return 1 / x; }")
    result = interpret(ast, "f", [0])
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert "zero" in result.detail


def test_index_out_of_bounds():
    ast = parse("fn f(a: int[]) -> int { return a[3]; }")
    assert interpret(ast, "f", [[1, 2]]).status is ExecStatus.RUNTIME_ERROR


def test_determinism_and_fuel_monotonicity():
    ast = parse(GCD)
    base = interpret(ast, "gcd", [48, 36], fuel=10_000)
    assert base.status is ExecStatus.OK
    for fuel in (10_000, 20_000, 100_000):
        again = interpret(ast, "gcd", [48, 36], fuel=fuel)
        assert again == base or again.value == base.value


def test_minimum_sufficient_fuel_is_stable():
    ast = parse(GCD)
    # find the smallest fuel that completes, then confirm monotonicity
    low = next(f for f in range(1, 500) if interpret(ast, "gcd", [12, 18], fuel=f).status is ExecStatus.OK)
    value = interpret(ast, "gcd", [12, 18], fuel=low).value
    for extra in range(low, low + 50):
        result = interpret(ast, "gcd", [12, 18], fuel=extra)
        assert result.status is ExecStatus.OK and result.value == value


def test_truncating_division_and_modulo():
    ast = parse("fn f(a: int, b: int) -> int { return a / b; }")
    assert interpret(ast, "f", [-7, 2]).value == -3  # trunc toward zero
    ast2 = parse("fn f(a: int, b: int) -> int { return a % b; }")
    assert interpret(ast2, "f", [-7, 2]).value == -1
    assert interpret(ast2, "f", [7, -2]).value == 1


def test_arrays_have_value_semantics():
    src = (
        "fn touch(a: int[]) -> int {\n"
        "    a[0] = 99;\n"
        "    return a[0];\n"
        "}\n"
        "\n"
        "fn main() -> int {\n"
        "    let xs: int[] = [1, 2];\n"
        "    let r: int = touch(xs);\n"
        "    return xs[0];\n"
        "}\n"
    )
    assert interpret(parse(src), "main", []).value == 1


def test_runaway_recursion_is_a_runtime_error():
    ast = parse("fn f() -> int { return f(); }")
    result = interpret(ast, "f", [], fuel=1_000_000)
    assert result.status in (ExecStatus.RUNTIME_ERROR, ExecStatus.FUEL_EXHAUSTED)


def nested_recursion(n_ifs: int) -> str:
    """`f(n)` calls itself under `n_ifs` nested `if`s."""
    opening = "".join("if (n > 0) { " for _ in range(n_ifs))
    closing = "} " * n_ifs
    return f"fn f(n: int) -> int {{ {opening}return 1 + f(n - 1); {closing}return 0; }}"


def least_sufficient_fuel(run) -> int:
    """The least fuel under which `run(fuel)` does not run out."""
    low, high = 0, DEFAULT_FUEL
    assert run(high).status is not ExecStatus.FUEL_EXHAUSTED
    while high - low > 1:
        middle = (low + high) // 2
        if run(middle).status is ExecStatus.FUEL_EXHAUSTED:
            low = middle
        else:
            high = middle
    return high


@pytest.mark.parametrize("n_ifs", [3, 20])
def test_call_depth_check_binds_at_any_recursion_limit(n_ifs):
    ast = parse(nested_recursion(n_ifs))
    found = {}
    limit = sys.getrecursionlimit()
    try:
        for host_limit in (1000, 20_000):
            sys.setrecursionlimit(host_limit)
            for name, run in (("compiled", interpret), ("tree walker", treewalk.interpret)):
                result = run(ast, "f", [300])
                assert result.status is ExecStatus.RUNTIME_ERROR and result.detail == "call depth exceeded"
                found[name, host_limit] = least_sufficient_fuel(lambda fuel: run(ast, "f", [300], fuel=fuel))
                assert sys.getrecursionlimit() == host_limit  # restored after each run
    finally:
        sys.setrecursionlimit(limit)
    assert len(set(found.values())) == 1, found


def test_integer_overflow_guard():
    src = "fn f() -> int { let x: int = 1000000000; while (true) { x = x * x; } return x; }"
    result = interpret(parse(src), "f", [])
    assert result.status is ExecStatus.RUNTIME_ERROR
    assert "overflow" in result.detail


def test_oversized_allocation_is_a_runtime_error():
    ast = parse("fn f() -> int { let a: int[] = zeros(999999999); return len(a); }")
    assert interpret(ast, "f", []).status is ExecStatus.RUNTIME_ERROR


def suite_of(entry):
    return entry.suite


def test_seed_suites_pass(correct):
    for entry in correct:
        report = run_tests(entry.ast, entry.suite)
        assert report.all_pass, entry.name


def test_corrupted_gcd_fails_at_least_one_case(correct):
    gcd = next(e for e in correct if e.name == "gcd")
    corrupted = splice(gcd.program.text, Span(4, 4), ["        b = a + b;"])
    report = run_tests(parse(corrupted), gcd.suite)
    assert report.any_failure


def test_report_is_deterministic(correct):
    entry = next(e for e in correct if e.name == "bubble_sort")
    first = run_tests(entry.ast, entry.suite)
    second = run_tests(entry.ast, entry.suite)
    assert first == second
    assert first.counts[CaseOutcome.PASS] == len(entry.suite.cases)


def test_bool_and_int_values_are_distinct():
    ast = parse("fn f() -> bool { return true; }")
    suite = TestSuite((TestCase("t", "f", (), 1),))
    report = run_tests(ast, suite)
    assert report.outcomes[0][1] is CaseOutcome.WRONG_VALUE


# --- early exit --------------------------------------------------------------


def test_suite_stops_at_its_first_failing_case(monkeypatch):
    ast = parse(
        "fn one() -> int { return 2; }\n"
        "fn spin() -> int { while (true) {} return 0; }\n"
    )
    suite = TestSuite((TestCase("wrong", "one", (), 1), TestCase("loops", "spin", (), 0)))
    entries = []
    execute = interp._execute

    def spy(program, entry, args, fuel):
        entries.append(entry)
        return execute(program, entry, args, fuel)

    monkeypatch.setattr(interp, "_execute", spy)
    report = run_tests(ast, suite)
    assert report.outcomes == (("wrong", CaseOutcome.WRONG_VALUE),)
    assert entries == ["one"]
    assert report.total == 1 and report.any_failure
    assert report.counts[CaseOutcome.WRONG_VALUE] == 1
    assert report.counts[CaseOutcome.FUEL_EXHAUSTED] == 0


def _oracle_case(ast, case):
    """The tree walker's outcome of one case, or the Python exception it
    raised (ill-typed programs can fail inside Python itself)."""
    try:
        return treewalk.run_tests(ast, TestSuite((case,))).outcomes[0][1]
    except Exception as error:
        return error


def test_early_exit_agrees_with_full_suites(corpus_programs, mutant_programs):
    stopped = 0
    for label, ast, suite in corpus_programs + mutant_programs:
        expected = []
        for case in suite.cases:
            expected.append((case.id, _oracle_case(ast, case)))
            if expected[-1][1] is not CaseOutcome.PASS:
                break
        last = expected[-1][1]
        if isinstance(last, Exception):
            with pytest.raises(type(last), match=re.escape(str(last))):
                run_tests(ast, suite)
            continue
        report = run_tests(ast, suite)
        assert report.outcomes == tuple(expected), label
        assert report.all_pass == treewalk.run_tests(ast, suite).all_pass, label
        assert report.total == sum(report.counts.values()) == len(expected), label
        stopped += len(expected) < len(suite.cases)
    assert stopped > 100  # most mutants fail before their suite's last case


# --- differential: compiled closures against the tree-walking oracle ----------


@pytest.fixture(scope="module")
def deep_stack():
    """Room for MAX_CALL_DEPTH nested calls in either interpreter, so that
    runaway recursion stops at the depth check rather than at Python's
    own recursion limit, which the two reach at different depths."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="module")
def corpus_programs(corpus_entries):
    programs = [(entry.name, entry.ast, entry.suite) for entry in corpus_entries]
    programs += [
        (f"{entry.name} reference fix", parse(entry.reference_fix.text), entry.suite)
        for entry in corpus_entries
        if entry.reference_fix is not None
    ]
    return programs


@pytest.fixture(scope="module")
def mutant_programs(corpus_entries, vocab):
    """Every mechanical mutant of every correct program (no per-location
    cap, no length budget), typechecking or not."""
    correct = [entry for entry in corpus_entries if entry.status == "correct"]
    unbounded = RepresentationConfig(max_input_len=1 << 20, max_target_len=1 << 20)
    _, bugs, _ = generate_mechanical_dataset(correct, DEFAULT_RULES, unbounded, vocab, per_location_cap=0)
    suites = {entry.name: entry.suite for entry in correct}
    programs = []
    for i, bug in enumerate(bugs):
        ast, _ = analyze(bug.mutant)
        if ast is not None:
            programs.append((f"{bug.base_name} mutant {i} ({bug.rule_id})", ast, suites[bug.base_name]))
    assert len(programs) > 500
    return programs


def _run(interpreter, ast, entry, args, fuel):
    """(status, value, detail) of one run, with the value's repr so that
    True never equals 1, or the Python exception it raised."""
    try:
        result = interpreter(ast, entry, list(args), fuel)
    except Exception as error:
        return ("raised", type(error).__name__, str(error))
    return (result.status, repr(result.value), result.detail)


def _exhausted(outcome) -> bool:
    return outcome[0] is ExecStatus.FUEL_EXHAUSTED


def _assert_same(ast, entry, args, fuel, label=""):
    """Equal outcomes at `fuel`, and the same least fuel at which the run
    stops exhausting it: bisection on the compiled interpreter, then the
    tree walker must exhaust one unit below that fuel and not at it. No
    run may change the caller's arguments."""
    before = repr(args)
    compiled = _run(interpret, ast, entry, args, fuel)
    assert compiled == _run(treewalk.interpret, ast, entry, args, fuel), label
    if not _exhausted(compiled):
        low, high = -1, fuel  # exhausts at `low` (fuel -1 stands for "always"), not at `high`
        while high - low > 1:
            mid = (low + high) // 2
            if _exhausted(_run(interpret, ast, entry, args, mid)):
                low = mid
            else:
                high = mid
        assert _run(treewalk.interpret, ast, entry, args, high) == compiled, (label, high)
        if high > 0:
            assert _exhausted(_run(treewalk.interpret, ast, entry, args, high - 1)), (label, high)
    assert repr(args) == before, label


def test_compiled_matches_tree_walker_on_corpus(corpus_programs, deep_stack):
    for label, ast, suite in corpus_programs:
        for case in suite.cases:
            _assert_same(ast, case.entry, case.args, DEFAULT_FUEL, f"{label}/{case.id}")


def test_compiled_matches_tree_walker_on_mutants(mutant_programs, deep_stack):
    for label, ast, suite in mutant_programs:
        for case in suite.cases:
            _assert_same(ast, case.entry, case.args, DEFAULT_FUEL, f"{label}/{case.id}")


FIXED = [
    # scoping: a `let` in a loop body shadows only from its own statement on
    ("fn f(n: int) -> int { let x: int = 1; let i: int = 0;"
     " while (i < n) { x = x + 1; let x: int = 100; x = x + i; i = i + 1; } return x; }", "f", (3,)),
    ("fn f(a: int, a: int) -> int { let a: int = a * 10; return a; }", "f", (1, 2)),
    ("fn f() -> int { if (true) { let y: int = 1; } return y; }", "f", ()),
    ("fn f() -> int { z = 1; return 0; }", "f", ()),
    ("fn f() -> int { q[0] = 1; return 0; }", "f", ()),
    ("fn f(x: int) -> int { x[0] = 1; return 0; }", "f", (4,)),
    ("fn f(x: int) -> int { return x[0]; }", "f", (4,)),
    ("fn f(x: int) -> int { let x: int = x + 1; return x; }", "f", (4,)),
    # else-if chains charge a statement per `if`
    ("fn f(n: int) -> int { if (n == 0) { return 10; } else if (n == 1) { return 11; }"
     " else if (n == 2) { return 12; } else { return 13; } }", "f", (2,)),
    ("fn f(n: int) -> int { if (n == 0) { return 10; } else if (n == 1) { return 11; } return 14; }", "f", (5,)),
    # short circuits and strict equality
    ("fn f(n: int) -> bool { return n > 0 && 10 / n > 1 || !(n == 0) && false; }", "f", (0,)),
    ("fn f(n: int) -> bool { return n > 0 || 10 / n > 1; }", "f", (0,)),
    ("fn f() -> bool { return [1, 2] == [1, 2] && [1] != [1, 2] && true != false; }", "f", ()),
    # arrays: value semantics on let, assignment, call and return; reads that only index or measure
    ("fn g(a: int[]) -> int[] { a[0] = 7; return a; }\n"
     "fn f() -> int { let a: int[] = [1, 2, 3]; let b: int[] = a; b[1] = 9; let c: int[] = g(a);"
     " a = c; c[2] = 5; return a[0] * 100 + a[1] * 10 + a[2] + b[1] * 1000 + len(b) * 10000; }", "f", ()),
    ("fn f(a: int[]) -> int[] { let b: int[] = a; b[0] = -1; return a; }", "f", ([4, 5],)),
    ("fn f(a: int[]) -> int { a[0] = 9; return a[0] + len(a); }", "f", ([4, 5],)),
    ("fn f(n: int) -> int { let a: int[] = zeros(n); let i: int = 0;"
     " while (i < len(a)) { a[i] = i * i; i = i + 1; } return a[n - 1] + len(a); }", "f", (6,)),
    ("fn f() -> int { let a: int[] = [1]; a[1] = 2; return 0; }", "f", ()),
    ("fn f() -> int { let a: int[] = [1]; return a[0 - 1]; }", "f", ()),
    ("fn f() -> int[] { return zeros(0 - 1); }", "f", ()),
    ("fn f() -> int[] { return zeros(2000000); }", "f", ()),
    # arithmetic: truncation, division and modulo by zero, overflow
    ("fn f(a: int, b: int) -> int { return a / b * 1000 + a % b; }", "f", (-7, 2)),
    ("fn f(a: int) -> int { return 1 / a; }", "f", (0,)),
    ("fn f(a: int) -> int { return 1 % a; }", "f", (0,)),
    ("fn f(a: int) -> int { return -a; }", "f", (-(1 << 63),)),
    ("fn f() -> int { let x: int = 3037000500; return x * x; }", "f", ()),
    ("fn f() -> int { let x: int = 9223372036854775807; return x + 1 - 1; }", "f", ()),
    # calls: recursion, depth limit, arity, unknown functions, missing return
    ("fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }", "fib", (12,)),
    ("fn f(n: int) -> int { return 1 + f(n + 1); }", "f", (0,)),
    ("fn f(n: int) -> int { if (n == 0) { return 0; } return f(n - 1); }", "f", (199,)),
    ("fn f(n: int) -> int { if (n == 0) { return 0; } return f(n - 1); }", "f", (200,)),
    ("fn f(n: int) -> int { if (n > 0) { if (n > 0) { if (n > 0) { return 1 + f(n - 1); } } } return 0; }",
     "f", (300,)),
    ("fn g(a: int) -> int { return a; }\nfn f() -> int { return g(1, 2); }", "f", ()),
    ("fn f() -> int { return h(1 / 0); }", "f", ()),
    ("fn f() -> int { return h(1); }", "f", ()),
    ("fn f(n: int) -> int { while (n > 0) { n = n - 1; } }", "f", (3,)),
    ("fn f(n: int) -> int { return n; }", "f", (1, 2)),
    ("fn f(n: int) -> int { return n; }", "g", (1,)),
    ("fn f() -> int { return 1; }\nfn f() -> int { return 2; }", "f", ()),
    # runs that never end
    ("fn f() -> int { let i: int = 0; while (i >= 0) { i = i + 1; } return i; }", "f", ()),
    ("fn f(n: int) -> int { while (true) { if (n > 0) { return n; } } return 0; }", "f", (0,)),
]


@pytest.mark.parametrize("source, entry, args", FIXED)
def test_compiled_matches_tree_walker_on_fixed_programs(source, entry, args, deep_stack):
    _assert_same(parse(source), entry, args, DEFAULT_FUEL)


GENERATED = """\
fn step(a: int, b: int, c: int, xs: int) -> int {{
    if ({e[0]} < {e[1]} || !({e[2]} != 0)) {{
        return {e[3]};
    }} else if ({e[4]} == {e[5]} && c > 0) {{
        return step(b, c - 1, xs, a);
    }}
    return {e[6]};
}}

fn shift(ys: int[], a: int) -> int[] {{
    ys[0] = a;
    return ys;
}}

fn main(a: int, b: int, c: int, xs: int) -> int {{
    let arr: int[] = zeros({e[7]} % 6 + 5);
    let ys: int[] = [{e[8]}, a, b];
    let zs: int[] = ys;
    zs[1] = {e[9]};
    let ws: int[] = shift(ys, {e[10]});
    let i: int = 0;
    while (i < len(arr)) {{
        arr[i] = {e[11]} + ys[i % len(ys)];
        if (arr[i] > {e[12]}) {{
            xs = xs + step(a, b, i, xs);
        }} else {{
            let c: int = arr[i] - {e[13]};
            b = b - c;
        }}
        i = i + 1;
    }}
    let j: int = 0;
    while (j < {e[15]} * 10) {{
        j = j + 1;
    }}
    if (ys == zs) {{
        return 0 - 1;
    }}
    return xs + j + arr[{e[14]} % (len(arr) + 1)] + ys[1] * 3 + zs[1] * 5 + ws[0] * 7;
}}
"""


@settings(max_examples=150)
@given(
    exprs=st.lists(_exprs(2), min_size=16, max_size=16),
    args=st.tuples(*[st.integers(min_value=-3, max_value=60)] * 4),
)
def test_compiled_matches_tree_walker_on_generated_programs(exprs, args, deep_stack):
    ast = parse(GENERATED.format(e=exprs))
    _assert_same(ast, "main", args, 3_000)


# --- loops that come back to an earlier state ---------------------------------


def _fuel_spent(ast, entry, args, fuel):
    """The compiled interpreter's result and the fuel it spent."""
    runs = []

    class Recorded(interp._Run):
        def __init__(self, functions, fuel):
            super().__init__(functions, fuel)
            runs.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "_Run", Recorded)
        result = interpret(ast, entry, list(args), fuel)
    return result, fuel - max(runs[0].fuel, 0)


@st.composite
def cycling_loops(draw):
    """A loop with pre-period `pre` (a counter `c` runs up to it first)
    and then period `period`: `xs[2]` counts mod `period`, `x` mod a
    divisor of it, and toggles, swaps, array updates and rotations have
    periods that divide it. Or else `xs[4]` counts up to a limit, so only
    an array changes between states that end the loop. Returns the
    source and whether the loop ever exits."""
    pre, period = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    k = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    x0, xs = draw(st.integers(0, 9)), [draw(st.integers(0, 9)) for _ in range(5)]
    updates = [f"x = (x + 1) % {k};", f"xs[2] = (xs[2] + 1) % {period};"]
    if period % 2 == 0 and draw(st.booleans()):
        updates.append("t = !t;")  # `t` may start as an int: 0, True, False, True, ...
    if period % 2 == 0 and draw(st.booleans()):
        updates.append("let s: int = a; a = b; b = s;")
    if period % 2 == 0 and draw(st.booleans()):
        updates.append("let s: int = xs[0]; xs[0] = xs[3]; xs[3] = s;")
    if period % 3 == 0 and draw(st.booleans()):
        updates.append("let h: int = xs[0]; xs[0] = xs[1]; xs[1] = xs[3]; xs[3] = h;")
    if draw(st.booleans()):
        updates.append(f"xs[{draw(st.sampled_from([0, 1, 3]))}] = (xs[1] + 1) % {period};")
    limit = draw(st.integers(0, 9))
    cond, exits = draw(st.sampled_from([
        ("true", False),
        (f"x != {limit}", limit == x0 or limit < k),
        (f"xs[2] != {limit}", limit == xs[2] or limit < period),
        (f"c < {limit}", limit <= pre),
        (f"xs[4] < {4 * limit}", True),
    ]))
    if cond.startswith("xs[4]"):
        updates.append("xs[4] = xs[4] + 1;")
    updates = draw(st.permutations(updates))
    t0 = draw(st.sampled_from(["true", "false", "0", "1"]))
    source = (
        "fn f(a: int, b: int) -> int {\n"
        f"    let c: int = 0; let x: int = {x0}; let t: bool = {t0}; let xs: int[] = {xs};\n"
        f"    while ({cond}) {{\n"
        f"        if (c < {pre}) {{ c = c + 1; }} else {{ {' '.join(updates)} }}\n"
        "    }\n"
        "    return c * 1000 + x * 100 + a * 10 + b + xs[0] + xs[2] * 3 + xs[3] * 5;\n"
        "}\n"
    )
    return source, exits


@settings(max_examples=150, deadline=None)
@given(loop=cycling_loops(), args=st.tuples(st.integers(0, 3), st.integers(0, 3)), fuel=st.integers(1, 5_000))
def test_cut_loops_match_tree_walker(loop, args, fuel):
    source, exits = loop
    ast = parse(source)
    for budget in (fuel, 20_000):  # one that may run out before the cut, one that lets every exit happen
        _assert_same(ast, "f", args, budget, source)
    if not exits:
        # a budget far beyond the cycle: the cut ends the run within a few periods
        result, spent = _fuel_spent(ast, "f", args, DEFAULT_FUEL)
        assert result.status is ExecStatus.FUEL_EXHAUSTED and spent < 10_000, (source, spent)


CYCLES = [
    # ill-typed: y is 0, 1, then true, which Python's == takes for 1; the loop then returns
    ("fn f() -> int { let y: int = 0; while (true) { if (y == 0) { y = 1; }"
     " else { if (y == 1) { y = true; } else { return 5; } } } return 0; }", "f", ()),
    # only an array's contents change, and the loop ends
    ("fn f() -> int { let a: int[] = [0, 0]; while (a[1] < 20) { a[0] = 1 - a[0]; a[1] = a[1] + a[0]; }"
     " return a[1]; }", "f", ()),
    # ill-typed: at check 4 the frame equals check 2's by value, but b and c now share one
    # array, so writing b changes c and the loop returns
    ("fn f() -> int { let k: int = 0; let m: int = 0; let b: int[] = [0]; let c: int[] = [0];"
     " while (true) { if (k == 0) { k = 1; } else { b[0] = 1; if (c[0] == 1) { return 5; }"
     " b[0] = 0; m = [[0]]; b = m[0]; c = m[0]; m = 0; k = 0; } } return 0; }", "f", ()),
    # ill-typed: b writes into the array nested in m, which a copy of m alone would share
    ("fn f() -> int { let m: int[] = [[0]]; let b: int = 0; while (m[0][0] < 5) { b = m[0];"
     " b[0] = b[0] + 1; b = 0; } return m[0][0]; }", "f", ()),
    # cycling in a recursive call, and each level's identical loop that ends
    ("fn g(n: int) -> int { let i: int = 0; while (i < 3) { i = i + 1; }"
     " if (n > 0) { return g(n - 1) + i; } while (i != 0) { i = (i + 1) % 4; } return i; }", "g", (5,)),
    ("fn g(n: int) -> int { let i: int = 0; while (i < 3) { i = i + 1; }"
     " if (n > 0) { return g(n - 1) + i; } while (i != 0) { i = (i + 2) % 4; } return i; }", "g", (5,)),
    # cycling in a nested loop: the inner loop, then the outer one around an inner loop that ends
    ("fn f(n: int) -> int { let i: int = 0; while (i < n) { let j: int = 0; while (j < 5) { j = j % 3; }"
     " i = i + 1; } return i; }", "f", (3,)),
    ("fn f(n: int) -> int { let i: int = 0; while (i < n) { let j: int = 0; while (j < 5) { j = j + 1; }"
     " i = (i + 1) % 3; } return i; }", "f", (3,)),
    ("fn f(n: int) -> int { let i: int = 0; while (i < n) { let j: int = 0; while (j < 5) { j = j + 1; }"
     " i = (i + 1) % 3; } return i; }", "f", (2,)),
    # frames larger than MAX_STATE_VALUES: one that cycles runs out of fuel, one that ends does
    (f"fn f() -> int {{ let a: int[] = zeros({interp.MAX_STATE_VALUES + 1}); while (true) {{ }} return 0; }}",
     "f", ()),
    (f"fn f() -> int {{ let a: int[] = zeros({interp.MAX_STATE_VALUES + 1}); let i: int = 0;"
     " while (i < len(a)) { a[i] = i % 2; i = i + 1; } return a[len(a) - 1] + i; }", "f", ()),
    # more iterations than MAX_STATE_VALUES, over few values that never repeat
    (f"fn f() -> int {{ let i: int = 0; let s: bool = false; while (i < {3 * interp.MAX_STATE_VALUES}) {{"
     " i = i + 1; s = !s; } return i; }", "f", ()),
    # the frame grows past the bound while it cycles: its small states repeat, then stop being checked
    ("fn f() -> int { let n: int = 0; let a: int[] = [0]; while (true) { n = (n + 1) % 2;"
     " if (n == 0) { if (len(a) < 300) { a = zeros(len(a) * 2); } } } return 0; }", "f", ()),
]


@pytest.mark.parametrize("source, entry, args", CYCLES)
def test_cut_matches_tree_walker_on_fixed_loops(source, entry, args, deep_stack):
    _assert_same(parse(source), entry, args, DEFAULT_FUEL)


def test_cut_stops_a_repeating_loop_within_its_period():
    ast = parse("fn f() -> int { let i: int = 0; while (true) { i = (i + 1) % 5; } return 0; }")
    result, spent = _fuel_spent(ast, "f", (), DEFAULT_FUEL)
    assert result.status is ExecStatus.FUEL_EXHAUSTED and spent < 200


@pytest.mark.parametrize("frame, plain", [
    ([0] * interp.MAX_STATE_VALUES, True),
    ([0] * (interp.MAX_STATE_VALUES + 1), False),
    ([None, [0] * (interp.MAX_STATE_VALUES - 1)], True),  # an array counts its length
    ([None, [0] * interp.MAX_STATE_VALUES], False),
    ([[1, [2]]], False),
    ([[0], [0]], True),
    ([[0]] * 2, False),  # one array in two slots
])
def test_only_small_flat_unshared_frames_are_plain(frame, plain):
    assert interp._plain(frame) is plain
    assert (interp._snapshot(frame) == frame) is plain


# --- loops whose control repeats while accumulators grow ----------------------


def _outcomes_by_fuel(ast, entry, args):
    """The tree walker's outcome as a function of fuel: FUEL_EXHAUSTED
    below the least fuel its run ends at, and the run's outcome from
    there on (fuel only ever stops a run). Returns that least fuel, or
    None when DEFAULT_FUEL does not end the run, and the outcome. The
    least fuel is the compiled interpreter's, checked on the tree walker
    one unit below it and at it."""
    outcome = _run(treewalk.interpret, ast, entry, args, DEFAULT_FUEL)
    if _exhausted(outcome):
        return None, outcome
    least = least_sufficient_fuel(lambda fuel: interpret(ast, entry, list(args), fuel))
    assert _run(treewalk.interpret, ast, entry, args, least) == outcome
    assert _exhausted(_run(treewalk.interpret, ast, entry, args, least - 1))
    return least, outcome


def _assert_same_at_every_fuel(ast, entry, args, most=2_000):
    """The compiled interpreter's status, value and detail equal the tree
    walker's at every fuel from 1 to the least sufficient fuel or `most`,
    whichever is smaller, and at DEFAULT_FUEL."""
    least, outcome = _outcomes_by_fuel(ast, entry, args)
    program = interp._Program(ast)
    with interp.stack_room(program.frames_per_call):
        for fuel in [*range(1, min(least or most, most) + 1), DEFAULT_FUEL]:
            result = interp._execute(program, entry, list(args), fuel)
            expected = outcome if least is not None and fuel >= least else (ExecStatus.FUEL_EXHAUSTED, "None", None)
            assert (result.status, repr(result.value), result.detail) == expected, fuel


def _near(limit: int, sign: int):
    """Integers up to 2**20 from `limit`, on the side `sign` points from it,
    about as many of them under 2**10 as over."""
    distances = st.integers(0, 20).flatmap(lambda bits: st.integers(0, 1 << bits))
    return distances.map(lambda distance: limit - sign * distance)


@st.composite
def accumulating_loops(draw):
    """A loop whose control never changes, or only cycles (`i` counts mod
    `k`), while one to three accumulators `a`, `b` and `c`, the function's
    arguments, change by `a = a + e`, `a = a - e` or `a = e`: alone, in
    `if`s, and in a nested loop, where `e` may read `j`. `e` reads only
    control slots and constants, and may be a `bool`. The guard may let
    the loop exit."""
    k = draw(st.integers(1, 3))
    xs = [draw(st.integers(-9, 9)) for _ in range(3)]
    lets = f"let i: int = {draw(st.integers(0, k - 1))}; let xs: int[] = {xs};"
    values = ["1", "7", "i", "i * 3 - 1", "xs[i]", "0 - xs[(i + 1) % 3]", "(i > 0)"]

    def update(name, nested):
        e = draw(st.sampled_from(values + ["j", "j * i"] if nested else values))
        if draw(st.integers(0, 3)):  # else `a + e` may parse as `(a + e1) - e2`, which reads `a`: then it is control
            e = f"({e})"
        return draw(st.sampled_from([f"{name} = {name} + {e};", f"{name} = {name} - {e};", f"{name} = {e};"]))

    statements = [] if draw(st.booleans()) else [f"i = (i + 1) % {k};"]
    for name in "abc"[: draw(st.integers(1, 3))]:
        shape = draw(st.sampled_from(["plain", "if", "if-else", "nested"]))
        if shape == "plain":
            statements.append(update(name, False))
        elif shape == "if":
            statements.append(f"if (i == {draw(st.integers(0, 2))}) {{ {update(name, False)} }}")
        elif shape == "if-else":
            then, otherwise = update(name, False), update(name, False)
            statements.append(f"if (i < {draw(st.integers(0, 2))}) {{ {then} }} else {{ {otherwise} }}")
        else:
            statements.append(
                f"let j: int = 0; while (j < {draw(st.integers(0, 3))}) {{ {update(name, True)} j = j + 1; }}"
            )
    guard = draw(st.sampled_from(["true", "i < 3", f"i != {draw(st.integers(0, 3))}"]))
    body = " ".join(draw(st.permutations(statements)))
    return f"fn f(a: int, b: int, c: int) -> int {{ {lets} while ({guard}) {{ {body} }} return a + b + c; }}"


@settings(max_examples=50, deadline=None)
@given(
    source=accumulating_loops(),
    args=st.tuples(*[st.one_of(
        st.integers(-9, 9), _near(interp.INT_MAX, 1), _near(interp.INT_MIN, -1),
    )] * 3),
)
def test_accumulator_cut_matches_tree_walker_at_every_fuel(source, args):
    _assert_same_at_every_fuel(parse(source), "f", args)


ACCUMULATING = [
    # grows by 3, 1, or by 1 with an excursion of 1000 inside each iteration; shrinks by 3
    "fn f(a: int) -> int { let i: int = 0; while (i < 1) { a = a + 3; } return a; }",
    "fn f(a: int) -> int { let i: int = 0; while (i < 1) { if (i == 0) { a = a + 1; } } return a; }",
    "fn f(a: int) -> int { let i: int = 0; while (i < 1) { a = a + 1000; a = a - 999; } return a; }",
    "fn f(a: int) -> int { let i: int = 0; while (i < 1) { a = a - 3; } return a; }",
    # in the period of a cycling control, and in a nested loop
    "fn f(a: int) -> int { let i: int = 0; while (i < 2) { i = (i + 1) % 2; a = a + i * 5; } return a; }",
    "fn f(a: int) -> int { let i: int = 0; while (true) { let j: int = 0; while (j < 3) { a = a + j; j = j + 1; } }"
    " return a; }",
]


def _start(source: str, distance: int) -> int:
    """The start `distance` from the int64 bound that `source`'s
    accumulator heads for."""
    return interp.INT_MIN + distance if "a - 3" in source else interp.INT_MAX - distance


@pytest.mark.parametrize("source", ACCUMULATING)
def test_an_accumulator_cut_holds_at_the_overflow_boundary(source):
    """Starts at every distance from int64's bound near the least one at
    which the run no longer overflows inside the budget: the outcome is
    the tree walker's at each, and a start a little further away is cut."""
    ast, fuel = parse(source), 5_000

    def overflows(distance):
        return _run(treewalk.interpret, ast, "f", (_start(source, distance),), fuel)[0] is ExecStatus.RUNTIME_ERROR

    low, high = 0, 1 << 20  # overflows at `low`, not at `high`
    assert overflows(low) and not overflows(high)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if overflows(middle) else (low, middle)
    for distance in range(high - 8, high + 8):
        args = (_start(source, distance),)
        assert _run(interpret, ast, "f", args, fuel) == _run(treewalk.interpret, ast, "f", args, fuel), distance
    # a few periods past the boundary the bound is shown, and the loop is cut
    result, spent = _fuel_spent(ast, "f", (_start(source, high + 100),), fuel)
    assert result.status is ExecStatus.FUEL_EXHAUSTED and spent < fuel // 2, spent


def test_an_accumulator_that_overflows_inside_the_budget_stays_a_runtime_error():
    ast = parse(ACCUMULATING[0])
    args = (interp.INT_MAX - 3 * 1000,)  # overflows in its 1001st iteration, ~8000 fuel in
    _assert_same(ast, "f", args, DEFAULT_FUEL)
    result, spent = _fuel_spent(ast, "f", args, DEFAULT_FUEL)
    assert result == interp.ExecResult(ExecStatus.RUNTIME_ERROR, detail="integer overflow")
    assert 8_000 < spent < 9_000


def test_an_accumulator_that_overflows_only_past_the_budget_is_cut():
    ast = parse(ACCUMULATING[0])
    args = (interp.INT_MAX - 3 * 13_000,)  # would overflow in its 13 001st iteration, past 100 000 fuel
    _assert_same(ast, "f", args, DEFAULT_FUEL)
    result, spent = _fuel_spent(ast, "f", args, DEFAULT_FUEL)
    assert result.status is ExecStatus.FUEL_EXHAUSTED and spent < 100


NEVER_CUT = [
    # a call of a user function
    "fn g(x: int) -> int { return x; }\n"
    "fn f() -> int { let a: int = 0; let i: int = 0; while (i < 1) { a = a + g(1); } return a; }",
    # an accumulator read by a branch
    "fn f() -> int { let a: int = 0; while (true) { a = a + 1; if (a < 0) { return 1; } } return a; }",
    # an array accumulator
    "fn f() -> int { let ys: int[] = [0]; let i: int = 0; while (i < 1) { ys[0] = ys[0] + 1; } return 0; }",
    # ill-typed: an accumulator that holds a bool at every check, written in the period or only before it
    "fn f() -> int { let a: int = 0; let s: int = 0; while (true) { s = s + 1; s = true; a = a + 1; } return a; }",
    "fn f() -> int { let a: int = 0; let s: int = 0; let c: int = 0;"
    " while (true) { if (c == 0) { s = true; c = 1; } a = a + 1; } return a; }",
    # an accumulator read by a `return` in the loop, or assigned from another accumulator
    "fn f() -> int { let a: int = 0; let i: int = 0; while (i < 1) { a = a + 1; if (i > 0) { return a; } }"
    " return 0; }",
    "fn f() -> int { let a: int = 0; let b: int = 0; while (true) { a = a + 1; b = a; } return 0; }",
    "fn f() -> int { let a: int = 0; let b: int = 0; while (true) { a = a + 1; b = b + a; } return 0; }",
]


@pytest.mark.parametrize("source", NEVER_CUT)
def test_an_ineligible_loop_is_never_cut(source, deep_stack):
    ast = parse(source)
    _assert_same(ast, "f", (), 20_000)
    result, spent = _fuel_spent(ast, "f", (), 20_000)
    assert result.status is ExecStatus.FUEL_EXHAUSTED and spent == 20_000


@pytest.mark.parametrize("source, entry, args", [
    # an accumulator that a branch reads ends the loop inside the budget
    ("fn f() -> int { let a: int = 0; while (true) { a = a + 1; if (a == 3000) { return a; } } return 0; }", "f", ()),
    # the accumulator a guard reads
    ("fn f(n: int) -> int { let a: int = 0; let i: int = 0; while (a < n) { a = a + i + 1; } return a; }", "f", (900,)),
    # an accumulator a divisor, an index or an allocation size reads
    ("fn f() -> int { let a: int = 0 - 2000; let i: int = 0; while (i < 1) { a = a + 1; let q: int = 5 / a; }"
     " return a; }", "f", ()),
    ("fn f(xs: int[]) -> int { let a: int = 0; let i: int = 0; while (i < 1) { a = a + 1; let v: int = xs[a]; }"
     " return a; }", "f", ([0] * 400,)),
    ("fn f() -> int { let a: int = 900; let i: int = 0; while (i < 1) { a = a - 1; let v: int[] = zeros(a); }"
     " return a; }", "f", ()),
    # the accumulator is another written slot's source, and that slot is control
    ("fn f() -> int { let a: int = 0; let b: int = 0; while (b < 2000) { a = a + 1; b = a * 2; } return b; }", "f", ()),
])
def test_an_accumulator_that_control_reads_is_not_cut(source, entry, args, deep_stack):
    _assert_same(parse(source), entry, args, DEFAULT_FUEL)
    assert interpret(parse(source), entry, list(args)).status is not ExecStatus.FUEL_EXHAUSTED


# (base program, base lines, mutant lines) of the critic set-up's mutants whose
# loops run out of fuel: the accumulator cut's, and those it leaves to the budget
CUT_MUTANTS = {
    ("array_sum", "i = i + 1; }", "}"),
    ("count_evens", "i = i + 1;", "i = i / 1;"),
    ("count_evens", "i = i + 1; }", "}"),
    ("count_primes", "i = i + 1; }", "}"),
    ("digit_sum", "m = m / 10; }", "}"),
    ("dot_product", "i = i + 1;", "i = i % 1;"),
    ("dot_product", "i = i + 1; }", "}"),
}
UNCUT_MUTANTS = {
    ("factorial", "i = i + 1;", "i = i + -1;"),  # control never repeats
    ("max_subarray", "i = i + 1;", "i = i / 1;"),  # a branch reads the growing slot
    ("max_subarray", "i = i + 1; }", "}"),
}


def test_the_cut_reaches_the_critic_mutants_it_should(corpus_entries, vocab):
    """Every case of the mechanical mutants of a `critic` benchmark set-up
    (mutant seed 7, its representation and cap): the cut ends each
    fuel-exhausted case within 10 000 of a 100 000 budget, but for the
    three mutants with cases that still spend all of it."""
    correct = sorted((entry for entry in corpus_entries if entry.status == "correct"), key=lambda e: e.name)
    representation = RepresentationConfig(context_lines=3, max_input_len=160, max_target_len=48)
    _, bugs, _ = generate_mechanical_dataset(correct, DEFAULT_RULES, representation, vocab, per_location_cap=4, seed=7)
    suites = {entry.name: entry.suite for entry in correct}
    spent_by_mutant: dict[tuple, list[int]] = {}
    for bug in bugs:
        ast, diagnostics = analyze(bug.mutant)
        if ast is None or diagnostics:
            continue
        key = (bug.base_name, *(" ".join(line.strip() for line in lines)
                                for lines in (bug.base_region_lines, bug.mutant_region_lines)))
        for case in suites[bug.base_name].cases:
            result, spent = _fuel_spent(ast, case.entry, case.args, DEFAULT_FUEL)
            if result.status is ExecStatus.FUEL_EXHAUSTED:
                spent_by_mutant.setdefault(key, []).append(spent)
    long_runs = {key for key, spent in spent_by_mutant.items() if max(spent) >= 10_000}
    assert long_runs == UNCUT_MUTANTS
    assert all(fuel < 10_000 or fuel == DEFAULT_FUEL for spent in spent_by_mutant.values() for fuel in spent)
    assert CUT_MUTANTS <= spent_by_mutant.keys()
