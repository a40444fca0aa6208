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
