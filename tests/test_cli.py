from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from helpers import MALFORMED_SUITES

from jayfix import backtranslate, cli
from jayfix import evaluate as evaluate_module
from jayfix.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from jayfix.evaluate import CandidatePatch
from jayfix.minilang import SourceProgram
from jayfix.model import BeamScorer, TrainingDiverged

MICRO_CONFIG = {
    "seed": 5,
    "eval_k": 2,
    "per_location_cap": 1,
    "model_preset": "tiny",
    "model": {"d_model": 16, "d_ff": 32, "n_heads": 2},
    "train": {
        "batch_size": 16,
        "learning_rate": 0.001,
        "weight_decay": 0.01,
        "max_epochs": 1,
        "patience": 1,
    },
    "loop": {
        "iterations": 1,
        "k_correct": 2,
        "k_buggy": 1,
        "critic_family": "compiler",
        "max_locations_per_program": 2,
    },
    "representation": {"context_lines": 2, "max_input_len": 128, "max_target_len": 32},
}


@pytest.fixture(scope="module")
def workspace(request, tmp_path_factory):
    """One micro pipeline shared by the CLI tests: gen-mechanical,
    init-train, backtranslate."""
    root = tmp_path_factory.mktemp("cliws")
    config = dict(MICRO_CONFIG)
    config["corpus_dir"] = str(request.config.rootpath / "corpus")
    config["work_dir"] = str(root / "work")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_OK
    assert main(["init-train", "--config", str(config_path)]) == EXIT_OK
    assert main(["backtranslate", "--config", str(config_path)]) == EXIT_OK
    return root, config_path


def test_gen_mechanical_outputs(workspace):
    root, _ = workspace
    work = root / "work"
    assert (work / "vocab.json").exists()
    assert (work / "store.jsonl").exists()
    assert (work / "config.json").exists()
    assert list((work / "mutants").glob("*.diff"))
    report = json.loads((work / "mechanical_report.json").read_text())
    assert report["bugs"] > 0 and report["samples"] == 2 * report["bugs"]


def test_gen_mechanical_rerun_is_idempotent(workspace, capsys):
    root, config_path = workspace
    store_before = (root / "work" / "store.jsonl").read_bytes()
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 new in store" in out
    assert (root / "work" / "store.jsonl").read_bytes() == store_before


def test_init_train_outputs(workspace):
    root, _ = workspace
    init = root / "work" / "init"
    assert (init / "fixer.ckpt").exists()
    assert (init / "breaker.ckpt").exists()
    curves = json.loads((init / "curves.json").read_text())
    assert set(curves) == {"fixer", "breaker"}
    assert curves["fixer"]["history"]


def test_backtranslate_outputs(workspace):
    root, _ = workspace
    runs = list((root / "work" / "runs").iterdir())
    assert len(runs) == 1
    iter_dir = runs[0] / "iter1"
    assert (iter_dir / "fixer.ckpt").exists()
    assert (iter_dir / "log.json").exists()
    log = json.loads((iter_dir / "log.json").read_text())
    assert log["iteration"] == 1
    assert (runs[0] / "config.json").exists()


def test_evaluate_writes_reports(workspace):
    root, config_path = workspace
    out_dir = root / "eval"
    assert main(["evaluate", "--config", str(config_path), "--out", str(out_dir)]) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["totals"]["tasks"] == 10
    assert report["compilability"]["generated_candidates"] == report["k"] * 10
    assert len(report["curve"]) == report["k"]
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "config.json").exists()


def test_repair_command(workspace, capsys):
    root, config_path = workspace
    corpus = json.loads(Path(config_path).read_text())["corpus_dir"]
    out_dir = root / "patches"
    code = main([
        "repair", f"{corpus}/gcd_buggy.jay", "--span", "4:4",
        "--config", str(config_path), "--reference", f"{corpus}/gcd.jay",
        "--out", str(out_dir),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "#  1" in out
    assert list(out_dir.glob("patch_*.jay"))


def test_repair_single_beam_yields_one_file(workspace, tmp_path):
    root, config_path = workspace
    corpus = json.loads(Path(config_path).read_text())["corpus_dir"]
    out_dir = tmp_path / "one"
    code = main([
        "repair", f"{corpus}/gcd_buggy.jay", "--span", "4:4", "--beam", "1",
        "--config", str(config_path), "--out", str(out_dir),
    ])
    assert code == EXIT_OK
    assert len(list(out_dir.glob("patch_*.jay"))) == 1


def test_repair_span_outside_file_is_data_error(workspace):
    root, config_path = workspace
    corpus = json.loads(Path(config_path).read_text())["corpus_dir"]
    code = main([
        "repair", f"{corpus}/gcd_buggy.jay", "--span", "999:999",
        "--config", str(config_path),
    ])
    assert code == EXIT_DATA


def test_repair_of_a_region_over_the_input_budget_is_data_error(workspace, tmp_path, capsys):
    root, config_path = workspace
    corpus = Path(json.loads(Path(config_path).read_text())["corpus_dir"])
    argv = ["repair", str(corpus / "bubble_sort.jay"), "--span", "1:18", "--config", str(config_path)]
    assert main([*argv, "--out", str(tmp_path / "patches")]) == EXIT_DATA
    assert "exceeds budget" in capsys.readouterr().err
    assert not (tmp_path / "patches").exists()


@pytest.mark.parametrize("command, searches", [("backtranslate", 2), ("gen-bugs", 1), ("evaluate", 1)])
def test_one_beam_search_per_half_and_per_command(workspace, tmp_path, monkeypatch, command, searches):
    # every prompt of a back-translation half, every location of gen-bugs and
    # every task of evaluate decode in one search, of at most max_len steps
    root, config_path = workspace
    steps: list[int] = []  # scorer calls per search
    search, step = evaluate_module.beam_search, BeamScorer.step_logprobs

    def counting_search(scorer, k, max_len, **kwargs):
        steps.append(0)
        result = search(scorer, k=k, max_len=max_len, **kwargs)
        assert 0 < steps[-1] <= max_len
        return result

    def counting_step(self, prefixes):
        steps[-1] += 1
        return step(self, prefixes)

    monkeypatch.setattr(evaluate_module, "beam_search", counting_search)
    monkeypatch.setattr(BeamScorer, "step_logprobs", counting_step)
    out = tmp_path / "out"
    if command == "backtranslate":  # its --out is the work directory to run in
        shutil.copytree(root / "work", out)
    assert main([command, "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    assert len(steps) == searches


def test_gen_bugs_counting_identity_with_none_critic(workspace, tmp_path):
    root, config_path = workspace
    out_dir = tmp_path / "bugs"
    code = main([
        "gen-bugs", "--config", str(config_path), "--critic", "none", "--out", str(out_dir),
    ])
    assert code == EXIT_OK
    manifest = json.loads((out_dir / "bugs_manifest.json").read_text())
    usable = manifest["locations_enumerated"] - manifest["locations_skipped"]
    assert manifest["generated"] == usable * manifest["k_buggy"]
    assert manifest["accepted"] == manifest["generated"]  # none critic keeps all


def test_unknown_critic_is_usage_error(workspace):
    root, config_path = workspace
    code = main(["backtranslate", "--config", str(config_path), "--critic", "police"])
    assert code == EXIT_USAGE


def test_jobs_flag_is_usage_error(capsys):
    # candidates are judged in the calling thread; there is no worker count
    assert main(["backtranslate", "--jobs", "2"]) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


def test_missing_store_is_data_error(tmp_path, request):
    config = dict(MICRO_CONFIG)
    config["corpus_dir"] = str(request.config.rootpath / "corpus")
    config["work_dir"] = str(tmp_path / "nowhere")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["init-train", "--config", str(config_path)]) == EXIT_DATA


def test_missing_corpus_is_data_error(tmp_path):
    config = dict(MICRO_CONFIG)
    config["corpus_dir"] = str(tmp_path / "void")
    config["work_dir"] = str(tmp_path / "work")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_DATA


@pytest.mark.parametrize(
    "extra", [{"iteration": 3}, {"loop": {**MICRO_CONFIG["loop"], "iteration": 3}}]
)
def test_unknown_config_key_is_usage_error(tmp_path, request, capsys, extra):
    config = {**MICRO_CONFIG, **extra}
    config["corpus_dir"] = str(request.config.rootpath / "corpus")
    config["work_dir"] = str(tmp_path / "work")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_USAGE
    assert "iteration" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize(
    "section, override",
    [
        ("train", {"batch_size": 0}),
        ("loop", {"order": "sideways"}),
        ("loop", {"critic_family": "bogus"}),
        ("model", {"max_src_len": 64}),  # below representation.max_input_len 128
        ("model", {"max_tgt_len": 30}),  # BOS + 31 target tokens need 31
    ],
)
def test_invalid_config_value_fails_before_any_output(tmp_path, request, section, override):
    config = {**MICRO_CONFIG, section: {**MICRO_CONFIG[section], **override}}
    config["corpus_dir"] = str(request.config.rootpath / "corpus")
    config["work_dir"] = str(tmp_path / "work")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_USAGE
    assert not (tmp_path / "work").exists()


def test_missing_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_empty_rule_list_is_data_error(workspace):
    root, config_path = workspace
    assert main(["gen-mechanical", "--config", str(config_path), "--rules", ""]) == EXIT_DATA
    assert main(["gen-mechanical", "--config", str(config_path), "--rules", "no-such-rule"]) == EXIT_DATA


def test_config_echo_is_fully_resolved(workspace):
    root, _ = workspace
    echoed = json.loads((root / "work" / "config.json").read_text())
    assert echoed["loop"]["k_correct"] == 2
    assert echoed["train"]["batch_size"] == 16
    assert echoed["model"]["vocab_size"] > 0


def _echoed_config(root, work_dir) -> dict:
    """The config gen-mechanical echoed into the shared work directory,
    pointed at another work directory."""
    echoed = json.loads((root / "work" / "config.json").read_text())
    assert "vocab_size" in echoed["model"]
    return {**echoed, "work_dir": str(work_dir)}


def test_echoed_config_reruns(workspace, tmp_path):
    root, _ = workspace
    echoed = _echoed_config(root, tmp_path / "work")
    config_path = tmp_path / "echoed.json"
    config_path.write_text(json.dumps(echoed))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_OK
    assert main(["init-train", "--config", str(config_path)]) == EXIT_OK
    # the echoed settings are the run's settings: same echo, same models
    assert json.loads((tmp_path / "work" / "init" / "config.json").read_text()) == echoed
    for role in ("fixer", "breaker"):
        ckpt = Path("init") / f"{role}.ckpt"
        assert (tmp_path / "work" / ckpt).read_bytes() == (root / "work" / ckpt).read_bytes()


def test_config_for_another_vocabulary_is_data_error(workspace, tmp_path, capsys):
    root, _ = workspace
    echoed = _echoed_config(root, tmp_path / "work")
    echoed["model"] = {**echoed["model"], "vocab_size": echoed["model"]["vocab_size"] + 1}
    config_path = tmp_path / "echoed.json"
    config_path.write_text(json.dumps(echoed))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_DATA
    assert "vocab_size" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("error, code", [
    (lambda: TrainingDiverged(epoch=1, step=2, loss=float("nan")), EXIT_DIVERGED),
    (lambda: ValueError("bad value"), EXIT_USAGE),
])
def test_backtranslate_failure_keeps_its_exit_code(workspace, tmp_path, monkeypatch, capsys, error, code):
    root, config_path = workspace
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)

    def failing(*args, **kwargs):
        raise error()

    monkeypatch.setattr(backtranslate, "bt_iteration", failing)
    assert main(["backtranslate", "--config", str(config_path), "--out", str(work)]) == code
    assert "back-translation iteration 1" in capsys.readouterr().err


def test_repair_without_tests_is_never_plausible(workspace, tmp_path, monkeypatch, capsys):
    root, config_path = workspace
    corpus = Path(json.loads(Path(config_path).read_text())["corpus_dir"])
    fixed = SourceProgram("gcd_buggy@rank1", (corpus / "gcd.jay").read_text())

    def reference_patch(fixer, tasks, k, rep_cfg, vocab):
        return [[CandidatePatch(rank=1, log_prob=-0.5, region_text="fixed", program=fixed)] for _ in tasks]

    monkeypatch.setattr(cli, "repair", reference_patch)
    argv = ["--span", "4:4", "--config", str(config_path), "--reference", str(corpus / "gcd.jay")]
    # next to its suite the reference fix is correct
    assert main(["repair", str(corpus / "gcd_buggy.jay"), *argv, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert "[correct] 'fixed'" in capsys.readouterr().out
    # an empty stand-in suite would pass it; without tests it only compiles
    shutil.copy(corpus / "gcd_buggy.jay", tmp_path / "gcd_buggy.jay")
    assert main(["repair", str(tmp_path / "gcd_buggy.jay"), *argv, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert "[compiles] 'fixed'" in capsys.readouterr().out


def test_evaluate_writes_each_review_candidate(workspace, tmp_path, monkeypatch):
    # a plausible patch that is not the reference fix goes to review/
    root, config_path = workspace
    corpus = Path(json.loads(Path(config_path).read_text())["corpus_dir"])
    buggy = (corpus / "gcd_buggy.jay").read_text()
    patch = buggy.replace("b = a + b;", "b = a - a / b * b;")
    assert patch != buggy

    def plausible_patch(fixer, tasks, k, rep_cfg, vocab):
        return [
            [CandidatePatch(rank=1, log_prob=-0.5, region_text="variant", program=SourceProgram("p", patch))]
            if task.name == "gcd_buggy" else []
            for task in tasks
        ]

    monkeypatch.setattr(evaluate_module, "repair", plausible_patch)
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config_path), "--out", str(out_dir)]) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["review_queue"] == [{"task": "gcd_buggy", "rank": 1}]
    assert [p.name for p in (out_dir / "review").iterdir()] == ["gcd_buggy_rank1.jay"]
    assert (out_dir / "review" / "gcd_buggy_rank1.jay").read_text() == patch


def _documented(title: str) -> dict:
    """The JSON example under the docs/reports.md heading that names a file."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "reports.md").read_text()
    section = text.split(f"## `{title}`", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def _key_paths(value, path="$") -> set[str]:
    """Every key path in a JSON value; the elements of a list share one path."""
    if isinstance(value, dict):
        return set().union(*({f"{path}.{k}"} | _key_paths(v, f"{path}.{k}") for k, v in value.items()))
    if isinstance(value, list):
        return set().union(set(), *(_key_paths(item, f"{path}[]") for item in value))
    return set()


def test_written_fields_match_docs(workspace, tmp_path):
    root, config_path = workspace
    (log_path,) = (root / "work" / "runs").glob("*/iter1/log.json")
    log = json.loads(log_path.read_text())
    assert any(batch["candidates"] for batch in log["batches"])
    assert _key_paths(log) == _key_paths(_documented("runs/<id>/iter<k>/log.json"))
    out_dir = tmp_path / "bugs"
    assert main(["gen-bugs", "--config", str(config_path), "--critic", "none", "--out", str(out_dir)]) == EXIT_OK
    manifest = json.loads((out_dir / "bugs_manifest.json").read_text())
    assert _key_paths(manifest) == _key_paths(_documented("bugs_manifest.json"))
    assert manifest["bugs"]
    documented_meta = _key_paths(_documented("<stem>.meta.json"))
    for stem in manifest["bugs"]:
        assert _key_paths(json.loads((out_dir / f"{stem}.meta.json").read_text())) == documented_meta


def _edit_meta(arrays, edit):
    """Rewrite a checkpoint's metadata JSON through `edit(meta)`."""
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


# whole ZIP archives that are not jayfix checkpoints: each rewrites the
# entries of a good one, given as {name: array}
NOT_A_CHECKPOINT = {
    "no metadata": lambda arrays: arrays.pop("__meta__"),
    "unsupported format": lambda arrays: _edit_meta(arrays, lambda meta: meta.update(format=2)),
    "metadata not UTF-8": lambda arrays: arrays.update(__meta__=np.frombuffer(b"\xff\xfe{}", dtype=np.uint8)),
    "parameter names mismatch": lambda arrays: arrays.update({"param/out.c": arrays.pop("param/out.b")}),
    "unknown config key": lambda arrays: _edit_meta(arrays, lambda meta: meta["config"].update(heads=2)),
    "config ModelConfig rejects": lambda arrays: _edit_meta(arrays, lambda meta: meta["config"].update(n_heads=3)),
}


@pytest.mark.parametrize("broken", ["truncated", "directory", *NOT_A_CHECKPOINT])
def test_evaluate_on_an_unreadable_checkpoint_is_data_error(workspace, tmp_path, capsys, broken):
    root, config_path = workspace
    model = tmp_path / "fixer.ckpt"
    good = root / "work" / "init" / "fixer.ckpt"
    if broken == "truncated":
        whole = good.read_bytes()
        model.write_bytes(whole[: len(whole) // 2])
    elif broken == "directory":
        model.mkdir()
    else:
        with np.load(good) as archive:
            arrays = {name: archive[name] for name in archive.files}
        NOT_A_CHECKPOINT[broken](arrays)
        with open(model, "wb") as fh:
            np.savez(fh, **arrays)
    argv = ["evaluate", "--config", str(config_path), "--model", str(model), "--out", str(tmp_path / "eval")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and str(model) in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("content", [
    b'{"format": 1}',
    b"{}",
    b"not json",
    b"[1]",
    b'{"format": 1, "pieces": 5}',
    b'{"format": 1, "pieces": ["while"]}',
    b"\xff\xfe",
])
def test_malformed_vocabulary_is_data_error(tmp_path, request, capsys, content):
    work = tmp_path / "work"
    work.mkdir()
    (work / "vocab.json").write_bytes(content)
    config = {**MICRO_CONFIG, "corpus_dir": str(request.config.rootpath / "corpus"), "work_dir": str(work)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(config_path), "--out", str(tmp_path / "eval")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "vocab.json" in err
    assert [p.name for p in work.iterdir()] == ["vocab.json"] and not (tmp_path / "eval").exists()


def test_a_corpus_entry_nested_too_deep_is_rejected_in_one_line(tmp_path, request, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for suffix in (".jay", ".tests.json"):
        shutil.copy(request.config.rootpath / "corpus" / f"abs_value{suffix}", corpus)
    (corpus / "chain.jay").write_text(
        "fn chain(a: int) -> int {\n    return " + " + ".join(["a"] * 5000) + ";\n}\n"
    )
    (corpus / "chain.tests.json").write_text(
        json.dumps([{"id": "t1", "entry": "chain", "args": [1], "expect": 5000}])
    )
    (corpus / "manifest.json").write_text(json.dumps([
        {"name": "abs_value", "status": "correct", "statements": 3},
        {"name": "chain", "status": "correct", "statements": 1},
    ]))
    config = {**MICRO_CONFIG, "corpus_dir": str(corpus), "work_dir": str(tmp_path / "work")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["gen-mechanical", "--config", str(config_path)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "chain" in line] == [
        "rejected corpus entry chain: does not compile: "
        "ParseError at line 2:2: expression nesting too deep, got '+'"
    ]


def _broken_input(kind, root, corpus):
    """The argv of a command one of whose inputs is a directory or not
    UTF-8, and the directory it would write patches to."""
    out = root / "patches"
    program, reference = corpus / "gcd_buggy.jay", corpus / "gcd.jay"
    if kind in ("program directory", "suite directory", "program not UTF-8", "reference not UTF-8"):
        program = root / "prog.jay"
        program.write_bytes((corpus / "gcd_buggy.jay").read_bytes())
    if kind == "program directory":
        program = corpus
    elif kind == "reference directory":
        reference = corpus
    elif kind == "suite directory":
        (root / "prog.tests.json").mkdir()
    elif kind == "program not UTF-8":
        program.write_bytes(b"\xff\xfe" + program.read_bytes())
    elif kind == "reference not UTF-8":
        reference = root / "ref.jay"
        reference.write_bytes(b"fn \xff() -> int { return 0; }\n")
    span = "1:1" if kind == "program directory" else "4:4"
    return ["repair", str(program), "--span", span, "--reference", str(reference), "--out", str(out)], out


@pytest.mark.parametrize("kind", [
    "program directory",
    "reference directory",
    "suite directory",
    "program not UTF-8",
    "reference not UTF-8",
])
def test_an_unreadable_repair_input_is_data_error(workspace, tmp_path, capsys, kind):
    _, config_path = workspace
    corpus = Path(json.loads(Path(config_path).read_text())["corpus_dir"])
    argv, out = _broken_input(kind, tmp_path, corpus)
    assert main([*argv, "--config", str(config_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-mechanical", "init-train", "backtranslate", "evaluate", "repair", "gen-bugs"])
def test_a_directory_for_a_config_is_data_error(workspace, tmp_path, capsys, command):
    _, config_path = workspace
    corpus = Path(json.loads(Path(config_path).read_text())["corpus_dir"])
    argv = [command]
    if command == "repair":
        argv += [str(corpus / "gcd_buggy.jay"), "--span", "4:4"]
    out = tmp_path / "out"
    assert main([*argv, "--config", str(tmp_path), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and "directory" in err
    assert not out.exists()


@pytest.mark.parametrize("content", MALFORMED_SUITES.values(), ids=MALFORMED_SUITES.keys())
def test_a_malformed_suite_beside_the_repaired_program_is_data_error(workspace, tmp_path, capsys, content):
    _, config_path = workspace
    corpus = Path(json.loads(Path(config_path).read_text())["corpus_dir"])
    shutil.copy(corpus / "gcd_buggy.jay", tmp_path / "prog.jay")
    (tmp_path / "prog.tests.json").write_text(content)
    out = tmp_path / "patches"
    argv = ["repair", str(tmp_path / "prog.jay"), "--span", "4:4", "--config", str(config_path), "--out", str(out)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: prog.tests.json: malformed suite: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
