#!/usr/bin/env python3
"""Show that two jayfix source trees write byte-identical outputs.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE [--config NAME] [--work DIR]

Each tree is a checkout with `src/` and `corpus/`. Export the parent
commit with `git archive`, not `git worktree`, so that it shares no
files with the change:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent

Both trees run the same commands, one tree after the other, into one
absolute output directory `WORK/run`, which is renamed to `WORK/parent`
and then `WORK/change` after each side. Every path the commands see and
echo is therefore the same on both sides. For each config the matrix is:

- `gen-mechanical`, then `init-train`;
- `gen-mechanical` again with `per_location_cap: 0` into its own work
  directory, so that every mutant of every rule is compared, not only
  the one a location keeps under the config's cap;
- for each critic `none|compiler|tests` and each `loop.order`
  `fixer-first|breaker-first`, on a fresh copy of that work directory:
  `backtranslate`, then `evaluate --model runs/*/iter1/fixer.ckpt`;
- `backtranslate --critic none --iterations 2` under `fixer-first`, on
  a fresh copy, so that the repair tasks merged after iteration 1 are
  compared too;
- `gen-bugs --critic C` for each critic, at the config's K_buggy and
  with `--beam 3`;
- `repair corpus/gcd_buggy.jay --span 4:4 --beam 10 --reference corpus/gcd.jay`;
- the same `repair` of a copy of `gcd_buggy.jay` that has no
  `.tests.json` beside it, once with that `--reference` and once
  without, so a task with no suite, and one with neither judge;
- `repair` of a correct program against itself at `--beam 10`:
  `corpus/array_sum.jay --span 3:3` and `corpus/gcd.jay --span 6:6`,
  each with itself as `--reference`, so that `plausible` and `correct`
  verdicts are compared too;
- on a copy of the parent side's `init/` checkpoints, on both sides:
  `evaluate`, `gen-bugs --beam 3` for each critic, and the `repair`
  cases above, so that a change which moves the bytes training writes
  still shows whether decoding from a given checkpoint moved.

The stdout of every command is kept under `stdout/`, and each `log.json`
is written again without its `wall_clock_sec`, the one field that reads
a clock. Then `diff -r WORK/parent WORK/change` runs, and one line per
file class follows it, with how many files of that class are identical
and how many differ (or exist on one side only): outputs decoded from
the parent's checkpoints, checkpoints, training curves, `log.json`,
`report.json`, sample stores, stdout, gen-bugs outputs, review
candidates, repair patches, and every other file. The
script exits 0 when every file is identical.

Configs: `criterion8` is the end-to-end determinism config of
`tests/test_acceptance.py` (tiny preset at d_model 16, one epoch), under
which the compiler and tests critics keep nothing; `tiny15` is the same
with the plain tiny preset and 15 epochs at learning rate 3e-3, which
gives those critics something to keep; `dropout` is `criterion8` with
`model.dropout` 0.1, so that every dropout site of training (the
embeddings, attention weights, residual branches and feed-forward
hidden layer) is compared too: the tiny preset trains without dropout.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CRITERION8 = {
    "seed": 5,
    "eval_k": 2,
    "per_location_cap": 1,
    "model_preset": "tiny",
    "model": {"d_model": 16, "d_ff": 32, "n_heads": 2},
    "train": {"batch_size": 16, "learning_rate": 0.001, "weight_decay": 0.01,
              "max_epochs": 1, "patience": 1},
    "loop": {"iterations": 1, "k_correct": 2, "k_buggy": 1,
             "critic_family": "compiler", "max_locations_per_program": 2},
    "representation": {"context_lines": 2, "max_input_len": 128, "max_target_len": 32},
}

CONFIGS = {
    "criterion8": CRITERION8,
    "tiny15": {
        **CRITERION8,
        "model": {},
        "train": {**CRITERION8["train"], "learning_rate": 0.003, "max_epochs": 15},
    },
    "dropout": {**CRITERION8, "model": {**CRITERION8["model"], "dropout": 0.1}},
}

CRITICS = ("none", "compiler", "tests")
ORDERS = ("fixer-first", "breaker-first")


def write_config(path: Path, config: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return str(path)


class Side:
    """One tree's run of the matrix into the shared output directory."""

    def __init__(self, tree: Path, out: Path, parent_out: Path):
        self.tree = tree
        self.out = out
        self.parent_out = parent_out  # where the parent side's outputs are
        self.env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

    def jayfix(self, label: str, *args: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "jayfix", *args],
            cwd=self.out, env=self.env, capture_output=True, text=True,
        )
        (self.out / "stdout").mkdir(exist_ok=True)
        (self.out / "stdout" / f"{label}.txt").write_text(proc.stdout, encoding="utf-8")
        if proc.returncode != 0:
            raise SystemExit(f"{self.tree}: jayfix {' '.join(args)} exited {proc.returncode}\n{proc.stderr}")

    def run(self, name: str, config: dict) -> None:
        base = self.out / name
        config = {**config, "corpus_dir": str(self.out / "corpus"), "work_dir": str(base / "work")}
        base_config = write_config(base / "config.json", config)
        self.jayfix(f"{name}-gen-mechanical", "gen-mechanical", "--config", base_config)
        self.jayfix(f"{name}-init-train", "init-train", "--config", base_config)
        uncapped_config = write_config(base / "uncapped" / "config.json", {
            **config, "per_location_cap": 0, "work_dir": str(base / "uncapped" / "work"),
        })
        self.jayfix(f"{name}-gen-mechanical-uncapped", "gen-mechanical", "--config", uncapped_config)
        for critic in CRITICS:
            for order in ORDERS:
                tag = f"{name}-bt-{critic}-{order}"
                run = base / f"bt-{critic}-{order}"
                shutil.copytree(base / "work", run / "work")
                run_config = write_config(run / "config.json", {
                    **config, "work_dir": str(run / "work"), "loop": {**config["loop"], "order": order},
                })
                self.jayfix(tag, "backtranslate", "--config", run_config, "--critic", critic)
                (fixer,) = glob.glob(str(run / "work" / "runs" / "*" / "iter1" / "fixer.ckpt"))
                self.jayfix(f"{tag}-evaluate", "evaluate", "--config", run_config,
                            "--model", fixer, "--out", str(run / "eval"))
        run = base / "bt-none-fixer-first-2iter"
        shutil.copytree(base / "work", run / "work")
        run_config = write_config(run / "config.json", {
            **config, "work_dir": str(run / "work"), "loop": {**config["loop"], "order": "fixer-first"},
        })
        self.jayfix(f"{name}-bt-none-fixer-first-2iter", "backtranslate", "--config", run_config,
                    "--critic", "none", "--iterations", "2")
        for critic in CRITICS:
            self.jayfix(f"{name}-gen-bugs-{critic}", "gen-bugs", "--config", base_config,
                        "--critic", critic, "--out", str(base / f"bugs-{critic}"))
        lone = base / "no-suite" / "gcd_buggy.jay"
        lone.parent.mkdir()
        shutil.copy(self.out / "corpus" / "gcd_buggy.jay", lone)
        self.decode(name, base_config, base, lone, {})
        # the same decoding on the parent side's checkpoints
        parent_init = base / "parent-init"
        shutil.copytree(self.parent_out / name / "work" / "init", parent_init / "init")
        models = {role: ["--model", str(parent_init / "init" / f"{role}.ckpt")] for role in ("fixer", "breaker")}
        self.jayfix(f"{name}-parent-init-evaluate", "evaluate", "--config", base_config,
                    *models["fixer"], "--out", str(parent_init / "eval"))
        self.decode(f"{name}-parent-init", base_config, parent_init, lone, models)

    def decode(self, label: str, config: str, base: Path, lone: Path, models: dict) -> None:
        """`gen-bugs --beam 3` for each critic and the `repair` cases, into
        `base`, with the config's `init/` models unless `models` names
        others (a `--model` argument list per role)."""
        fixer, breaker = models.get("fixer", []), models.get("breaker", [])
        for critic in CRITICS:
            self.jayfix(f"{label}-gen-bugs-{critic}-beam3", "gen-bugs", "--config", config, *breaker,
                        "--critic", critic, "--beam", "3", "--out", str(base / f"bugs-{critic}-beam3"))
        self.jayfix(f"{label}-repair", "repair", "--config", config, *fixer, "corpus/gcd_buggy.jay",
                    "--span", "4:4", "--beam", "10", "--reference", "corpus/gcd.jay",
                    "--out", str(base / "repair"))
        for tag, reference in (("reference", ["--reference", "corpus/gcd.jay"]), ("no-reference", [])):
            self.jayfix(f"{label}-repair-no-suite-{tag}", "repair", "--config", config, *fixer, str(lone),
                        "--span", "4:4", "--beam", "10", *reference,
                        "--out", str(base / f"repair-no-suite-{tag}"))
        for program, span in (("array_sum", "3:3"), ("gcd", "6:6")):
            self.jayfix(f"{label}-repair-{program}-itself", "repair", "--config", config, *fixer,
                        f"corpus/{program}.jay", "--span", span, "--beam", "10",
                        "--reference", f"corpus/{program}.jay", "--out", str(base / f"repair-{program}-itself"))


def strip_wall_clock(out: Path) -> None:
    for path in out.rglob("log.json"):
        log = json.loads(path.read_text(encoding="utf-8"))
        log.pop("wall_clock_sec", None)
        path.write_text(json.dumps(log, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# (class, test on a file's path relative to the output root), first match wins
FILE_CLASSES = (
    ("on parent checkpoints", lambda path: "parent-init" in path.parts[:-1]
     or (path.parts[0] == "stdout" and "-parent-init-" in path.name)),
    ("checkpoint", lambda path: path.suffix == ".ckpt"),
    ("curves", lambda path: path.name == "curves.json"),
    ("log.json", lambda path: path.name == "log.json"),
    ("report.json", lambda path: path.name == "report.json"),
    ("store", lambda path: path.name == "store.jsonl"),
    ("stdout", lambda path: path.parts[0] == "stdout"),
    ("review", lambda path: "review" in path.parts[:-1]),
    ("bugs", lambda path: any(part.startswith("bugs-") for part in path.parts[:-1])),
    ("patches", lambda path: any(part.startswith("repair") for part in path.parts[:-1])),
    ("other", lambda path: True),
)


def class_summary(parent: Path, change: Path) -> list[str]:
    """One line per file class: files identical on both sides, and files
    that differ or exist on one side only."""
    paths = {p.relative_to(root) for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    counts = {name: [0, 0] for name, _ in FILE_CLASSES}
    for path in paths:
        name = next(name for name, matches in FILE_CLASSES if matches(path))
        a, b = parent / path, change / path
        same = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
        counts[name][0 if same else 1] += 1
    return [f"{name}: {same} identical, {different} different" for name, (same, different) in counts.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent source tree (from git archive)")
    parser.add_argument("change", type=Path, help="changed source tree")
    parser.add_argument("--config", choices=sorted(CONFIGS), action="append",
                        help="config to run (repeatable; default: all)")
    parser.add_argument("--work", type=Path, help="empty directory for the outputs (default: a new temp dir)")
    args = parser.parse_args(argv)
    work = (args.work or Path(tempfile.mkdtemp(prefix="same-outputs-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        parser.error(f"{work} is not empty")
    out = work / "run"
    for side, tree in (("parent", args.parent), ("change", args.change)):
        tree = tree.resolve()
        out.mkdir()
        shutil.copytree(tree / "corpus", out / "corpus")
        runner = Side(tree, out, out if side == "parent" else work / "parent")
        for name in args.config or sorted(CONFIGS):
            runner.run(name, CONFIGS[name])
        strip_wall_clock(out)
        out.rename(work / side)
    files = sum(1 for p in (work / "change").rglob("*") if p.is_file())
    code = subprocess.run(["diff", "-r", str(work / "parent"), str(work / "change")]).returncode
    print("\n".join(class_summary(work / "parent", work / "change")))
    verdict = "identical" if code == 0 else "DIFFERENT"
    print(f"{verdict}: {files} files under {work / 'change'} against {work / 'parent'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
