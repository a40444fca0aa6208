from __future__ import annotations

import json

import pytest

from jayfix import util
from jayfix.util import write_json


def test_write_json_layout(tmp_path):
    write_json(tmp_path / "a.json", {"b": [1, 2], "a": "é"})
    assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


@pytest.mark.parametrize("failing", ["json.dumps", "os.replace"])
def test_interrupted_write_json_keeps_the_old_file(tmp_path, monkeypatch, failing):
    path = tmp_path / "log.json"
    write_json(path, {"iteration": 1})
    before = path.read_bytes()

    def fail(*args, **kwargs):
        raise OSError("interrupted")

    module, name = failing.split(".")
    monkeypatch.setattr(getattr(util, module), name, fail)
    with pytest.raises(OSError, match="interrupted"):
        write_json(path, {"iteration": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before and json.loads(before) == {"iteration": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["log.json"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "report.json", {"value": object()})
    assert list(tmp_path.iterdir()) == []
