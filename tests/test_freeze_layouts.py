import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "freeze_layouts.py"


@pytest.fixture(scope="module")
def freeze():
    spec = importlib.util.spec_from_file_location("freeze_layouts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_matches_checked_in_file(freeze, capsys):
    assert freeze.main(["--check"]) == 0


def test_check_reports_difference_and_writes_nothing(freeze, monkeypatch, tmp_path, capsys):
    stale = tmp_path / "layouts.json"
    content = b"[]\n "
    stale.write_bytes(content)
    monkeypatch.setattr(freeze, "OUT", stale)
    monkeypatch.setattr(freeze, "derive", lambda: "[]\n")
    assert freeze.main(["--check"]) == 1
    assert stale.read_bytes() == content


def test_help_writes_nothing(freeze, monkeypatch, tmp_path, capsys):
    target = tmp_path / "layouts.json"
    monkeypatch.setattr(freeze, "OUT", target)
    with pytest.raises(SystemExit) as exit_info:
        freeze.main(["--help"])
    assert exit_info.value.code == 0
    assert not target.exists()
