import importlib.util
import json
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
    assert capsys.readouterr().err.strip().endswith("same entries, different formatting")
    assert stale.read_bytes() == content


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda e: e[1]["blocks"][0].update(role="single:3"), "region Ab: field 'blocks' differs"),
        (lambda e: e[2].update(interior=["0", "0"]), "region Ba: field 'interior' differs"),
        (lambda e: e.pop(), "18 entries checked in, 17 re-derived"),
    ],
)
def test_check_names_the_first_difference(freeze, monkeypatch, tmp_path, capsys, edit, where):
    stale = tmp_path / "layouts.json"
    stale.write_bytes(freeze.OUT.read_bytes())
    entries = json.loads(stale.read_text())
    edit(entries)
    monkeypatch.setattr(freeze, "OUT", stale)
    monkeypatch.setattr(freeze, "derive", lambda: json.dumps(entries, indent=2) + "\n")
    assert freeze.main(["--check"]) == 1
    assert capsys.readouterr().err.strip().endswith(where)


def test_interiors_are_pinned_and_new_regions_get_a_sample(
    freeze, monkeypatch, table, frozen_layouts, frozen_interiors
):
    # Aa's pinned point (-1/2, 1/4) is not its least-N sample (-3/5, 1/5).
    monkeypatch.setattr(freeze, "infer_roles", lambda spec: frozen_layouts[spec.id])
    interiors = {e["region"]: e["interior"] for e in json.loads(freeze.derive())}
    assert interiors["Aa"] == ["-1/2", "1/4"]
    monkeypatch.setattr(freeze, "load_frozen_interiors", lambda: {})
    interiors = {e["region"]: e["interior"] for e in json.loads(freeze.derive())}
    assert interiors["Aa"] == ["-3/5", "1/5"]
    assert len(interiors) == len(table) == len(frozen_interiors)


def test_help_writes_nothing(freeze, monkeypatch, tmp_path, capsys):
    target = tmp_path / "layouts.json"
    monkeypatch.setattr(freeze, "OUT", target)
    with pytest.raises(SystemExit) as exit_info:
        freeze.main(["--help"])
    assert exit_info.value.code == 0
    assert not target.exists()
