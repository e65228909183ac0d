"""Corpus loading: manifest shapes, evidence formats, error paths."""

import json

import pytest

from semcomm.dataset import (Story, _statement_from_item, load_evidence,
                             load_manifest)
from semcomm.errors import StatementParseError

from conftest import DATA_DIR


def _write_corpus(root, manifest, files):
    root.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (root / name).write_text(content)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_bundled_corpus_loads():
    stories = load_manifest(DATA_DIR)
    assert [s.story_id for s in stories] == [f"story{i}" for i in range(1, 8)]
    assert all(s.observations and s.observations > 0 for s in stories)
    assert stories[0].observations == 5812
    ev, fmt = load_evidence(stories[0].evidence_path)
    assert fmt == "line"
    assert len(ev.statements) > 0
    assert stories[0].read_text().startswith(b"")


def test_manifest_dict_and_bare_list(tmp_path):
    files = {"a.txt": "hello", "a.fol": "Runs(Wren)\n"}
    entry = {"id": "a", "text": "a.txt", "evidence": "a.fol"}
    root1 = _write_corpus(tmp_path / "d1", {"stories": [entry]}, files)
    root2 = _write_corpus(tmp_path / "d2", [entry], files)
    for root in (root1, root2):
        stories = load_manifest(root)
        assert len(stories) == 1
        assert stories[0].story_id == "a"


def test_manifest_defaults_story_ids(tmp_path):
    files = {"a.txt": "x", "a.fol": "Runs(Wren)\n"}
    manifest = [{"text": "a.txt", "evidence": "a.fol"}]
    root = _write_corpus(tmp_path / "d", manifest, files)
    assert load_manifest(root)[0].story_id == "story1"


def test_manifest_missing_file(tmp_path):
    root = _write_corpus(tmp_path / "d", [{"text": "a.txt", "evidence": "a.fol"}],
                  {"a.txt": "x"})
    with pytest.raises(FileNotFoundError):
        load_manifest(root)


def test_manifest_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path)


def test_manifest_zero_stories(tmp_path):
    root = tmp_path / "d"
    root.mkdir()
    (root / "manifest.json").write_text("[]")
    with pytest.raises(ValueError):
        load_manifest(root)


def test_manifest_bad_observations(tmp_path):
    # only a JSON integer of at least 1 is a volume: no truncation, no bools
    for i, obs in enumerate([0, -3, 2.7, True, float("inf"), "3", [4]]):
        root = _write_corpus(tmp_path / f"d{i}", [{"id": "tale", "text": "a.txt",
                                                   "evidence": "a.fol",
                                                   "observations": obs}],
                             {"a.txt": "x", "a.fol": "Runs(Wren)\n"})
        with pytest.raises(ValueError, match="manifest entry tale"):
            load_manifest(root)


def test_load_evidence_line_format(tmp_path):
    p = tmp_path / "e.fol"
    p.write_text("Runs(Wren)\n!Runs(Coot)\nServes(Wren, Holm)\n")
    ev, fmt = load_evidence(p)
    assert fmt == "line"
    assert len(ev.statements) == 3


def test_load_evidence_json_list(tmp_path):
    p = tmp_path / "e.json"
    payload = [
        "Runs(Wren)",
        {"predicate": "Runs", "subject": "Coot", "positive": False},
        ["Serves", "Wren", "Holm"],
        ["Runs", "Grebe", None, False][:2] + [None, False],
    ]
    p.write_text(json.dumps(payload))
    ev, fmt = load_evidence(p)
    assert fmt == "json-triples"
    assert len(ev.statements) == 4
    text = ev.normalized_text()
    assert "!Runs(Coot)" in text
    assert "Serves(Wren, Holm)" in text
    assert "!Runs(Grebe)" in text


def test_load_evidence_json_wrapped(tmp_path):
    p = tmp_path / "e.json"
    p.write_text(json.dumps({"triples": ["Runs(Wren)"]}))
    ev, fmt = load_evidence(p)
    assert fmt == "json-triples"
    assert len(ev.statements) == 1


def test_load_evidence_json_not_a_list(tmp_path):
    p = tmp_path / "e.json"
    p.write_text(json.dumps({"nothing": 1}))
    with pytest.raises(StatementParseError):
        load_evidence(p)


def test_statement_item_forms():
    assert _statement_from_item("Runs(Wren)") == "Runs(Wren)"
    assert _statement_from_item(["Runs", "Wren"]) == "Runs(Wren)"
    assert _statement_from_item(["Serves", "Wren", "Holm"]) == "Serves(Wren, Holm)"
    assert _statement_from_item(["Runs", "Coot", None, False]) == "!Runs(Coot)"
    assert _statement_from_item(
        {"predicate": "Serves", "subject": "Wren", "object": "Holm"}
    ) == "Serves(Wren, Holm)"
    assert _statement_from_item(
        {"predicate": "Runs", "subject": "Coot", "positive": False}
    ) == "!Runs(Coot)"


@pytest.mark.parametrize("item", [
    42,
    ["Runs"],
    ["Runs", "Wren", "Holm", True, "extra"],
    {"predicate": "Runs"},
    ["Runs", 7],
    ["Serves", "Wren", 3],
])
def test_statement_item_rejects(item):
    with pytest.raises(StatementParseError):
        _statement_from_item(item)


@pytest.mark.parametrize("polarity", ["false", 0, 1, None])
@pytest.mark.parametrize("form", ["dict", "list"])
def test_triple_polarity_must_be_json_bool(tmp_path, polarity, form):
    # by truthiness "false" would be stored as the positive Runs(Coot)
    item = ({"predicate": "Runs", "subject": "Coot", "positive": polarity}
            if form == "dict" else ["Runs", "Coot", None, polarity])
    p = tmp_path / "e.json"
    p.write_text(json.dumps([item]))
    with pytest.raises(StatementParseError, match="polarity"):
        load_evidence(p)


def test_story_paths_are_paths():
    stories = load_manifest(DATA_DIR)
    s = stories[0]
    assert isinstance(s, Story)
    assert s.text_path.is_file() and s.evidence_path.is_file()


# malformed shapes: a bare string entry, no "stories" list, an entry that
# names no text file, a count that is no number, an id used twice (also
# when one is the default id of its position), and an id that is no plain
# file name, which would put the story's output files outside --out, or
# no JSON string at all
@pytest.mark.parametrize("manifest, names", [
    ({"stories": ["x"]}, "entry 1"),
    ({"items": []}, '"stories"'),
    ([{"id": "a", "evidence": "a.fol"}], "entry a"),
    ([{"id": "a", "text": "a.txt", "evidence": "a.fol",
       "observations": [40]}], "entry a"),
    ([{"id": "a", "text": "a.txt", "evidence": "a.fol"}] * 2,
     "'a' is repeated"),
    ([{"text": "a.txt", "evidence": "a.fol"},
      {"id": "story1", "text": "a.txt", "evidence": "a.fol"}],
     "'story1' is repeated"),
    *(([{"id": story_id, "text": "a.txt", "evidence": "a.fol"}],
       "is not a plain file name")
      for story_id in ("", ".", "..", "../leak", "a/b", "a\\b", "a\0b",
                       ["a"], None, 7)),
])
def test_manifest_malformed_is_value_error(tmp_path, manifest, names):
    root = _write_corpus(tmp_path / "d", manifest,
                         {"a.txt": "x", "a.fol": "Runs(Wren)\n"})
    with pytest.raises(ValueError, match=names):
        load_manifest(root)


def test_load_evidence_bad_json_names_its_place(tmp_path):
    p = tmp_path / "e.json"
    p.write_text('["Runs(Wren)",\n {not json')
    with pytest.raises(StatementParseError, match="not JSON") as info:
        load_evidence(p)
    assert (info.value.line, info.value.column) == (2, 3)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("suffix", [".fol", ".json"])
def test_load_evidence_not_utf8_names_its_place(tmp_path, suffix):
    # the bad byte follows a two-byte character, so the column counts
    # characters rather than bytes
    p = tmp_path / f"e{suffix}"
    p.write_bytes(b"Runs(Wren)\nIdles(Co\xc3\xa9\xff)\n")
    with pytest.raises(StatementParseError, match="not UTF-8") as info:
        load_evidence(p)
    assert (info.value.line, info.value.column) == (2, 10)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


_DEEP = "[" * 10 ** 5 + "]" * 10 ** 5


def test_deeply_nested_manifest_is_value_error(tmp_path):
    (tmp_path / "manifest.json").write_text(_DEEP)
    with pytest.raises(ValueError, match="nested too deeply") as info:
        load_manifest(tmp_path)
    assert isinstance(info.value.__cause__, RecursionError)


def test_deeply_nested_json_evidence_is_parse_error(tmp_path):
    p = tmp_path / "e.json"
    p.write_text(_DEEP)
    with pytest.raises(StatementParseError, match="nested too deeply") as info:
        load_evidence(p)
    assert isinstance(info.value.__cause__, RecursionError)
