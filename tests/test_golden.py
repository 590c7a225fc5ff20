"""Replay the golden CLI corpus of tests/golden/ in-process.

Each case records the exit code, the exact stdout and the first stderr
line of one verb on committed input documents; see
tests/golden/regenerate.py for how the corpus is written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from poissonkit.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN / "regenerate.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

RECORDS = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


def test_the_corpus_covers_every_verb():
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "verb")
    covered = {record["argv"][0] for record in RECORDS}
    assert covered == set(subparsers.choices)
    assert [record["argv"] for record in RECORDS] == corpus.cases()


@pytest.mark.parametrize("record", RECORDS,
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_golden_case_replays_unchanged(record):
    expected = {key: record[key] for key in ("exit", "stdout", "stderr")}
    assert corpus.run(record["argv"]) == expected


def _takes_out(verb: str) -> bool:
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "verb")
    return any("--out" in action.option_strings
               for action in subparsers.choices[verb]._actions)


OUT_RECORDS = [r for r in RECORDS if _takes_out(r["argv"][0])]


@pytest.mark.parametrize("record", OUT_RECORDS,
                         ids=[" ".join(r["argv"]) for r in OUT_RECORDS])
def test_golden_case_writes_the_same_bytes_to_out(record, tmp_path):
    path = tmp_path / "out.txt"
    result = corpus.run(record["argv"] + ["--out", str(path)])
    assert result == {"exit": record["exit"], "stdout": "",
                      "stderr": record["stderr"]}
    written = path.read_bytes().decode("utf-8") if path.exists() else ""
    assert written == record["stdout"]


def test_regeneration_refuses_to_overwrite_without_force(capsys):
    before = (GOLDEN / "expected.json").read_bytes()
    assert corpus.main([]) == 1
    assert "--force" in capsys.readouterr().err
    assert (GOLDEN / "expected.json").read_bytes() == before
