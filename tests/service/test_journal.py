"""Unit tests for the durable job journal and its JSONL helpers."""

import json

from repro.service.journal import JOURNAL_FILENAME, JobJournal
from repro.store import append_json_line, read_json_lines


def test_append_and_replay_round_trip(tmp_path):
    journal = JobJournal.for_job_dir(tmp_path)
    journal.append("submitted", job_id="abc", payload={"model": "toy_gemm"})
    journal.append("started", attempt=1)
    journal.append("done", rows=2)

    events = journal.replay()
    assert [event["event"] for event in events] == ["submitted", "started", "done"]
    assert events[0]["payload"] == {"model": "toy_gemm"}
    assert all("time" in event for event in events)


def test_journal_path_and_missing_file(tmp_path):
    journal = JobJournal.for_job_dir(tmp_path / "job1")
    assert journal.path == tmp_path / "job1" / JOURNAL_FILENAME
    assert journal.replay() == []


def test_replay_drops_torn_tail(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.append("submitted")
    journal.append("started")
    # Simulate a crash mid-append: the final line is half a JSON object.
    with journal.path.open("a", encoding="utf-8") as handle:
        handle.write('{"event": "done", "ro')
    events = journal.replay()
    assert [event["event"] for event in events] == ["submitted", "started"]
    # Appending after a torn tail keeps the journal usable: the torn
    # fragment has no newline, so the repaired write starts clean.
    append_json_line(journal.path, {"event": "interrupted"})
    # The torn fragment merges with the next line and both are dropped,
    # but everything before the tear stays intact.
    assert [e["event"] for e in journal.replay()][:2] == ["submitted", "started"]


def test_read_json_lines_stops_at_non_dict(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(
        json.dumps({"event": "a"}) + "\n" + json.dumps([1, 2]) + "\n"
        + json.dumps({"event": "b"}) + "\n",
        encoding="utf-8",
    )
    assert [e["event"] for e in read_json_lines(path)] == ["a"]
