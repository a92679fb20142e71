"""The cached collection mirrors its files: base rows, then each segment's.

A delta commit writes its own rows into free columns of the cached vectors
and copies no row it keeps, so what an update copies does not grow with the
collection. The rows a later segment replaced stay stored but never place,
also where their score ties with live rows. A meta file is corrupt exactly
where one of its lines holds no one record.
"""

import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from agentos import ragstore
from agentos.errors import NotFoundError
from agentos.ragstore import HashingEmbedder, RagStore, chunk_text

from test_ragstore_cache import write_docs
from test_ragstore_layout import collection_of, document


class Counted(np.ndarray):
    """An array that counts the elements its item assignments write."""

    written = 0

    def __setitem__(self, key, value):
        Counted.written += np.ndarray.__getitem__(self, key).size
        np.ndarray.__setitem__(self, key, value)


def test_a_delta_update_copies_its_own_rows_whatever_the_collection_size(tmp_path,
                                                                          monkeypatch):
    # every vector array the store fills (file rows, cached columns) is made by frombuffer
    frombuffer = np.frombuffer
    monkeypatch.setattr(np, "frombuffer", lambda *a, **k: frombuffer(*a, **k).view(Counted))
    rng = random.Random(5)
    stores = {rows: collection_of(tmp_path / f"rag{rows}", rows, rng) for rows in (800, 6400)}
    for seq, doc_id in enumerate(("new.txt", "d007.txt")):  # added, then re-indexed
        text, copied = document(rng), {}
        for rows, store in stores.items():
            Counted.written = 0
            store.ingest_text("c", doc_id, text)
            copied[rows] = Counted.written
            assert f"delta-{seq}" in os.listdir(tmp_path / f"rag{rows}" / "c")
        own = len(chunk_text(text, doc_id, 8, 0)) * HashingEmbedder().dim
        # the embedded rows, and their one copy into the cached columns
        assert copied[6400] == copied[800] == 2 * own, (copied, own)


def live_rows(docs: dict[str, str]) -> list[tuple]:
    return sorted((c.doc_id, c.ordinal, c.text) for doc_id, text in docs.items()
                  for c in chunk_text(text, doc_id, 4, 0))


def unrelated_word(docs: dict[str, str]) -> str:
    """A word whose embedding shares no dimension with any token of ``docs``."""
    embedder = HashingEmbedder()
    used = {int(np.flatnonzero(embedder.embed(token))[0])
            for text in docs.values() for token in text.split()}
    return next(word for word in (f"zz{i}" for i in range(1000))
                if int(np.flatnonzero(embedder.embed(word))[0]) not in used)


def test_a_replaced_row_never_places(tmp_path):
    docs = {"a.txt": "alpha bravo charlie delta echo foxtrot golf hotel",
            "b.txt": "india juliet kilo lima mike november oscar papa",
            "c.txt": "quebec romeo sierra tango uniform victor whiskey xray",
            "d.txt": "yankee zulu amber basalt cobalt dune ember fjord"}
    writer = RagStore(tmp_path / "rag", chunk_size=4, overlap=0)
    writer.ingest("c", write_docs(tmp_path / "docs", docs))
    docs["a.txt"] = "alpha india"  # a delta: the first two stored rows die
    writer.ingest_text("c", "a.txt", docs["a.txt"])
    assert sorted(os.listdir(tmp_path / "rag" / "c")) == \
        ["delta-0", "manifest", "meta.jsonl", "vectors.bin"]
    live = live_rows(docs)
    nothing = unrelated_word(docs)
    for store in (writer, RagStore(tmp_path / "rag", chunk_size=4, overlap=0)):
        for k in (len(live), len(live) + 1, 100):  # k at or above the live rows
            for probe in ("alpha hotel india", nothing):
                hits = store.query("c", probe, k)
                assert sorted((h.doc_id, h.ordinal, h.text) for h in hits) == live
        # every score is 0.0, the dead rows' too, and they would come first
        hits = store.query("c", nothing, 3)
        assert [(h.doc_id, h.ordinal, h.text, h.score) for h in hits] == \
            [(*row, 0.0) for row in live[:3]]
        assert store.stats("c") == {"chunks": len(live), "documents": 4, "dim": 256}


def per_line_is_corrupt(data: bytes) -> bool:
    """The reading of a meta file one line at a time: each non-blank line one
    JSON object with the four fields and their types."""
    try:
        for line in data.decode("utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                if type(record) is not dict or {f: type(record.get(f)) for f in ragstore._META} \
                        != ragstore._META:
                    return True
    except (ValueError, RecursionError):
        return True
    return False


def mistyped(line: bytes) -> bytes:
    """``line``'s record with the four fields in order, token_start a string."""
    return json.dumps({**json.loads(line), "token_start": "x"}, separators=(",", ":")).encode()


DAMAGES = {
    "two records on one line": lambda one, two: one.rstrip(b"\n") + two,
    "two records on one line, with a comma": lambda one, two: one.rstrip(b"\n") + b"," + two,
    "a line that holds only a comma": lambda one, two: one + b",\n" + two,
    "a record with a trailing comma": lambda one, two: one.rstrip(b"\n") + b",\n" + two,
    "a string that runs into the next line": lambda one, two: one[:30] + b"\n" + one[30:] + two,
    "a line cut short": lambda one, two: one[:-5] + b"\n" + two,
    # a record that spans two lines, and a line with two records, make as many records as lines
    "a record split at a comma, beside two records on one line":
        lambda one, two: one.replace(b",", b"\n", 1) + two.rstrip(b"\n") + b"," + two,
    "a record split in an array under a repeated field, beside two records on one line":
        lambda one, two: b'{"doc_id":[{}\n{}],' + one[1:] + two.rstrip(b"\n") + b"," + two,
    "two records on one line, beside a record with a mistyped field":
        lambda one, two: one.rstrip(b"\n") + b"," + two + mistyped(two),
    "blank lines and CRLF": lambda one, two: b"\r\n \n" + one.replace(b"\n", b"\r\n") + two,
    "fields in another order, and one more":
        lambda one, two: json.dumps({"x": [{}], **json.loads(one)}).encode() + b"\n" + two,
}
ACCEPTED = ("blank lines and CRLF", "fields in another order, and one more")


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_meta_file_is_corrupt_where_a_line_holds_no_one_record(tmp_path, damage):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie delta echo")
    meta = tmp_path / "c" / "meta.jsonl"
    one, two = meta.read_bytes().splitlines(keepends=True)
    data = DAMAGES[damage](one, two)
    assert per_line_is_corrupt(data) == (damage not in ACCEPTED)
    meta.write_bytes(data)
    (tmp_path / "c" / "manifest").unlink()  # read as plain RV1: no crc to catch it first
    fresh = RagStore(tmp_path, chunk_size=4, overlap=0)
    if per_line_is_corrupt(data):
        with pytest.raises(NotFoundError, match="^corrupt meta file for collection: c$"):
            fresh.stats("c")
    else:
        assert fresh.stats("c")["chunks"] == 2
