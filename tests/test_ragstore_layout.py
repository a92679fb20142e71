"""The RAG store's layout: a base, delta segments and one manifest per collection.

Every ingest ends by replacing the manifest, so a failed write leaves the old
collection or a coded error, never new text beside old vectors. An update
writes its own rows, and compaction keeps the bytes written per update in
proportion to them. After any sequence of ingests and deletes, the writing
store, a fresh store and a fresh store over a copy of the folder rank every
live row as a brute-force sort does, and a compacted base holds the bytes of
one ingest of the live documents into an empty collection.
"""

import json
import os
import random
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos import ragstore
from agentos.errors import NotFoundError
from agentos.ragstore import RagStore, chunk_text

from test_ragstore_cache import CountEmbedder, write_docs


def count_writes(monkeypatch, fail_at: int = 0) -> list[int]:
    """The bytes handed to each ``atomic_write`` from now on; the call
    numbered ``fail_at`` (from 1) raises ``OSError`` before it writes."""
    sizes = []
    write = ragstore.atomic_write

    def counted(path, data):
        sizes.append(memoryview(data).nbytes)
        if len(sizes) == fail_at:
            raise OSError(28, "No space left on device")
        return write(path, data)

    monkeypatch.setattr(ragstore, "atomic_write", counted)
    return sizes


# ---------------------------------------------------------------------------
# torn writes
# ---------------------------------------------------------------------------

DOCS = {"a.txt": "apples grow on trees", "b.txt": "boats float on water",
        "c.txt": "cars drive on roads"}
PROBES = ("boats water", "zebras grass", "apples roads", "on")


def snapshot(store: RagStore) -> tuple:
    return store.stats("c"), [[(h.doc_id, h.ordinal, h.score, h.text)
                               for h in store.query("c", probe, k=3)] for probe in PROBES]


def plain_rv1(root: Path, tmp: Path) -> None:
    RagStore(root).ingest("c", write_docs(tmp / "docs", DOCS))
    (root / "c" / "manifest").unlink()  # as another program, or an older store, wrote it


def with_a_delta(root: Path, tmp: Path) -> None:
    store = RagStore(root)
    store.ingest("c", write_docs(tmp / "docs", DOCS))
    store.ingest_text("c", "c.txt", "cars drive on long roads")


def probe(store: RagStore, tmp: Path) -> None:
    store.ingest_text("c", "b.txt", "zebras run on grass")


def re_ingest(store: RagStore, tmp: Path) -> None:  # rewrites the base: it keeps no row
    store.ingest("c", write_docs(tmp / "new", {**DOCS, "b.txt": "zebras run on grass"}))


@pytest.mark.parametrize("setup", [with_a_delta, plain_rv1])
@pytest.mark.parametrize("update", [probe, re_ingest])
def test_a_failed_write_leaves_the_old_collection_or_a_coded_error(tmp_path, monkeypatch,
                                                                  setup, update):
    setup(tmp_path / "made", tmp_path)
    old = snapshot(RagStore(tmp_path / "made"))
    with monkeypatch.context() as patch:
        calls = count_writes(patch)
        update(RagStore(tmp_path / "made"), tmp_path)
    assert calls  # every write of an ingest is one atomic_write
    outcomes = []
    for n in range(1, len(calls) + 1):
        root = tmp_path / f"failed{n}"
        setup(root, tmp_path)
        writer = RagStore(root)
        writer.query("c", "boats")  # cached before the update
        with monkeypatch.context() as patch:
            count_writes(patch, fail_at=n)
            with pytest.raises(OSError):
                update(writer, tmp_path)
        for reader in (writer, RagStore(root)):
            try:
                state = snapshot(reader)
            except NotFoundError as err:
                outcomes.append(str(err))
                continue
            outcomes.append("old")
            assert state == old  # never b.txt as "zebras ..." for "boats water"
    if update is probe:  # a delta: the old collection reads after every failure
        assert set(outcomes) == {"old"}
        writer.ingest_text("c", "b.txt", "zebras run on grass")  # the orphan goes
        segments = ["delta-0", "delta-1"] if setup is with_a_delta else ["delta-0"]
        assert sorted(os.listdir(root / "c")) == \
            [*segments, "manifest", "meta.jsonl", "vectors.bin"]
    else:
        assert set(outcomes) <= {"old", "collection does not match its manifest: c"}


# ---------------------------------------------------------------------------
# bytes written per update
# ---------------------------------------------------------------------------

VOCABULARY = [f"w{i}" for i in range(500)]


def document(rng: random.Random) -> str:
    return " ".join(rng.choices(VOCABULARY, k=400))


def collection_of(root: Path, rows: int, rng: random.Random) -> RagStore:
    """A collection of ``rows`` rows: 400-word documents of 50 rows each."""
    store = RagStore(root, chunk_size=8, overlap=0)
    docs = {f"d{i:03d}.txt": document(rng) for i in range(rows // 50)}
    store.ingest("c", write_docs(root.parent / f"docs{rows}", docs))
    assert store.stats("c")["chunks"] == rows
    return store


def row_bytes(store: RagStore, doc_id: str, text: str) -> int:
    """The bytes of a document's rows: their meta lines and their vectors."""
    chunks = chunk_text(text, doc_id, store.chunk_size, store.overlap)
    return sum(len(ragstore._meta_line(vars(c))) + 1 + 8 * store.embedder.dim for c in chunks)


def test_an_update_writes_bytes_that_do_not_grow_with_the_collection(tmp_path, monkeypatch):
    rng = random.Random(3)
    stores = {rows: collection_of(tmp_path / f"rag{rows}", rows, rng) for rows in (800, 6400)}
    new, changed = document(rng), document(rng)
    for doc_id, text in (("new.txt", new), ("d007.txt", changed)):  # added, then re-indexed
        written = {}
        for rows, store in stores.items():
            with monkeypatch.context() as patch:
                sizes = count_writes(patch)
                store.ingest_text("c", doc_id, text)
            written[rows] = sum(sizes)
        assert written[6400] <= 1.1 * written[800], written
        assert written[800] <= 1.1 * row_bytes(stores[800], doc_id, text), written


def test_updates_write_a_constant_times_their_own_rows(tmp_path, monkeypatch):
    rng = random.Random(4)
    store = collection_of(tmp_path / "rag", 800, rng)
    own = 0
    sizes = count_writes(monkeypatch)
    for _ in range(200):
        doc_id, text = f"d{rng.randrange(16):03d}.txt", document(rng)
        own += row_bytes(store, doc_id, text)
        store.ingest_text("c", doc_id, text)
    assert sum(sizes) <= 3 * own, (sum(sizes), own)
    segments = [name for name in os.listdir(tmp_path / "rag" / "c") if name.startswith("delta-")]
    assert RagStore(tmp_path / "rag").stats("c")["chunks"] == 800 and len(segments) <= 16


# ---------------------------------------------------------------------------
# coded errors
# ---------------------------------------------------------------------------

def test_a_collection_that_does_not_match_its_manifest_raises_on_every_read(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie delta echo")
    store.ingest_text("c", "e", "golf hotel")
    folder = tmp_path / "c"
    manifest, segment = (folder / "manifest").read_bytes(), (folder / "delta-0").read_bytes()
    mismatch = "collection does not match its manifest: c"
    corrupt = "corrupt manifest for collection: c"
    broken = [
        ("manifest", b"RM2\n" + manifest[4:], corrupt),
        ("manifest", manifest[:-3], corrupt),
        ("manifest", b"RM1\n[]", corrupt),
        ("manifest", manifest.replace(b'"next":1', b'"next":true'), corrupt),
        ("manifest", manifest.replace(b'["e"]', b'[7]'), corrupt),
        ("manifest", manifest.replace(b'"deltas":[[0,', b'"deltas":[[1,'), mismatch),
        ("manifest", manifest.replace(b'"meta_crc":', b'"meta_crc":1'), mismatch),
        ("meta.jsonl", (folder / "meta.jsonl").read_bytes().replace(b"alpha", b"zulus"), mismatch),
        ("delta-0", segment.replace(b"golf", b"gulf"), mismatch),
        ("delta-0", segment[:-1], mismatch),
    ]
    for name, data, message in broken:
        store.query("c", "alpha")  # cached
        good = (folder / name).read_bytes()
        assert data != good
        tmp = folder / ".outside"
        tmp.write_bytes(data)
        os.replace(tmp, folder / name)
        fresh = RagStore(tmp_path, chunk_size=4, overlap=0)
        # segments are immutable: a cached collection is checked by its manifest and base
        for reader in (fresh,) if name.startswith("delta-") else (store, fresh):
            for call in (lambda: reader.query("c", "alpha"), lambda: reader.stats("c"),
                         lambda: reader.ingest_text("c", "f", "india")):
                with pytest.raises(NotFoundError, match=f"^{message}$"):
                    call()
        assert (folder / name).read_bytes() == data  # the ingests wrote nothing
        tmp.write_bytes(good)
        os.replace(tmp, folder / name)
    (folder / "delta-0").unlink()
    with pytest.raises(NotFoundError, match=f"^{mismatch}$"):
        RagStore(tmp_path).stats("c")


@pytest.mark.parametrize("damage", [lambda segment: segment + b"not a meta line\n",
                                    lambda segment: segment[:segment.rindex(b"\n", 0, -1) + 1]],
                         ids=["malformed-meta-line", "one-row-short"])
def test_a_segment_whose_crc_matches_but_whose_rows_do_not_is_a_mismatch(tmp_path, damage):
    # the manifest lists the damaged segment's crc, so only its rows can tell
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie delta echo foxtrot golf hotel")
    store.ingest_text("c", "e", "india juliet kilo lima mike")
    folder = tmp_path / "c"
    segment = damage((folder / "delta-0").read_bytes())
    manifest = json.loads((folder / "manifest").read_bytes()[4:])
    assert [(n, doc_ids) for n, _, doc_ids in manifest["deltas"]] == [(0, ["e"])]
    manifest["deltas"][0][1] = zlib.crc32(segment)
    (folder / "delta-0").write_bytes(segment)
    (folder / "manifest").write_bytes(b"RM1\n" + json.dumps(manifest).encode())
    for call in (lambda reader: reader.query("c", "india"), lambda reader: reader.stats("c")):
        with pytest.raises(NotFoundError, match="^collection does not match its manifest: c$"):
            call(RagStore(tmp_path))


def test_a_manifest_that_is_a_folder_is_corrupt(tmp_path):
    store = RagStore(tmp_path)
    store.ingest_text("c", "d", "alpha bravo")
    (tmp_path / "c" / "manifest").unlink()
    (tmp_path / "c" / "manifest").mkdir()
    for reader in (store, RagStore(tmp_path)):
        with pytest.raises(NotFoundError, match="^corrupt manifest for collection: c$"):
            reader.stats("c")


def test_deleting_a_collection_removes_the_temp_files_of_killed_writes(tmp_path):
    store = RagStore(tmp_path)
    store.ingest_text("c", "d", "alpha bravo")
    (tmp_path / "c" / ".tmp-abc").write_bytes(b"half of a segment")
    store.delete_collection("c")
    assert not (tmp_path / "c").exists()
    with pytest.raises(NotFoundError, match="^no such collection: c$"):
        store.delete_collection("c")


def test_an_orphan_segment_is_ignored_and_removed_by_the_next_commit(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie delta echo")
    (tmp_path / "c" / "delta-0").write_bytes(b"left by a failed commit")
    (tmp_path / "c" / "delta-9").write_bytes(b"left by a failed compaction")
    assert RagStore(tmp_path).stats("c")["chunks"] == 2
    store.ingest_text("c", "e", "golf")
    assert sorted(os.listdir(tmp_path / "c")) == ["delta-0", "manifest", "meta.jsonl",
                                                  "vectors.bin"]
    assert [h.doc_id for h in RagStore(tmp_path).query("c", "golf", k=1)] == ["e"]
    store.delete_collection("c")
    assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# the layout against a model
# ---------------------------------------------------------------------------

DOC_ID = st.sampled_from(["a.txt", "b.md", "sub/c.txt", "z.txt"])
TEXT = st.lists(st.sampled_from("abc"), max_size=9).map(" ".join)
STEP = st.one_of(st.tuples(st.just("ingest_text"), DOC_ID, TEXT),
                 st.tuples(st.just("ingest"), st.dictionaries(DOC_ID, TEXT, min_size=1,
                                                               max_size=4)),
                 st.tuples(st.just("delete_collection")))


def brute_force(docs: dict[str, str], text: str, k: int, chunk_size: int) -> list[tuple]:
    embedder = CountEmbedder()
    rows = sorted((-float(embedder.embed(c.text) @ embedder.embed(text)), c.doc_id, c.ordinal,
                   c.text)
                  for doc_id, doc in docs.items() for c in chunk_text(doc, doc_id, chunk_size, 0))
    return [(doc_id, ordinal, -negated, chunk) for negated, doc_id, ordinal, chunk in rows[:k]]


# 40 examples in tier-1; the profile's budget when larger (HYPOTHESIS_PROFILE=fuzz)
@settings(max_examples=max(40, settings.default.max_examples // 4), deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=14), chunk_size=st.integers(1, 3),
       data=st.data())
def test_every_reader_ranks_the_live_rows_as_a_brute_force_sort(steps, chunk_size, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        make = lambda root: RagStore(root, embedder=CountEmbedder(), chunk_size=chunk_size,
                                     overlap=0)
        (tmp / "rag").mkdir()
        writer, docs = make(tmp / "rag"), None  # docs: doc_id -> text, None with no collection
        for n, step in enumerate(steps):
            if step[0] == "ingest_text":
                writer.ingest_text("c", step[1], step[2])
                docs = {**(docs or {}), step[1]: step[2]}
            elif step[0] == "ingest":
                writer.ingest("c", write_docs(tmp / f"docs{n}", step[1]))
                docs = {**(docs or {}), **step[1]}
            elif docs is None:
                with pytest.raises(NotFoundError):
                    writer.delete_collection("c")
            else:
                writer.delete_collection("c")
                docs = None
            shutil.copytree(tmp / "rag", tmp / f"copy{n}")  # validity is not in inode numbers
            readers = (writer, make(tmp / "rag"), make(tmp / f"copy{n}"))
            if docs is None:
                for reader in readers:
                    with pytest.raises(NotFoundError, match="^no such collection: c$"):
                        reader.stats("c")
                continue
            rows = sum(len(chunk_text(doc, "", chunk_size, 0)) for doc in docs.values())
            stats = {"chunks": rows, "dim": 3,
                     "documents": sum(1 for doc in docs.values() if doc.split())}
            text, k = data.draw(TEXT), data.draw(st.integers(0, rows + 1))
            for reader in readers:
                assert reader.stats("c") == stats
                got = reader.query("c", text, k)
                assert [(h.doc_id, h.ordinal, h.score, h.text) for h in got] == \
                    brute_force(docs, text, k, chunk_size)
            folder = tmp / "rag" / "c"
            if not json.loads((folder / "manifest").read_bytes()[4:])["deltas"]:  # compacted
                oracle = make(tmp / f"oracle{n}")
                oracle.ingest("c", write_docs(tmp / f"live{n}", docs))
                for name in ("meta.jsonl", "vectors.bin"):
                    assert (folder / name).read_bytes() == \
                        (tmp / f"oracle{n}" / "c" / name).read_bytes()
