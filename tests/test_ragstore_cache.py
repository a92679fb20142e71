"""The RAG store's batched ingest, stat-validated collection cache and top-k.

An ingest call reads every document first and then commits the collection
once; the rows stored are those of one ``ingest_text`` per document. A store
reads a collection again only when the stat signature of its manifest or of
a base file changed, and ``query`` selects the top k by partition. Each is
checked against an independent oracle: per-file ingests, the old per-token
embedder, a brute-force sort of the rows on disk, and a fresh store with
nothing cached.
"""

import hashlib
import json
import os
import random
import statistics
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos import ragstore
from agentos.errors import NotFoundError
from agentos.ragstore import HashingEmbedder, RagStore

from test_ragstore import persisted_rows


def files(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def hits(store: RagStore, collection: str, text: str, k: int = 5) -> list[tuple]:
    return [(h.doc_id, h.ordinal, h.score, h.text) for h in store.query(collection, text, k)]


def write_docs(folder: Path, docs: dict[str, str]) -> Path:
    for doc_id, text in docs.items():
        (folder / doc_id).parent.mkdir(parents=True, exist_ok=True)
        (folder / doc_id).write_text(text, encoding="utf-8")
    return folder


# ---------------------------------------------------------------------------
# batched ingest
# ---------------------------------------------------------------------------

WORD = st.sampled_from(["alpha", "Bravo", "charlie", "délta", "echo", "x"])
TEXT = st.lists(WORD, max_size=30).map(" ".join)
DOC_ID = st.sampled_from(["a.txt", "b.md", "sub/c.txt", "sub/d.md", "z.txt"])


# 60 examples in tier-1, where max(60, the budget) would be hypothesis's default
# of 100; half the profile's budget when larger: 1,000 under HYPOTHESIS_PROFILE=fuzz
@settings(max_examples=max(60, settings.default.max_examples // 2), deadline=None)
@given(before=st.dictionaries(DOC_ID, TEXT, max_size=4),
       batch=st.dictionaries(DOC_ID, TEXT, min_size=1, max_size=5))
def test_a_directory_ingest_writes_the_bytes_of_per_file_ingests(before, batch):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        batched = RagStore(tmp / "batched", chunk_size=4, overlap=1)
        single = RagStore(tmp / "single", chunk_size=4, overlap=1)
        for doc_id, text in before.items():
            batched.ingest_text("c", doc_id, text)
            single.ingest_text("c", doc_id, text)
        counts = batched.ingest("c", write_docs(tmp / "docs", batch))
        assert counts == {doc_id: single.ingest_text("c", doc_id, batch[doc_id])
                          for doc_id in sorted(batch)}
        assert persisted_rows(tmp / "batched" / "c") == persisted_rows(tmp / "single" / "c")
        with zipfile.ZipFile(tmp / "docs.zip", "w") as archive:
            for doc_id, text in batch.items():
                archive.writestr(doc_id, text)
        zipped = RagStore(tmp / "zipped", chunk_size=4, overlap=1)
        for doc_id, text in before.items():
            zipped.ingest_text("c", doc_id, text)
        assert zipped.ingest("c", tmp / "docs.zip") == counts
        assert persisted_rows(tmp / "zipped" / "c") == persisted_rows(tmp / "single" / "c")


def test_a_failed_batch_leaves_the_collection_unchanged(tmp_path):
    store = RagStore(tmp_path / "rag", chunk_size=4, overlap=0)
    store.ingest("c", write_docs(tmp_path / "old", {"a.txt": "alpha bravo", "b.txt": "charlie"}))
    before = files(tmp_path / "rag" / "c")
    expected = hits(store, "c", "alpha charlie")
    bad = write_docs(tmp_path / "new", {"a.txt": "changed text", "c.txt": "new doc"})
    (bad / "b.txt").write_bytes(b"caf\xe9")  # not UTF-8, and sorted between the others
    with zipfile.ZipFile(tmp_path / "bad.zip", "w") as archive:
        archive.writestr("a.txt", "changed text")
        archive.writestr("b.txt", b"caf\xe9")
    for source in (bad, tmp_path / "bad.zip"):
        with pytest.raises(UnicodeDecodeError):
            store.ingest("c", source)
        assert files(tmp_path / "rag" / "c") == before
        assert hits(store, "c", "alpha charlie") == expected
        with pytest.raises(UnicodeDecodeError):
            store.ingest("fresh", source)
        assert sorted(os.listdir(tmp_path / "rag")) == ["c"]


def test_ingest_cost_grows_linearly_with_the_files_of_one_call(tmp_path):
    rng = random.Random(5)
    words = [f"w{i}" for i in range(300)]
    texts = {f"d{i:02d}.md": " ".join(rng.choices(words, k=500)) for i in range(80)}
    sources = {n: write_docs(tmp_path / f"docs{n}", dict(list(texts.items())[:n]))
               for n in (20, 40, 80)}
    store = RagStore(tmp_path / "rag")
    growth = []  # per round, so that each ratio compares neighbouring timings
    for _ in range(16):
        cpu = {}
        for n, source in sources.items():
            start = time.process_time()
            store.ingest("c", source)
            cpu[n] = time.process_time() - start
            store.delete_collection("c")
        growth.append((cpu[40] / cpu[20], cpu[80] / cpu[40]))
    # the first round fills the embedder's slot memo
    doubling = [statistics.median(ratios) for ratios in zip(*growth[1:])]
    assert max(doubling) < 2.2, doubling


# ---------------------------------------------------------------------------
# embedder
# ---------------------------------------------------------------------------

def reference_embed(text: str, dim: int) -> np.ndarray:
    """The per-token loop the embedder had before its slot memo (a lone
    surrogate, which that loop could not encode, is encoded as surrogatepass)."""
    counts = np.zeros(dim, dtype=np.int64)
    for token in text.lower().split():
        digest = hashlib.sha256(token.encode("utf-8", "surrogatepass")).digest()
        index = int.from_bytes(digest[:4], "big") % dim
        counts[index] += 1 if (digest[4] & 1) == 0 else -1
    vector = counts.astype(np.float64)
    norm = float(np.linalg.norm(vector))
    if norm > 0.0:
        vector /= norm
    return vector


EMBEDDERS: dict[int, HashingEmbedder] = {}  # shared across examples, so memos fill
EMBED_TEXT = st.text(st.sampled_from("aAbB ςΣİ\t\n　x1") | st.characters(), max_size=80)
EMBED_DIMS = [1, 2, 3, 7, 256, 300]


# 300 examples in tier-1; the profile's budget when larger (HYPOTHESIS_PROFILE=fuzz)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(text=EMBED_TEXT, dim=st.sampled_from(EMBED_DIMS))
def test_embed_is_bit_identical_to_the_per_token_loop(text, dim):
    embedder = EMBEDDERS.setdefault(dim, HashingEmbedder(dim))
    for _ in range(2):  # the second call reads every slot from the memo
        assert embedder.embed(text).tobytes() == reference_embed(text, dim).tobytes()


def test_embed_hashes_lone_surrogates():
    # text decoded with surrogateescape, such as a command-line query holding
    # bytes that are not UTF-8, carries lone surrogates that strict UTF-8 refuses
    for text in ("\udcff", "caf\udce9 bar", "\ud800 x"):
        vector = HashingEmbedder(16).embed(text)
        assert vector.tobytes() == reference_embed(text, 16).tobytes()
        assert abs(float(np.linalg.norm(vector)) - 1.0) < 1e-12


def test_the_slot_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(ragstore, "SLOT_MEMO", 8)
    embedder = HashingEmbedder(16)
    text = " ".join(f"t{i % 23}" for i in range(200))
    assert embedder.embed(text).tobytes() == reference_embed(text, 16).tobytes()
    assert 0 < len(embedder._slots) <= 8


# 300 examples in tier-1; the profile's budget when larger (HYPOTHESIS_PROFILE=fuzz)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(texts=st.lists(EMBED_TEXT, max_size=12), dim=st.sampled_from(EMBED_DIMS))
def test_embed_many_rows_are_bit_identical_to_the_per_token_loop(texts, dim):
    expected = b"".join(reference_embed(text, dim).tobytes() for text in texts)

    def check(rows):
        assert rows.shape == (len(texts), dim) and rows.dtype == np.float64
        assert rows.tobytes() == expected

    for embedder in (HashingEmbedder(dim), EMBEDDERS.setdefault(dim, HashingEmbedder(dim))):
        for _ in range(2):  # the second call reads every slot from the memo
            check(embedder.embed_many(texts))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ragstore, "SLOT_MEMO", 8)  # a memo that clears in the middle of the batch
        check(HashingEmbedder(dim).embed_many(texts))


def test_an_ingest_embeds_its_rows_in_bounded_blocks_in_row_order(tmp_path):
    class Recording(HashingEmbedder):
        def embed_many(self, texts):
            calls.append(list(texts))
            return super().embed_many(texts)

    calls = []
    text = " ".join(f"w{i % 97}" for i in range(2 * ragstore.EMBED_BLOCK + 75))
    chunks = ragstore.chunk_text(text, "d.txt", 1, 0)
    assert len(chunks) > 2 * ragstore.EMBED_BLOCK
    RagStore(tmp_path, embedder=Recording(), chunk_size=1, overlap=0).ingest_text("c", "d.txt", text)
    assert max(map(len, calls)) == ragstore.EMBED_BLOCK
    assert [text for call in calls for text in call] == [chunk.text for chunk in chunks]
    raw = (tmp_path / "c" / "vectors.bin").read_bytes()
    assert raw[12:] == b"".join(HashingEmbedder().embed(c.text).tobytes() for c in chunks)


# ---------------------------------------------------------------------------
# meta lines
# ---------------------------------------------------------------------------

META_FIELDS = ("doc_id", "ordinal", "text", "token_start")
# every code point, lone surrogates included, and the characters JSON escapes
META_TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
                    | st.sampled_from('"\\/\x00\x1f\x7f'))
META_INT = st.integers(0, 2 ** 63)


# 300 examples in tier-1; the profile's budget when larger (HYPOTHESIS_PROFILE=fuzz)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(rows=st.lists(st.tuples(META_TEXT, META_INT, META_TEXT, META_INT), max_size=8))
def test_meta_lines_are_the_sorted_key_json_encoder_lines(rows):
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    expected = "".join(encode(dict(zip(META_FIELDS, row))) + "\n" for row in rows)
    assert ragstore._meta_bytes(rows) == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------

class CountEmbedder:
    """Small-integer vectors: every dot product is exact whatever the order of
    summation, so equal scores are equal bit for bit and ties are common."""

    dim = 3

    def embed(self, text):
        tokens = text.split()
        return np.array([tokens.count("a"), tokens.count("b") - tokens.count("c"),
                         len(tokens) % 2], dtype=np.float64)

    def embed_many(self, texts):
        return np.array([self.embed(text) for text in texts]).reshape(len(texts), self.dim)


def oracle_top(root: Path, collection: str, text: str, k: int) -> list[tuple]:
    """Every live row of the files on disk, scored and fully sorted on
    ``(-score, doc_id, ordinal)``."""
    embedder = CountEmbedder()
    probe = embedder.embed(text)
    rows = [row for _, _, row, _ in persisted_rows(root / collection)]
    scored = sorted((-float(embedder.embed(r["text"]) @ probe), r["doc_id"], r["ordinal"],
                     r["text"]) for r in rows)
    return [(doc_id, ordinal, -negated, text) for negated, doc_id, ordinal, text in scored[:k]]


TIED_TEXT = st.lists(st.sampled_from("abc"), max_size=9).map(" ".join)


# 150 examples in tier-1; the profile's budget when larger (HYPOTHESIS_PROFILE=fuzz)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(batches=st.lists(st.dictionaries(st.sampled_from(["d0.txt", "d1.txt", "d2.txt", "d3.txt"]),
                                        TIED_TEXT, min_size=1, max_size=3), min_size=1, max_size=4),
       data=st.data())
def test_query_equals_a_brute_force_sort_on_tied_scores(batches, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        store = RagStore(tmp / "rag", embedder=CountEmbedder(), chunk_size=2, overlap=0)
        for n, batch in enumerate(batches):
            if len(batch) == 1:
                store.ingest_text("c", *next(iter(batch.items())))
            else:
                store.ingest("c", write_docs(tmp / f"batch{n}", batch))
        rows = store.stats("c")["chunks"]
        fresh = RagStore(tmp / "rag", embedder=CountEmbedder(), chunk_size=2, overlap=0)
        for _ in range(3):
            text = data.draw(TIED_TEXT)
            k = data.draw(st.integers(0, rows + 2))
            expected = oracle_top(tmp / "rag", "c", text, k)
            assert hits(store, "c", text, k) == expected
            assert hits(fresh, "c", text, k) == expected


def test_rows_written_by_another_program_rank_in_store_order(tmp_path):
    # the same chunk under three doc_ids, its rows out of (doc_id, ordinal) order
    made = RagStore(tmp_path / "made", chunk_size=4, overlap=0)
    for doc_id in ("m", "z", "a"):
        made.ingest_text("c", doc_id, "same words here")
    folder = tmp_path / "foreign" / "c"
    folder.mkdir(parents=True)
    lines = (tmp_path / "made" / "c" / "meta.jsonl").read_bytes().splitlines(keepends=True)
    raw = (tmp_path / "made" / "c" / "vectors.bin").read_bytes()
    rows = [raw[12 + i * 2048:12 + (i + 1) * 2048] for i in range(3)]
    (folder / "meta.jsonl").write_bytes(b"".join(lines[i] for i in (2, 0, 1)))
    (folder / "vectors.bin").write_bytes(raw[:12] + b"".join(rows[i] for i in (2, 0, 1)))
    store = RagStore(tmp_path / "foreign", chunk_size=4, overlap=0)
    assert [h.doc_id for h in store.query("c", "same words here", k=2)] == ["a", "m"]
    store.ingest_text("c", "b", "other words")
    made.ingest_text("c", "b", "other words")
    assert persisted_rows(folder) == persisted_rows(tmp_path / "made" / "c")
    for root in (tmp_path / "foreign", tmp_path / "made"):  # read again, in store order
        assert [(h.doc_id, h.text) for h in RagStore(root).query("c", "same words here", k=4)] \
            == [("a", "same words here"), ("m", "same words here"), ("z", "same words here"),
                ("b", "other words")]


def test_a_foreign_base_is_rewritten_in_canonical_form(tmp_path):
    # meta lines out of row order, keys reordered, spaces after separators, an
    # extra key and a raw non-ASCII character: a rewritten base is canonical
    docs = {"m.txt": "mike's café menu", "z.txt": "zulu time", "a.txt": "alpha naïve words"}
    made = RagStore(tmp_path / "made", chunk_size=4, overlap=0)
    for doc_id, text in docs.items():
        made.ingest_text("c", doc_id, text)
    lines = (tmp_path / "made" / "c" / "meta.jsonl").read_bytes().splitlines()
    raw = (tmp_path / "made" / "c" / "vectors.bin").read_bytes()
    order = (2, 0, 1)
    foreign = [json.dumps({"text": record["text"], "extra": [1, "x"], "token_start":
                           record["token_start"], "ordinal": record["ordinal"],
                           "doc_id": record["doc_id"]}, ensure_ascii=False)
               for record in (json.loads(lines[i]) for i in order)]
    assert "é" in "".join(foreign) and ", " in foreign[0] and '": ' in foreign[0]
    folder = tmp_path / "foreign" / "c"
    folder.mkdir(parents=True)
    (folder / "meta.jsonl").write_text("\n".join(foreign) + "\n", encoding="utf-8")
    (folder / "vectors.bin").write_bytes(
        raw[:12] + b"".join(raw[12 + i * 2048:12 + (i + 1) * 2048] for i in order))
    store = RagStore(tmp_path / "foreign", chunk_size=4, overlap=0)
    assert {(h.doc_id, h.text) for h in store.query("c", "café naïve zulu", k=3)} \
        == set(docs.items())
    # more new rows than base rows, so the ingest rewrites the base
    docs["b.txt"] = "bravo " * 16
    store.ingest_text("c", "b.txt", docs["b.txt"])
    assert sorted(os.listdir(folder)) == ["manifest", "meta.jsonl", "vectors.bin"]
    fresh = RagStore(tmp_path / "fresh", chunk_size=4, overlap=0)
    fresh.ingest("c", write_docs(tmp_path / "docs", docs))
    for name in ("meta.jsonl", "vectors.bin"):
        assert (folder / name).read_bytes() == (tmp_path / "fresh" / "c" / name).read_bytes()
    for reader in (store, RagStore(tmp_path / "foreign")):
        found = reader.query("c", "café naïve zulu bravo", k=8)
        assert len(found) == 7
        assert {(h.doc_id, h.text) for h in found} == \
            {*list(docs.items())[:3], ("b.txt", "bravo bravo bravo bravo")}


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

def replace_from_outside(path: Path, data: bytes) -> None:
    tmp = path.with_name(".outside")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def test_an_unchanged_collection_is_not_read_again(tmp_path, monkeypatch):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie")
    opened = []
    monkeypatch.setattr(ragstore, "open",
                        lambda path, *a, **k: opened.append(path) or open(path, *a, **k),
                        raising=False)
    store.query("c", "alpha")
    store.stats("c")
    assert opened == []  # written by this store
    RagStore(tmp_path, chunk_size=4, overlap=0).ingest_text("c", "e", "delta echo")
    opened.clear()
    assert [h.doc_id for h in store.query("c", "delta", k=1)] == ["e"]
    store.query("c", "delta")
    assert sorted(map(os.path.basename, opened)) == \
        ["delta-0", "manifest", "meta.jsonl", "vectors.bin"]


def test_a_load_encodes_no_meta_line_and_a_query_decodes_none(tmp_path, monkeypatch):
    writer = RagStore(tmp_path, chunk_size=4, overlap=0)
    writer.ingest("c", write_docs(tmp_path / "docs", {
        f"{n}.txt": " ".join(f"w{n}x{i}" for i in range(10)) + " shared" for n in range(4)}))
    writer.ingest_text("c", "0.txt", "shared words again")  # and a delta segment
    assert sorted(os.listdir(tmp_path / "c")) == \
        ["delta-0", "manifest", "meta.jsonl", "vectors.bin"]
    calls = {"encode": 0, "decode": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapper

    # a meta line's strings are written by ``_quote``, the manifest by ``_meta_line``
    monkeypatch.setattr(ragstore, "_quote", counted("encode", ragstore._quote))
    monkeypatch.setattr(ragstore, "_meta_line", counted("encode", ragstore._meta_line))
    monkeypatch.setattr(ragstore.json, "loads", counted("decode", ragstore.json.loads))
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    assert store.stats("c")["chunks"] == 10
    # each stored meta line once, 12 in the base and 1 in the segment, and the manifest
    assert calls == {"encode": 0, "decode": 12 + 1 + 1}
    calls["decode"] = 0
    assert len(store.query("c", "shared words", k=6)) == 6
    assert calls == {"encode": 0, "decode": 0}
    store.ingest_text("c", "1.txt", "new words")  # and a write is counted: a segment, a manifest
    assert calls == {"encode": 2 + 1, "decode": 0}


def test_a_collection_replaced_from_outside_is_read_again(tmp_path):
    store = RagStore(tmp_path / "rag", chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie")
    store.query("c", "alpha")
    other = RagStore(tmp_path / "other", chunk_size=4, overlap=0)
    other.ingest_text("c", "d", "delta echo foxtrot")
    other.ingest_text("c", "e", "golf hotel india")
    # the base alone, under the manifest of another collection
    for name in ("meta.jsonl", "vectors.bin"):
        replace_from_outside(tmp_path / "rag" / "c" / name,
                             (tmp_path / "other" / "c" / name).read_bytes())
    with pytest.raises(NotFoundError, match="^collection does not match its manifest: c$"):
        store.query("c", "alpha")
    assert sorted(os.listdir(tmp_path / "other" / "c")) == \
        ["delta-0", "manifest", "meta.jsonl", "vectors.bin"]
    for name in os.listdir(tmp_path / "other" / "c"):  # the whole collection
        replace_from_outside(tmp_path / "rag" / "c" / name,
                             (tmp_path / "other" / "c" / name).read_bytes())
    assert hits(store, "c", "golf delta") == hits(other, "c", "golf delta")
    assert store.stats("c")["documents"] == 2


def test_a_delete_and_a_re_create_are_seen(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie")
    store.query("c", "alpha")
    other = RagStore(tmp_path, chunk_size=4, overlap=0)
    other.delete_collection("c")
    with pytest.raises(NotFoundError):
        store.query("c", "alpha")
    other.ingest_text("c", "e", "delta echo foxtrot golf hotel")
    assert [h.doc_id for h in store.query("c", "alpha")] == ["e", "e"]
    store.delete_collection("c")
    with pytest.raises(NotFoundError):
        other.stats("c")
    store.ingest_text("c", "f", "india")
    assert [h.doc_id for h in other.query("c", "india")] == ["f"]


def test_own_writes_are_seen_whatever_the_file_system_reports(tmp_path, monkeypatch):
    # a signature that never changes: only the write-through keeps reads right
    monkeypatch.setattr(ragstore, "signature", lambda st: ())
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo")
    store.query("c", "alpha")
    store.ingest_text("c", "d", "delta echo")  # same sizes
    assert [h.text for h in store.query("c", "alpha")] == ["delta echo"]
    store.delete_collection("c")
    store.ingest_text("c", "e", "golf")
    assert [h.doc_id for h in store.query("c", "golf")] == ["e"]


def test_a_malformed_collection_raises_on_every_read(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie delta echo")
    folder = tmp_path / "c"
    meta, vectors = (folder / "meta.jsonl").read_bytes(), (folder / "vectors.bin").read_bytes()
    first, second = meta.splitlines(keepends=True)
    corrupt_meta = "corrupt meta file for collection: c"
    broken = [
        ("meta.jsonl", b"not json\n", corrupt_meta),
        ("meta.jsonl", first, "collection row mismatch: c"),  # a row short
        ("meta.jsonl", meta.replace(b'"ordinal"', b'"ordinals"'), corrupt_meta),
        ("meta.jsonl", first + second.replace(b'"doc_id":"d"', b'"doc_id":7'), corrupt_meta),
        ("meta.jsonl", first + second.replace(b'"ordinal":1', b'"ordinal":true'), corrupt_meta),
        ("meta.jsonl", first + b"[1, 2, 3, 4]\n", corrupt_meta),
        ("meta.jsonl", first + b"[" * 100_000 + b"\n", corrupt_meta),
        ("meta.jsonl", first + second.replace(b"echo", b"\xe9cho"), corrupt_meta),
        ("vectors.bin", b"RV2\n" + vectors[4:], "corrupt vector file for collection: c"),
        ("vectors.bin", vectors[:-8], "corrupt vector file for collection: c"),
        ("vectors.bin", vectors[:9], "corrupt vector file for collection: c"),
    ]
    for name, data, message in broken:
        store.query("c", "alpha")  # cached
        good = (folder / name).read_bytes()
        replace_from_outside(folder / name, data)
        for _ in range(2):
            with pytest.raises(NotFoundError, match=f"^{message}$"):
                store.query("c", "alpha")
            with pytest.raises(NotFoundError, match=f"^{message}$"):
                store.stats("c")
        with pytest.raises(NotFoundError, match=f"^{message}$"):
            store.ingest_text("c", "e", "golf")  # not replaced by a one-document collection
        assert (folder / name).read_bytes() == data
        replace_from_outside(folder / name, good)


def test_a_meta_file_without_its_vector_file_is_a_corrupt_collection(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "alpha bravo charlie delta echo")
    store.query("c", "alpha")  # cached
    meta = (tmp_path / "c" / "meta.jsonl").read_bytes()
    (tmp_path / "c" / "vectors.bin").unlink()
    assert store.list_collections() == ["c"]
    for reader in (store, RagStore(tmp_path, chunk_size=4, overlap=0)):
        for call in (lambda: reader.query("c", "alpha"), lambda: reader.stats("c"),
                     lambda: reader.ingest_text("c", "e", "golf")):
            with pytest.raises(NotFoundError, match="^corrupt vector file for collection: c$"):
                call()
    # the ingests wrote nothing
    assert sorted(os.listdir(tmp_path / "c")) == ["manifest", "meta.jsonl"]
    assert (tmp_path / "c" / "meta.jsonl").read_bytes() == meta

