"""RAG store: chunk windows, hash embeddings, persistence, ranking, answering.

The retrieval assertions compare against independent oracles: chunk windows
against direct token-slice arithmetic, rankings against a brute-force cosine
pass over the raw files, read without the store.
"""

import hashlib
import json
import random
import struct
import zipfile

import numpy as np
import pytest

from agentos.backends import ScriptedBackend
from agentos.engine import Engine
from agentos.errors import EmptyInputError, InvalidDefinitionError, NotFoundError
from agentos.ragstore import (
    VECTOR_MAGIC,
    Chunk,
    HashingEmbedder,
    RagStore,
    chunk_text,
)

WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
         "hotel", "india", "juliet", "kilo", "lima", "mike", "november")


def lorem(rng: random.Random, n_tokens: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n_tokens))


def persisted_rows(folder) -> list[tuple]:
    """Every live row of the collection in ``folder``, read from its files
    without the store (docs/formats.md): the base, then each delta segment
    the manifest lists, in order, replacing the rows of its doc_ids. Each row
    is (doc_id, ordinal, meta record, vector bytes), sorted by (doc_id, ordinal)."""
    def rows(meta: bytes, vectors: bytes) -> list[tuple]:
        dim, count = struct.unpack_from("<II", vectors, 4)
        records = [json.loads(line) for line in meta.splitlines() if line.strip()]
        assert len(records) == count
        return [(r["doc_id"], r["ordinal"], r, vectors[12 + 8 * dim * i:12 + 8 * dim * (i + 1)])
                for i, r in enumerate(records)]

    live = rows((folder / "meta.jsonl").read_bytes(), (folder / "vectors.bin").read_bytes())
    if (folder / "manifest").exists():
        manifest = (folder / "manifest").read_bytes()
        assert manifest[:4] == b"RM1\n"
        for seq, _, doc_ids in json.loads(manifest[4:])["deltas"]:
            segment = (folder / f"delta-{seq}").read_bytes()
            dim, count = struct.unpack_from("<II", segment, 4)
            live = [row for row in live if row[0] not in doc_ids] + \
                rows(segment[12 + 8 * dim * count:], segment)
    return sorted(live, key=lambda row: row[:2])


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

def oracle_windows(tokens, chunk_size, overlap):
    """Expected windows computed directly from slice arithmetic."""
    step = chunk_size - overlap
    out = []
    start = 0
    while start < len(tokens):
        out.append((start, tokens[start:start + chunk_size]))
        if start + chunk_size >= len(tokens):
            break
        start += step
    return out


@pytest.mark.parametrize("n_tokens,chunk,overlap", [
    (0, 64, 16), (1, 64, 16), (63, 64, 16), (64, 64, 16), (65, 64, 16),
    (200, 64, 16), (200, 10, 0), (200, 10, 9), (7, 3, 1),
])
def test_chunk_windows_match_oracle(n_tokens, chunk, overlap):
    rng = random.Random(n_tokens * 1000 + chunk)
    text = lorem(rng, n_tokens)
    tokens = text.split()
    chunks = chunk_text(text, "d", chunk_size=chunk, overlap=overlap)
    expected = oracle_windows(tokens, chunk, overlap)
    assert len(chunks) == len(expected)
    for got, (start, window) in zip(chunks, expected):
        assert got.token_start == start
        assert got.text == " ".join(window)
    assert [c.ordinal for c in chunks] == list(range(len(chunks)))


def test_chunk_reconstruction():
    rng = random.Random(7)
    text = lorem(rng, 500)
    tokens = text.split()
    for chunk in chunk_text(text, "d"):
        span = tokens[chunk.token_start:chunk.token_start + 64]
        assert chunk.text == " ".join(span)


def test_chunk_collapses_whitespace():
    chunks = chunk_text("  a\t\tb\n\nc  ", "d", chunk_size=2, overlap=0)
    assert [c.text for c in chunks] == ["a b", "c"]


def test_chunk_parameter_validation():
    with pytest.raises(ValueError):
        chunk_text("x", chunk_size=0)
    with pytest.raises(ValueError):
        chunk_text("x", chunk_size=4, overlap=4)
    with pytest.raises(ValueError):
        chunk_text("x", chunk_size=4, overlap=-1)


# ---------------------------------------------------------------------------
# embedder
# ---------------------------------------------------------------------------

def test_embedder_is_deterministic_and_normalized():
    embedder = HashingEmbedder()
    a = embedder.embed("The Quick Fox jumps")
    b = embedder.embed("the quick fox JUMPS")  # case-insensitive
    assert a.tobytes() == b.tobytes()
    assert a.dtype == np.float64 and a.shape == (256,)
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-12
    assert embedder.embed("").tobytes() == np.zeros(256).tobytes()


def test_embedder_token_placement():
    embedder = HashingEmbedder(dim=32)
    digest = hashlib.sha256(b"solstice").digest()
    index = int.from_bytes(digest[:4], "big") % 32
    sign = 1 if (digest[4] & 1) == 0 else -1
    vector = embedder.embed("solstice")
    assert vector[index] == pytest.approx(float(sign))
    assert np.count_nonzero(vector) == 1


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_binary_layout(tmp_path):
    store = RagStore(tmp_path, embedder=HashingEmbedder(dim=8),
                     chunk_size=4, overlap=0)
    store.ingest_text("col", "doc_a", "one two three four five")
    raw = (tmp_path / "col" / "vectors.bin").read_bytes()
    assert raw[:4] == VECTOR_MAGIC
    dim, count = struct.unpack_from("<II", raw, 4)
    assert (dim, count) == (8, 2)
    assert len(raw) == 12 + 8 * count * dim
    meta = (tmp_path / "col" / "meta.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in meta.splitlines()]
    assert [r["ordinal"] for r in rows] == [0, 1]
    assert rows[0]["text"] == "one two three four"


def test_row_order_and_idempotence(tmp_path):
    def build(order):
        store = RagStore(tmp_path / order, chunk_size=4, overlap=0)
        docs = [("zeta", "z tokens here now"), ("alpha", "a tokens here now")]
        if order == "reversed":
            docs.reverse()
        for doc_id, text in docs:
            store.ingest_text("c", doc_id, text)
        # the rows as stored, and as a fresh store ranks them (ties in store order)
        return (persisted_rows(tmp_path / order / "c"),
                RagStore(tmp_path / order).query("c", "tokens here now", k=3))

    assert build("forward") == build("reversed")

    store = RagStore(tmp_path / "again", chunk_size=4, overlap=0)
    store.ingest_text("c", "doc", "same content twice")
    first = (tmp_path / "again" / "c" / "meta.jsonl").read_bytes()
    store.ingest_text("c", "doc", "same content twice")
    assert (tmp_path / "again" / "c" / "meta.jsonl").read_bytes() == first
    assert store.stats("c") == {"chunks": 1, "documents": 1, "dim": 256}


def test_reingest_replaces_document(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "doc", "old old old old old old old old")
    assert store.stats("c")["chunks"] == 2
    store.ingest_text("c", "doc", "new text")
    assert store.stats("c")["chunks"] == 1
    hits = store.query("c", "new text", k=1)
    assert hits[0].text == "new text"


def test_ingest_directory_zip_and_file(tmp_path):
    src = tmp_path / "docs"
    (src / "sub").mkdir(parents=True)
    (src / "a.txt").write_text("alpha text here", encoding="utf-8")
    (src / "sub" / "b.md").write_text("bravo text here", encoding="utf-8")
    (src / "ignored.bin").write_text("skip", encoding="utf-8")

    store = RagStore(tmp_path / "store1")
    counts = store.ingest("c", src)
    assert counts == {"a.txt": 1, "sub/b.md": 1}

    zpath = tmp_path / "bundle.zip"
    with zipfile.ZipFile(zpath, "w") as archive:
        archive.writestr("x/a.txt", "alpha text here")
        archive.writestr("notes.md", "bravo text here")
        archive.writestr("skip.dat", "binary")
    store2 = RagStore(tmp_path / "store2")
    assert store2.ingest("c", zpath) == {"notes.md": 1, "x/a.txt": 1}

    store3 = RagStore(tmp_path / "store3")
    assert store3.ingest("c", src / "a.txt") == {"a.txt": 1}


def test_ingest_rejections(tmp_path):
    store = RagStore(tmp_path / "s")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptyInputError):
        store.ingest("c", empty)
    with pytest.raises(NotFoundError):
        store.ingest("c", tmp_path / "missing.txt")
    bad = tmp_path / "data.csv"
    bad.write_text("a,b", encoding="utf-8")
    with pytest.raises(EmptyInputError):
        store.ingest("c", bad)
    with pytest.raises(NotFoundError):
        store.query("ghost", "q")
    with pytest.raises(ValueError):
        store.ingest_text("../evil", "d", "text")


def test_argument_checks_touch_no_file(tmp_path):
    with pytest.raises(ValueError, match="dim must be positive"):
        HashingEmbedder(0)
    store = RagStore(tmp_path / "absent")
    assert store.list_collections() == []
    with pytest.raises(ValueError, match="doc_id must be nonempty"):
        store.ingest_text("c", "", "text")
    assert not (tmp_path / "absent").exists()


def test_a_zip_without_documents_is_empty(tmp_path):
    zpath = tmp_path / "bundle.zip"
    with zipfile.ZipFile(zpath, "w") as archive:
        archive.writestr("docs/", "")
        archive.writestr("docs/skip.dat", "binary")
    with pytest.raises(EmptyInputError, match=r"^no \.txt/\.md members in "):
        RagStore(tmp_path / "s").ingest("c", zpath)
    assert not (tmp_path / "s").exists()


def test_collection_names_follow_the_entry_name_rule(tmp_path):
    store = RagStore(tmp_path / "rag")
    for name in ("", ".x", "../evil", "a/b", "a\\b", " padded", "padded ", "nul\x00byte"):
        with pytest.raises(InvalidDefinitionError, match="unusable collection name"):
            store.ingest_text(name, "d", "text")
        with pytest.raises(ValueError):
            store.query(name, "q")
    assert not (tmp_path / "rag").exists()
    assert store.ingest_text("in between", "d", "text") == 1


def test_a_collection_name_the_file_system_cannot_encode_is_unusable(tmp_path):
    store = RagStore(tmp_path / "rag")
    for call in (lambda: store.ingest_text("c\ud800", "d", "text"),
                 lambda: store.query("c\ud800", "q"),
                 lambda: store.delete_collection("c\ud800")):
        with pytest.raises(InvalidDefinitionError, match="unusable collection name"):
            call()
    assert not (tmp_path / "rag").exists()
    # bytes that are not UTF-8, decoded to U+DC80-U+DCFF, still name a folder
    assert store.ingest_text("c\udcff", "d", "text") == 1
    assert store.list_collections() == ["c\udcff"]


def test_only_folders_with_a_usable_collection_name_are_listed(tmp_path):
    store = RagStore(tmp_path)
    store.ingest_text("c", "d", "text")
    for name in (".hidden", " sp", "sp "):  # written by another program
        (tmp_path / name).mkdir()
        (tmp_path / name / "meta.jsonl").write_bytes((tmp_path / "c" / "meta.jsonl").read_bytes())
    assert store.list_collections() == ["c"]


def test_collection_management(tmp_path):
    store = RagStore(tmp_path)
    store.ingest_text("one", "d", "text here")
    store.ingest_text("two", "d", "text here")
    assert store.list_collections() == ["one", "two"]
    store.delete_collection("one")
    assert store.list_collections() == ["two"]
    with pytest.raises(NotFoundError):
        store.delete_collection("one")


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def brute_force_rank(store, tmp_root, collection, query, k):
    """Re-rank from the persisted files without going through query()."""
    rows = [row for _, _, row, _ in persisted_rows(tmp_root / collection)]
    probe = store.embedder.embed(query)
    scored = []
    for row in rows:
        vec = store.embedder.embed(row["text"])
        scored.append((-float(vec @ probe), row["doc_id"], row["ordinal"]))
    scored.sort()
    return [(doc, ordinal) for _, doc, ordinal in scored[:k]]


def test_query_matches_bruteforce_oracle(tmp_path):
    rng = random.Random(99)
    store = RagStore(tmp_path, chunk_size=8, overlap=2)
    for d in range(6):
        store.ingest_text("c", f"doc{d}", lorem(rng, rng.randint(5, 120)))
    for _ in range(25):
        query = lorem(rng, rng.randint(1, 6))
        hits = store.query("c", query, k=5)
        assert [(h.doc_id, h.ordinal) for h in hits] == \
            brute_force_rank(store, tmp_path, "c", query, 5)


def test_query_tie_break(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    # identical chunk text in two documents scores identically
    store.ingest_text("c", "zz_doc", "same words exactly")
    store.ingest_text("c", "aa_doc", "same words exactly")
    hits = store.query("c", "same words exactly", k=2)
    assert [h.doc_id for h in hits] == ["aa_doc", "zz_doc"]
    assert hits[0].score == pytest.approx(hits[1].score)


def test_query_k_bounds(tmp_path):
    store = RagStore(tmp_path, chunk_size=4, overlap=0)
    store.ingest_text("c", "d", "just four tokens here")
    assert store.query("c", "tokens", k=0) == []
    assert len(store.query("c", "tokens", k=50)) == 1


# ---------------------------------------------------------------------------
# answer loop
# ---------------------------------------------------------------------------

def _answer_store(tmp_path):
    store = RagStore(tmp_path, chunk_size=8, overlap=0)
    store.ingest_text("kb", "facts.txt",
                      "the capital of norway is oslo and it rains there")
    return store


def test_answer_first_try(tmp_path):
    store = _answer_store(tmp_path)
    prompts = []

    def scripted(request):
        prompts.append(request.messages[-1]["content"])
        return "ANSWER: Oslo"

    engine = Engine(mode="transformed", backend=ScriptedBackend([scripted]))
    answer = store.answer("kb", "capital of norway?", engine)
    assert answer.answered and answer.text == "Oslo"
    assert answer.retrievals == 1
    assert answer.queries == ["capital of norway?"]
    prompt = prompts[0]
    assert prompt.splitlines()[0] == "Answer the question from the retrieved snippets."
    assert "Question: capital of norway?" in prompt
    assert "Search query:" not in prompt  # unchanged query is not repeated
    assert any(line.startswith("- [facts.txt:0]") for line in prompt.splitlines())
    assert prompt.splitlines()[-1] == \
        'Reply with "ANSWER: <answer>" or "REWRITE: <better search query>".'


def test_answer_after_rewrite(tmp_path):
    store = _answer_store(tmp_path)
    prompts = []

    def first(request):
        prompts.append(request.messages[-1]["content"])
        return "REWRITE: norway capital city"

    def second(request):
        prompts.append(request.messages[-1]["content"])
        return "ANSWER: Oslo"

    engine = Engine(mode="transformed", backend=ScriptedBackend([first, second]))
    answer = store.answer("kb", "q?", engine)
    assert answer.answered and answer.retrievals == 2
    assert answer.queries == ["q?", "norway capital city"]
    assert "Search query: norway capital city" in prompts[1]


def test_answer_budget_exhausted(tmp_path):
    store = _answer_store(tmp_path)
    engine = Engine(mode="transformed", backend=ScriptedBackend(
        ["REWRITE: a", "REWRITE: b", "REWRITE: c", "never reached"]))
    answer = store.answer("kb", "q?", engine, max_rewrites=2)
    assert not answer.answered
    assert answer.retrievals == 3  # 1 + max_rewrites, never more
    assert answer.queries == ["q?", "a", "b"]


def test_answer_bare_text_counts(tmp_path):
    store = _answer_store(tmp_path)
    engine = Engine(mode="transformed", backend=ScriptedBackend(["plainly oslo"]))
    answer = store.answer("kb", "q?", engine)
    assert answer.answered and answer.text == "plainly oslo"
