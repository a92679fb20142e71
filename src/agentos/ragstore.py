"""Vector-backed document store: chunking, embedding, retrieval, answering.

On-disk layout per collection (``<root>/<collection>/``):

* ``meta.jsonl``  — one compact JSON object per chunk, in row order:
  {"doc_id": ..., "ordinal": ..., "text": ..., "token_start": ...}
* ``vectors.bin`` — magic ``RV1\\n``, uint32 LE dim, uint32 LE count, then
  count*dim float64 LE values. Row i pairs with meta line i.

Rows are kept sorted by (doc_id, ordinal) and each file is replaced
atomically once per ingest call, so two stores built from the same documents
are byte-identical. The pair is not: a failure between the two renames leaves
new text beside old vectors, which reads as valid if the row count held. A store
keeps the collections it read or wrote and reads one again only when the
stat signature of either file changed.

The default embedder hashes whitespace tokens with sha256 into a fixed-size
signed-count vector and L2-normalizes. It is deterministic across processes
and platforms; any object with ``dim`` and ``embed(text) -> ndarray`` can
stand in for it (e.g. a network embedder).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import EmptyInputError, NotFoundError
from .storage import atomic_write, entry_path, is_entry_name, signature

VECTOR_MAGIC = b"RV1\n"
DOC_SUFFIXES = (".txt", ".md")

DEFAULT_CHUNK_SIZE = 64
DEFAULT_OVERLAP = 16
DEFAULT_TOP_K = 4
DEFAULT_MAX_REWRITES = 2
SLOT_MEMO = 1 << 15  # tokens whose embedding slot a HashingEmbedder remembers

ANSWER_MARKER = "ANSWER:"
REWRITE_MARKER = "REWRITE:"


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

@dataclass
class Chunk:
    doc_id: str
    ordinal: int
    text: str
    token_start: int


def chunk_text(text: str, doc_id: str = "", chunk_size: int = DEFAULT_CHUNK_SIZE,
               overlap: int = DEFAULT_OVERLAP) -> list[Chunk]:
    """Split into overlapping windows of whitespace tokens.

    Window i covers tokens [i*step, i*step + chunk_size) with
    step = chunk_size - overlap; the last window may be shorter. Joining a
    window with single spaces reconstructs exactly those tokens.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if not 0 <= overlap < chunk_size:
        raise ValueError("overlap must satisfy 0 <= overlap < chunk_size")
    tokens = text.split()
    # window i starts at i*step while the window before it ends short of the text
    starts = range(0, max(len(tokens) - overlap, 1), chunk_size - overlap) if tokens else ()
    return [Chunk(doc_id, ordinal, " ".join(tokens[start:start + chunk_size]), start)
            for ordinal, start in enumerate(starts)]


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

class HashingEmbedder:
    """Deterministic token-hash embedder.

    Each whitespace token is lowercased and hashed with sha256; the first 4
    digest bytes pick a dimension, bit 0 of byte 4 picks the sign. Counts
    accumulate as integers before one float64 normalize, which keeps the
    result bit-identical for identical input. A token's slot is remembered,
    for at most ``SLOT_MEMO`` tokens at a time.
    """

    def __init__(self, dim: int = 256):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._slots: dict[str, int] = {}  # token -> 2 * dimension + sign bit

    def embed(self, text: str) -> np.ndarray:
        slots = self._slots
        picked = []
        for token in text.lower().split():
            slot = slots.get(token)
            if slot is None:
                if len(slots) >= SLOT_MEMO:
                    slots.clear()
                # surrogatepass: a lone surrogate hashes too; valid text keeps its UTF-8 bytes
                digest = hashlib.sha256(token.encode("utf-8", "surrogatepass")).digest()
                slot = slots[token] = \
                    2 * (int.from_bytes(digest[:4], "big") % self.dim) + (digest[4] & 1)
            picked.append(slot)
        counts = np.bincount(np.array(picked, dtype=np.intp), minlength=2 * self.dim)
        vector = (counts[0::2] - counts[1::2]).astype(np.float64)
        norm = float(np.linalg.norm(vector))
        if norm > 0.0:
            vector /= norm
        return vector


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

@dataclass
class Hit:
    doc_id: str
    ordinal: int
    score: float
    text: str


@dataclass
class RagAnswer:
    text: str
    answered: bool
    queries: list[str] = field(default_factory=list)
    retrievals: int = 0
    hits: list[Hit] = field(default_factory=list)


class _Rows(NamedTuple):
    """A collection as last read or written, under its two files' signatures."""
    signature: tuple
    keys: list[tuple[str, int]]
    lines: list[str]
    vectors: np.ndarray


_meta_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_META = get_type_hints(Chunk)  # the fields of a meta line, and their types


def _image(count: int, dim: int) -> tuple[mmap.mmap, np.ndarray]:
    """``vectors.bin`` from offset 4 of an anonymous mapping (off the malloc
    heap, so dropping it gives the memory back), and its now aligned rows."""
    image = mmap.mmap(-1, 16 + 8 * count * dim)
    image[4:16] = VECTOR_MAGIC + struct.pack("<II", dim, count)
    return image, np.frombuffer(image, "<f8", count * dim, 16).reshape(count, dim)


class RagStore:
    def __init__(self, root: str | os.PathLike, embedder=None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 overlap: int = DEFAULT_OVERLAP):
        self.root = Path(root)  # made, like each collection folder, on the first write
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.chunk_size = chunk_size
        self.overlap = overlap
        self._cache: dict[str, _Rows] = {}  # collection -> its rows, replaced whole

    # -- storage ------------------------------------------------------------

    def _files(self, collection: str) -> tuple[str, str]:
        folder = entry_path(self.root, collection, "collection")
        return os.path.join(folder, "meta.jsonl"), os.path.join(folder, "vectors.bin")

    def _rows(self, collection: str) -> _Rows:
        """The collection, read again only when the stat signature of either
        file changed; a malformed collection raises on every read."""
        paths = self._files(collection)
        rows = self._cache.get(collection)
        try:
            if rows is not None and rows.signature == tuple(signature(os.stat(p)) for p in paths):
                return rows
            self._cache.pop(collection, None)
            with open(paths[0], encoding="utf-8") as meta, open(paths[1], "rb") as vectors:
                rows = self._read(collection, meta, vectors)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            if os.path.isfile(paths[0]):  # listed, since its meta file is there
                raise NotFoundError(f"corrupt vector file for collection: {collection}") from None
            raise NotFoundError(f"no such collection: {collection}") from None
        self._cache[collection] = rows
        return rows

    @staticmethod
    def _read(collection: str, meta, vectors) -> _Rows:
        keys, lines = [], []
        try:
            for line in filter(str.strip, meta):
                record = json.loads(line)
                if type(record) is not dict or {f: type(record.get(f)) for f in _META} != _META:
                    raise ValueError("not a chunk record")
                keys.append((record["doc_id"], record["ordinal"]))
                lines.append(_meta_line({f: record[f] for f in _META}))
        except (ValueError, RecursionError):  # not UTF-8, not JSON, not a chunk, nested too deep
            raise NotFoundError(f"corrupt meta file for collection: {collection}") from None
        st = os.fstat(vectors.fileno())
        header = vectors.read(12)
        if len(header) < 12 or header[:4] != VECTOR_MAGIC:
            raise NotFoundError(f"corrupt vector file for collection: {collection}")
        dim, count = struct.unpack_from("<II", header, 4)
        if count != len(keys):
            raise NotFoundError(f"collection row mismatch: {collection}")
        if st.st_size < 12 + 8 * count * dim:
            raise NotFoundError(f"corrupt vector file for collection: {collection}")
        image, matrix = _image(count, dim)
        vectors.readinto(memoryview(image)[16:])
        order = sorted(range(count), key=keys.__getitem__)
        if order != list(range(count)):  # not written by a store: put rows in store order
            keys, lines = [keys[i] for i in order], [lines[i] for i in order]
            matrix[:] = matrix[order]
        matrix.flags.writeable = False
        return _Rows((signature(os.fstat(meta.fileno())), signature(st)), keys, lines, matrix)

    # -- ingest ---------------------------------------------------------------

    def ingest_text(self, collection: str, doc_id: str, text: str) -> int:
        """(Re)index one document; replaces any previous chunks for doc_id."""
        if not doc_id:
            raise ValueError("doc_id must be nonempty")
        return self._ingest(collection, {doc_id: text})[doc_id]

    def _ingest(self, collection: str, docs: dict[str, str]) -> dict[str, int]:
        """Replace the chunks of each document in ``docs`` (doc_id -> text) with
        one read, merge and write of each file; what was written is cached."""
        chunks = {doc_id: chunk_text(text, doc_id, self.chunk_size, self.overlap)
                  for doc_id, text in docs.items()}
        new = [chunk for doc in chunks.values() for chunk in doc]
        try:
            old = self._rows(collection)
        except NotFoundError:
            if os.path.exists(self._files(collection)[0]):
                raise  # a malformed collection is reported, not replaced
            old = _Rows((), [], [], np.zeros((0, self.embedder.dim)))
        self._cache.pop(collection, None)  # the old rows go as soon as the new are built
        keep = [i for i, (doc_id, _) in enumerate(old.keys) if doc_id not in docs]
        keys = [old.keys[i] for i in keep] + [(c.doc_id, c.ordinal) for c in new]
        lines = [old.lines[i] for i in keep] + [_meta_line(vars(c)) for c in new]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        to = np.argsort(order)  # source row -> written row
        image, matrix = _image(len(keys), self.embedder.dim)
        matrix[to[:len(keep)]] = old.vectors[keep]
        for chunk, row in zip(new, to[len(keep):].tolist()):
            matrix[row] = self.embedder.embed(chunk.text)
        lines = [lines[i] for i in order]
        meta_path, vectors_path = self._files(collection)
        meta_st = atomic_write(meta_path, "\n".join([*lines, ""]).encode("utf-8"))
        vectors_st = atomic_write(vectors_path, memoryview(image)[4:])
        matrix.flags.writeable = False
        self._cache[collection] = _Rows((signature(meta_st), signature(vectors_st)),
                                        [keys[i] for i in order], lines, matrix)
        return {doc_id: len(doc) for doc_id, doc in chunks.items()}

    def ingest(self, collection: str, source: str | os.PathLike) -> dict[str, int]:
        """Index a .txt/.md file, a directory of them, or a zip archive.

        doc_id is the path relative to the source root (posix separators),
        or the bare file name for a single file. Returns doc_id -> chunk
        count. Re-ingesting the same source is idempotent. Every file is
        read before the collection is written once, so a file that fails
        to read or decode leaves the collection as it was.
        """
        source = Path(source)
        if source.is_dir():
            docs = {path.relative_to(source).as_posix(): path.read_bytes()
                    for path in sorted(source.rglob("*"))
                    if path.is_file() and path.suffix.lower() in DOC_SUFFIXES}
            if not docs:
                raise EmptyInputError(f"no .txt/.md files under {source}")
        elif not source.is_file():
            raise NotFoundError(f"no such file: {source}")
        elif source.suffix.lower() == ".zip":
            with zipfile.ZipFile(source) as archive:
                docs = {name: archive.read(name)
                        for name in sorted(archive.namelist())
                        if not name.endswith("/") and Path(name).suffix.lower() in DOC_SUFFIXES}
            if not docs:
                raise EmptyInputError(f"no .txt/.md members in {source}")
        elif source.suffix.lower() not in DOC_SUFFIXES:
            raise EmptyInputError(f"unsupported document type: {source.suffix}")
        else:
            docs = {source.name: source.read_bytes()}
        for doc_id, data in docs.items():  # each document's bytes go as its text comes
            try:
                docs[doc_id] = data.decode("utf-8")
            except UnicodeDecodeError as err:
                err.reason = f"{doc_id}: {err.reason}"  # which document to fix
                raise
        return self._ingest(collection, docs)

    # -- query ---------------------------------------------------------------

    def query(self, collection: str, text: str, k: int = DEFAULT_TOP_K) -> list[Hit]:
        """Cosine top-k. Ties break by (doc_id, ordinal), making the ranking
        a pure function of the stored bytes."""
        rows = self._rows(collection)
        if not rows.keys or k <= 0:
            return []
        scores = rows.vectors @ self.embedder.embed(text)
        top = np.arange(len(scores))
        if k < len(scores):  # the rows that can place, all those tied at the k-th score too
            negated = -scores
            top = np.flatnonzero(negated <= np.partition(negated, k - 1)[k - 1])
        # rows are in (doc_id, ordinal) order, so a stable sort breaks ties by it
        top = top[np.argsort(-scores[top], kind="stable")[:k]]
        return [Hit(*rows.keys[i], float(scores[i]), json.loads(rows.lines[i])["text"])
                for i in top.tolist()]

    def list_collections(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if is_entry_name(p.name) and (p / "meta.jsonl").is_file())

    def delete_collection(self, collection: str) -> None:
        paths = self._files(collection)
        self._cache.pop(collection, None)
        folder = os.path.dirname(paths[0])
        if not os.path.isdir(folder):
            raise NotFoundError(f"no such collection: {collection}")
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        with contextlib.suppress(OSError):
            os.rmdir(folder)

    def stats(self, collection: str) -> dict:
        keys = self._rows(collection).keys
        return {
            "chunks": len(keys),
            "documents": len({doc_id for doc_id, _ in keys}),
            "dim": self.embedder.dim,
        }

    # -- answering --------------------------------------------------------------

    def answer(self, collection: str, question: str, engine, model: str = "",
               k: int = DEFAULT_TOP_K,
               max_rewrites: int = DEFAULT_MAX_REWRITES) -> RagAnswer:
        """Retrieve-then-answer with bounded query rewriting.

        At most 1 + max_rewrites retrievals run. The model replies with
        "ANSWER: ..." to finish or "REWRITE: <query>" to search again; bare
        text counts as an answer. Exhausting the budget on a rewrite returns
        answered=False with the last reply.
        """
        query = question
        queries: list[str] = []
        hits: list[Hit] = []
        reply = ""
        for _ in range(1 + max_rewrites):
            queries.append(query)
            hits = self.query(collection, query, k)
            prompt = self._render_prompt(question, query, hits)
            reply = engine.complete_text(
                [{"role": "user", "content": prompt}], model=model).strip()
            if not reply.startswith(REWRITE_MARKER):
                if reply.startswith(ANSWER_MARKER):
                    reply = reply[len(ANSWER_MARKER):].strip()
                return RagAnswer(text=reply, answered=True, queries=queries,
                                 retrievals=len(queries), hits=hits)
            query = reply[len(REWRITE_MARKER):].strip() or query
        return RagAnswer(text=reply, answered=False, queries=queries,
                         retrievals=1 + max_rewrites, hits=hits)

    @staticmethod
    def _render_prompt(question: str, query: str, hits: list[Hit]) -> str:
        lines = ["Answer the question from the retrieved snippets.", "", f"Question: {question}"]
        if query != question:
            lines.append(f"Search query: {query}")
        lines += ["", "Snippets:"]
        lines += [f"- [{hit.doc_id}:{hit.ordinal}] {hit.text}" for hit in hits] or ["- (none)"]
        lines += ["", 'Reply with "ANSWER: <answer>" or "REWRITE: <better search query>".']
        return "\n".join(lines)
