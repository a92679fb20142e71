"""Vector-backed document store: chunking, embedding, retrieval, answering.

On-disk layout per collection (``<root>/<collection>/``):

* ``meta.jsonl``  — one compact JSON object per chunk, in row order:
  {"doc_id": ..., "ordinal": ..., "text": ..., "token_start": ...}
* ``vectors.bin`` — magic ``RV1\\n``, uint32 LE dim, uint32 LE count, then
  count*dim float64 LE values. Row i pairs with meta line i.

Rows are kept sorted by (doc_id, ordinal) and both files are rewritten
atomically on every mutation, so a collection is always self-consistent and
two stores built from the same documents are byte-identical.

The default embedder hashes whitespace tokens with sha256 into a fixed-size
signed-count vector and L2-normalizes. It is deterministic across processes
and platforms; any object with ``dim`` and ``embed(text) -> ndarray`` can
stand in for it (e.g. a network embedder).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, NotFoundError
from .storage import atomic_write, entry_path

VECTOR_MAGIC = b"RV1\n"
DOC_SUFFIXES = (".txt", ".md")

DEFAULT_CHUNK_SIZE = 64
DEFAULT_OVERLAP = 16
DEFAULT_TOP_K = 4
DEFAULT_MAX_REWRITES = 2

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
    if not tokens:
        return []
    step = chunk_size - overlap
    chunks = []
    start = 0
    ordinal = 0
    while start < len(tokens):
        window = tokens[start:start + chunk_size]
        chunks.append(Chunk(doc_id=doc_id, ordinal=ordinal,
                            text=" ".join(window), token_start=start))
        if start + chunk_size >= len(tokens):
            break
        start += step
        ordinal += 1
    return chunks


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

class HashingEmbedder:
    """Deterministic token-hash embedder.

    Each whitespace token is lowercased and hashed with sha256; the first 4
    digest bytes pick a dimension, bit 0 of byte 4 picks the sign. Counts
    accumulate as integers before one float64 normalize, which keeps the
    result bit-identical for identical input.
    """

    def __init__(self, dim: int = 256):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        counts = np.zeros(self.dim, dtype=np.int64)
        for token in text.lower().split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            index = int.from_bytes(digest[:4], "big") % self.dim
            counts[index] += 1 if (digest[4] & 1) == 0 else -1
        vector = counts.astype(np.float64)
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


class RagStore:
    def __init__(self, root: str | os.PathLike, embedder=None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 overlap: int = DEFAULT_OVERLAP):
        self.root = Path(root)  # made, like each collection folder, on the first write
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.chunk_size = chunk_size
        self.overlap = overlap

    # -- storage ------------------------------------------------------------

    def _dir(self, collection: str) -> Path:
        return Path(entry_path(self.root, collection, "collection"))

    def _load(self, collection: str) -> tuple[list[Chunk], np.ndarray]:
        folder = self._dir(collection)
        meta_path = folder / "meta.jsonl"
        vec_path = folder / "vectors.bin"
        if not meta_path.is_file() or not vec_path.is_file():
            raise NotFoundError(f"no such collection: {collection}")
        chunks = []
        with meta_path.open(encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                chunks.append(Chunk(record["doc_id"], record["ordinal"],
                                    record["text"], record["token_start"]))
        raw = vec_path.read_bytes()
        if raw[:4] != VECTOR_MAGIC:
            raise NotFoundError(f"corrupt vector file for collection: {collection}")
        dim, count = struct.unpack_from("<II", raw, 4)
        vectors = np.frombuffer(raw, dtype="<f8", offset=12, count=dim * count)
        vectors = vectors.reshape(count, dim).astype(np.float64, copy=True)
        if count != len(chunks):
            raise NotFoundError(f"collection row mismatch: {collection}")
        return chunks, vectors

    def _save(self, collection: str, chunks: list[Chunk], vectors: np.ndarray) -> None:
        folder = self._dir(collection)
        order = sorted(range(len(chunks)),
                       key=lambda i: (chunks[i].doc_id, chunks[i].ordinal))
        chunks = [chunks[i] for i in order]
        vectors = vectors[order] if len(order) else vectors

        meta_lines = []
        for chunk in chunks:
            meta_lines.append(json.dumps(
                {"doc_id": chunk.doc_id, "ordinal": chunk.ordinal,
                 "text": chunk.text, "token_start": chunk.token_start},
                sort_keys=True, separators=(",", ":")))
        meta_data = ("\n".join(meta_lines) + "\n") if meta_lines else ""

        dim = self.embedder.dim
        header = VECTOR_MAGIC + struct.pack("<II", dim, len(chunks))
        body = np.ascontiguousarray(vectors, dtype="<f8").tobytes() if len(chunks) else b""

        atomic_write(folder / "meta.jsonl", meta_data.encode("utf-8"))
        atomic_write(folder / "vectors.bin", header + body)

    # -- ingest ---------------------------------------------------------------

    def ingest_text(self, collection: str, doc_id: str, text: str) -> int:
        """(Re)index one document; replaces any previous chunks for doc_id."""
        if not doc_id:
            raise ValueError("doc_id must be nonempty")
        new_chunks = chunk_text(text, doc_id, self.chunk_size, self.overlap)
        try:
            chunks, vectors = self._load(collection)
        except NotFoundError:
            chunks, vectors = [], np.zeros((0, self.embedder.dim), dtype=np.float64)
        keep = [i for i, c in enumerate(chunks) if c.doc_id != doc_id]
        chunks = [chunks[i] for i in keep]
        vectors = vectors[keep] if keep else np.zeros((0, self.embedder.dim), dtype=np.float64)
        if new_chunks:
            new_vectors = np.stack([self.embedder.embed(c.text) for c in new_chunks])
            vectors = np.concatenate([vectors, new_vectors]) if len(chunks) else new_vectors
            chunks = chunks + new_chunks
        self._save(collection, chunks, vectors)
        return len(new_chunks)

    def ingest(self, collection: str, source: str | os.PathLike) -> dict[str, int]:
        """Index a .txt/.md file, a directory of them, or a zip archive.

        doc_id is the path relative to the source root (posix separators),
        or the bare file name for a single file. Returns doc_id -> chunk
        count. Re-ingesting the same source is idempotent.
        """
        source = Path(source)
        counts: dict[str, int] = {}
        if source.is_dir():
            files = sorted(p for p in source.rglob("*")
                           if p.is_file() and p.suffix.lower() in DOC_SUFFIXES)
            if not files:
                raise EmptyInputError(f"no .txt/.md files under {source}")
            for path in files:
                doc_id = path.relative_to(source).as_posix()
                counts[doc_id] = self.ingest_text(
                    collection, doc_id, path.read_text(encoding="utf-8"))
            return counts
        if not source.is_file():
            raise NotFoundError(f"no such file: {source}")
        if source.suffix.lower() == ".zip":
            with zipfile.ZipFile(source) as archive:
                names = sorted(n for n in archive.namelist()
                               if not n.endswith("/")
                               and Path(n).suffix.lower() in DOC_SUFFIXES)
                if not names:
                    raise EmptyInputError(f"no .txt/.md members in {source}")
                for name in names:
                    text = archive.read(name).decode("utf-8")
                    counts[name] = self.ingest_text(collection, name, text)
            return counts
        if source.suffix.lower() not in DOC_SUFFIXES:
            raise EmptyInputError(f"unsupported document type: {source.suffix}")
        counts[source.name] = self.ingest_text(
            collection, source.name, source.read_text(encoding="utf-8"))
        return counts

    # -- query ---------------------------------------------------------------

    def query(self, collection: str, text: str, k: int = DEFAULT_TOP_K) -> list[Hit]:
        """Cosine top-k. Ties break by (doc_id, ordinal), making the ranking
        a pure function of the stored bytes."""
        chunks, vectors = self._load(collection)
        if not chunks or k <= 0:
            return []
        probe = self.embedder.embed(text)
        scores = vectors @ probe
        ranked = sorted(range(len(chunks)),
                        key=lambda i: (-scores[i], chunks[i].doc_id, chunks[i].ordinal))
        return [Hit(chunks[i].doc_id, chunks[i].ordinal, float(scores[i]),
                    chunks[i].text)
                for i in ranked[:k]]

    def list_collections(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and (p / "meta.jsonl").is_file())

    def delete_collection(self, collection: str) -> None:
        folder = self._dir(collection)
        if not folder.is_dir():
            raise NotFoundError(f"no such collection: {collection}")
        for name in ("meta.jsonl", "vectors.bin"):
            try:
                (folder / name).unlink()
            except FileNotFoundError:
                pass
        try:
            folder.rmdir()
        except OSError:
            pass

    def stats(self, collection: str) -> dict:
        chunks, _ = self._load(collection)
        return {
            "chunks": len(chunks),
            "documents": len({c.doc_id for c in chunks}),
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
        last_reply = ""
        last_hits: list[Hit] = []
        for attempt in range(1 + max_rewrites):
            queries.append(query)
            last_hits = self.query(collection, query, k)
            prompt = self._render_prompt(question, query, last_hits)
            reply = engine.complete_text(
                [{"role": "user", "content": prompt}], model=model).strip()
            last_reply = reply
            if reply.startswith(REWRITE_MARKER):
                query = reply[len(REWRITE_MARKER):].strip() or query
                continue
            if reply.startswith(ANSWER_MARKER):
                reply = reply[len(ANSWER_MARKER):].strip()
            return RagAnswer(text=reply, answered=True, queries=queries,
                             retrievals=attempt + 1, hits=last_hits)
        return RagAnswer(text=last_reply, answered=False, queries=queries,
                         retrievals=1 + max_rewrites, hits=last_hits)

    @staticmethod
    def _render_prompt(question: str, query: str, hits: list[Hit]) -> str:
        lines = ["Answer the question from the retrieved snippets.",
                 "",
                 f"Question: {question}"]
        if query != question:
            lines.append(f"Search query: {query}")
        lines.extend(["", "Snippets:"])
        for hit in hits:
            lines.append(f"- [{hit.doc_id}:{hit.ordinal}] {hit.text}")
        if not hits:
            lines.append("- (none)")
        lines.extend([
            "",
            'Reply with "ANSWER: <answer>" or "REWRITE: <better search query>".',
        ])
        return "\n".join(lines)
