"""Vector-backed document store: chunking, embedding, retrieval, answering.

On-disk layout per collection (``<root>/<collection>/``, docs/formats.md):

* ``meta.jsonl`` and ``vectors.bin``, the base, in RV1: one compact JSON object
  per chunk, {"doc_id", "ordinal", "text", "token_start"}, and magic ``RV1\\n``,
  uint32 LE dim, uint32 LE count, then count*dim float64 LE values. Row i of
  the one pairs with line i of the other.
* ``delta-<n>``, immutable delta segments: magic ``RD1\\n``, dim, count and the
  rows' vectors as in RV1, then their meta lines.
* ``manifest``, the commit point: magic ``RM1\\n`` and one JSON object with the
  crc32 of each base file and the delta segments in order, each with the
  doc_ids whose rows it replaces.

An ingest writes a delta segment or a new base, as the compaction rule
``_rewrites_base`` picks, and ends by replacing the manifest. A failed write
leaves the old collection or one that raises ``E_NOT_FOUND``, never new text
beside old vectors. A folder without a manifest reads as plain RV1. Live rows
are kept sorted by (doc_id, ordinal), and a rewritten base is byte-identical
to one ingest of the live documents into an empty collection. A store keeps
the collections it read or wrote and reads one again only when the stat
signature of the manifest or of a base file changed.

The default embedder hashes whitespace tokens with sha256 into a fixed-size
signed-count vector and L2-normalizes. It is deterministic across processes
and platforms; any object with ``dim`` and ``embed(text) -> ndarray`` can
stand in for it (e.g. a network embedder).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import mmap
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import EmptyInputError, NotFoundError
from .storage import TEMP_PREFIX, atomic_write, entry_path, is_entry_name, signature

VECTOR_MAGIC = b"RV1\n"
DELTA_MAGIC = b"RD1\n"
MANIFEST_MAGIC = b"RM1\n"
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
    """A collection as last read or written: its live rows in (doc_id, ordinal)
    order under the stat signatures of its manifest and base files (None for a
    missing file), the manifest its next commit extends, and the rows stored
    in its base and in its delta segments."""
    signature: tuple
    keys: list[tuple[str, int]]
    lines: list[str]
    vectors: np.ndarray
    image: mmap.mmap | None  # the ``_image`` that holds ``vectors``
    manifest: dict
    stored: tuple[int, int]


_meta_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_META = get_type_hints(Chunk)  # the fields of a meta line, and their types
_MANIFEST = {"deltas": list, "meta_crc": int, "next": int, "vectors_crc": int}


def _image(count: int, dim: int, spare: mmap.mmap | None = None) -> tuple[mmap.mmap, np.ndarray]:
    """``vectors.bin`` from offset 4 of an anonymous mapping (off the malloc
    heap, so dropping it gives the memory back), and its now aligned rows. The
    mapping is ``spare`` when that is large enough, since faulting in fresh
    pages costs more than the copy; a new one has room for a quarter more rows,
    which take no memory until they are written."""
    size = 16 + 8 * count * dim
    image = spare if spare is not None and len(spare) >= size \
        else mmap.mmap(-1, size + 8 * (count // 4) * dim)
    image[4:16] = VECTOR_MAGIC + struct.pack("<II", dim, count)
    return image, np.frombuffer(image, "<f8", count * dim, 16).reshape(count, dim)


def _stat(path: str) -> tuple | None:
    """The stat signature of ``path``, None when there is no such file."""
    try:
        return signature(os.stat(path))
    except (FileNotFoundError, NotADirectoryError):
        return None


def _meta_rows(collection: str, data: bytes) -> tuple[list, list]:
    """The keys and canonical lines of the meta lines in ``data``."""
    keys, lines = [], []
    try:
        for line in filter(str.strip, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
            record = json.loads(line)
            if type(record) is not dict or {f: type(record.get(f)) for f in _META} != _META:
                raise ValueError("not a chunk record")
            keys.append((record["doc_id"], record["ordinal"]))
            lines.append(_meta_line({f: record[f] for f in _META}))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, not a chunk, nested too deep
        raise NotFoundError(f"corrupt meta file for collection: {collection}") from None
    return keys, lines


def _manifest_bytes(manifest: dict) -> bytes:
    return MANIFEST_MAGIC + _meta_line(manifest).encode()


def _read_manifest(collection: str, path: str) -> dict | None:
    """The manifest at ``path``, None when there is none."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    except IsADirectoryError:
        data = b""
    try:
        if data[:4] != MANIFEST_MAGIC:
            raise ValueError("not a manifest")
        manifest = json.loads(data[4:])
        if type(manifest) is not dict or {f: type(v) for f, v in manifest.items()} != _MANIFEST \
                or not all(type(d) is list and list(map(type, d)) == [int, int, list]
                           and all(type(doc_id) is str for doc_id in d[2])
                           for d in manifest["deltas"]):
            raise ValueError("not a manifest")
    except (ValueError, RecursionError):
        raise NotFoundError(f"corrupt manifest for collection: {collection}") from None
    return manifest


def _read_delta(collection: str, path: str, crc: int, dim: int) -> tuple[list, list, np.ndarray]:
    """The rows of a delta segment that the manifest lists with ``crc``."""
    mismatch = NotFoundError(f"collection does not match its manifest: {collection}")
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except (FileNotFoundError, IsADirectoryError):
        raise mismatch from None
    if len(data) < 12 or zlib.crc32(data) != crc \
            or data[:8] != DELTA_MAGIC + struct.pack("<I", dim):
        raise mismatch
    count = struct.unpack_from("<I", data, 8)[0]
    try:
        keys, lines = _meta_rows(collection, data[12 + 8 * count * dim:])
    except NotFoundError:
        raise mismatch from None
    if len(keys) != count or len(data) < 12 + 8 * count * dim or keys != sorted(keys):
        raise mismatch
    return keys, lines, np.frombuffer(data, "<f8", count * dim, 12).reshape(count, dim)


def _splice(rows: tuple, deltas: list, spare: mmap.mmap | None = None) \
        -> tuple[list, list, mmap.mmap, np.ndarray]:
    """``rows`` (keys, lines, vectors) after ``deltas`` in order, each a pair
    (doc_ids, rows) whose rows replace those of its doc_ids; all rows are in
    (doc_id, ordinal) order. The result's vectors are in an ``_image``."""
    keys = rows[0]
    owner = {doc_id: delta for doc_ids, delta in deltas for doc_id in doc_ids}  # the last wins
    pieces, at = [], 0
    for doc_id in sorted(owner):
        delta, start = owner[doc_id], bisect.bisect_left(keys, (doc_id,), at)
        pieces += [(rows, at, start), (delta, bisect.bisect_left(delta[0], (doc_id,)),
                                       bisect.bisect_left(delta[0], (doc_id, math.inf)))]
        at = bisect.bisect_left(keys, (doc_id, math.inf), start)
    pieces.append((rows, at, len(keys)))
    image, matrix = _image(sum(stop - start for _, start, stop in pieces), rows[2].shape[1], spare)
    keys, lines, row = [], [], 0
    for (part_keys, part_lines, vectors), start, stop in pieces:
        keys += part_keys[start:stop]
        lines += part_lines[start:stop]
        matrix[row:row + stop - start] = vectors[start:stop]
        row += stop - start
    return keys, lines, image, matrix


def _rewrites_base(replaced: int, kept: int, new: int, base: int, deltas: int) -> bool:
    """The compaction rule: an ingest that replaces ``replaced`` live rows, keeps
    ``kept`` and adds ``new``, over ``base`` rows stored in the base and
    ``deltas`` in delta segments, rewrites the base instead of writing a delta
    when it replaces at least as many rows as it keeps, or when the delta would
    leave more stored rows than twice the live rows or more delta rows than
    base rows."""
    return replaced >= kept or base + deltas + new > 2 * (kept + new) or deltas + new > base


def _sweep(folder: str, listed, prefixes=("delta-",)) -> None:
    """Remove the files in ``folder`` named by ``prefixes`` that are not ``listed``."""
    for name in os.listdir(folder):
        if name.startswith(prefixes) and name not in listed:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(folder, name))


class RagStore:
    def __init__(self, root: str | os.PathLike, embedder=None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 overlap: int = DEFAULT_OVERLAP):
        self.root = Path(root)  # made, like each collection folder, on the first write
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.chunk_size = chunk_size
        self.overlap = overlap
        self._cache: dict[str, _Rows] = {}  # collection -> its rows, replaced whole
        self._spare: mmap.mmap | None = None  # the image of the rows an ingest last replaced

    # -- storage ------------------------------------------------------------

    def _files(self, collection: str) -> tuple[str, str, str]:
        folder = entry_path(self.root, collection, "collection")
        return tuple(os.path.join(folder, name)
                     for name in ("manifest", "meta.jsonl", "vectors.bin"))

    def _rows(self, collection: str) -> _Rows:
        """The collection, read again only when the stat signature of its
        manifest or of a base file changed; a malformed collection raises on
        every read."""
        paths = self._files(collection)
        now = tuple(map(_stat, paths))
        rows = self._cache.get(collection)
        if rows is not None and rows.signature == now:
            return rows
        self._cache.pop(collection, None)
        rows = self._cache[collection] = self._read(collection, paths, now)
        return rows

    @staticmethod
    def _read(collection: str, paths: tuple, now: tuple) -> _Rows:
        try:
            with open(paths[1], "rb") as meta, open(paths[2], "rb") as vectors:
                data = meta.read()
                keys, lines = _meta_rows(collection, data)
                header = vectors.read(12)
                if len(header) < 12 or header[:4] != VECTOR_MAGIC:
                    raise NotFoundError(f"corrupt vector file for collection: {collection}")
                dim, count = struct.unpack_from("<II", header, 4)
                if count != len(keys):
                    raise NotFoundError(f"collection row mismatch: {collection}")
                image, matrix = _image(count, dim)
                if vectors.readinto(memoryview(image)[16:16 + matrix.nbytes]) < matrix.nbytes:
                    raise NotFoundError(f"corrupt vector file for collection: {collection}")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            if os.path.isfile(paths[1]):  # listed, since its meta file is there
                raise NotFoundError(f"corrupt vector file for collection: {collection}") from None
            raise NotFoundError(f"no such collection: {collection}") from None
        crcs = {"meta_crc": zlib.crc32(data),
                "vectors_crc": zlib.crc32(memoryview(image)[4:16 + matrix.nbytes])}
        order = sorted(range(count), key=keys.__getitem__)
        if order != list(range(count)):  # not written by a store: put rows in store order
            keys, lines = [keys[i] for i in order], [lines[i] for i in order]
            matrix[:] = matrix[order]
        manifest = _read_manifest(collection, paths[0])
        if manifest is None:  # plain RV1
            manifest = {"deltas": [], "next": 0, **crcs}
        elif {f: manifest[f] for f in crcs} != crcs:
            raise NotFoundError(f"collection does not match its manifest: {collection}")
        folder = os.path.dirname(paths[0])
        deltas = [(doc_ids, _read_delta(collection, os.path.join(folder, f"delta-{n}"), crc, dim))
                  for n, crc, doc_ids in manifest["deltas"]]
        if deltas:
            keys, lines, image, matrix = _splice((keys, lines, matrix), deltas)
        matrix.flags.writeable = False
        return _Rows(now, keys, lines, matrix, image, manifest,
                     (count, sum(len(delta[0]) for _, delta in deltas)))

    # -- ingest ---------------------------------------------------------------

    def ingest_text(self, collection: str, doc_id: str, text: str) -> int:
        """(Re)index one document; replaces any previous chunks for doc_id."""
        if not doc_id:
            raise ValueError("doc_id must be nonempty")
        return self._ingest(collection, {doc_id: text})[doc_id]

    def _ingest(self, collection: str, docs: dict[str, str]) -> dict[str, int]:
        """Replace the chunks of each document in ``docs`` (doc_id -> text) with
        one read of the collection and one commit: a delta segment or a new
        base, then the manifest. What was committed is cached."""
        chunks = {doc_id: chunk_text(docs[doc_id], doc_id, self.chunk_size, self.overlap)
                  for doc_id in sorted(docs)}
        counts = {doc_id: len(doc) for doc_id, doc in chunks.items()}
        new = [chunk for doc in chunks.values() for chunk in doc]
        manifest_path, meta_path, vectors_path = self._files(collection)
        try:
            old = self._rows(collection)
        except NotFoundError:
            if os.path.exists(meta_path):
                raise  # a malformed collection is reported, not replaced
            old = _Rows((None,) * 3, [], [], np.zeros((0, self.embedder.dim)), None,
                        {"deltas": [], "next": 0}, (0, 0))  # a new base is its first commit
        replaced = sum(bisect.bisect_left(old.keys, (doc_id, math.inf))
                       - bisect.bisect_left(old.keys, (doc_id,)) for doc_id in chunks)
        if not new and not replaced and old.signature[1] is not None:
            return counts  # no live row changes, so there is nothing to commit
        self._cache.pop(collection, None)  # the old rows go as soon as the new are built
        fresh_image, fresh = _image(len(new), self.embedder.dim)
        for row, chunk in enumerate(new):
            fresh[row] = self.embedder.embed(chunk.text)
        delta = ([(c.doc_id, c.ordinal) for c in new], [_meta_line(vars(c)) for c in new], fresh)
        spare, self._spare = self._spare, None
        keys, lines, image, matrix = _splice(old[1:4], [(chunks, delta)], spare) if old.keys \
            else (*delta[:2], fresh_image, fresh)
        base, deltas = old.stored
        if _rewrites_base(replaced, len(old.keys) - replaced, len(new), base, deltas):
            if old.signature[0] is None and old.signature[1] is not None:
                # an RV1 folder gets a manifest of its base before the base is rewritten
                atomic_write(manifest_path, _manifest_bytes(old.manifest))
            data = "\n".join([*lines, ""]).encode("utf-8")
            vectors = memoryview(image)[4:16 + matrix.nbytes]
            signatures = (signature(atomic_write(meta_path, data)),
                          signature(atomic_write(vectors_path, vectors)))
            manifest = {**old.manifest, "deltas": [],
                        "meta_crc": zlib.crc32(data), "vectors_crc": zlib.crc32(vectors)}
            stored = (len(keys), 0)
        else:
            seq = old.manifest["next"]
            data = b"".join([DELTA_MAGIC, memoryview(fresh_image)[8:16 + fresh.nbytes],
                             "\n".join([*delta[1], ""]).encode("utf-8")])
            atomic_write(os.path.join(os.path.dirname(meta_path), f"delta-{seq}"), data)
            manifest = {**old.manifest, "next": seq + 1,
                        "deltas": [*old.manifest["deltas"], [seq, zlib.crc32(data), list(chunks)]]}
            signatures, stored = old.signature[1:], (base, deltas + len(new))
        manifest_st = atomic_write(manifest_path, _manifest_bytes(manifest))
        _sweep(os.path.dirname(meta_path), {f"delta-{seq}" for seq, _, _ in manifest["deltas"]})
        matrix.flags.writeable = False
        self._cache[collection] = _Rows((signature(manifest_st), *signatures), keys, lines,
                                        matrix, image, manifest, stored)
        self._spare = old.image
        return counts

    def ingest(self, collection: str, source: str | os.PathLike) -> dict[str, int]:
        """Index a .txt/.md file, a directory of them, or a zip archive.

        doc_id is the path relative to the source root (posix separators),
        or the bare file name for a single file. Returns doc_id -> chunk
        count. Re-ingesting the same source is idempotent. Every file is
        read before the collection is committed once, so a file that fails
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
        """Cosine top-k. A row's score is the sum of ``row[d] * probe[d]`` over
        the probe's nonzero dimensions ``d``, added in ascending ``d`` from 0.0,
        so it has the same bits on every machine. Ties break by (doc_id,
        ordinal), making the ranking a pure function of the stored bytes."""
        rows = self._rows(collection)
        if not rows.keys or k <= 0:
            return []
        probe = self.embedder.embed(text)
        scores = np.zeros(len(rows.keys))
        for d in np.flatnonzero(probe).tolist():  # one column per query token at most
            scores += rows.vectors[:, d] * probe[d]
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
        manifest_path, meta_path, vectors_path = self._files(collection)
        self._cache.pop(collection, None)
        self._spare = None
        folder = os.path.dirname(meta_path)
        if not os.path.isdir(folder):
            raise NotFoundError(f"no such collection: {collection}")
        for path in (meta_path, manifest_path, vectors_path):  # it goes with meta.jsonl
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        _sweep(folder, (), ("delta-", TEMP_PREFIX))  # and what killed writes left
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
