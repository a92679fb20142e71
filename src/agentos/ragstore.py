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
signature of the manifest or of a base file changed. It holds their stored
rows as the files do, base then segments, column-major (one contiguous row
per dimension, so scoring a query dimension is one pass over contiguous
memory), with room for the segment rows the compaction rule allows, which a
delta commit writes in place. The files stay row-major; a load or a new base
transposes between the two in blocks of rows.

The default embedder hashes whitespace tokens with sha256 into a fixed-size
signed-count vector and L2-normalizes, each row of a batch bit-identical to
its text alone; it is deterministic across processes and platforms. Any
object with ``dim`` and ``embed_many(texts) -> (len(texts), dim) ndarray``
can stand in for it (e.g. a network embedder); an ingest passes it at most
``EMBED_BLOCK`` chunks at a time, in row order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import lzma
import math
import mmap
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import EmptyInputError, InvalidDefinitionError, NotFoundError
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
EMBED_BLOCK = 256  # the most chunks an ingest passes to one ``embed_many`` call

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
    accumulate as integers before one float64 normalize per text, so a row of
    a batch is bit-identical to its text alone: integer counts square and sum
    exactly, and sqrt and division round correctly. A token's slot is
    remembered, for at most ``SLOT_MEMO`` tokens at a time.
    """

    def __init__(self, dim: int = 256):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._slots: dict[str, int] = {}  # token -> 2 * dimension + sign bit

    def _slot(self, token: str) -> int:
        if token not in self._slots:
            if len(self._slots) >= SLOT_MEMO:
                self._slots.clear()
            # surrogatepass: a lone surrogate hashes too; valid text keeps its UTF-8 bytes
            digest = hashlib.sha256(token.encode("utf-8", "surrogatepass")).digest()
            self._slots[token] = 2 * (int.from_bytes(digest[:4], "big") % self.dim) + (digest[4] & 1)
        return self._slots[token]

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """A (len(texts), dim) array whose row i embeds ``texts[i]``."""
        rows = [text.lower().split() for text in texts]
        sizes = list(map(len, rows))
        try:  # a memoized slot is read in one C-level pass
            picked = np.fromiter(map(self._slots.__getitem__, chain(*rows)), np.intp, sum(sizes))
        except KeyError:
            picked = np.fromiter(map(self._slot, chain(*rows)), np.intp, sum(sizes))
        width = 2 * self.dim
        if len(rows) > 1:  # row r counts in slots from r * width; one row needs no offsets
            picked += np.repeat(np.arange(0, width * len(rows), width), sizes)
        counts = np.bincount(picked, minlength=width * len(rows))
        vectors = (counts[0::2] - counts[1::2]).astype(np.float64).reshape(len(rows), self.dim)
        for vector in vectors:
            norm = math.sqrt(vector.dot(vector))
            if norm > 0.0:
                vector /= norm
        return vectors

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]


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
    queries: list[str] = field(default_factory=list)  # one per retrieval
    hits: list[Hit] = field(default_factory=list)


class _Rows(NamedTuple):
    """A collection as last read or written, under the stat signatures of its
    manifest and base files (None for a missing file), with the manifest its
    next commit extends. Its stored rows are its base's ``base`` rows and then
    each delta segment's, in file order: ``meta`` holds each one's meta fields
    once, in ``Chunk`` field order, and ``columns`` is an ``_image`` whose
    first ``len(meta)`` columns are their vectors; its shape gives the stored
    dim. ``docs`` maps each live doc_id to the (start, stop) of its stored
    rows, and ``order``, ``rank`` and ``floor`` are what ``_stored`` derives
    from it for ``query``."""
    signature: tuple
    meta: list[tuple[str, int, str, int]]
    columns: np.ndarray
    manifest: dict
    base: int
    docs: dict[str, tuple[int, int]]
    order: np.ndarray
    rank: np.ndarray
    floor: np.ndarray


_meta_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii  # what ``_meta_line`` writes a str with
_META = get_type_hints(Chunk)  # the fields of a meta line, and their types
_MANIFEST = {"deltas": list, "meta_crc": int, "next": int, "vectors_crc": int}


def _image(count: int, dim: int) -> np.ndarray:
    """A (dim, count) matrix for ``count`` rows held column-major, in an
    anonymous mapping: it is off the malloc heap, so dropping it gives the
    memory back, and columns not yet written take no memory."""
    image = mmap.mmap(-1, 8 * count * dim or 1)  # a mapping is never empty
    return np.frombuffer(image, "<f8", count * dim).reshape(dim, count)


def _put(columns: np.ndarray, at: int, rows: np.ndarray) -> None:
    """Copy the row-major ``rows`` into ``columns`` from column ``at``, in
    blocks that stay in cache: one whole ``rows.T`` is ~3x slower."""
    for start in range(0, len(rows), 32):
        block = rows[start:start + 32]
        columns[:, at + start:at + start + len(block)] = block.T


def _place(docs: dict, doc_ids, meta: list, at: int) -> dict:
    """``docs`` (doc_id -> the (start, stop) of its live rows) after the rows
    of ``meta``, in (doc_id, ordinal) order and stored from ``at`` on, replace
    those of ``doc_ids``."""
    for doc_id in doc_ids:
        docs.pop(doc_id, None)
    for doc_id, rows in groupby(meta, itemgetter(0)):
        stop = at + sum(1 for _ in rows)
        docs[doc_id], at = (at, stop), stop
    return docs


def _stored(now: tuple, meta: list, columns: np.ndarray, manifest: dict, base: int,
            docs: dict) -> _Rows:
    """The ``_Rows`` of these stored rows, ranked once per commit: ``order``
    is the stored rows that ``docs`` holds live, in (doc_id, ordinal) order,
    ``rank`` each stored row's place in it (-1 for a dead row), and ``floor``
    what each row's score starts from: 0.0, or -inf so a dead row never places."""
    order = np.concatenate([np.arange(*docs[doc_id]) for doc_id in sorted(docs)]
                           or [np.empty(0, np.intp)])
    rank = np.full(len(meta), -1, np.intp)
    rank[order] = np.arange(len(order))
    return _Rows(now, meta, columns, manifest, base, docs, order, rank,
                 np.where(rank < 0, -np.inf, 0.0))


def _rv1(count: int, dim: int) -> tuple[mmap.mmap, np.ndarray]:
    """``vectors.bin`` of ``count`` rows from offset 4 of an anonymous mapping,
    and its now aligned (count, dim) rows, to be filled."""
    data = mmap.mmap(-1, 16 + 8 * count * dim)
    data[4:16] = VECTOR_MAGIC + struct.pack("<II", dim, count)
    return data, np.frombuffer(data, "<f8", count * dim, 16).reshape(count, dim)


def _stat(path: str) -> tuple | None:
    """The stat signature of ``path``, None when there is no such file."""
    try:
        return signature(os.stat(path))
    except (FileNotFoundError, NotADirectoryError):
        return None


def _meta_rows(collection: str, data: bytes) -> list[tuple]:
    """The meta fields of each meta line in ``data``, in ``Chunk`` field order."""
    meta = []
    try:
        for line in filter(str.strip, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
            record = json.loads(line)
            if type(record) is not dict or {f: type(record.get(f)) for f in _META} != _META:
                raise ValueError("not a chunk record")
            meta.append(tuple(map(record.__getitem__, _META)))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, not a chunk, nested too deep
        raise NotFoundError(f"corrupt meta file for collection: {collection}") from None
    return meta


def _meta_bytes(meta: list[tuple]) -> bytes:  # what a commit writes: ``_meta_line``'s lines
    return "".join(['{"doc_id":%s,"ordinal":%d,"text":%s,"token_start":%d}\n'
                    % (_quote(doc_id), ordinal, _quote(text), token_start)
                    for doc_id, ordinal, text, token_start in meta]).encode("ascii")


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


def _read_delta(collection: str, path: str, crc: int, dim: int) -> tuple[list, np.ndarray]:
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
        meta = _meta_rows(collection, data[12 + 8 * count * dim:])
    except NotFoundError:
        raise mismatch from None
    if len(meta) != count or meta != sorted(meta, key=lambda row: row[:2]):  # cut short: no meta
        raise mismatch
    return meta, np.frombuffer(data, "<f8", count * dim, 12).reshape(count, dim)


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

    def _embeddable(self, collection: str) -> _Rows:
        """The collection's rows, if their dim is the embedder's."""
        rows = self._rows(collection)
        if rows.columns.shape[0] != self.embedder.dim:
            raise InvalidDefinitionError(
                f"embedder dim {self.embedder.dim} is not the dim {rows.columns.shape[0]} "
                f"of collection: {collection}")
        return rows

    @staticmethod
    def _read(collection: str, paths: tuple, now: tuple) -> _Rows:
        try:
            with open(paths[1], "rb") as meta_file, open(paths[2], "rb") as vectors:
                data = meta_file.read()
                meta = _meta_rows(collection, data)
                header = vectors.read(12)
                if len(header) < 12 or header[:4] != VECTOR_MAGIC:
                    raise NotFoundError(f"corrupt vector file for collection: {collection}")
                dim, count = struct.unpack_from("<II", header, 4)
                if count != len(meta):
                    raise NotFoundError(f"collection row mismatch: {collection}")
                raw = memoryview(vectors.read())[:8 * count * dim]
                if len(raw) < 8 * count * dim:
                    raise NotFoundError(f"corrupt vector file for collection: {collection}")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            if os.path.isfile(paths[1]):  # listed, since its meta file is there
                raise NotFoundError(f"corrupt vector file for collection: {collection}") from None
            raise NotFoundError(f"no such collection: {collection}") from None
        crcs = {"meta_crc": zlib.crc32(data), "vectors_crc": zlib.crc32(raw, zlib.crc32(header))}
        base = np.frombuffer(raw, "<f8").reshape(count, dim)
        order = sorted(range(count), key=lambda i: meta[i][:2])
        if order != list(range(count)):  # not written by a store: put rows in store order
            meta, base = [meta[i] for i in order], base[order]
        manifest = _read_manifest(collection, paths[0])
        if manifest is None:  # plain RV1
            manifest = {"deltas": [], "next": 0, **crcs}
        elif {f: manifest[f] for f in crcs} != crcs:
            raise NotFoundError(f"collection does not match its manifest: {collection}")
        folder = os.path.dirname(paths[0])
        deltas = [(doc_ids, *_read_delta(collection, os.path.join(folder, f"delta-{n}"), crc, dim))
                  for n, crc, doc_ids in manifest["deltas"]]
        # room for the segment rows that the compaction rule allows before a new base
        columns = _image(count + max(count, sum(len(rows) for _, rows, _ in deltas)), dim)
        _put(columns, 0, base)
        docs = _place({}, (), meta, 0)
        for doc_ids, rows, vectors in deltas:  # appended as a delta commit appends its rows
            _put(columns, len(meta), vectors)
            _place(docs, doc_ids, rows, len(meta))
            meta += rows
        return _stored(now, meta, columns, manifest, count, docs)

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
        new = [tuple(vars(chunk).values()) for doc in chunks.values() for chunk in doc]
        manifest_path, meta_path, vectors_path = self._files(collection)
        try:
            old = self._embeddable(collection)
        except NotFoundError:
            if os.path.exists(meta_path):
                raise  # a malformed collection is reported, not replaced
            old = _stored((None,) * 3, [], np.zeros((self.embedder.dim, 0)),
                          {"deltas": [], "next": 0}, 0, {})  # a new base is its first commit
        replaced = sum(stop - start for start, stop in
                       (old.docs.get(doc_id, (0, 0)) for doc_id in chunks))
        if not new and not replaced and old.signature[1] is not None:
            return counts  # no live row changes, so there is nothing to commit
        self._cache.pop(collection, None)  # the old rows go as soon as the new are built
        fresh_file, fresh = _rv1(len(new), self.embedder.dim)
        for at in range(0, len(new), EMBED_BLOCK):
            fresh[at:at + EMBED_BLOCK] = \
                self.embedder.embed_many([row[2] for row in new[at:at + EMBED_BLOCK]])
        stored, kept = len(old.meta), len(old.order) - replaced
        docs = _place(dict(old.docs), chunks, new, stored)  # the new rows as if stored next
        if _rewrites_base(replaced, kept, len(new), old.base, stored - old.base):
            if old.signature[0] is None and old.signature[1] is not None:
                # an RV1 folder gets a manifest of its base before the base is rewritten
                atomic_write(manifest_path, _manifest_bytes(old.manifest))
            every, spans = old.meta + new, [docs[doc_id] for doc_id in sorted(docs)]
            meta = [row for start, stop in spans for row in every[start:stop]]
            base_file, rows = fresh_file, fresh  # a base of only new rows is the new rows
            if kept:
                base_file, rows = _rv1(len(meta), self.embedder.dim)
                at = 0
                for start, stop in spans:  # each live document's rows, old or new
                    rows[at:at + stop - start] = old.columns[:, start:stop].T if start < stored \
                        else fresh[start - stored:stop - stored]
                    at += stop - start
            data, vectors = _meta_bytes(meta), memoryview(base_file)[4:]
            signatures = (signature(atomic_write(meta_path, data)),
                          signature(atomic_write(vectors_path, vectors)))
            manifest = {**old.manifest, "deltas": [],
                        "meta_crc": zlib.crc32(data), "vectors_crc": zlib.crc32(vectors)}
            columns, base, docs = _image(2 * len(meta), self.embedder.dim), len(meta), \
                _place({}, (), meta, 0)
            _put(columns, 0, rows)
        else:
            seq = old.manifest["next"]
            data = b"".join([DELTA_MAGIC, memoryview(fresh_file)[8:], _meta_bytes(new)])
            atomic_write(os.path.join(os.path.dirname(meta_path), f"delta-{seq}"), data)
            manifest = {**old.manifest, "next": seq + 1,
                        "deltas": [*old.manifest["deltas"], [seq, zlib.crc32(data), list(chunks)]]}
            signatures, columns, base, meta = old.signature[1:], old.columns, old.base, old.meta
            _put(columns, stored, fresh)  # into free columns: the old rows stay where they are
            meta += new
        manifest_st = atomic_write(manifest_path, _manifest_bytes(manifest))
        _sweep(os.path.dirname(meta_path), {f"delta-{seq}" for seq, _, _ in manifest["deltas"]})
        self._cache[collection] = _stored((signature(manifest_st), *signatures), meta, columns,
                                          manifest, base, docs)
        return counts

    def ingest(self, collection: str, source: str | os.PathLike) -> dict[str, int]:
        """Index a .txt/.md file, a directory of them, or a zip archive.

        doc_id is the path relative to the source root (posix separators),
        or the bare file name for a single file. Returns doc_id -> chunk
        count. Re-ingesting the same source is idempotent. Every file is
        read before the collection is committed once, so a file that fails
        to read or decode leaves the collection as it was; a zip archive that
        cannot be read raises ``OSError`` naming it.
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
            try:  # not a zip, or a corrupt, cut, encrypted or unknown-method member: one OSError
                with zipfile.ZipFile(source) as archive:
                    docs = {name: archive.read(name) for name in sorted(archive.namelist())
                            if not name.endswith("/") and Path(name).suffix.lower() in DOC_SUFFIXES}
            except (OSError, zipfile.BadZipFile, zlib.error, lzma.LZMAError, EOFError,
                    RuntimeError) as err:
                raise OSError(f"unreadable zip archive {source}: {err}") from err
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
        rows = self._embeddable(collection)
        if not len(rows.order) or k <= 0:
            return []
        probe = self.embedder.embed_many([text])[0]
        scores = rows.floor.copy()  # every stored row: a dead row's -inf never places
        for d in np.flatnonzero(probe).tolist():  # one dimension per query token at most
            scores += rows.columns[d, :len(scores)] * probe[d]
        negated = -scores
        top = rows.order
        if k < len(top):  # the rows that can place, all those tied at the k-th score too
            top = np.flatnonzero(negated <= np.partition(negated, k - 1)[k - 1])
        # ties break by (doc_id, ordinal): each live row's rank
        top = top[np.lexsort((rows.rank[top], negated[top]))[:k]]
        return [Hit(*rows.meta[i][:2], float(scores[i]), rows.meta[i][2]) for i in top.tolist()]

    def list_collections(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if is_entry_name(p.name) and (p / "meta.jsonl").is_file())

    def delete_collection(self, collection: str) -> None:
        manifest_path, meta_path, vectors_path = self._files(collection)
        self._cache.pop(collection, None)
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
        rows = self._rows(collection)
        return {
            "chunks": len(rows.order),
            "documents": len(rows.docs),
            "dim": rows.columns.shape[0],
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
                return RagAnswer(text=reply, answered=True, queries=queries, hits=hits)
            query = reply[len(REWRITE_MARKER):].strip() or query
        return RagAnswer(text=reply, answered=False, queries=queries, hits=hits)

    @staticmethod
    def _render_prompt(question: str, query: str, hits: list[Hit]) -> str:
        lines = ["Answer the question from the retrieved snippets.", "", f"Question: {question}"]
        if query != question:
            lines.append(f"Search query: {query}")
        lines += ["", "Snippets:"]
        lines += [f"- [{hit.doc_id}:{hit.ordinal}] {hit.text}" for hit in hits] or ["- (none)"]
        lines += ["", 'Reply with "ANSWER: <answer>" or "REWRITE: <better search query>".']
        return "\n".join(lines)
