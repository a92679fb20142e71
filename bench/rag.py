"""rag_corpus: one directory ingest, then a stream of queries and re-indexes.

``RagStore.ingest`` loads a directory of 40 generated ``.md`` documents of
about 2k tokens each (1,600 to 2,400), drawn from a shared Zipf-like
vocabulary. Then 200 operations run: ``query(k=6)`` with short queries, and
every tenth operation is an ``ingest_text`` that re-indexes an existing
document. Ingest rewrites the whole collection once per file and every query
re-parses and re-ranks it; putting updates beside reads shows what a read
cache would cost the writes.

The oracle is a separate brute-force index built here with its own chunker
and hashing embedder; a query is correct when its top 6 equal the oracle's
cosine ranking with the ``(-score, doc_id, ordinal)`` tie-break.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from agentos import ragstore

from .common import Measurement, sha

NAME = "rag_corpus"

DOCS = 40
MIN_TOKENS, MAX_TOKENS = 1600, 2400
VOCABULARY = 4000
OPS = 200
UPDATE_EVERY = 10
TOP_K = 6
CHUNK, OVERLAP, DIM = 64, 16, 256  # the store's defaults, restated for the oracle
TIE = 1e-12  # scores this close may be summed in another order by BLAS

REPORT = [("rate_per_s", "ingest_files_per_s", "1/s", "files", None),
          ("p50_ms", "query_ms_p50", "ms", "query_ms", 50),
          ("tail_ms", "query_ms_p90", "ms", "query_ms", 90),
          ("aux_p50_ms", "update_ms_p50", "ms", "update_ms", 50)]
PREDICTED = ("ragstore.query", "ragstore.ingest_text", "ragstore.ingest")


def make_vocabulary(rng: random.Random) -> list[str]:
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < VOCABULARY:
        words.add("".join(rng.choices(syllables, k=rng.randint(1, 4))))
    return sorted(words)


def zipf_weights(size: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** 1.07 for rank in range(size)))


def make_text(rng: random.Random, words: list[str], weights: list[float], tokens: int) -> str:
    picked = rng.choices(words, cum_weights=weights, k=tokens)
    lines = [" ".join(picked[i:i + 16]) for i in range(0, tokens, 16)]
    return "# " + " ".join(picked[:4]) + "\n\n" + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def oracle_chunks(text: str) -> list[str]:
    tokens = text.split()
    step = CHUNK - OVERLAP
    out = []
    for start in range(0, len(tokens), step):
        out.append(" ".join(tokens[start:start + CHUNK]))
        if start + CHUNK >= len(tokens):
            break
    return out


def oracle_embed(text: str) -> np.ndarray:
    counts = np.zeros(DIM, dtype=np.int64)
    for token in text.lower().split():
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:4], "big") % DIM] += 1 if digest[4] % 2 == 0 else -1
    vector = counts.astype(np.float64)
    norm = float(np.linalg.norm(vector))
    return vector / norm if norm > 0.0 else vector


class OracleIndex:
    """Brute-force cosine index kept beside the store: every row is scored
    and fully sorted on every query."""

    def __init__(self, docs: dict[str, np.ndarray] | None = None):
        self.docs: dict[str, np.ndarray] = dict(docs or {})  # doc_id -> chunk rows
        self._matrix = None

    def put(self, doc_id: str, text: str) -> int:
        self.docs[doc_id] = np.array([oracle_embed(c) for c in oracle_chunks(text)])
        self._matrix = None
        return len(self.docs[doc_id])

    def top(self, text: str, k: int) -> tuple[list[tuple[str, int]], dict]:
        if self._matrix is None:
            # rows in (doc_id, ordinal) order, so a stable sort on -score
            # breaks ties exactly as (-score, doc_id, ordinal)
            self._keys = [(doc_id, ordinal) for doc_id in sorted(self.docs)
                          for ordinal in range(len(self.docs[doc_id]))]
            self._matrix = np.concatenate([self.docs[d] for d in sorted(self.docs)])
        scores = self._matrix @ oracle_embed(text)
        order = np.argsort(-scores, kind="stable")
        by_key = dict(zip(self._keys, scores.tolist()))
        return [self._keys[i] for i in order[:k]], by_key


def check_query(oracle: OracleIndex, text: str, hits) -> list[str]:
    expected, scores = oracle.top(text, TOP_K)
    got = [(h.doc_id, h.ordinal) for h in hits]
    problem = [f"query {text!r}: top {got} != oracle {expected}"]
    if len(got) != len(expected) or len(set(got)) != len(got) \
            or any(key not in scores or abs(scores[key] - h.score) > TIE
                   for key, h in zip(got, hits)):
        return problem
    # positions may differ only between scores equal up to summation order
    if any(abs(scores[g] - scores[e]) > TIE for g, e in zip(got, expected)):
        return problem
    return []


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------

@dataclass
class State:
    root: Path
    store: ragstore.RagStore
    docs_dir: Path
    ops: list[tuple[str, str, str]]  # ("query", text, "") or ("update", doc_id, text)
    oracle: dict[str, np.ndarray]  # the oracle's view of a fresh ingest
    cycle: int = 0


def setup(root: Path, seed: int) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    words = make_vocabulary(rng)
    weights = zipf_weights(len(words))
    docs_dir = root / "docs"
    sizes = [MIN_TOKENS + round(i * (MAX_TOKENS - MIN_TOKENS) / (DOCS - 1)) for i in range(DOCS)]
    rng.shuffle(sizes)
    texts = {}
    for i, tokens in enumerate(sizes):
        doc_id = f"topic_{i % 4}/doc_{i:02d}.md"
        texts[doc_id] = make_text(rng, words, weights, tokens)
        path = docs_dir / doc_id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(texts[doc_id], encoding="utf-8")
    ops = []
    for i in range(OPS):
        if i % UPDATE_EVERY == UPDATE_EVERY - 1:
            doc_id = rng.choice(sorted(texts))
            ops.append(("update", doc_id, make_text(rng, words, weights,
                                                    rng.randint(MIN_TOKENS, MAX_TOKENS))))
        else:
            ops.append(("query", " ".join(rng.choices(words, cum_weights=weights,
                                                      k=rng.randint(2, 5))), ""))
    oracle = OracleIndex()
    for doc_id, text in texts.items():
        oracle.put(doc_id, text)
    return State(root, ragstore.RagStore(root / "store"), docs_dir, ops, oracle.docs)


def run_pass(state: State, m: Measurement) -> Measurement:
    if state.cycle:
        state.store.delete_collection(f"corpus_{state.cycle - 1}")
    collection = f"corpus_{state.cycle}"
    state.cycle += 1

    oracle = OracleIndex(state.oracle)
    expected_counts = {doc_id: len(vectors) for doc_id, vectors in oracle.docs.items()}
    start = m.start()
    counts = state.store.ingest(collection, state.docs_dir)
    elapsed = m.stop(start)
    m.add_work("files", len(counts), elapsed)
    m.sample("ingest_ms", elapsed * 1000.0)
    m.verdict([] if counts == expected_counts else ["ingest chunk counts differ from the oracle"],
              sha(repr(sorted(counts.items()))))

    for kind, first, text in state.ops:
        if kind == "query":
            start = m.start()
            hits = state.store.query(collection, first, k=TOP_K)
            m.sample("query_ms", m.stop(start) * 1000.0)
            m.verdict(check_query(oracle, first, hits),
                      sha(repr([(h.doc_id, h.ordinal) for h in hits])))
        else:
            start = m.start()
            chunks = state.store.ingest_text(collection, first, text)
            m.sample("update_ms", m.stop(start) * 1000.0)
            expected = oracle.put(first, text)
            m.verdict([] if chunks == expected else [f"update of {first}: {chunks} chunks, "
                                                     f"oracle {expected}"],
                      sha(f"{first}:{chunks}"))
    return m
