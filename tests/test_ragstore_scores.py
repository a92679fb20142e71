"""The RAG store's scores, bit for bit.

A row's score is the sum of ``row[d] * probe[d]`` over the probe's nonzero
dimensions ``d``, added in ascending ``d`` from 0.0 (docs/formats.md). The
oracle here does that sum in pure Python over the rows read from the files,
sorts every row on ``(-score, doc_id, ordinal)`` and must give the same
``(doc_id, ordinal, score)`` for each hit, with no tolerance: a summation
order picked by a BLAS kernel differs in the last bit and can reorder hits.
"""

import random
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from agentos.ragstore import HashingEmbedder, RagStore

from test_ragstore import persisted_rows
from test_ragstore_cache import write_docs


def documented_top(store: RagStore, folder: Path, text: str, k: int) -> list[tuple]:
    """The top ``k`` of every live row in ``folder``, scored in pure Python."""
    probe = store.embedder.embed(text).tolist()
    dims = [d for d, value in enumerate(probe) if value != 0.0]
    scored = []
    for doc_id, ordinal, _, raw in persisted_rows(folder):
        vector = struct.unpack(f"<{len(raw) // 8}d", raw)
        score = 0.0
        for d in dims:
            score += vector[d] * probe[d]
        scored.append((-score, doc_id, ordinal))
    scored.sort()
    return [(doc_id, ordinal, -negated) for negated, doc_id, ordinal in scored[:k]]


def hits(store: RagStore, text: str, k: int) -> list[tuple]:
    return [(h.doc_id, h.ordinal, h.score) for h in store.query("c", text, k)]


def test_scores_past_the_blas_thread_knee_follow_the_documented_sum(tmp_path):
    # BLAS starts threads for a matrix-vector product from about 2,048 rows x 256
    rng = random.Random(23)
    vocabulary = [f"w{n}" for n in range(600)]
    store = RagStore(tmp_path)  # the default embedder, chunk size and overlap
    store.ingest("c", write_docs(tmp_path / "docs", {
        f"doc{d:02d}.txt": " ".join(rng.choice(vocabulary) for _ in range(3_900))
        for d in range(40)}))
    # a delta segment: the live rows come from the base and the segment
    store.ingest_text("c", "doc07.txt", " ".join(rng.choice(vocabulary) for _ in range(3_000)))
    rows = store.stats("c")["chunks"]
    assert rows >= 3_200
    for n in range(40):
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 8)))
        k = rows if n % 10 == 0 else 6  # every row's score, now and then
        assert hits(store, text, k) == documented_top(store, tmp_path / "c", text, k), text


WORD = st.sampled_from(["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "owl"])
TEXT = st.lists(WORD, max_size=12).map(" ".join)


@settings(deadline=None)
@given(dim=st.sampled_from([1, 3, 16, 256]),
       docs=st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]), TEXT), min_size=1,
                     max_size=6),
       queries=st.lists(st.tuples(TEXT, st.integers(0, 12)), min_size=1, max_size=4))
def test_small_collections_score_as_the_documented_sum(dim, docs, queries):
    # small dims make tokens share and cancel dimensions, so sums have many terms
    with tempfile.TemporaryDirectory() as tmp:
        store = RagStore(tmp, embedder=HashingEmbedder(dim), chunk_size=3, overlap=1)
        for doc_id, text in docs:  # later ones replace earlier ones, through delta segments
            store.ingest_text("c", doc_id, text)
        if not store.stats("c")["chunks"]:
            return
        for text, k in queries:
            assert hits(store, text, k) == documented_top(store, Path(tmp) / "c", text, k)
