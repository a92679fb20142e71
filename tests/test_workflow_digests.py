"""Pin every request a workflow run sends, by its cassette digest.

A workflow recorded against real models replays only while each event's
request keeps its ``request_digest``, so the event prompt, its declared
outputs and its agent must not drift. The three fixture workflows run
serially and in parallel with routed scripted replies, one model per event
of a round; the expected digests, in serial order, live in
``data/workflow_request_digests.json``. Run this module as a script to
print them for the code on the import path.
"""

import json
import threading

import pytest

from agentos.backends import request_digest
from agentos.engine import Engine
from agentos.forms import RegistryView, parse_workflow_form
from agentos.workflow import run_workflow

from conftest import DATA, MATH_VIEW, WIKI_VIEW, RouterBackend, read_fixture

CLAUDE = "claude-3-5-sonnet-20241022"
GPT = "gpt-4o-2024-08-06"
DEEPSEEK = "deepseek/deepseek-chat"

# name -> (fixture, registry view, system input, routes, status)
RUNS = {
    "math_voting": ("math_voting_workflow.xml", MATH_VIEW, "solve 2x=8", {
        GPT: ["x = 4"], CLAUDE: ["x = 4"], DEEPSEEK: ["x = 5", "majority says 4"],
    }, "completed"),
    "wiki_article": ("wiki_article_workflow.xml", WIKI_VIEW, "the topic", {
        CLAUDE: ["search result text", "outline v1",
                 "needs work\nSELECTED_OUTPUT: negative_feedback", "outline v2",
                 "looks good\nSELECTED_OUTPUT: positive_feedback", "final article"],
    }, "completed"),
    "review_loop": ("review_loop_workflow.xml", RegistryView(
        agent_names=frozenset({"Research Agent"}),
        tool_names=frozenset({"web_search", "read_page", "summarize_page"})),
        "a short history of the transistor", {
            GPT: ["notes with sources"],
            CLAUDE: ["draft v1", "draft v2"],
            DEEPSEEK: ["too long\nSELECTED_OUTPUT: revision_notes",
                       "approved\nSELECTED_OUTPUT: approved_draft"],
        }, "completed"),
}


class DigestRouter(RouterBackend):
    """The routed scripted backend, recording the digest of every request."""

    def __init__(self, routes):
        super().__init__(routes)
        self.digests: list[str] = []
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.digests.append(request_digest(request))
        return super().complete(request)


def digests(name: str, parallel: bool) -> list[str]:
    fixture, view, value, routes, status = RUNS[name]
    backend = DigestRouter(routes)
    result = run_workflow(parse_workflow_form(read_fixture(fixture)), value,
                          Engine(mode="transformed", backend=backend), registry=view,
                          parallel=parallel)
    assert result.status == status, result.error
    assert all(len(queue) == 0 for queue in backend.backends.values()), "replies left unused"
    return backend.digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_workflow_sends_the_pinned_requests(name):
    expected = json.loads((DATA / "workflow_request_digests.json").read_text(encoding="utf-8"))
    assert digests(name, parallel=False) == expected[name]
    assert sorted(digests(name, parallel=True)) == sorted(expected[name])


if __name__ == "__main__":
    print(json.dumps({name: digests(name, parallel=False) for name in sorted(RUNS)}, indent=2))
