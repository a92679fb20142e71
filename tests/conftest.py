"""Shared fixtures: form fixtures, registry views, and a model-routing backend."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from agentos.backends import CompletionRequest, CompletionResponse, ScriptedBackend
from agentos.forms import RegistryView, parse_agent_form, parse_workflow_form

DATA = Path(__file__).parent / "data"

# Tests that set no example count of their own run hypothesis's default of
# 100 examples; HYPOTHESIS_PROFILE=fuzz runs them (the reply fuzz tests) longer.
settings.register_profile("fuzz", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def read_fixture(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@pytest.fixture
def image_form():
    return parse_agent_form(read_fixture("image_agent_form.xml"))


@pytest.fixture
def financial_form():
    return parse_agent_form(read_fixture("financial_agents_form.xml"))


@pytest.fixture
def math_form():
    return parse_workflow_form(read_fixture("math_voting_workflow.xml"))


@pytest.fixture
def wiki_form():
    return parse_workflow_form(read_fixture("wiki_article_workflow.xml"))


# Registry views carrying exactly the external names the fixtures reference.
IMAGE_VIEW = RegistryView(tool_names=frozenset({"visual_question_answering"}))
FINANCIAL_VIEW = RegistryView(tool_names=frozenset({
    "save_raw_docs_to_vector_db", "query_db", "visual_question_answering"}))
WIKI_VIEW = RegistryView(agent_names=frozenset({"Web Surfer Agent"}))
MATH_VIEW = RegistryView()


class RouterBackend:
    """Dispatch requests to per-model scripted queues.

    Parallel rounds stay deterministic because each concurrently running
    event uses a distinct model, so no two threads contend for one queue.
    """

    def __init__(self, routes: dict[str, list]):
        self.backends = {model: ScriptedBackend(steps)
                         for model, steps in routes.items()}
        self.fallback = ScriptedBackend([])

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        backend = self.backends.get(request.model, self.fallback)
        return backend.complete(request)

    @property
    def calls(self) -> int:
        return sum(b.calls for b in self.backends.values()) + self.fallback.calls
