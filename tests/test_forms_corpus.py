"""Pin the forms reader and writer on every single-edit mutant of the fixtures.

Each of the five ``tests/data`` form fixtures is mutated one edit at a time,
at every element in document order. The outcome of parsing a mutant is
either the exception class and its message (which carries the path), or,
when the reader accepts it, digests of its canonical XML and of the parsed
record (``repr`` covers the ``path`` fields the XML does not). Outcomes are
compared with ``tests/data/forms_mutant_outcomes.json``.

Regenerate the JSON with ``PYTHONPATH=src python tests/test_forms_corpus.py``
only when a change to the reader or writer is meant to change an outcome.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from agentos.errors import AgentOsError, SchemaError
from agentos.forms import (
    agent_form_to_xml,
    parse_agent_form,
    parse_workflow_form,
    workflow_form_to_xml,
)

DATA = Path(__file__).parent / "data"
OUTCOMES = DATA / "forms_mutant_outcomes.json"
FIXTURES = {
    "image_agent_form.xml": (parse_agent_form, agent_form_to_xml),
    "financial_agents_form.xml": (parse_agent_form, agent_form_to_xml),
    "math_voting_workflow.xml": (parse_workflow_form, workflow_form_to_xml),
    "wiki_article_workflow.xml": (parse_workflow_form, workflow_form_to_xml),
    # a workflow agent with tools, global variables, conditional outputs, a
    # GOTO and an ABORT with a value, and three siblings of one tag
    "review_loop_workflow.xml": (parse_workflow_form, workflow_form_to_xml),
}


def _delete(elem, parent):
    parent.remove(elem)


def _duplicate(elem, parent):
    parent.insert(list(parent).index(elem) + 1, copy.deepcopy(elem))


def _attribute(elem, parent):
    elem.set("bogus", "1")


def _child(elem, parent):
    elem.append(ET.Element("bogus"))


def _identifier(elem, parent):
    elem.text = "not an identifier"


def _empty(elem, parent):
    elem.text = ""


def _nested(elem, parent):
    inner = ET.SubElement(elem, elem.tag)
    inner.text, elem.text = elem.text, None


def _swap(elem, parent):
    children = list(parent)
    at = children.index(elem)
    parent.remove(elem)
    parent.insert(at + 1, elem)


def _category(elem, parent):
    elem.set("category", "borrowed")


def _uncategorized(elem, parent):
    del elem.attrib["category"]


# name -> (edit, applies to (elem, parent, has next sibling))
EDITS = {
    "delete": (_delete, lambda e, p, nxt: p is not None),
    "duplicate": (_duplicate, lambda e, p, nxt: p is not None),
    "attribute": (_attribute, lambda e, p, nxt: True),
    "child": (_child, lambda e, p, nxt: True),
    "identifier": (_identifier, lambda e, p, nxt: not len(e)),
    "empty": (_empty, lambda e, p, nxt: not len(e)),
    "nested": (_nested, lambda e, p, nxt: not len(e)),
    "swap": (_swap, lambda e, p, nxt: nxt),
    "category": (_category, lambda e, p, nxt: "category" in e.attrib),
    "uncategorized": (_uncategorized, lambda e, p, nxt: "category" in e.attrib),
}


def _elements(root):
    """(element, parent, has a next sibling) in document order."""
    parents = {child: parent for parent in root.iter() for child in parent}
    out = []
    for elem in root.iter():
        parent = parents.get(elem)
        siblings = list(parent) if parent is not None else [elem]
        out.append((elem, parent, siblings[-1] is not elem))
    return out


def mutants(name):
    """Yield (id, mutant text) for every applicable edit of every element."""
    text = (DATA / name).read_text(encoding="utf-8")
    for index, (elem, parent, nxt) in enumerate(_elements(ET.fromstring(text))):
        for edit, (apply, applies) in EDITS.items():
            if not applies(elem, parent, nxt):
                continue
            root = ET.fromstring(text)
            target, target_parent, _ = _elements(root)[index]
            apply(target, target_parent)
            yield f"{index}:{elem.tag}:{edit}", ET.tostring(root, encoding="unicode")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def outcome(parse, to_xml, text):
    try:
        form = parse(text)
    except AgentOsError as err:
        return f"{type(err).__name__}: {err}"
    return f"ok xml={_digest(to_xml(form))} form={_digest(repr(form))}"


def corpus(name):
    """{"<element index>:<tag>:<edit>": outcome} for one fixture."""
    return {mid: outcome(*FIXTURES[name], text) for mid, text in mutants(name)}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(OUTCOMES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", FIXTURES)
def test_every_single_edit_mutant_keeps_its_outcome(name, pinned):
    expected = pinned[name]
    actual = corpus(name)
    assert sorted(actual) == sorted(expected)
    changed = {mid: (expected[mid], actual[mid])
               for mid in actual if actual[mid] != expected[mid]}
    assert changed == {}


def test_corpus_covers_every_edit_and_outcome_kind(pinned):
    outcomes = {mid: value for name in FIXTURES for mid, value in pinned[name].items()}
    assert {mid.rsplit(":", 1)[1] for mid in outcomes} == set(EDITS)
    kinds = {value.split(":")[0].split(" ")[0] for value in outcomes.values()}
    assert kinds == {"ok", "SchemaError", "ActionTypeError"}


# ---------------------------------------------------------------------------
# cases the single edits do not reach
# ---------------------------------------------------------------------------

def _fixture(name):
    return (DATA / name).read_text(encoding="utf-8")


RESULT_ACTION = "<action>\n                        <type>RESULT</type>\n"


@pytest.mark.parametrize("value", [
    "<value><nested>x</nested></value>",
    '<value scope="all">x</value>',
    "<value>not an identifier</value>",
])
@pytest.mark.parametrize("action_type", ["RESULT", "ABORT"])
def test_result_and_abort_value_is_accepted_and_dropped(value, action_type):
    text = _fixture("math_voting_workflow.xml")
    assert RESULT_ACTION in text
    mutated = text.replace(
        RESULT_ACTION, f"<action>\n<type>{action_type}</type>{value}\n", 1)
    form = parse_workflow_form(mutated)
    action = form.events[0].outputs[0].action
    assert (action.type, action.value) == (action_type, None)
    assert "<value" not in workflow_form_to_xml(form).split("</action>")[0]


def test_duplicate_result_value_is_still_rejected():
    text = _fixture("math_voting_workflow.xml").replace(
        RESULT_ACTION, RESULT_ACTION + "<value>a</value><value>b</value>\n", 1)
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(text)
    assert str(err.value) == (
        "/workflow/events[1]/event[1]/outputs[1]/output[1]/action[1]/value[2]: "
        "duplicate <value>")


def test_workflow_agent_tools_accept_any_category():
    text = _fixture("math_voting_workflow.xml").replace(
        "<name>Math Solver Agent</name>",
        '<name>Math Solver Agent</name><tools category="borrowed"><tool>'
        "<name>calc</name><description>d</description></tool></tools>", 1)
    form = parse_workflow_form(text)
    assert [t.name for t in form.agents[0].tools] == ["calc"]
    assert '<tools category="new">' in workflow_form_to_xml(form)


def test_tools_with_bad_category_and_bad_child_reports_the_child():
    text = _fixture("image_agent_form.xml").replace(
        '<tools category="existing">\n            <tool>',
        '<tools category="borrowed">\n            <bogus/><tool>', 1)
    with pytest.raises(SchemaError) as err:
        parse_agent_form(text)
    assert str(err.value) == "/agents/agent[1]/tools[1]/bogus: unexpected element"
    text = _fixture("image_agent_form.xml").replace(
        '<tools category="existing">\n            <tool>\n                <name>'
        "visual_question_answering",
        '<tools category="borrowed">\n            <tool>\n                <name>'
        "not an identifier", 1)
    with pytest.raises(SchemaError) as err:
        parse_agent_form(text)
    assert str(err.value) == (
        "/agents/agent[1]/tools[1]/tool[1]/name[1]: "
        "tool name is not an identifier: 'not an identifier'")


def test_events_attribute_is_reported_after_errors_inside_agents():
    text = _fixture("math_voting_workflow.xml").replace(
        "<events>", '<events mode="fast">', 1).replace(
        '<agent category="new">', '<agent category="new" bogus="1">', 1)
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(text)
    assert str(err.value) == "/workflow/agents[1]/agent[1]: unexpected attribute 'bogus'"
    without = text.replace(' bogus="1"', "", 1)
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(without)
    assert str(err.value) == "/workflow/events[1]: unexpected attribute 'mode'"


if __name__ == "__main__":
    OUTCOMES.write_text(json.dumps({name: corpus(name) for name in FIXTURES},
                                   indent=0, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
