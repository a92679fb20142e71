"""Round trip of generated forms through the writer and the reader.

For every form the reader can accept, ``to_xml(parse(to_xml(f)))`` equals
``to_xml(f)`` and ``parse(to_xml(f))`` equals ``f`` apart from ``path``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from agentos.forms import (
    ActionSpec,
    AgentForm,
    AgentSpec,
    EventAgentRef,
    EventSpec,
    GlobalVar,
    IOSlot,
    KeyDesc,
    OutputSpec,
    ToolRef,
    WorkflowAgentDecl,
    WorkflowForm,
    agent_form_to_xml,
    parse_agent_form,
    parse_workflow_form,
    workflow_form_to_xml,
)

# The reader strips leaf text, and XML normalises carriage returns.
text = st.text("aZ_9 \n\t<>&\"'{}é√\u3000", max_size=12).map(str.strip)
nonempty = text.filter(bool)
ident = st.builds(str.__add__, st.sampled_from("aZ_"), st.text("aZ_09", max_size=8))
key_desc = st.builds(KeyDesc, ident, text)
slot = st.builds(IOSlot, st.lists(key_desc, min_size=1, max_size=3))
tool = st.builds(ToolRef, ident, text)
tools = st.lists(tool, max_size=3)
global_var = st.builds(GlobalVar, ident, text, text)
global_vars = st.lists(global_var, max_size=3)

agent_spec = st.builds(
    AgentSpec, nonempty, text, text,
    tools_existing=tools, tools_new=tools, agent_input=slot, agent_output=slot)
agent_form = st.builds(
    AgentForm, text, slot, global_variables=global_vars,
    agents=st.lists(agent_spec, min_size=1, max_size=3))

action = st.one_of(
    st.builds(ActionSpec, st.sampled_from(["RESULT", "ABORT"]), st.none()),
    st.builds(ActionSpec, st.just("GOTO"), text))
output = st.builds(OutputSpec, ident, text, st.none() | nonempty, action)
event_agent = st.builds(EventAgentRef, text, text)


@st.composite
def events(draw):
    names = draw(st.lists(ident, min_size=1, max_size=4, unique=True))
    return [EventSpec(
        name,
        inputs=draw(st.lists(key_desc, max_size=2)),
        task=draw(st.none() | text),
        outputs=draw(st.lists(output, min_size=1, max_size=3)),
        listen=draw(st.lists(text, max_size=3)),
        agent=draw(st.none() | event_agent),
    ) for name in names]


workflow_agent = st.builds(
    WorkflowAgentDecl, nonempty, st.sampled_from(["existing", "new"]), text, tools)
workflow_form = st.builds(
    WorkflowForm, text, slot, slot,
    agents=st.lists(workflow_agent, max_size=3), global_variables=global_vars,
    events=events())


def _without_paths(value):
    """A copy of a form record with every ``path`` field emptied."""
    if isinstance(value, list):
        return [_without_paths(item) for item in value]
    if not dataclasses.is_dataclass(value):
        return value
    changes = {f.name: _without_paths(getattr(value, f.name))
               for f in dataclasses.fields(value)}
    if "path" in changes:
        changes["path"] = ""
    return dataclasses.replace(value, **changes)


# 150 examples in tier-1; the profile's budget when larger (HYPOTHESIS_PROFILE=fuzz)
ROUND_TRIPS = settings(max_examples=max(150, settings.default.max_examples), deadline=None)


@ROUND_TRIPS
@given(agent_form)
def test_agent_form_round_trip(form):
    text = agent_form_to_xml(form)
    parsed = parse_agent_form(text)
    assert agent_form_to_xml(parsed) == text
    assert _without_paths(parsed) == form


@ROUND_TRIPS
@given(workflow_form)
def test_workflow_form_round_trip(form):
    text = workflow_form_to_xml(form)
    parsed = parse_workflow_form(text)
    assert workflow_form_to_xml(parsed) == text
    assert _without_paths(parsed) == form
