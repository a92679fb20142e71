"""Form parsing, rule validation, serialization, and substitution.

MUTANTS is the single-rule corruption table: each entry takes a clean
fixture, breaks exactly one rule, and must produce exactly that rule's
code. The acceptance suite replays the same table under a time bound.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos import naming
from agentos.backends import ScriptedBackend
from agentos.engine import Engine
from agentos.errors import (
    ActionTypeError,
    InvalidFormError,
    SchemaError,
    UnboundVariableError,
    XmlError,
)
from agentos.forms import (
    ActionSpec,
    AgentForm,
    Diagnostic,
    EventAgentRef,
    GlobalVar,
    KeyDesc,
    RegistryView,
    agent_form_to_xml,
    globals_map,
    parse_agent_form,
    parse_workflow_form,
    substitute_globals,
    validate_agent_form,
    validate_workflow_form,
    workflow_form_to_xml,
)
from agentos.workflow import run_workflow

from conftest import FINANCIAL_VIEW, IMAGE_VIEW, MATH_VIEW, WIKI_VIEW, read_fixture

FIXTURE_CASES = [
    ("image_agent_form.xml", parse_agent_form, validate_agent_form, IMAGE_VIEW),
    ("financial_agents_form.xml", parse_agent_form, validate_agent_form, FINANCIAL_VIEW),
    ("math_voting_workflow.xml", parse_workflow_form, validate_workflow_form, MATH_VIEW),
    ("wiki_article_workflow.xml", parse_workflow_form, validate_workflow_form, WIKI_VIEW),
]


# ---------------------------------------------------------------------------
# clean fixtures parse and validate clean
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,parse,validate,view",
                         FIXTURE_CASES, ids=[c[0] for c in FIXTURE_CASES])
def test_fixture_is_clean(name, parse, validate, view):
    form = parse(read_fixture(name))
    assert validate(form, view) == []


def test_agent_form_shape(image_form):
    assert image_form.system_output.key == "image_evaluation"
    agent = image_form.agents[0]
    assert agent.name == "DaVinci Agent"
    assert [t.name for t in agent.tools_existing] == ["visual_question_answering"]
    assert [t.name for t in agent.tools_new] == ["generate_image", "refine_image"]
    assert agent.agent_input.key == "image_description"


def test_workflow_form_shape(wiki_form):
    assert wiki_form.name == "wiki_article_workflow"
    assert [e.name for e in wiki_form.events] == [
        "on_start", "on_search", "on_outline", "on_evaluate", "on_write"]
    assert [a.category for a in wiki_form.agents] == ["existing", "new", "new", "new"]
    evaluate = wiki_form.events[3]
    assert [o.action.type for o in evaluate.outputs] == ["RESULT", "GOTO"]
    assert evaluate.outputs[1].action.value == "on_outline"
    assert evaluate.outputs[0].condition
    assert wiki_form.events[1].agent.name == "Web Surfer Agent"


# ---------------------------------------------------------------------------
# reader rejections
# ---------------------------------------------------------------------------

MINI_WF = """<workflow>
    <name>tiny</name>
    <system_input><key>q</key><description>d</description></system_input>
    <system_output><key>a</key><description>d</description></system_output>
    <agents></agents>
    <events>
        <event>
            <name>on_start</name>
            <inputs><input><key>q</key><description>d</description></input></inputs>
            <outputs><output><key>q</key><description>d</description>
                <action><type>RESULT</type></action></output></outputs>
        </event>
    </events>
</workflow>
"""


def test_reject_doctype_and_entities():
    with pytest.raises(XmlError):
        parse_agent_form("<!DOCTYPE agents []><agents></agents>")
    with pytest.raises(XmlError):
        parse_workflow_form("<!doctype workflow>" + MINI_WF)


@pytest.mark.parametrize("parse, text", [
    (parse_workflow_form, "<workflow><name>w\ud800</name></workflow>"),
    (parse_agent_form, "<agents><system_input>\ud800</system_input></agents>"),
])
def test_reject_a_lone_surrogate_as_xml(parse, text):
    # the text cannot be encoded for the XML parser, so it is not a document
    with pytest.raises(XmlError) as err:
        parse(text)
    assert "surrogate" in err.value.message


def test_reject_malformed_and_wrong_root():
    with pytest.raises(XmlError):
        parse_agent_form("<agents><oops</agents>")
    with pytest.raises(SchemaError) as err:
        parse_agent_form("<workflow></workflow>")
    assert "expected root" in err.value.message


def test_reject_unknown_element_with_path():
    bad = MINI_WF.replace("<name>tiny</name>", "<name>tiny</name><surprise/>")
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(bad)
    assert err.value.path == "/workflow/surprise"


def test_reject_unknown_attribute():
    bad = MINI_WF.replace("<events>", '<events mode="fast">')
    with pytest.raises(SchemaError):
        parse_workflow_form(bad)


def test_reject_duplicate_event_name():
    extra = MINI_WF.replace("</events>", """
        <event>
            <name>on_start</name>
            <outputs><output><key>x</key><description>d</description>
                <action><type>RESULT</type></action></output></outputs>
        </event>
    </events>""")
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(extra)
    assert "duplicate event name" in err.value.message
    assert err.value.path == "/workflow/events[1]/event[2]"


def test_reject_unknown_action_type():
    bad = MINI_WF.replace("<type>RESULT</type>", "<type>JUMP</type>")
    with pytest.raises(ActionTypeError):
        parse_workflow_form(bad)
    lower = MINI_WF.replace("<type>RESULT</type>", "<type>result</type>")
    with pytest.raises(ActionTypeError):
        parse_workflow_form(lower)


def test_reject_goto_without_value():
    bad = MINI_WF.replace("<type>RESULT</type>", "<type>GOTO</type>")
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(bad)
    assert "GOTO" in err.value.message


def test_reject_mispaired_io_slot():
    bad = MINI_WF.replace(
        "<system_output><key>a</key><description>d</description></system_output>",
        "<system_output><key>a</key></system_output>")
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(bad)
    assert "pair up" in err.value.message


def test_reject_event_input_with_two_pairs():
    bad = MINI_WF.replace("<input><key>q</key><description>d</description></input>",
                          "<input><key>q</key><description>d</description>"
                          "<key>r</key><description>e</description></input>")
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(bad)
    assert err.value.path == "/workflow/events[1]/event[1]/inputs[1]/input[1]"
    assert err.value.message == f"{err.value.path}: expected exactly one key/description pair"


def test_reject_non_identifier_key():
    bad = MINI_WF.replace("<key>a</key>", "<key>not a key</key>")
    with pytest.raises(SchemaError):
        parse_workflow_form(bad)


def test_reject_bad_tools_category():
    text = read_fixture("image_agent_form.xml").replace(
        'category="existing"', 'category="borrowed"')
    with pytest.raises(SchemaError) as err:
        parse_agent_form(text)
    assert "existing|new" in err.value.message


def test_reject_unexpected_tools_attribute():
    agents = read_fixture("image_agent_form.xml").replace(
        'category="existing"', 'category="existing" scope="all"')
    with pytest.raises(SchemaError) as err:
        parse_agent_form(agents)
    assert err.value.message == "/agents/agent[1]/tools[1]: unexpected attribute on <tools>"
    workflow = read_fixture("math_voting_workflow.xml").replace(
        "<name>Math Solver Agent</name>",
        '<name>Math Solver Agent</name><tools category="new" scope="all"></tools>', 1)
    with pytest.raises(SchemaError) as err:
        parse_workflow_form(workflow)
    assert err.value.message == (
        "/workflow/agents[1]/agent[1]/tools[1]: unexpected attribute on <tools>")


def test_reject_bad_agent_category():
    text = read_fixture("math_voting_workflow.xml").replace(
        '<agent category="new">\n            <name>Math Solver Agent</name>',
        '<agent>\n            <name>Math Solver Agent</name>', 1)
    with pytest.raises(SchemaError):
        parse_workflow_form(text)


def test_reject_missing_required_parts():
    with pytest.raises(SchemaError):
        parse_agent_form("<agents><system_input>x</system_input></agents>")
    no_outputs = MINI_WF.replace(
        "<outputs><output><key>q</key><description>d</description>"
        "\n                <action><type>RESULT</type></action></output></outputs>",
        "<outputs></outputs>")
    with pytest.raises(SchemaError):
        parse_workflow_form(no_outputs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,parse,validate,view",
                         FIXTURE_CASES, ids=[c[0] for c in FIXTURE_CASES])
def test_serialize_parse_fixpoint(name, parse, validate, view):
    form = parse(read_fixture(name))
    to_xml = agent_form_to_xml if isinstance(form, AgentForm) else workflow_form_to_xml
    once = to_xml(form)
    again = to_xml(parse(once))
    assert once == again
    assert validate(parse(once), view) == []


def test_serialized_workflow_keeps_structure(wiki_form):
    text = workflow_form_to_xml(wiki_form)
    reparsed = parse_workflow_form(text)
    assert [e.name for e in reparsed.events] == [e.name for e in wiki_form.events]
    assert reparsed.events[3].outputs[1].action.value == "on_outline"
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_globals():
    bound = {"city": "Oslo", "n": "3"}
    assert substitute_globals("visit {city} {n} times", bound) == "visit Oslo 3 times"
    assert substitute_globals("literal {{city}} stays", bound) == "literal {city} stays"
    assert substitute_globals("json {\"k\": 1} passes", bound) == 'json {"k": 1} passes'
    assert substitute_globals("{city}{n}", bound) == "Oslo3"
    with pytest.raises(UnboundVariableError):
        substitute_globals("hello {nobody}", bound)


# an escape, a placeholder, or any one character, tried in that order at each position
_SUBSTITUTION_TOKEN = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}|.", re.DOTALL)


def reference_substitute(text: str, variables: dict) -> str:
    out = []
    for match in _SUBSTITUTION_TOKEN.finditer(text):
        token, key = match.group(0), match.group(1)
        if key is not None:
            if key not in variables:
                raise UnboundVariableError(f"unbound variable: {{{key}}}")
            out.append(variables[key])
        else:
            out.append({"{{": "{", "}}": "}"}.get(token, token))
    return "".join(out)


_TEMPLATE = st.text("{}ab_1 é\n", max_size=30) | st.lists(st.sampled_from(
    ["{", "}", "{{", "}}", "{a}", "{b}", "{ab}", "{_1}", "{1a}", "{a b}", "{a", "b}", "x", " "]),
    max_size=12).map("".join)


@settings(max_examples=max(500, settings.default.max_examples), deadline=None)
@given(text=_TEMPLATE,
       variables=st.dictionaries(st.sampled_from(["a", "b", "ab", "_1"]), st.text("{}ab ", max_size=4)))
def test_substitute_globals_matches_a_reference(text, variables):
    try:
        expected = reference_substitute(text, variables)
    except UnboundVariableError as err:
        with pytest.raises(UnboundVariableError) as raised:
            substitute_globals(text, variables)
        assert str(raised.value) == str(err)
    else:
        assert substitute_globals(text, variables) == expected


class RecordingVariables(dict):
    """Binds every key and records each key looked up, in order."""

    def __init__(self):
        super().__init__()
        self.looked_up = []

    def __contains__(self, key):
        self.looked_up.append(key)
        return True

    def __getitem__(self, key):
        return "}{"


@settings(max_examples=max(500, settings.default.max_examples), deadline=None)
@given(text=_TEMPLATE)
def test_placeholders_are_the_keys_substitution_looks_up(text):
    variables = RecordingVariables()
    substitute_globals(text, variables)
    assert naming.placeholders(text) == variables.looked_up
    if variables.looked_up:
        with pytest.raises(UnboundVariableError):
            substitute_globals(text, {})
    else:
        substitute_globals(text, {})


def test_globals_map():
    variables = [GlobalVar("a", "desc", "1"), GlobalVar("b", value="2")]
    assert globals_map(variables) == {"a": "1", "b": "2"}


def test_diagnostic_str():
    d = Diagnostic("V4", "event must listen to at least one event",
                   "/workflow/events/event[2]")
    assert str(d) == "V4 /workflow/events/event[2]: event must listen to at least one event"


# ---------------------------------------------------------------------------
# single-rule mutants (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def _image():
    return parse_agent_form(read_fixture("image_agent_form.xml"))


def _financial():
    return parse_agent_form(read_fixture("financial_agents_form.xml"))


def _math():
    return parse_workflow_form(read_fixture("math_voting_workflow.xml"))


def _wiki():
    return parse_workflow_form(read_fixture("wiki_article_workflow.xml"))


def _m_a1():
    form = _image()
    form.system_output.pairs.append(KeyDesc("extra_key", "surplus pair"))
    return form, IMAGE_VIEW


def _m_a2():
    form = _image()
    form.agents[0].instructions = "Generate with {undefined_style} styling."
    return form, IMAGE_VIEW


def _m_a3():
    form = _image()
    form.agents[0].tools_existing[0].name = "mystery_tool"
    return form, IMAGE_VIEW


def _m_a4():
    form = _financial()
    form.agents[1].name = form.agents[0].name
    return form, FINANCIAL_VIEW


def _m_a5():
    form = _image()
    form.agents[0].agent_output.pairs[0] = KeyDesc("wrong_key", "mismatch")
    return form, IMAGE_VIEW


def _m_v1():
    form = _math()
    form.name = "parallel math solver"
    return form, MATH_VIEW


def _m_v2():
    form = _math()
    form.events[0].task = "prepare the problem"
    return form, MATH_VIEW


def _m_v3():
    form = _wiki()
    form.events[4].inputs[0] = KeyDesc("nonexistent_key", "never produced")
    return form, WIKI_VIEW


def _m_v4():
    form = _wiki()
    form.events[1].listen = []
    return form, WIKI_VIEW


def _m_v5():
    form = _wiki()
    form.events[3].outputs[1].action.value = "on_write"
    return form, WIKI_VIEW


def _m_v6():
    form = _wiki()
    form.events[3].outputs[1].condition = None
    return form, WIKI_VIEW


def _m_v7():
    form = _wiki()
    form.system_output.pairs[0] = KeyDesc("final_report", "renamed away")
    return form, WIKI_VIEW


def _m_v8():
    form = _wiki()
    form.events[1].agent.name = "Ghost Agent"
    return form, WIKI_VIEW


def _m_v9():
    form = _math()
    form.system_input.pairs.append(KeyDesc("second_key", "surplus pair"))
    return form, MATH_VIEW


def _m_v10():
    form = _wiki()
    form.events[1].listen = ["on_write"]
    return form, WIKI_VIEW


MUTANTS = [
    ("A1", _m_a1), ("A2", _m_a2), ("A3", _m_a3), ("A4", _m_a4), ("A5", _m_a5),
    ("V1", _m_v1), ("V2", _m_v2), ("V3", _m_v3), ("V4", _m_v4), ("V5", _m_v5),
    ("V6", _m_v6), ("V7", _m_v7), ("V8", _m_v8), ("V9", _m_v9), ("V10", _m_v10),
]


def run_mutant(builder):
    """Validate one corrupted form; returns the set of codes it raised."""
    form, view = builder()
    validate = validate_agent_form if isinstance(form, AgentForm) else validate_workflow_form
    return {d.code for d in validate(form, view)}


@pytest.mark.parametrize("code,builder", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_trips_exactly_one_rule(code, builder):
    assert run_mutant(builder) == {code}


# a few validator branches the mutant table does not reach

def test_v1_registry_name_collision(math_form):
    view = RegistryView(workflow_names=frozenset({math_form.name}))
    codes = [d.code for d in validate_workflow_form(math_form, view)]
    assert codes == ["V1"]


def test_v5_missing_target(wiki_form):
    wiki_form.events[3].outputs[1].action.value = "nowhere"
    codes = {d.code for d in validate_workflow_form(wiki_form, WIKI_VIEW)}
    assert codes == {"V5"}


def test_v6_two_results(wiki_form):
    wiki_form.events[3].outputs[1].action.type = "RESULT"
    wiki_form.events[3].outputs[1].action.value = None
    codes = [d.code for d in validate_workflow_form(wiki_form, WIKI_VIEW)]
    assert codes == ["V6"]


def test_v10_unknown_listen_reference(wiki_form):
    # on_search only needs the system input, so the dangling ref is isolated
    wiki_form.events[1].listen = ["missing_event"]
    codes = {d.code for d in validate_workflow_form(wiki_form, WIKI_VIEW)}
    assert codes == {"V10"}


def test_v2_missing_on_start(math_form):
    math_form.events = math_form.events[1:]
    codes = {d.code for d in validate_workflow_form(math_form, MATH_VIEW)}
    # the solvers still listen to the removed event, so V10 fires as well
    assert codes == {"V2", "V10"}


def test_v2_on_start_with_an_agent(math_form):
    math_form.events[0].agent = EventAgentRef("Math Solver Agent")
    assert [str(d) for d in validate_workflow_form(math_form, MATH_VIEW)] == [
        "V2 /workflow/events[1]/event[1]: on_start must not have an agent"]


def test_v2_on_start_output_that_is_not_a_result(math_form):
    math_form.events[0].outputs[0].action = ActionSpec("ABORT")
    assert [str(d) for d in validate_workflow_form(math_form, MATH_VIEW)] == [
        "V2 /workflow/events[1]/event[1]: on_start outputs must use the RESULT action"]


def test_v8_existing_agent_not_registered(wiki_form):
    wiki_form.agents[0].category = "existing"
    codes = {d.code for d in validate_workflow_form(wiki_form, RegistryView())}
    assert codes == {"V8"}


# an escape before or after a placeholder leaves the placeholder a placeholder
BRACED_PLACEHOLDERS = ["{{{ghost}}}", "{ghost}}}", "{{{ghost}", "a {{{ghost}}}} b"]


@pytest.mark.parametrize("text", BRACED_PLACEHOLDERS)
def test_validation_reads_placeholders_as_substitution_does(text):
    with pytest.raises(UnboundVariableError):
        substitute_globals(text, {})
    workflow = _wiki()
    workflow.events[1].task = text
    assert [(d.code, d.message) for d in validate_workflow_form(workflow, WIKI_VIEW)] == [
        ("V8", "task references undefined global {ghost}")]
    agents = _image()
    agents.agents[0].instructions = text
    assert [(d.code, d.message) for d in validate_agent_form(agents, IMAGE_VIEW)] == [
        ("A2", "instructions reference undefined global {ghost}")]


def test_v8_reads_agent_descriptions_as_substitution_does(math_form):
    # a form-declared agent's description is substituted when it runs an event
    math_form.agents[0].description = "Solve {ghost} problems"
    assert [(d.code, d.location, d.message)
            for d in validate_workflow_form(math_form, MATH_VIEW)] == [
        ("V8", f"{math_form.agents[0].path}/description",
         "description references undefined global {ghost}")]
    with pytest.raises(InvalidFormError):
        run_workflow(math_form, "2+2?", Engine("transformed", ScriptedBackend([])))
