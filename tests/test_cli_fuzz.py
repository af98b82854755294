"""Malformed scenarios exit 2, never as an internal error.

Each example mutates one of the four bundled S3 scenarios: it drops a key of
``cli.READERS``, gives a key a value of another JSON type, puts an unknown
label where a label or a nested key was, or gives a nested value the wrong
type.  A report subcommand (any but ``verify-paper``) runs on it in process
through ``cli.main``, which must exit 0 or 2, never 1 (an uncaught exception)
or 4 (an internal error), and print either nothing or exactly one JSON
document on stdout.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qdouble import cli

SCENARIOS = {
    path.stem: json.loads(path.read_text())
    for path in sorted((Path(cli.__file__).parent / "scenarios").glob("s3_*.json"))
}
REPORTS = [c for c in sorted(cli.COMMANDS) if c != "verify-paper"]
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=500)
# small values of every JSON type, so no mutation asks for a large group
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([0.5, -1.0, 2.0]),
    st.text("euvwl1", max_size=3),
    st.lists(st.one_of(st.integers(-1, 3), st.text("uv", max_size=2)), max_size=3),
    st.dictionaries(st.text("uvj", max_size=2), st.integers(-1, 2), max_size=2),
)


def _positions(node, path=()):
    """The path of every value nested in node, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


def _parent(scenario, path):
    """The dict or list that holds the value at path."""
    for key in path[:-1]:
        scenario = scenario[key]
    return scenario


@st.composite
def mutated(draw):
    scenario = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    kind = draw(st.sampled_from(["drop", "retype", "unknown label", "nested type"]))
    nested = [p for p in _positions(scenario) if len(p) > 1]
    if kind == "drop":
        scenario.pop(draw(st.sampled_from(sorted(cli.READERS))), None)
    elif kind == "retype":
        scenario[draw(st.sampled_from(sorted(cli.READERS)))] = draw(VALUES)
    elif kind == "unknown label":
        path = draw(st.sampled_from([p for p in _positions(scenario) if isinstance(p[-1], str) or p in nested]))
        parent = _parent(scenario, path)
        if isinstance(path[-1], str) and len(path) > 1 and draw(st.booleans()):
            parent["zz"] = parent.pop(path[-1])  # a nested key, such as a lengths label
        else:
            parent[path[-1]] = "zz" if isinstance(parent[path[-1]], str) else ["zz"]
    elif nested:
        path = draw(st.sampled_from(nested))
        _parent(scenario, path)[path[-1]] = draw(VALUES)
    return scenario


def _run(subcommand: str, scenario: dict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([subcommand, "--scenario", str(path)])
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(st.sampled_from(REPORTS), mutated())
def test_a_mutated_scenario_exits_0_or_2(subcommand, scenario):
    code, out, err = _run(subcommand, scenario)
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.startswith("configuration error: ") and err.count("\n") == 1
    else:
        assert isinstance(json.loads(out), dict)
