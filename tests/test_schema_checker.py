"""The in-module schema checker against jsonschema, its test oracle.

For every input, the messages of ``validate_scenario`` are those of
``jsonschema.Draft202012Validator(SCENARIO_SCHEMA)``, at the same paths
and in the same order; a spec jsonschema accepts reaches the semantic
checks.  Inputs: every bundled scenario, every benchmark workload spec at
two seeds, and hypothesis-drawn mutations of them.
"""

import copy
import importlib.util
import json
import pathlib

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glharmonic import scenarios
from glharmonic.scenarios import BUILTIN_SCENARIOS, SCENARIO_SCHEMA, validate_scenario

ORACLE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def _workload_specs(seeds=(1, 7)) -> dict:
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{workload}@{seed}/{s['name']}": s for workload, make in module.WORKLOADS.items()
            for seed in seeds for s in make(seed)}


# JSON round trips, so that no two nodes of one spec are the same object
FIXED = {name: json.loads(json.dumps(spec))
         for name, spec in {**BUILTIN_SCENARIOS, **_workload_specs()}.items()}


def _oracle(spec) -> list[str]:
    """jsonschema's messages, formatted and sorted as the validator lists them."""
    return [f"{'.'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
            for err in sorted(ORACLE.iter_errors(spec), key=lambda e: list(e.absolute_path))]


def _assert_agrees(spec):
    expected = _oracle(spec)
    if expected:
        assert validate_scenario(spec) == expected
    else:
        # the schema passed, so only semantic messages may follow
        assert scenarios._checked(spec)[1] is not None


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_inputs_agree_and_validate(name):
    assert _oracle(FIXED[name]) == []
    assert validate_scenario(FIXED[name]) == []


# values of every type the schema names, bools and integral floats among
# them, each side of every bound, and each oneOf branch and neither
_SPECIAL = st.sampled_from([
    None, True, False, 0, 1, 2, 3, 4, 5, 7, -1, 0.0, 2.0, 4.0, 5.0, 1.5, -1e-300, 1e300,
    float("inf"), float("nan"), "", "x1", "identity", "euclid", "energy", "orbit", "last",
    [], {}, [True, False], [1, 0], [0.0, 1.0], [0.0, 1.0, 2.0], [[0.0, 1.0]],
    [[0.0, 1.0, 2.0]], [5.0, 5], [""], ["1", "1"], [[]], [["1", "0"], ["0", "1"]],
    {"diag": ["1", "1"]}, {"matrix": [["1", "0"], ["0", "1"]]}, {"diag": []},
    {"diag": ["1"], "pseudo": True}, {"matrix": []}, {"task": "energy"}, {"task": 1},
    {"xi": ["1"], "A": ["1"]}, {"kind": "zero"},
]).map(copy.deepcopy)   # a mutation may edit what it drew
_SCALAR = st.one_of(st.booleans(), st.integers(-3, 300), st.integers(-3, 300).map(float),
                    st.floats(), st.text(max_size=2), _SPECIAL)
_VALUE = st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3),
                   st.dictionaries(st.text(max_size=2), _SCALAR, max_size=2))
_STRAY = st.sampled_from(["zz", "aa", "pseudo", "Dim", "", 1, "fd_step", "metric"])


def _nodes(value, path=()):
    """Every (path, node) of a spec tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _nodes(item, path + (k,))


def _mutate(data, spec):
    """One drawn mutation of ``spec`` in place; the new root if it replaces it."""
    path, node = data.draw(st.sampled_from(list(_nodes(spec))))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    ops = ["replace"]
    if path:
        ops.append("drop")
    if isinstance(node, dict):
        ops.append("stray")
    if isinstance(node, (list, str)):
        ops += ["empty", "append"] if isinstance(node, list) else ["empty"]
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        del parent[path[-1]]
    elif op == "stray":
        for key in data.draw(st.lists(_STRAY, min_size=1, max_size=3)):
            node[key] = data.draw(_SCALAR)
    elif op == "append":
        node.append(copy.deepcopy(node[-1]) if node and data.draw(st.booleans())
                    else data.draw(_VALUE))
    else:
        new = (node[:0] if op == "empty" else data.draw(_VALUE))
        if not path:
            return new
        parent[path[-1]] = new
    return spec


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_mutations_agree_with_jsonschema(data):
    spec = copy.deepcopy(FIXED[data.draw(st.sampled_from(sorted(FIXED)))])
    for _ in range(data.draw(st.integers(1, 3))):
        spec = _mutate(data, spec)
        if not isinstance(spec, dict):
            break
    _assert_agrees(spec)


def test_each_keyword_message():
    # the messages jsonschema 4.26 gives, one per keyword of the subset
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["harmonic-identity"]))
    del spec["name"]
    spec.update(zz=1, aa=2)
    spec["m_space"].update(dim=True, nodes=[3, 33], extents=[[0.0, 1.0, 2.0], [0.0, 1.0]],
                           metric="euclid", stencil_order=3, periodic=[])
    spec["n_space"]["dim"] = 5
    spec["map"]["components"] = [""]
    spec["tolerances"] = {"tol_gap": 0}
    spec["tasks"] = []
    expected = _oracle(spec)
    assert validate_scenario(spec) == expected
    assert expected == [
        "<root>: 'name' is a required property",
        "<root>: Additional properties are not allowed ('aa', 'zz' were unexpected)",
        "m_space.dim: True is not of type 'integer'",
        "m_space.extents.0: [0.0, 1.0, 2.0] is too long",
        "m_space.metric: 'euclid' is not valid under any of the given schemas",
        "m_space.nodes.0: 3 is less than the minimum of 5",
        "m_space.stencil_order: 3 is not one of [2, 4]",
        "map.components.0: '' should be non-empty",
        "n_space.dim: 5 is greater than the maximum of 4",
        "tasks: [] should be non-empty",
        "tolerances.tol_gap: 0 is less than or equal to the minimum of 0",
    ]


@pytest.mark.parametrize("value", [1, 2.0, [0], "yes", None, {"diag": ["1"]}])
def test_non_mapping_roots_and_branches(value):
    _assert_agrees(value)
    spec = json.loads(json.dumps(BUILTIN_SCENARIOS["maxwell-logconformal"]))
    spec["gl_space"]["periodic"] = value
    spec["gl_space"]["metric"] = value
    _assert_agrees(spec)


@pytest.mark.parametrize("schema, value", [
    ({"enum": [0, 1]}, True),
    ({"enum": [0, 1]}, 1.0),
    ({"const": 1}, True),
    ({"const": 0}, False),
    ({"maxItems": 0}, [1]),
    ({"minItems": 3}, [1]),
    ({"minLength": 2}, "a"),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 0}]}, 2.0),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 2.0),
    ({"type": "number", "minimum": 5, "maximum": 1}, 3.0),
    ({"type": "integer", "exclusiveMinimum": 1}, 1.0),
    ({"type": "number"}, 1j),
    ({"type": "object", "additionalProperties": False}, {1: 0, "1": 0, "b": 0}),
])
def test_keyword_rules_beyond_the_scenario_schema(schema, value):
    # the rules of each keyword where SCENARIO_SCHEMA's own values do not
    # reach them: a bool is not 1 or 0, more than one matching branch,
    # an empty-array bound, bounds of two
    problems = []
    scenarios._schema_problems(schema, value, (), problems, [])
    assert [message for _, message in problems] == [
        err.message for err in jsonschema.Draft202012Validator(schema).iter_errors(value)]


def test_a_branch_records_its_integral_floats():
    integral = []
    scenarios._schema_problems({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 2.0,
                               ("k",), [], integral)
    assert integral == [("k",)]
