"""The schema pre-check `_conforms` against jsonschema, the source of every schema message.

`validate_config` asks `_conforms` first and imports jsonschema only for a
config that does not conform. Whenever `_conforms` accepts a config,
jsonschema must accept it too (soundness); the two should agree on every
config, so that valid ones never pay for the import.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from test_double_groupoid import workloads
from unilab.cli import CONFIG_SCHEMA, _conforms, validate_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
BUNDLED = sorted(CONFIG_DIR.glob("*.json"))
VALID_BUNDLED = [p for p in BUNDLED if not p.stem.startswith("bad_")]
VALIDATOR = Draft7Validator(CONFIG_SCHEMA)


def write_workload_configs(directory: Path) -> list[Path]:
    return [
        workload.generate(1, directory / name)
        for name, workload in sorted(workloads().WORKLOADS.items())
    ]


def reference_diagnostics(config) -> list[str]:
    """Schema diagnostics as jsonschema alone gives them, sorted by location and message."""
    errors = sorted(
        VALIDATOR.iter_errors(config),
        key=lambda e: (list(map(str, e.absolute_path)), e.message),
    )
    return [f"{'.'.join(map(str, e.absolute_path)) or 'config'}: {e.message}" for e in errors]


def schema_keys(schema) -> set[str]:
    keys = set()
    if isinstance(schema, dict):
        keys |= set(schema.get("properties", {}))
        for value in schema.values():
            keys |= schema_keys(value)
    elif isinstance(schema, list):
        for value in schema:
            keys |= schema_keys(value)
    return keys


def full_config() -> dict:
    """A valid config with every object level CONFIG_SCHEMA has."""
    def arrows():
        return {"arrows": [
            {"id": "a", "source": "A", "target": "A", "map": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        ]}

    return {
        "schema": 1,
        "domain": {"lower": [0, 0, 0], "upper": [1, 1, 1], "resolution": [3, 3, 3]},
        "composite": {
            "case": "discrete-transiso",
            "component1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "component2": {"grid": "component2.npz"},
            "director": ["1", "0", "0"],
        },
        "tolerances": {"rank_rel_tol": 1e-8, "commutation_tol": 1e-9, "group_tol": 1e-9},
        "points": [{"id": "A", "coords": [0.5, 0.5, 0.5]}],
        "pairs": [["A", "A"]],
        "pair_comparisons": [[["A", "A"], ["A", "A"]]],
        "groupoids": {"horizontal": arrows(), "vertical": arrows()},
        "squares": [{"corners": {"W": "A", "X": "A", "Y": "A", "Z": "A"},
                     "s": "a", "t": "a", "s_hat": "a", "t_hat": "a"}],
        "max_squares": 10,
        "tasks": ["measure", "squares"],
    }


def base_configs() -> list[dict]:
    configs = [json.loads(p.read_text()) for p in BUNDLED]
    with tempfile.TemporaryDirectory() as tmp:
        configs += [json.loads(p.read_text()) for p in write_workload_configs(Path(tmp))]
    return configs + [full_config()]


BASES = base_configs()
KEYS = sorted(schema_keys(CONFIG_SCHEMA) | {"extra"})
STRINGS = ["", "A", "p00", "1", "x1^2", "grid", "discrete-discrete", "iso-iso",
           "squares", "measure", "sing"]
NUMBERS = (
    st.sampled_from([0, 1, 2, 3, 9, -1, 0.0, -0.0, 1.0, 2.0, 2.5, 1e-9,
                     float("nan"), float("inf"), -float("inf")])
    | st.integers(-5, 10)
    | st.floats(allow_nan=True, allow_infinity=True)
)
SCALARS = st.none() | st.booleans() | NUMBERS | st.sampled_from(STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=3),
    max_leaves=8,
)


def subtrees(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from subtrees(child)


# Values that fit somewhere in a valid config, so that many mutants stay valid.
PARTS = [part for base in BASES for part in subtrees(base)]


def mutate(data, config):
    """`config` with one to three random edits.

    An edit replaces a value (by one of the same JSON kind, by a part of
    some config, or by anything), deletes it, or adds a key or an item.
    """
    root = [copy.deepcopy(config)]
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key = root, 0
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.integers(0, 3)):
            node = parent[key]
            parent, key = node, data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))
            ))
        node = parent[key]
        edit = data.draw(st.sampled_from(["kind", "part", "replace", "delete", "add", "copy"]))
        if edit == "delete" and parent is not root:
            del parent[key]
        elif edit == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(KEYS))] = data.draw(VALUES)
        elif edit == "add" and isinstance(node, list):
            node.append(data.draw(VALUES))
        elif edit == "copy" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[0]))
        elif edit == "kind" and isinstance(node, (int, float)) and not isinstance(node, bool):
            parent[key] = data.draw(NUMBERS)
        elif edit == "kind" and isinstance(node, str):
            parent[key] = data.draw(st.sampled_from(STRINGS))
        elif edit == "replace":
            parent[key] = data.draw(VALUES)
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(PARTS)))
    return root[0]


def agree(config):
    conforms = _conforms(config, CONFIG_SCHEMA)
    valid = VALIDATOR.is_valid(config)
    assert valid or not conforms  # soundness: the pre-check never passes an invalid config
    assert conforms == valid


class TestAgreement:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_mutated_configs(self, data):
        agree(mutate(data, data.draw(st.sampled_from(BASES))))

    @pytest.mark.parametrize("index", range(len(BASES)))
    def test_bases(self, index):
        agree(BASES[index])

    @pytest.mark.parametrize(
        "value, valid",
        [(1, True), (1.0, True), (True, False), (2, False), ("1", False)],
        ids=["1", "1.0", "true", "2", "string"],
    )
    def test_schema_version(self, value, valid):
        config = dict(full_config(), schema=value)
        assert _conforms(config, CONFIG_SCHEMA) == valid
        agree(config)

    @pytest.mark.parametrize(
        "value, valid",
        [(True, False), (2.0, True), (float("inf"), False), (1, False), (1e15, True)],
        ids=["true", "2.0", "inf", "1", "1e15"],
    )
    def test_resolution_entry(self, value, valid):
        config = full_config()
        config["domain"]["resolution"][1] = value
        assert _conforms(config, CONFIG_SCHEMA) == valid
        agree(config)

    @pytest.mark.parametrize(
        "value, valid",
        [(0, False), (0.0, False), (-1e-9, False), (float("nan"), True), (True, False)],
        ids=["0", "0.0", "negative", "nan", "true"],
    )
    def test_tolerance(self, value, valid):
        config = full_config()
        config["tolerances"]["group_tol"] = value
        assert _conforms(config, CONFIG_SCHEMA) == valid
        agree(config)

    @pytest.mark.parametrize(
        "value, valid",
        [(1, False), (1.0, False), (0.999, True), (1e308, False), (float("nan"), True)],
        ids=["1", "1.0", "0.999", "1e308", "nan"],
    )
    def test_rank_rel_tol(self, value, valid):
        config = full_config()
        config["tolerances"]["rank_rel_tol"] = value
        assert _conforms(config, CONFIG_SCHEMA) == valid
        agree(config)

    @pytest.mark.parametrize("keyword", ["minimum", "exclusiveMinimum", "exclusiveMaximum"])
    @pytest.mark.parametrize("value", [float("nan"), -float("inf"), 1, 1.5, 2, True, "1"])
    def test_bound_keywords_alone(self, keyword, value):
        # In CONFIG_SCHEMA `minimum` only sits next to "integer", which NaN
        # already fails; on its own, NaN passes every bound.
        schema = {keyword: 1.5}
        assert _conforms(value, schema) == Draft7Validator(schema).is_valid(value)

    @pytest.mark.parametrize(
        "frame",
        [{"grid": 1}, {"grid": "g.npz", "x": 1}, {}, [["1", "0"]] * 3, [], "1", None],
        ids=["grid-not-string", "grid-extra-key", "empty-object", "short-rows", "empty", "string",
             "null"],
    )
    def test_frame_matching_neither_branch(self, frame):
        config = full_config()
        config["composite"]["component1"] = frame
        assert not _conforms(config, CONFIG_SCHEMA)
        agree(config)

    def test_frame_matching_both_branches(self):
        # The two branches of a frame cannot overlap (array and object), so
        # overlap is tested on a schema whose second branch takes any array.
        schema = {"oneOf": [CONFIG_SCHEMA["properties"]["composite"]["properties"]
                            ["component1"]["oneOf"][0], {"type": "array"}]}
        frame = full_config()["composite"]["component1"]
        assert not _conforms(frame, schema)
        assert not Draft7Validator(schema).is_valid(frame)
        assert _conforms([1], schema) and Draft7Validator(schema).is_valid([1])

    def test_extra_key_at_every_object_level(self):
        levels = []

        def visit(node, path):
            if isinstance(node, dict):
                levels.append(path)
                for key, value in node.items():
                    visit(value, path + [key])
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    visit(value, path + [i])

        visit(full_config(), [])
        assert len(levels) == 13
        for path in levels:
            config = full_config()
            node = config
            for part in path:
                node = node[part]
            node["extra"] = 1
            assert not _conforms(config, CONFIG_SCHEMA), path
            agree(config)
            location = ".".join(map(str, path)) or "config"
            message = "Additional properties are not allowed ('extra' was unexpected)"
            if path == ["composite", "component2"]:  # a grid frame is a oneOf branch
                message = f"{node!r} is not valid under any of the given schemas"
            assert reference_diagnostics(config) == [f"{location}: {message}"]

    def test_empty_task_list(self):
        config = dict(full_config(), tasks=[])
        assert not _conforms(config, CONFIG_SCHEMA)
        agree(config)


class TestDiagnostics:
    def test_bad_schema_lines(self):
        assert validate_config(CONFIG_DIR / "bad_schema.json") == [
            "domain.resolution: [5, 5] is too short",
            "tasks.1: 'sing' is not one of "
            "['measure', 'foliate', 'squares', 'misalign', 'infinitesimal']",
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_invalid_configs(self, data):
        config = mutate(data, data.draw(st.sampled_from(BASES)))
        expected = reference_diagnostics(config)
        if not expected:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            assert validate_config(path) == expected


SCRIPT = """
import sys
from pathlib import Path
from unilab.cli import run, validate_config

out = Path(sys.argv[1])
for i, config in enumerate(sys.argv[2:]):
    assert validate_config(config) == [], config
    assert run(config, out / f"report{i}.json") == 0, config
print("jsonschema" in sys.modules)
"""


def test_valid_configs_never_import_jsonschema(tmp_path):
    configs = VALID_BUNDLED + write_workload_configs(tmp_path / "workloads")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), *map(str, configs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    assert result.stdout.strip() == "False"
