"""The configuration checker against jsonschema, its test oracle.

rbtlab checks a configuration with its own walk of ``config.schema.json``.
jsonschema, with ``integer`` redefined as a JSON integer literal, must give
the same verdict and the same first-error path on a seeded corpus of
mutated configurations.
"""

import copy
import random

import pytest
from jsonschema import Draft202012Validator, validators

from rbtlab import config
from rbtlab.config import DEFAULT_CONFIG, ConfigError, RunConfig, load_schema

from test_cli import TINY_CONFIG

CORPUS_SIZE = 12_000
ANNOTATIONS = {"$schema", "title"}

StrictIntegers = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)

# Values that break each keyword somewhere: wrong types, integer-valued
# floats, bounds, enum misses, true against 1, repeats, short and long arrays.
VALUES = [
    0, 1, 2, 3, -1, 1.0, 2.0, 400.0, 0.5, -0.5, 1.5, 1e-9, 2**53 - 1, 2**53,
    True, False, None, "", "w", "raw", "left", "ideal", "inf", "01",
    [], [1], [1, 1], [1, 1.0], [1, True], [1, 2, 3], [0, 1, 0], [1, 0, 0, 0], ["raw", "raw"],
    ["raw", "left"], {}, {"name": "w"}, {"axis": [1, 0, 0], "angle": 1.0},
    {"name": "w", "angle": 1.0}, {"axis": [1, 0], "angle": 1.0}, {"axis": [1, 0, 0, 0], "angle": 1},
    {"1": 2}, {"01": 3},
]
KEYS = [
    "name", "axis", "angle", "t1", "kind", "samples_per_config", "enabled", "variants", "levels",
    "shotz", "1", "2", "3", "0", "01", "inf", "Inf", "1.5", "-1", "a'b",
]


ORACLE = StrictIntegers(load_schema())


def first_path(errors):
    """jsonschema's first error path (the smallest), spelled, or None."""
    errors = sorted(errors, key=lambda e: list(e.absolute_path))
    return errors[0].json_path if errors else None


def checker(data):
    """The checker's spelled first-error path for ``data``, or None."""
    error = min(config._schema_errors(config._schema(), data), key=lambda e: e[0], default=None)
    return None if error is None else config._json_path(error[0])


def _containers(value, out):
    if isinstance(value, (dict, list)):
        out.append(value)
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, out)
    return out


def mutate(rng, data):
    """Replace a value from the pool, delete a key or item, or add a key
    or item, at a random place in ``data``."""
    place = rng.choice(_containers(data, []))
    op = rng.choice(["replace", "replace", "delete", "add"])
    if isinstance(place, dict):
        if op == "add" or not place:
            place[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
        elif op == "delete":
            del place[rng.choice(list(place))]
        else:
            place[rng.choice(list(place))] = copy.deepcopy(rng.choice(VALUES))
    elif op == "add" or not place:
        place.insert(rng.randrange(len(place) + 1), copy.deepcopy(rng.choice(VALUES)))
    elif op == "delete":
        del place[rng.randrange(len(place))]
    else:
        place[rng.randrange(len(place))] = copy.deepcopy(rng.choice(VALUES))


def corpus():
    """Mutants of the default and the tiny configuration, the tiny one
    also with an axis/angle target, each filled up with the defaults."""
    tiny = dict(DEFAULT_CONFIG, **TINY_CONFIG)
    bases = [DEFAULT_CONFIG, tiny, dict(tiny, target={"axis": [1, 2, 3], "angle": 1.1})]
    rng = random.Random(20)
    for _ in range(CORPUS_SIZE):
        data = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            mutate(rng, data)
        yield data


def _keywords_in(schema_path):
    """The keywords along a jsonschema error's schema path."""
    steps = iter(schema_path)
    for keyword in steps:
        yield keyword
        if keyword in ("properties", "oneOf"):
            next(steps, None)  # a property name or an alternative's index


def _keywords_hit(error):
    yield from _keywords_in(error.absolute_schema_path)
    for sub in error.context:
        yield from _keywords_hit(sub)


def _schema_keywords(schema):
    """Every keyword of a schema, nested ones included."""
    for keyword, rule in schema.items():
        yield keyword
        if keyword == "properties":
            subs = rule.values()
        elif keyword == "oneOf":
            subs = rule
        elif keyword in ("items", "propertyNames", "additionalProperties") and isinstance(rule, dict):
            subs = [rule]
        else:
            subs = []
        for sub in subs:
            yield from _schema_keywords(sub)


def test_corpus_agrees_with_oracle():
    hit, verdicts = set(), {True: 0, False: 0}
    for data in corpus():
        errors = list(ORACLE.iter_errors(data))
        assert checker(data) == first_path(errors), data
        verdicts[not errors] += 1
        for error in errors:
            hit.update(_keywords_hit(error))
    assert min(verdicts.values()) > CORPUS_SIZE // 20, verdicts
    assert hit >= config._KEYWORDS - ANNOTATIONS, config._KEYWORDS - ANNOTATIONS - hit


def test_schema_uses_only_implemented_keywords():
    used = set(_schema_keywords(load_schema()))
    assert used <= config._KEYWORDS, used - config._KEYWORDS
    assert used >= config._KEYWORDS, "the checker implements keywords the schema does not use"


@pytest.mark.parametrize("keyword", [{"multipleOf": 2}, {"anyOf": [{"type": "integer"}]}])
def test_unknown_keyword_raises(keyword):
    schema = {"type": "object", "properties": {"shots": dict({"type": "integer"}, **keyword)}}
    with pytest.raises(NotImplementedError, match=next(iter(keyword))):
        list(config._schema_errors(schema, {"shots": 4}))


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 1),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 0.5),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -0.5),
        ({"const": 1}, 1.0),
        ({"const": 1}, True),
        ({"const": [1, {"a": 0}]}, [1.0, {"a": 0.0}]),
        ({"const": [1, {"a": 0}]}, [1, {"a": False}]),
        ({"enum": [0, "0"]}, False),
        ({"uniqueItems": True}, [0, False]),
        ({"uniqueItems": True}, [[1], [1.0]]),
        ({"uniqueItems": True}, [{"a": 1}, {"a": True}]),
        ({"type": "integer"}, 1.0),
        ({"type": "number"}, True),
    ],
)
def test_json_semantics_agree_with_oracle(schema, value):
    # Cases no configuration reaches: overlapping alternatives, and JSON
    # equality of nested values.
    errors = list(StrictIntegers(schema).iter_errors(value))
    assert any(config._schema_errors(schema, value)) == bool(errors)


@pytest.mark.parametrize(
    "data, named",
    [
        ({"shotz": 10}, "shotz"),
        ({"noise": {"kind": "brownian"}}, "brownian"),
        ({"shots": 400.0}, "400.0"),
        ({"repeats": {"01": 3}}, "01"),
        ({"lengths": [1, 1]}, "[1, 1]"),
        ({"target": {"axis": [1, 0, 0]}}, "axis"),
    ],
)
def test_message_names_the_offending_key_or_value(data, named):
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_dict(data)
    assert named in str(excinfo.value)


def test_missing_property_is_named():
    data = {key: value for key, value in DEFAULT_CONFIG.items() if key != "bin_size"}
    ((path, message),) = config._schema_errors(config._schema(), data)
    assert path == () and "bin_size" in message


def test_non_identifier_key_is_quoted():
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_dict({"repeats": {"2": 0}})
    assert excinfo.value.path == "$.repeats['2']"
    assert config._json_path(("repeats", "a'b\\", 3)) == "$.repeats['a\\'b\\\\'][3]"
