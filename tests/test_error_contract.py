"""Fuzzing the CLI's error contract on untrusted files and flags.

Every command that reads a file is called in process, through ``cli.main``,
on drawn inputs: random JSON shapes, valid files with one header, key or
value mutated, and JSON nested past the recursion limit.  Each call must
either succeed (exit 0) or exit 1 with empty stdout, exactly one stderr line
starting with ``error:``, no ``--out`` file and no escaped exception.
"""
from __future__ import annotations

import contextlib
import io
import json

import pytest

from jetstress import cli, fileio

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)

VALID = {
    "dense": {
        "n": 2, "degree": 2, "variance": "co", "storage": "dense",
        "components": {"1,2": "1/2", "2,1": "-3", "2,2": "4"},
    },
    "symmetric": {
        "n": 2, "degree": 2, "variance": "contra", "storage": "symmetric", "convention": "arrow",
        "components": {"1,2": "1/2", "2,2": "3"},
    },
    "field": {"n": 2, "m": 1, "components": [{"1,0": "1", "0,2": "-2/3", "": "5"}]},
    "variational": {
        "n": 2, "m": 1, "k": 1, "kind": "variational",
        "blocks": {"1|": {"1,0": "1"}, "1|2": {"": "2", "0,1": "1/3"}},
    },
    "traction": {
        "n": 2, "m": 1, "k": 2, "kind": "traction",
        "blocks": {"1||1": {"1,0": "1"}, "1|1|2": {"0,1": "1/3"}},
    },
    "jet": {"n": 2, "m": 1, "k": 1, "x": ["0", "1/2"], "blocks": {"0": {"1|0,0": "2"}}},
    "form": {"n": 2, "coeffs": ["1", "-1/2"]},
}

# Each command with the files it reads, in order; ``out.json`` is its ``--out`` file.
COMMANDS = {
    "symmetrize": (["dense"], ["--out", "out.json"]),
    "pair": (["dense", "symmetric"], []),
    "jet": (["field"], ["--point", "0,1/2", "--k", "2", "--out", "out.json"]),
    "power": (["variational", "field"], ["--box", "0,0:1,1"]),
    "flux": (["traction", "field"], ["--box", "0,0:1,1", "--subdiv", "2"]),
}

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["", "1", "-1", "1/0", "0,0", "1|", "1||1", "x", "1e4301", "١"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
DEPTHS = st.sampled_from([3, 50, 1_000, 100_000])


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _containers(value):
    """Every JSON object and list in ``value``, outermost first."""
    if isinstance(value, (dict, list)):
        yield value
        for inner in value.values() if isinstance(value, dict) else value:
            yield from _containers(inner)


def _edited(data, text: str) -> str:
    """``text`` with one character replaced or inserted."""
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789,|-+ _/.ex\u0661") | st.characters())
    return text[:at] + char + text[at + data.draw(st.integers(0, 1)):]


def _mutate(data, obj: dict) -> str:
    """The JSON text of ``obj`` with one header, key or value changed, or nested deeply."""
    obj = json.loads(json.dumps(obj))
    nest = data.draw(st.sampled_from(list(_containers(obj))))
    places = list(nest) if isinstance(nest, dict) else list(range(len(nest)))
    how = data.draw(st.sampled_from(["value", "edit", "key", "delete", "deep", "add"]))
    if how == "add" or not places:
        if isinstance(nest, dict):
            nest[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
        else:
            nest.append(data.draw(JSON_VALUES))
        return json.dumps(obj)
    place = data.draw(st.sampled_from(places))
    marker = "__nested__"
    if how == "key" and isinstance(nest, dict):
        nest[_edited(data, place)] = nest.pop(place)
    elif how == "edit" and isinstance(nest[place], str):
        nest[place] = _edited(data, nest[place])
    elif how == "delete":
        del nest[place]
    else:
        nest[place] = marker if how == "deep" else data.draw(JSON_VALUES)
    return json.dumps(obj).replace(json.dumps(marker), _nested(data.draw(DEPTHS)))


def _file_text(data, kind: str) -> str:
    how = data.draw(st.sampled_from(["valid", "mutated", "mutated", "shape", "text", "deep"]))
    if how == "valid":
        return json.dumps(VALID[kind])
    if how == "mutated":
        return _mutate(data, VALID[kind])
    if how == "shape":
        return json.dumps(data.draw(JSON_VALUES))
    if how == "text":
        return data.draw(st.text(max_size=20))
    return '{"n": ' + _nested(data.draw(DEPTHS)) + "}"


def _flag(data, value: str) -> str:
    """A flag's value, sometimes replaced by drawn text."""
    texts = st.text(max_size=8) | st.sampled_from(["", "-1", "0", "1e4301", "١", "0,0:1"])
    return data.draw(texts) if data.draw(st.integers(0, 9)) == 0 else value


def _holds_the_contract(argv: list[str], out_path) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    if code == 0:
        return
    lines = stderr.getvalue().split("\n")
    assert code == 1 and stdout.getvalue() == "", (argv, stderr.getvalue())
    assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == "", lines
    assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_ends_in_success_or_one_error_line(tmp_path, command):
    kinds, flags = COMMANDS[command]
    out_path = tmp_path / "out.json"

    @SETTINGS
    @hypothesis.given(st.data())
    def contract(data):
        out_path.unlink(missing_ok=True)
        paths = []
        for i, kind in enumerate(kinds):
            path = tmp_path / f"in{i}.json"
            path.write_text(_file_text(data, kind), encoding="utf-8")
            paths.append(str(path))
        rest = []
        for flag, value in zip(flags[::2], flags[1::2]):
            value = str(out_path) if flag == "--out" else _flag(data, value)
            rest += [flag, value]
        _holds_the_contract([command, *paths, *rest], out_path)

    contract()


# Each command's flags with a valid value, None for a switch; ``--out`` takes the out path.
SHAPE_FLAGS = {
    "jet": [("--point", "0,1/2"), ("--k", "2"), ("--out", "")],
    "power": [("--box", "0,0:1,1"), ("--subdiv", "2"), ("--float", None)],
    "flux": [("--box", "0,0:1,1"), ("--k", "2"), ("--subdiv", "2"), ("--float", None)],
}
STRAYS = ["--fl", "--po", "--x", "-k", "--", "-1", "extra", "--float=1", "--k="]


def _flag_tokens(data, flag: str, value: str | None) -> list[str]:
    """One use of a flag: ``--name value``, ``--name=value``, or with its value dropped."""
    if value is None:
        return [flag]
    value = _flag(data, value)
    how = data.draw(st.sampled_from(["space", "equals", "space", "equals", "dropped"]))
    return {"space": [flag, value], "equals": [f"{flag}={value}"], "dropped": [flag]}[how]


@pytest.mark.parametrize("command", sorted(SHAPE_FLAGS))
def test_argv_shapes_end_in_success_or_one_error_line(tmp_path, command):
    # Valid files, drawn argv: flags in any order, given once, twice or not at all, in either
    # form or with no value, and unknown flags or stray tokens anywhere.
    kinds, _ = COMMANDS[command]
    out_path = tmp_path / "out.json"
    paths = []
    for i, kind in enumerate(kinds):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(VALID[kind]), encoding="utf-8")
        paths.append([str(path)])

    @SETTINGS
    @hypothesis.given(st.data())
    def contract(data):
        out_path.unlink(missing_ok=True)
        uses = list(paths)
        for flag, value in SHAPE_FLAGS[command]:
            for _ in range(data.draw(st.sampled_from([1, 1, 1, 2, 0]))):
                # The out path is never dropped or redrawn, so that no run writes elsewhere.
                if flag == "--out":
                    uses.append([flag, str(out_path)])
                else:
                    uses.append(_flag_tokens(data, flag, value))
        if data.draw(st.integers(0, 3)) == 0:
            uses.append([data.draw(st.sampled_from(STRAYS))])
        order = data.draw(st.permutations(range(len(uses))))
        _holds_the_contract([command, *(token for i in order for token in uses[i])], out_path)

    contract()


@pytest.mark.parametrize("kind, read", [("jet", fileio.jet_from_obj), ("form", fileio.form_from_obj)])
def test_jet_and_form_readers_end_in_a_value_or_a_value_error(tmp_path, kind, read):
    # No command reads a jet or form file; the CLI's contract rests on this one for its readers.
    path = tmp_path / f"{kind}.json"

    @SETTINGS
    @hypothesis.given(st.data())
    def contract(data):
        path.write_text(_file_text(data, kind), encoding="utf-8")
        try:
            read(fileio.load(str(path)))
        except ValueError:
            pass

    contract()


# Flags of the commands that read no file: small sizes, so that an accepted request is quick.
FLAGS = {
    "dims": ["--n", "--l"],
    "verify": ["--n", "--l", "--k", "--m", "--seed", "--cases"],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flags_end_in_success_or_one_error_line(tmp_path, command):
    values = st.integers(-2, 3).map(str) | st.text(max_size=4) | st.sampled_from(["10**9", "١"])

    @SETTINGS
    @hypothesis.given(st.data())
    def contract(data):
        argv = [command]
        if command == "verify":
            argv.append(data.draw(st.sampled_from(["epsilon", "duality", "cauchy", "jets", "x"])))
        for flag in FLAGS[command]:
            if data.draw(st.booleans()) or flag == "--n" and command == "dims":
                argv += [flag, data.draw(values)]
        _holds_the_contract(argv, tmp_path / "out.json")

    contract()
