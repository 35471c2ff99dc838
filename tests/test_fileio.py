from __future__ import annotations

import importlib
import json
import pkgutil
import random
import re
from fractions import Fraction

import pytest

import jetstress
from jetstress import fileio, multiindex
from jetstress.cli import main
from jetstress.hyperstress import TractionStressField, VariationalStressField
from jetstress.jet import JetElement
from jetstress.multiindex import CardinalityIndex, MultiIndex, enumerate_nondecreasing, sym_dim
from jetstress.altforms import CoDimOneForm
from jetstress.polyfield import Point, PolyField, Polynomial
from jetstress.symtensor import DenseTensor, SymTensor

from conftest import (
    built_records,
    rand_dense,
    rand_field,
    rand_jet,
    rand_poly,
    rand_sym,
    rand_traction_field,
    rand_variational_field,
)


def test_rational_round_trip():
    assert fileio.format_rational(Fraction(-3, 2)) == "-3/2"
    assert fileio.format_rational(Fraction(4)) == "4"
    assert fileio.parse_rational("7/3") == Fraction(7, 3)
    assert fileio.parse_rational(" 5 ") == 5
    with pytest.raises(ValueError):
        fileio.parse_rational("1/0")
    with pytest.raises(ValueError):
        fileio.parse_rational("pi")


def test_rational_exponent_is_held_to_its_budget():
    assert fileio.parse_rational("2.5e-3") == Fraction(1, 400)
    assert fileio.parse_rational("1e4300") == 10**4300
    assert fileio.parse_rational("-1E-4_300") == Fraction(-1, 10**4300)
    for text in ("1e4301", "1E+4301", "2.5e-4301", "1e999999999", "-1e-1_000_000"):
        with pytest.raises(ValueError, match=r"exponent exceeds its budget of 4300$"):
            fileio.parse_rational(text)
    # An exponent too long for an int is refused by Python's own digit limit.
    with pytest.raises(ValueError, match="^bad rational"):
        fileio.parse_rational("1e" + "9" * 5000)


def test_axis_list_keys():
    index = MultiIndex((1, 2, 2), 3)
    assert fileio.axis_list_key(index) == "1,2,2"
    assert fileio.parse_axis_list("1,2,2", 3) == index
    assert fileio.parse_axis_list("", 3) == MultiIndex((), 3)
    with pytest.raises(ValueError):
        fileio.parse_axis_list("1,x", 3)
    with pytest.raises(ValueError):
        fileio.parse_axis_list("4", 3)


def test_counts_keys():
    card = CardinalityIndex((1, 1))
    assert fileio.counts_key(card) == "1,1"
    assert fileio.parse_counts("1,1", 2) == card
    assert fileio.parse_counts("", 2) == CardinalityIndex.zero(2)
    with pytest.raises(ValueError):
        fileio.parse_counts("1", 2)
    with pytest.raises(ValueError):
        fileio.parse_counts("1,b", 2)


def test_dense_tensor_round_trip():
    rng = random.Random(81)
    for _ in range(10):
        t = rand_dense(rng, rng.randint(1, 3), rng.randint(0, 3), rng.choice(["co", "contra"]))
        assert fileio.tensor_from_obj(fileio.tensor_to_obj(t)) == t


def test_sym_tensor_round_trip():
    rng = random.Random(82)
    for _ in range(10):
        t = rand_sym(
            rng,
            rng.randint(1, 3),
            rng.randint(0, 3),
            rng.choice(["co", "contra"]),
            rng.choice(["plain", "arrow"]),
        )
        assert fileio.tensor_from_obj(fileio.tensor_to_obj(t)) == t


def test_tensor_objects_omit_zeros():
    t = rand_sym(random.Random(83), 2, 2)
    obj = fileio.tensor_to_obj(t)
    assert all(fileio.parse_rational(v) != 0 for v in obj["components"].values())
    obj["components"] = {}
    loaded = fileio.tensor_from_obj(obj)
    assert all(c == 0 for c in loaded.components)


def test_symmetric_keys_must_be_nondecreasing():
    obj = {
        "n": 2,
        "degree": 2,
        "variance": "contra",
        "storage": "symmetric",
        "convention": "plain",
        "components": {"2,1": "1"},
    }
    with pytest.raises(ValueError, match="non-decreasing"):
        fileio.tensor_from_obj(obj)
    # The message spells the axis list as the writers do.
    with pytest.raises(ValueError, match=r"^axis list '2,1' must be non-decreasing$"):
        fileio.tensor_from_obj({**obj, "components": {" 2, 1": "1"}})
    stress = {"n": 2, "m": 1, "k": 2, "kind": "variational", "blocks": {"1| 2, 1": {"": "1"}}}
    with pytest.raises(ValueError, match=r"^bad variational slot key '1\| 2, 1': axis list '2,1' must"):
        fileio.stress_from_obj(stress)
    obj["storage"] = "dense"
    del obj["convention"]
    assert fileio.tensor_from_obj(obj).component((2, 1)) == 1


def test_dense_reader_parses_each_key_once(monkeypatch):
    t = rand_dense(random.Random(84), 3, 4, "contra")
    obj = fileio.tensor_to_obj(t)
    built = built_records(monkeypatch, MultiIndex)
    cards = built_records(monkeypatch, CardinalityIndex)
    assert fileio.tensor_from_obj(obj) == t
    assert built == [] and cards == []
    # A symmetric key goes straight to the colex rank of its axis list.
    for convention in ("plain", "arrow"):
        s = rand_sym(random.Random(85), 3, 5, "co", convention)
        assert fileio.tensor_from_obj(fileio.tensor_to_obj(s)) == s
    assert built == [] and cards == []
    obj["components"] = {"1,2,3,4": "1"}
    with pytest.raises(ValueError, match=r"^axis 4 out of range 1\.\.3$"):
        fileio.tensor_from_obj(obj)
    obj["components"] = {"1,2": "1"}
    with pytest.raises(ValueError, match=r"^component key '1,2' has degree 2, expected 4$"):
        fileio.tensor_from_obj(obj)
    obj["components"] = {"1,x,1,1": "1"}
    with pytest.raises(ValueError, match="bad axis list"):
        fileio.tensor_from_obj(obj)


def test_a_degree_zero_tensor_builds_no_table_of_its_axes():
    # Only degree 0 admits an n past the component budget; its one key names no axis.
    import tracemalloc

    for storage in ("dense", "symmetric"):
        obj = {"n": 10**5, "degree": 0, "variance": "co", "storage": storage, "components": {"": "3"}}
        tracemalloc.start()
        try:
            assert fileio.tensor_from_obj(obj).components == (3,)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()


def read_every_key(obj: dict) -> DenseTensor:
    """A dense tensor file read key by key: each key's axes parsed as ``int`` parses them."""
    values = {}
    for key, text in obj["components"].items():
        axes = tuple(int(part) for part in key.split(",")) if key.strip() else ()
        values[axes] = Fraction(text)
    return DenseTensor.from_map(obj["n"], obj["degree"], obj["variance"], values)


# Spellings of an axis that the key grammar reads and no writer emits; `_` only between digits.
RESPELLINGS = (" {}", "+{}", "0{}", "{} ")


def respelled(key: str, spelling: str, slot: int) -> str:
    parts = key.split(",")
    axis = parts[slot]
    parts[slot] = axis[0] + "_" + axis[1:] if spelling == "_" else spelling.format(axis)
    return ",".join(parts)


def test_dense_reader_matches_reading_every_key():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def law(data):
        n = data.draw(st.sampled_from((1, 2, 3, 4, 11)))
        degree = data.draw(st.integers(0, 2 if n > 4 else 4))
        values = st.sampled_from((Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)))
        comps = data.draw(st.lists(values, min_size=n**degree, max_size=n**degree))
        tensor = DenseTensor(n, degree, "co", tuple(comps))
        # As written: row-major with zeros omitted, and in string order, which differs at n = 11.
        obj = json.loads(fileio.dumps(fileio.tensor_to_obj(tensor)))
        items = list(obj["components"].items())
        if data.draw(st.booleans()):
            items = data.draw(st.permutations(items))
        respell = st.lists(st.integers(0, max(len(items) - 1, 0)), max_size=3, unique=True)
        for at in data.draw(respell):
            if degree and items:
                key, text = items[at]
                slot = data.draw(st.integers(0, degree - 1))
                long_axis = len(key.split(",")[slot]) > 1
                spelling = data.draw(st.sampled_from(RESPELLINGS + (("_",) if long_axis else ())))
                items[at] = (respelled(key, spelling, slot), text)
        obj["components"] = dict(items)
        assert fileio.tensor_from_obj(obj) == read_every_key(obj) == tensor

    law()


def test_dense_reader_reads_keys_whose_string_order_is_not_row_major():
    tensor = DenseTensor(11, 2, "co", tuple(Fraction(i + 1, 3) for i in range(121)))
    obj = json.loads(fileio.dumps(fileio.tensor_to_obj(tensor)))
    row_major = [fileio.axis_list_key((a, b)) for a in range(1, 12) for b in range(1, 12)]
    assert list(obj["components"]) != row_major
    assert fileio.tensor_from_obj(obj) == read_every_key(obj) == tensor


@pytest.mark.parametrize(
    "components, one, two",
    [
        # Placed from the written spellings, then read after a key outside them.
        ({"1,1": "1", "1,2": "2", "+1,1": "3"}, "1,1", "+1,1"),
        ({"2,2": "1", "1,2": "2", "2,2 ": "3"}, "2,2", "2,2 "),
        # Both read key by key, after an out-of-order key ended the walk.
        ({"2,1": "1", "1,1": "2", "01,1": "3"}, "1,1", "01,1"),
    ],
)
def test_a_component_spelled_twice_across_the_two_readers_names_both_keys(components, one, two):
    obj = {"n": 2, "degree": 2, "variance": "co", "storage": "dense", "components": components}
    message = f"{one!r} and {two!r} name one tensor component"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fileio.tensor_from_obj(obj)


def test_reading_a_dense_file_keeps_no_table_of_its_keys():
    # A {key: offset} table of the 6,561 keys alone takes about 0.8 MB; the reader peaks near
    # 0.11 MB, mostly the component list and tuple.
    import tracemalloc

    tensor = DenseTensor(3, 8, "co", tuple(Fraction(i % 7 - 3, 5) for i in range(3**8)))
    obj = json.loads(fileio.dumps(fileio.tensor_to_obj(tensor)))
    tracemalloc.start()
    try:
        read = fileio.tensor_from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == tensor
    assert peak < 200_000


def test_dense_reader_parses_each_distinct_literal_once(monkeypatch):
    parsed = []
    original = fileio.parse_rational

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(fileio, "parse_rational", counting)
    components = {"1,1": "1/2", "1,2": "-3", "2,1": "1/2", "2,2": " 1/2"}
    obj = {"n": 2, "degree": 2, "variance": "co", "storage": "dense", "components": components}
    t = fileio.tensor_from_obj(obj)
    assert t.components == (Fraction(1, 2), -3, Fraction(1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in t.components)
    # " 1/2" is another literal, though it parses to the same value.
    assert sorted(parsed) == [" 1/2", "-3", "1/2"]
    parsed.clear()
    components = {"1,1,1": "1/2", "1,1,2": "-3", "1,2,2": "1/2", "2,2,2": " 1/2"}
    obj = {**obj, "degree": 3, "storage": "symmetric", "components": components}
    t = fileio.tensor_from_obj(obj)
    assert t.components == (Fraction(1, 2), -3, Fraction(1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in t.components) and t.convention == "plain"
    assert sorted(parsed) == [" 1/2", "-3", "1/2"]


@pytest.mark.parametrize("order", [("1", "true"), ("true", "1"), ("1.0", "true"), ("true", "1.0")])
def test_dense_reader_keeps_json_numbers_and_refuses_booleans(tmp_path, capsys, order):
    # JSON true equals 1 in Python, so a memo keyed on the value would take it for 1.
    text = '{"n": 2, "degree": 1, "variance": "co", "storage": "dense", "components": '
    source = tmp_path / "dense.json"
    source.write_text(text + f'{{"1": {order[0]}, "2": {order[1]}}}}}')
    out = tmp_path / "out.json"
    assert main(["symmetrize", str(source), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "error: bad rational 'True': Invalid literal for Fraction: 'True'"
    ]
    source.write_text(text + f'{{"1": {order[0].replace("true", "1")}, "2": 1.0}}}}')
    assert main(["symmetrize", str(source), "--out", str(out)]) == 0
    assert fileio.tensor_from_obj(fileio.load(str(out))).components == (1, 1)


def test_traction_stress_reader_builds_each_part_once(monkeypatch):
    built = []
    original = VariationalStressField.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(VariationalStressField, "__init__", counting)
    rng = random.Random(91)
    for n in (1, 2, 3):
        stress = rand_traction_field(rng, n, rng.randint(1, 2), rng.randint(1, 3), 1)
        obj = fileio.stress_to_obj(stress)
        built.clear()
        loaded = fileio.stress_from_obj(obj)
        assert len(built) == n
        assert all(ax is part for ax, part in zip(loaded.axes, built)) and loaded == stress


def test_field_and_stress_readers_build_no_index_per_monomial(monkeypatch):
    rng = random.Random(90)
    field = fileio.field_to_obj(rand_field(rng, 3, 2, 3))
    stresses = [
        fileio.stress_to_obj(rand_variational_field(rng, 2, 2, 2, 2)),
        fileio.stress_to_obj(rand_traction_field(rng, 2, 1, 2, 2)),
    ]
    cards = built_records(monkeypatch, CardinalityIndex)
    indices = built_records(monkeypatch, MultiIndex)
    fileio.field_from_obj(field)
    assert cards == [] and indices == []
    for obj in stresses:
        fileio.stress_from_obj(obj)
        # One index class per slot key; the monomials of its polynomial stay count tuples.
        assert len(cards) == len(obj["blocks"]) and indices == []
        cards.clear()


def test_class_keys_are_checked_alike_in_tensor_and_stress_files():
    tensor = {"n": 2, "degree": 2, "variance": "co", "storage": "symmetric"}
    stress = {"n": 2, "m": 1, "k": 2, "kind": "variational"}
    for bad, message in (("3,3", r"axis 3 out of range 1\.\.2"), ("2,1", "non-decreasing")):
        with pytest.raises(ValueError, match=message):
            fileio.tensor_from_obj({**tensor, "components": {bad: "1"}})
        with pytest.raises(ValueError, match=rf"^bad variational slot key '1\|{bad}': .*{message}"):
            fileio.stress_from_obj({**stress, "blocks": {f"1|{bad}": {"": "1"}}})


def test_monomial_degree_is_held_to_its_budget():
    for n, key in ((1, "100"), (2, "50,50"), (3, "0,100,0")):
        field = fileio.field_from_obj({"n": n, "m": 1, "components": [{key: "1"}]})
        assert field.components[0].degree == 100
        stress = {"n": n, "m": 1, "k": 0, "kind": "variational", "blocks": {"1|": {key: "1"}}}
        assert fileio.stress_from_obj(stress).blocks[0][0][0].degree == 100
    for n, key in ((1, "101"), (2, "50,51"), (1, "100000"), (3, "1," + "9" * 40 + ",0")):
        message = rf"^monomial '{key}' exceeds its budget of 100 in total degree$"
        with pytest.raises(ValueError, match=message):
            fileio.field_from_obj({"n": n, "m": 1, "components": [{"": "1", key: "1"}]})
        stress = {"n": n, "m": 1, "k": 1, "kind": "traction", "blocks": {"1||1": {key: "2"}}}
        with pytest.raises(ValueError, match=message):
            fileio.stress_from_obj(stress)
    # Jet slot keys are held to the slot budget only: the 9,999-jet of x1**9999 at 0 loads.
    obj = {"n": 1, "m": 1, "k": 9999, "x": ["0"], "blocks": {"9999": {"1|9999": "1"}}}
    assert fileio.jet_from_obj(obj).k == 9999


def test_value_too_long_to_print_names_the_digit_limit():
    assert fileio.format_rational(Fraction(-(10**4299), 7)) == f"-{10**4299}/7"
    for value in (Fraction(10**4300), Fraction(1, 3**9100)):
        with pytest.raises(ValueError, match=r"^exact value too long to print: more than 4300 digits$"):
            fileio.format_rational(value)


def test_jet_header_past_its_budget_is_refused_before_reading():
    obj = {"n": 2, "m": 1, "k": 10**20, "x": ["0", "0"], "blocks": {"0": {"x": "1"}}}
    with pytest.raises(ValueError, match=r"^jet of n=2, m=1, k=\d+ exceeds its budget of 10000 jet"):
        fileio.jet_from_obj(obj)


TENSOR = {"n": 2, "degree": 1, "variance": "co", "storage": "symmetric", "convention": "plain"}


JET = {"n": 2, "m": 1, "k": 1, "x": ["0", "0"]}
VARIATIONAL = {"n": 2, "m": 1, "k": 1, "kind": "variational"}
TRACTION = {"n": 2, "m": 1, "k": 1, "kind": "traction"}


@pytest.mark.parametrize(
    "read, obj, message",
    [
        # Every integer of every key is read by one reader, and a bad one names its key.
        (fileio.jet_from_obj, {**JET, "blocks": {"x": {}}}, "bad block order 'x'"),
        (fileio.jet_from_obj, {**JET, "blocks": {"0,1": {}}}, "bad block order '0,1'"),
        (fileio.jet_from_obj, {**JET, "blocks": {"": {}}}, "bad block order ''"),
        (fileio.jet_from_obj, {**JET, "blocks": {"1": {"x|1,0": "1"}}},
         r"bad jet slot key 'x\|1,0': bad component 'x'"),
        (fileio.jet_from_obj, {**JET, "blocks": {"1": {"1,1|1,0": "1"}}},
         r"bad jet slot key '1,1\|1,0': bad component '1,1'"),
        (fileio.jet_from_obj, {**JET, "blocks": {"1": {"1|1,b": "1"}}},
         r"bad jet slot key '1\|1,b': bad counts list '1,b'"),
        (fileio.jet_from_obj, {**JET, "blocks": {"1": {"1|1": "1"}}},
         r"bad jet slot key '1\|1': counts list '1' must have 2 entries"),
        (fileio.jet_from_obj, {**JET, "blocks": {"1": {"1|1,0|1": "1"}}},
         r"bad jet slot key '1\|1,0\|1'"),
        (fileio.jet_from_obj, {**JET, "blocks": {"1": {"1,0": "1"}}}, "bad jet slot key '1,0'"),
        (fileio.stress_from_obj, {**VARIATIONAL, "blocks": {"x|1": {"": "1"}}},
         r"bad variational slot key 'x\|1': bad component 'x'"),
        (fileio.stress_from_obj, {**VARIATIONAL, "blocks": {"1|y": {"": "1"}}},
         r"bad variational slot key '1\|y': bad axis list 'y'"),
        (fileio.stress_from_obj, {**TRACTION, "blocks": {"x||1": {"": "1"}}},
         r"bad traction slot key 'x\|\|1': bad component 'x'"),
        (fileio.stress_from_obj, {**TRACTION, "blocks": {"1||z": {"": "1"}}},
         r"bad traction slot key '1\|\|z': bad axis 'z'"),
        (fileio.stress_from_obj, {**TRACTION, "blocks": {"1||1,2": {"": "1"}}},
         r"bad traction slot key '1\|\|1,2': bad axis '1,2'"),
        (fileio.stress_from_obj, {**TRACTION, "blocks": {"1|": {"": "1"}}},
         r"bad traction slot key '1\|'"),
        (fileio.stress_from_obj, {**VARIATIONAL, "blocks": {"1|": {"1,q": "1"}}},
         "bad counts list '1,q'"),
        (fileio.field_from_obj, {"n": 2, "m": 1, "components": [{" 1,q ": "1"}]},
         "bad counts list ' 1,q '"),
        (fileio.tensor_from_obj, {**TENSOR, "storage": "dense", "components": {"x": "1"}},
         "bad axis list 'x'"),
        (fileio.tensor_from_obj, {**TENSOR, "components": {"1,": "1"}}, "bad axis list '1,'"),
    ],
)
def test_a_bad_key_integer_names_its_key(read, obj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(obj)


@pytest.mark.parametrize("storage", ["dense", "symmetric"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        # Integers, then degree, then axis range, then (symmetric) order, then the value.
        ("2,x", "y", "bad axis list '2,x'"),
        ("3,1", "1", "component key '3,1' has degree 2, expected 3"),
        ("3,1,1", "y", r"axis 3 out of range 1\.\.2"),
        ("2,1,1", "y", None),
        ("1,1,2", "y", "bad rational 'y': Invalid literal for Fraction: 'y'"),
    ],
)
def test_tensor_key_faults_are_reported_in_one_order_for_both_storages(storage, key, value, message):
    obj = {**TENSOR, "degree": 3, "storage": storage, "components": {key: value}}
    if message is None:
        message = "axis list '2,1,1' must be non-decreasing" if storage == "symmetric" else "bad rat"
    with pytest.raises(ValueError, match=f"^{message}"):
        fileio.tensor_from_obj(obj)


def test_no_module_but_multiindex_binds_a_budget_value():
    # The budget table is the one place a limit is stated, so lowering a row reaches every check.
    limits = set(multiindex._BUDGETS.values())
    names = [f"jetstress.{info.name}" for info in pkgutil.iter_modules(jetstress.__path__)]
    for module in map(importlib.import_module, ["jetstress", *names]):
        bound = [name for name, value in vars(module).items()
                 if type(value) is int and value in limits]
        assert module is multiindex or not bound, (module.__name__, bound)


def test_one_slot_check_holds_every_jet_shaped_request(monkeypatch, tmp_path, capsys):
    # n = 2, m = 1 through order 2 is 1 + 2 + 3 = 6 jet slots; a traction stress of order 2
    # is n = 2 rows through order 1, also 6.  Lowering the one budget refuses each request.
    monkeypatch.setitem(multiindex._BUDGETS, "jet slots", 5)
    budget = "exceeds its budget of 5 jet slots"
    shape = {"n": 2, "m": 1, "k": 2}
    for read, obj, request in (
        (fileio.jet_from_obj, {**shape, "x": ["0", "0"]}, "jet"),
        (fileio.stress_from_obj, {**shape, "kind": "variational"}, "variational stress"),
        (fileio.stress_from_obj, {**shape, "kind": "traction"}, "traction stress"),
    ):
        with pytest.raises(ValueError, match=f"^{request} of n=2, m=1, k=2 {budget}$"):
            read(obj)
    field = tmp_path / "field.json"
    field.write_text('{"n": 2, "m": 1, "components": [{"1,0": "1"}]}')
    flags = ["--n", "2", "--m", "1", "--k", "2", "--cases", "1"]
    for argv, request in (
        (["jet", str(field), "--point", "0,0", "--k", "2"], "jet at --k 2 of a field with n=2, m=1"),
        (["verify", "jets", *flags], "verify jets at --n 2 --m 1 --k 2 --cases 1"),
        (["verify", "cauchy", *flags], "verify cauchy at --n 2 --m 1 --k 2 --cases 1"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {request} {budget}\n")
    monkeypatch.setitem(multiindex._BUDGETS, "jet slots", 6)
    assert fileio.jet_from_obj({**shape, "x": ["0", "0"]}).k == 2
    assert main(["jet", str(field), "--point", "0,0", "--k", "2"]) == 0


@pytest.mark.parametrize(
    "text", ["\u0661", "\u0661/\u0662", " \uff13/\uff14 ", "1\u00a0", "\u20071", "\U0001d7cf"]
)
def test_rationals_and_key_integers_are_ascii(text):
    with pytest.raises(ValueError, match=r"^bad rational .*: not ASCII$"):
        fileio.parse_rational(text)
    for parse, what in ((fileio.parse_counts, "counts list"), (fileio.parse_axis_list, "axis list")):
        with pytest.raises(ValueError, match="^" + re.escape(f"bad {what} {text!r}") + "$"):
            parse(text, 1)


def test_within_ascii_keys_and_values_read_as_python_reads_them():
    for text, value in ((" 3/4 ", Fraction(3, 4)), ("+007/4", Fraction(7, 4)), ("1_0", 10),
                        ("-0.75", Fraction(-3, 4)), ("\t2e-1\n", Fraction(1, 5))):
        assert fileio.parse_rational(text) == value
    assert fileio.parse_counts(" 1 , +0 ", 2) == CardinalityIndex((1, 0))
    assert fileio.parse_counts("0_1,00", 2) == CardinalityIndex((1, 0))
    # Two spellings of one component, monomial, block order or slot: an error naming both keys.
    field = {"n": 2, "m": 1, "components": [{"1,0": "1", " 1, 0": "2"}]}
    dense = {**TENSOR, "degree": 2, "storage": "dense", "components": {"1,2": "1", "01,2": "5"}}
    packed = {**TENSOR, "degree": 2, "components": {"1,2": "1", "1,+2": "1"}}
    variational = {**VARIATIONAL, "blocks": {"1|1": {"": "1"}, "+1| 1": {"": "3"}}}
    traction = {**TRACTION, "blocks": {"1||2": {"": "1"}, "1|| 2": {"": "3"}}}
    in_a_slot = {**VARIATIONAL, "blocks": {"1|": {"0,1": "1", "0,01": "2"}}}
    jet = {**JET, "blocks": {"1": {"1|1,0": "1", "1|1 ,0": "2"}}}
    orders = {**JET, "blocks": {"1": {"1|1,0": "1"}, " 1": {"1|0,1": "2"}}}
    for read, obj, message in (
        (fileio.field_from_obj, field, "'1,0' and ' 1, 0' name one monomial"),
        (fileio.tensor_from_obj, dense, "'1,2' and '01,2' name one tensor component"),
        (fileio.tensor_from_obj, packed, "'1,2' and '1,+2' name one tensor component"),
        (fileio.stress_from_obj, variational, "'1|1' and '+1| 1' name one stress slot"),
        (fileio.stress_from_obj, traction, "'1||2' and '1|| 2' name one stress slot"),
        (fileio.stress_from_obj, in_a_slot, "'0,1' and '0,01' name one monomial"),
        (fileio.jet_from_obj, jet, "'1|1,0' and '1|1 ,0' name one jet slot"),
        (fileio.jet_from_obj, orders, "'1' and ' 1' name one jet block order"),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            read(obj)


def test_json_nested_too_deeply_is_a_load_error(tmp_path):
    for depth in (1_000, 100_000):
        path = tmp_path / "deep.json"
        path.write_text('{"n": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(ValueError, match="^JSON nested too deeply$"):
            fileio.load(str(path))
    # A key spelled in JSON escapes is the text it decodes to, and non-ASCII text is refused.
    path.write_text('{"n": 1, "m": 1, "components": [{"\\u0661": "1"}]}')
    with pytest.raises(ValueError, match="^bad counts list '\u0661'$"):
        fileio.field_from_obj(fileio.load(str(path)))


def test_tensor_object_validation():
    with pytest.raises(ValueError):
        fileio.tensor_from_obj({"n": 2, "degree": 1, "variance": "up", "storage": "dense"})
    with pytest.raises(ValueError):
        fileio.tensor_from_obj({"n": 2, "degree": 1, "variance": "co", "storage": "packed"})
    with pytest.raises(ValueError):
        fileio.tensor_from_obj({"n": 2, "degree": 1, "variance": "co"})
    with pytest.raises(ValueError):
        fileio.tensor_from_obj(
            {
                "n": 2,
                "degree": 2,
                "variance": "co",
                "storage": "dense",
                "components": {"1": "1"},
            }
        )


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"variance": "up"}, "variance must be 'co' or 'contra', got 'up'"),
        ({"storage": "packed"}, "storage must be 'dense' or 'symmetric', got 'packed'"),
        ({"convention": "flat"}, "convention must be 'plain' or 'arrow', got 'flat'"),
        # Several faults: variance is checked first, then storage, then the size.
        ({"variance": "up", "storage": "packed", "degree": 10**20}, "variance must be"),
        ({"storage": "packed", "degree": 10**20, "convention": "flat"}, "storage must be"),
    ],
)
def test_tensor_file_choices_report_the_first_fault(bad, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        fileio.tensor_from_obj({**TENSOR, **bad})


def test_stress_file_kind_is_a_choice():
    obj = {"n": 2, "m": 1, "k": 10**20, "kind": "mystery", "blocks": {}}
    with pytest.raises(ValueError, match="^kind must be 'variational' or 'traction', got 'myst"):
        fileio.stress_from_obj(obj)


def test_form_round_trip():
    form = CoDimOneForm(3, (Fraction(1, 2), Fraction(0), Fraction(-2)))
    obj = fileio.form_to_obj(form)
    assert obj == {"n": 3, "coeffs": ["1/2", "0", "-2"]}
    assert fileio.form_from_obj(obj) == form


def test_polynomial_round_trip():
    rng = random.Random(84)
    for _ in range(10):
        n = rng.randint(1, 3)
        poly = rand_poly(rng, n, 3)
        assert fileio.polynomial_from_obj(fileio.polynomial_to_obj(poly), n) == poly
    constant = Polynomial.constant(2, Fraction(5, 3))
    obj = fileio.polynomial_to_obj(constant)
    assert obj == {"0,0": "5/3"}
    assert fileio.polynomial_from_obj({"": "5/3"}, 2) == constant


def test_field_round_trip():
    rng = random.Random(85)
    for _ in range(10):
        field = rand_field(rng, rng.randint(1, 3), rng.randint(1, 2), 3)
        assert fileio.field_from_obj(fileio.field_to_obj(field)) == field
    with pytest.raises(ValueError):
        fileio.field_from_obj({"n": 2, "m": 2, "components": [{}]})


def test_jet_round_trip():
    rng = random.Random(86)
    for _ in range(10):
        jet = rand_jet(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 3))
        assert fileio.jet_from_obj(fileio.jet_to_obj(jet)) == jet


def test_jet_object_validation():
    base = {"n": 2, "m": 1, "k": 1, "x": ["0", "0"]}
    assert fileio.jet_from_obj(base).k == 1
    with pytest.raises(ValueError):
        fileio.jet_from_obj({**base, "blocks": {"2": {}}})
    with pytest.raises(ValueError):
        fileio.jet_from_obj({**base, "blocks": {"1": {"2|0,1": "1"}}})
    with pytest.raises(ValueError):
        fileio.jet_from_obj({**base, "blocks": {"1": {"1|2,0": "1"}}})


def test_variational_stress_round_trip():
    rng = random.Random(87)
    for _ in range(8):
        s = rand_variational_field(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2), 2)
        assert fileio.stress_from_obj(fileio.stress_to_obj(s)) == s


def test_traction_stress_round_trip():
    rng = random.Random(88)
    for _ in range(8):
        s = rand_traction_field(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3), 2)
        assert fileio.stress_from_obj(fileio.stress_to_obj(s)) == s


def test_stress_object_validation():
    with pytest.raises(ValueError):
        fileio.stress_from_obj({"n": 2, "m": 1, "k": 1, "kind": "mystery", "blocks": {}})
    with pytest.raises(ValueError, match="non-decreasing"):
        fileio.stress_from_obj(
            {
                "n": 2,
                "m": 1,
                "k": 3,
                "kind": "traction",
                "blocks": {"1|2,1|1": {"": "1"}},
            }
        )
    with pytest.raises(ValueError):
        fileio.stress_from_obj(
            {"n": 2, "m": 1, "k": 1, "kind": "traction", "blocks": {"1|": {"": "1"}}}
        )


def test_dumps_is_deterministic():
    a = fileio.dumps({"b": "2", "a": "1"})
    b = fileio.dumps({"a": "1", "b": "2"})
    assert a == b
    assert a.endswith("\n")
    jet = rand_jet(random.Random(89), 2, 2, 2)
    assert fileio.dumps(fileio.jet_to_obj(jet)) == fileio.dumps(fileio.jet_to_obj(jet))


def test_save_and_load(tmp_path):
    field = PolyField(2, 1, (Polynomial.variable(2, 1),))
    path = tmp_path / "field.json"
    fileio.save(fileio.field_to_obj(field), str(path))
    assert fileio.field_from_obj(fileio.load(str(path))) == field
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError):
        fileio.load(str(bad))


# Round-trip laws: every reader inverts its writer through the JSON text, on drawn objects.


def _values(st, count: int):
    """``count`` rationals: zeros, small fractions and big coprime denominators."""
    value = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from((999_983, 2**61 - 1))),
    )
    return st.lists(value, min_size=count, max_size=count).map(tuple)


def _dense(data, st) -> DenseTensor:
    n, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    variance = data.draw(st.sampled_from(("co", "contra")))
    return DenseTensor(n, degree, variance, data.draw(_values(st, n**degree)))


def _symmetric(data, st) -> SymTensor:
    n, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    variance = data.draw(st.sampled_from(("co", "contra")))
    convention = data.draw(st.sampled_from(("plain", "arrow")))
    return SymTensor(n, degree, variance, convention, data.draw(_values(st, sym_dim(n, degree))))


def _form(data, st) -> CoDimOneForm:
    n = data.draw(st.integers(1, 4))
    return CoDimOneForm(n, data.draw(_values(st, n)))


def _poly(data, st, n: int) -> Polynomial:
    cards = [card for l in range(3) for card in enumerate_nondecreasing(n, l)]
    keys = data.draw(st.lists(st.sampled_from(cards), max_size=3, unique=True))
    return Polynomial.from_map(n, dict(zip(keys, data.draw(_values(st, len(keys))))))


def _field(data, st) -> PolyField:
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    return PolyField(n, m, tuple(_poly(data, st, n) for _ in range(m)))


def _shape(data, st, least: int, most: int) -> tuple[int, int, int]:
    """A drawn ``(n, m, k)`` with the order k in ``least..most``."""
    return tuple(data.draw(st.integers(*bounds)) for bounds in ((1, 3), (1, 2), (least, most)))


def _jet(data, st) -> JetElement:
    n, m, k = _shape(data, st, 0, 3)
    blocks = [
        [SymTensor(n, l, "co", "plain", data.draw(_values(st, sym_dim(n, l)))) for _ in range(m)]
        for l in range(k + 1)
    ]
    return JetElement(n, m, k, Point(data.draw(_values(st, n))), blocks)


def _slot_polys(data, st, n: int, l: int) -> tuple[Polynomial, ...]:
    return tuple(_poly(data, st, n) for _ in range(sym_dim(n, l)))


def _variational(data, st) -> VariationalStressField:
    n, m, k = _shape(data, st, 0, 2)
    blocks = [[_slot_polys(data, st, n, l) for _ in range(m)] for l in range(k + 1)]
    return VariationalStressField(n, m, k, blocks)


def _traction(data, st) -> TractionStressField:
    n, m, k = _shape(data, st, 1, 3)
    blocks = [[[_slot_polys(data, st, n, l) for _ in range(n)] for _ in range(m)] for l in range(k)]
    return TractionStressField(n, m, k, blocks)


ROUND_TRIPS = {
    "dense tensor": (_dense, fileio.tensor_to_obj, fileio.tensor_from_obj),
    "symmetric tensor": (_symmetric, fileio.tensor_to_obj, fileio.tensor_from_obj),
    "form": (_form, fileio.form_to_obj, fileio.form_from_obj),
    "field": (_field, fileio.field_to_obj, fileio.field_from_obj),
    "jet": (_jet, fileio.jet_to_obj, fileio.jet_from_obj),
    "variational stress": (_variational, fileio.stress_to_obj, fileio.stress_from_obj),
    "traction stress": (_traction, fileio.stress_to_obj, fileio.stress_from_obj),
}


@pytest.mark.parametrize("kind", list(ROUND_TRIPS))
def test_every_format_round_trips_through_its_json_text(kind):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    draw, to_obj, from_obj = ROUND_TRIPS[kind]

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def law(data):
        value = draw(data, st)
        assert from_obj(json.loads(fileio.dumps(to_obj(value)))) == value

    law()


# The polynomial, field and stress readers as they read every term afresh, kept as the oracle of
# the readers that check and parse each distinct key and literal text once per file.


def fresh_polynomial(obj: dict, n: int) -> Polynomial:
    coeffs, seen = {}, {}
    for key, text in obj.items():
        counts = fileio._counts(key, n)
        multiindex._check_budget((sum(counts),), "in total degree", f"monomial {key!r}")
        fileio._once(seen, counts, key, "monomial")
        coeffs[counts] = fileio.parse_rational(text)
    return Polynomial.from_map(n, coeffs)


def fresh_field(obj: dict) -> PolyField:
    n, m = (fileio._header(obj, "field", name) for name in "nm")
    components = fileio._header(obj, "field", "components", list)
    if len(components) != m:
        raise ValueError(f"expected {m} components, got {len(components)}")
    polys = (
        fresh_polynomial(fileio._json_object(entry, f"field component {alpha}"), n)
        for alpha, entry in enumerate(components, start=1)
    )
    return PolyField(n, m, tuple(polys))


def fresh_slot_key(key: str, n: int, kind: str) -> tuple:
    parts = key.split("|")
    if len(parts) != (3 if kind == "traction" else 2):
        raise ValueError(f"bad {kind} slot key {key!r}")
    try:
        (alpha,) = fileio._int_list(parts[0], "component", 1)
        axes = fileio._int_list(parts[1], "axis list")
        multiindex._check_axes(axes, n)
        card = CardinalityIndex(tuple(map(fileio._nondecreasing(axes).count, range(1, n + 1))))
        j = fileio._int_list(parts[2], "axis", 1) if kind == "traction" else ()
    except ValueError as exc:
        raise ValueError(f"bad {kind} slot key {key!r}: {exc}") from None
    return (alpha, card, *j)


def fresh_stress(obj: dict):
    n, m, k = (fileio._header(obj, "stress", name) for name in "nmk")
    kind = fileio._header(obj, "stress", "kind", str)
    blocks = obj.get("blocks", {})
    fields = {"variational": VariationalStressField, "traction": TractionStressField}
    fileio._check_choice("kind", kind, tuple(fields))
    if kind == "traction":
        fileio._check_order(k)
    fileio._check_jet_shape(n, m, k)
    width, order = (n * m, k - 1) if kind == "traction" else (m, k)
    fileio._check_slots(n, width, order, f"{kind} stress of n={n}, m={m}, k={k}")
    entries, seen = {}, {}
    for key, value in fileio._json_object(blocks, "stress blocks").items():
        slot = fresh_slot_key(key, n, kind)
        fileio._once(seen, slot, key, "stress slot")
        entries[slot] = fresh_polynomial(fileio._json_object(value, f"stress slot {key!r}"), n)
    return fields[kind].from_map(n, m, k, entries)


def read_outcome(read, obj):
    """The record read, or the type and text of the first error: the CLI's ``error:`` line."""
    try:
        return read(obj)
    except Exception as exc:  # noqa: BLE001 - any exception type must match too
        return type(exc).__name__, str(exc)


# Spellings that int and Fraction read: padding, signs, underscores, leading zeros; then faults.
COUNT_SPELLINGS = ("{}", " {}", "+{}", "0{}", "{} ")
LITERALS = ("1", "-2/3", " 3 ", "+1", "1_0", "2.5e-1", "0", "0/4", "7/14", 1, 2.5, -3)
BAD_LITERALS = ("x", "1/0", None, True, False, "1e4301", "")


def polynomial_objs(st, n: int, faults: bool):
    """Polynomial objects drawing keys and literals from small pools, so texts repeat in a file.

    Without faults each monomial has one spelling per polynomial.  With them
    keys may be respelled twice in one polynomial, have a negative count,
    the wrong length, a degree past the budget or no integer at all, and
    literals may be bad.
    """
    counts = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    spellings = st.sampled_from(COUNT_SPELLINGS)
    key = st.tuples(counts, st.lists(spellings, min_size=n, max_size=n)).map(
        lambda cs: ",".join(s.format(c) for c, s in zip(*cs))
    )
    literal = st.sampled_from(LITERALS)
    if not faults:
        terms = st.dictionaries(counts, st.tuples(st.lists(spellings, min_size=n, max_size=n), literal))
        return terms.map(
            lambda t: {",".join(s.format(c) for c, s in zip(cs, sp)): v for cs, (sp, v) in t.items()}
        )
    # "1_0" is the count 10 as int reads it, and "101" is past the degree budget.
    odd = ("x", "1,", "", "1_0", "101", "1", "-1")
    odd = st.sampled_from([text + ",0" * (n - 1) if text[-1:].isdigit() else text for text in odd])
    literal = st.one_of(literal, st.sampled_from(BAD_LITERALS))
    return st.dictionaries(st.one_of(key, key, odd, st.just("1" + ",0" * n)), literal, max_size=5)


def test_field_reader_matches_reading_every_term_afresh():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        faults = data.draw(st.booleans())
        comps = data.draw(st.lists(polynomial_objs(st, n, faults), min_size=m, max_size=m))
        obj = {"n": n, "m": m, "components": comps}
        assert read_outcome(fileio.field_from_obj, obj) == read_outcome(fresh_field, obj)

    check()


def test_stress_reader_matches_reading_every_term_afresh():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n, m, k = (data.draw(st.integers(1, 3)) for _ in "nmk")
        kind = data.draw(st.sampled_from(("variational", "traction")))
        faults = data.draw(st.sampled_from(("none", "slots", "terms")))
        # Slot parts in range or one past it, axis lists sometimes decreasing, now and then padded.
        bad = faults == "slots"
        alpha = st.integers(1 - bad, m + bad).map(str)
        axes = st.lists(st.integers(1, n + bad), max_size=k + bad).map(
            lambda a: ",".join(map(str, a if bad else sorted(a)))
        )
        j = st.integers(1 - bad, n + bad).map(str)
        parts = [alpha, axes, j] if kind == "traction" else [alpha, axes]
        slot = st.tuples(*parts).map("|".join)
        if bad:
            slot = st.one_of(slot, slot.map(lambda key: " " + key.replace("|", " |", 1)))
        polys = polynomial_objs(st, n, faults == "terms")
        blocks = data.draw(st.dictionaries(slot, polys, min_size=1, max_size=6))
        obj = {"n": n, "m": m, "k": k, "kind": kind, "blocks": blocks}
        new, old = read_outcome(fileio.stress_from_obj, obj), read_outcome(fresh_stress, obj)
        assert new == old
        if isinstance(new, TractionStressField):
            assert new.axes == old.axes

    check()


@pytest.mark.parametrize(
    "poly, message",
    [
        # Negative counts are found after the last term's literal, as Polynomial.from_map finds them.
        ({"-1,0": "1", "0,0": "x"}, "bad rational 'x': Invalid literal for Fraction: 'x'"),
        ({"-1,0": "1", "0,0": "1"}, "negative count -1"),
        ({"1,0": "1", "0,0": True}, "bad rational 'True': Invalid literal for Fraction: 'True'"),
        # JSON 1 and true are equal Python keys; the literal memo must tell them apart.
        ({"1,0": 1, "0,0": True}, "bad rational 'True': Invalid literal for Fraction: 'True'"),
        ({"1,0": "2", " 1,0": "x"}, "'1,0' and ' 1,0' name one monomial"),
        ({"1_0,0": "1", "+10,0": "1"}, "'1_0,0' and '+10,0' name one monomial"),
        ({"1,0": "1/0", "101,0": "1"}, "bad rational '1/0': Fraction(1, 0)"),
    ],
)
def test_readers_report_a_file_first_fault_as_reading_afresh_does(poly, message):
    stress = {"n": 2, "m": 1, "k": 1, "kind": "variational", "blocks": {"1|": {"": "1"}, "1|1": poly}}
    field = {"n": 2, "m": 2, "components": [{"0,1": "1", "1,0": "-1/2"}, poly]}
    for read, fresh, obj in ((fileio.stress_from_obj, fresh_stress, stress), (fileio.field_from_obj, fresh_field, field)):
        assert read_outcome(read, obj) == read_outcome(fresh, obj) == ("ValueError", message)


def test_readers_parse_each_distinct_key_and_literal_once(monkeypatch):
    counted = {"counts": 0, "rational": 0}
    for name, key in (("_counts", "counts"), ("parse_rational", "rational")):
        original = getattr(fileio, name)

        def counting(*args, original=original, key=key):
            counted[key] += 1
            return original(*args)

        monkeypatch.setattr(fileio, name, counting)
    poly = {"1,0": "1/2", "0,1": "-1", "": "1/2"}
    blocks = {f"1|{','.join(['1'] * l)}": poly for l in range(4)}
    stress = {"n": 2, "m": 1, "k": 3, "kind": "variational", "blocks": blocks}
    loaded = fileio.stress_from_obj(stress)
    assert counted == {"counts": 3, "rational": 2}
    assert loaded == fresh_stress(stress)
    counted.update(counts=0, rational=0)
    field = {"n": 2, "m": 3, "components": [poly, poly, {"1,0": "-1"}]}
    loaded = fileio.field_from_obj(field)
    assert counted == {"counts": 3, "rational": 2}
    assert loaded == fresh_field(field)


def fraction_read(text) -> Fraction:
    """``parse_rational`` as it read every literal: the exponent check, then ``Fraction``."""
    text = str(text)
    try:
        if not text.isascii():
            raise ValueError("not ASCII")
        text = text.strip()
        exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\Z", text)
        if exponent and int(exponent[1]) > multiindex._BUDGETS["in exponent"]:
            raise ValueError(f"exponent exceeds its budget of {multiindex._BUDGETS['in exponent']}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


DIGIT_SPELLINGS = [
    "1", "-1", "0", "-0", "00", "007/014", "1/0", "-1/0", "0/0", "3/6", "-6/4", "9" * 4301,
    "1/" + "9" * 4301, "9" * 4300, "-", "", "/", "1/", "/2", "--1", "1/-2", "1/+2", "٣",
    "1/٣", "²", " 1", "1 ", "+1", "1_0", "1/2/3", "1.5", "1e3", True, None, 1, -3, 2.5,
]


def test_plain_digit_literals_read_as_fraction_reads_them():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    for text in DIGIT_SPELLINGS:
        assert read_outcome(fileio.parse_rational, text) == read_outcome(fraction_read, text)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.text("0123456789-/+_ .e", max_size=12))
    def check(text):
        assert read_outcome(fileio.parse_rational, text) == read_outcome(fraction_read, text)

    check()
