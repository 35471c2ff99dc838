from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetstress import fileio
from jetstress.multiindex import CardinalityIndex, MultiIndex
from jetstress.altforms import CoDimOneForm
from jetstress.polyfield import PolyField, Polynomial

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
    obj["storage"] = "dense"
    del obj["convention"]
    assert fileio.tensor_from_obj(obj).component((2, 1)) == 1


def test_dense_reader_parses_each_key_once(monkeypatch):
    t = rand_dense(random.Random(84), 3, 4, "contra")
    obj = fileio.tensor_to_obj(t)
    built = []
    original = MultiIndex.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(MultiIndex, "__post_init__", counting)
    assert fileio.tensor_from_obj(obj) == t
    assert built == []
    obj["components"] = {"1,2,3,4": "1"}
    with pytest.raises(ValueError, match=r"^axis 4 out of range 1\.\.3$"):
        fileio.tensor_from_obj(obj)
    obj["components"] = {"1,2": "1"}
    with pytest.raises(ValueError, match=r"^component key '1,2' has degree 2, expected 4$"):
        fileio.tensor_from_obj(obj)
    obj["components"] = {"1,x,1,1": "1"}
    with pytest.raises(ValueError, match="bad axis list"):
        fileio.tensor_from_obj(obj)


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


TENSOR = {"n": 2, "degree": 1, "variance": "co", "storage": "symmetric", "convention": "plain"}


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
