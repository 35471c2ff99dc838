from __future__ import annotations

import json
from fractions import Fraction

import pytest

from jetstress import fileio
from jetstress.cli import main
from jetstress.multiindex import CardinalityIndex
from jetstress.polyfield import PolyField, Polynomial
from jetstress.hyperstress import TractionStressField, VariationalStressField
from jetstress.symtensor import DenseTensor


def write_json(path, obj):
    fileio.save(obj, str(path))
    return str(path)


def product_field_file(tmp_path):
    field = PolyField(2, 1, (Polynomial.variable(2, 1) * Polynomial.variable(2, 2),))
    return write_json(tmp_path / "field.json", fileio.field_to_obj(field))


def constant_field_file(tmp_path, n):
    field = PolyField(n, 1, (Polynomial.constant(n, 1),))
    return write_json(tmp_path / "one.json", fileio.field_to_obj(field))


def test_dims_table(capsys):
    assert main(["dims", "--n", "3", "--l", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].split() == ["0", "1", "1", "1", "ok"]
    assert lines[2].split() == ["1", "3", "3", "3", "ok"]
    assert lines[3].split() == ["2", "6", "9", "9", "ok"]


def test_dims_default_degree_range(capsys):
    assert main(["dims", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert lines[-1].split() == ["6", "7", "64", "64", "ok"]


def test_symmetrize_round_trip(tmp_path, capsys):
    dense = DenseTensor.from_map(2, 2, "contra", {(1, 2): 1})
    src = write_json(tmp_path / "dense.json", fileio.tensor_to_obj(dense))
    out = tmp_path / "sym.json"
    assert main(["symmetrize", src, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    loaded = fileio.tensor_from_obj(fileio.load(str(out)))
    assert loaded.convention == "plain"
    assert loaded.component((1, 2)) == Fraction(1, 2)


def test_symmetrize_rejects_symmetric_input(tmp_path, capsys):
    sym = fileio.tensor_to_obj(
        fileio.tensor_from_obj(
            {
                "n": 2,
                "degree": 1,
                "variance": "contra",
                "storage": "symmetric",
                "components": {"1": "1"},
            }
        )
    )
    src = write_json(tmp_path / "sym_in.json", sym)
    assert main(["symmetrize", src, "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_jet_prints_canonical_json(tmp_path, capsys):
    field_file = product_field_file(tmp_path)
    assert main(["jet", field_file, "--point", "0,0", "--k", "2"]) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert obj["blocks"]["2"] == {"1|1,1": "1"}
    assert obj["blocks"]["0"] == {}
    assert main(["jet", field_file, "--point", "0,0", "--k", "2"]) == 0
    assert capsys.readouterr().out == first


def test_jet_writes_file(tmp_path, capsys):
    field_file = product_field_file(tmp_path)
    out = tmp_path / "jet.json"
    assert main(["jet", field_file, "--point", "1,2", "--k", "1", "--out", str(out)]) == 0
    jet = fileio.jet_from_obj(fileio.load(str(out)))
    assert jet.component(1, ()) == 2
    assert jet.component(1, (1,)) == 2
    assert jet.component(1, (2,)) == 1


def test_jet_bad_point_is_an_error(tmp_path, capsys):
    field_file = product_field_file(tmp_path)
    assert main(["jet", field_file, "--point", "0,zebra", "--k", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_power_exact_and_midpoint(tmp_path, capsys):
    stress = VariationalStressField.from_map(
        2, 1, 2, {(1, CardinalityIndex((1, 1))): Polynomial.constant(2, 1)}
    )
    stress_file = write_json(tmp_path / "stress.json", fileio.stress_to_obj(stress))
    field_file = product_field_file(tmp_path)
    assert main(["power", stress_file, field_file, "--box", "0,0:1,1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["power", stress_file, field_file, "--box", "0,0:1,1", "--subdiv", "3"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["power", stress_file, field_file, "--box", "0,0:1,1", "--float"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_power_rejects_traction_files(tmp_path, capsys):
    stress = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.constant(2, 1)}
    )
    stress_file = write_json(tmp_path / "traction.json", fileio.stress_to_obj(stress))
    field_file = constant_field_file(tmp_path, 2)
    assert main(["power", stress_file, field_file, "--box", "0,0:1,1"]) == 1
    assert "variational" in capsys.readouterr().err


def test_flux_values(tmp_path, capsys):
    field_file = constant_field_file(tmp_path, 2)
    constant = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.constant(2, 3)}
    )
    linear = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.variable(2, 1)}
    )
    diverging = TractionStressField.from_map(
        2,
        1,
        1,
        {(1, (), 1): Polynomial.variable(2, 1), (1, (), 2): Polynomial.variable(2, 2)},
    )
    for stress, expected in ((constant, "0"), (linear, "1"), (diverging, "2")):
        stress_file = write_json(tmp_path / "flux_stress.json", fileio.stress_to_obj(stress))
        assert main(["flux", stress_file, field_file, "--box", "0,0:1,1"]) == 0
        assert capsys.readouterr().out == expected + "\n"


def test_flux_midpoint_and_order_check(tmp_path, capsys):
    field_file = constant_field_file(tmp_path, 2)
    stress = TractionStressField.from_map(
        2, 1, 1, {(1, (), 1): Polynomial.variable(2, 1)}
    )
    stress_file = write_json(tmp_path / "flux_stress.json", fileio.stress_to_obj(stress))
    assert (
        main(["flux", stress_file, field_file, "--box", "0,0:1,1", "--subdiv", "2"]) == 0
    )
    assert capsys.readouterr().out == "1\n"
    assert main(["flux", stress_file, field_file, "--box", "0,0:1,1", "--k", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_pair_command(tmp_path, capsys):
    phi = fileio.tensor_to_obj(
        fileio.tensor_from_obj(
            {
                "n": 2,
                "degree": 2,
                "variance": "co",
                "storage": "symmetric",
                "convention": "arrow",
                "components": {"1,2": "1"},
            }
        )
    )
    dense = DenseTensor.from_map(2, 2, "contra", {(1, 2): 1, (2, 1): 1})
    phi_file = write_json(tmp_path / "phi.json", phi)
    t_file = write_json(tmp_path / "t.json", fileio.tensor_to_obj(dense))
    assert main(["pair", phi_file, t_file]) == 0
    assert capsys.readouterr().out == "1\n"


def test_pair_float_output(tmp_path, capsys):
    phi = {
        "n": 2,
        "degree": 1,
        "variance": "co",
        "storage": "symmetric",
        "convention": "arrow",
        "components": {"1": "1/3"},
    }
    t = {
        "n": 2,
        "degree": 1,
        "variance": "contra",
        "storage": "symmetric",
        "convention": "plain",
        "components": {"1": "1"},
    }
    phi_file = write_json(tmp_path / "phi.json", phi)
    t_file = write_json(tmp_path / "t.json", t)
    assert main(["pair", phi_file, t_file]) == 0
    assert capsys.readouterr().out == "1/3\n"
    assert main(["pair", phi_file, t_file, "--float"]) == 0
    assert capsys.readouterr().out == "0.33333333333333331\n"


def test_verify_suites_pass(capsys):
    for suite in ("epsilon", "duality", "cauchy", "jets"):
        assert main(["verify", suite, "--cases", "5", "--n", "2", "--l", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("OK")


def test_verify_is_deterministic(capsys):
    args = ["verify", "cauchy", "--cases", "5", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_missing_file_is_an_error(capsys):
    assert main(["jet", "/nonexistent/field.json", "--point", "0", "--k", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def tensor_obj(variance, storage, degree, components):
    obj = {"n": 2, "degree": degree, "variance": variance, "storage": storage}
    return {**obj, "components": components}


ONE_FIELD = {"n": 2, "m": 1, "components": [{"0,0": "1"}]}

# Malformed inputs and out-of-range flags: file name -> JSON object, then argv
# with file names standing for their paths under tmp_path.
MALFORMED = {
    "bad-field-shape": (
        {"field.json": {"n": 2, "m": 1, "components": [["x"]]}},
        ["jet", "field.json", "--point", "0,0", "--k", "1"],
    ),
    "bad-degree": (
        {"dense.json": tensor_obj("contra", "dense", -1, {})},
        ["symmetrize", "dense.json", "--out", "out.json"],
    ),
    "float-overflow": (
        {
            "co.json": tensor_obj("co", "symmetric", 1, {"1": "1e309"}),
            "contra.json": tensor_obj("contra", "symmetric", 1, {"1": "1"}),
        },
        ["pair", "co.json", "contra.json", "--float"],
    ),
    "bad-slot-key": (
        {
            "stress.json": {"n": 2, "m": 1, "k": 1, "kind": "traction", "blocks": {"x||1": {}}},
            "field.json": ONE_FIELD,
        },
        ["flux", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
    "dims-zero": ({}, ["dims", "--n", "0"]),
    "negative-order": (
        {"field.json": ONE_FIELD},
        ["jet", "field.json", "--point", "0,0", "--k", "-1"],
    ),
    "stress-negative-order": (
        {
            "stress.json": {"n": 2, "m": 1, "k": -1, "kind": "variational", "blocks": {}},
            "field.json": ONE_FIELD,
        },
        ["power", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
    "stress-no-components": (
        {
            "stress.json": {"n": 2, "m": 0, "k": 1, "kind": "variational", "blocks": {}},
            "field.json": ONE_FIELD,
        },
        ["power", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(tmp_path, capsys, kind):
    files, args = MALFORMED[kind]
    for name, obj in files.items():
        write_json(tmp_path / name, obj)
    argv = [str(tmp_path / arg) if arg in files or arg == "out.json" else arg for arg in args]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "out.json").exists()
    if kind == "bad-slot-key":
        assert "'x||1'" in lines[0]


VARIATIONAL = {"n": 2, "m": 1, "k": 1, "kind": "variational", "blocks": {}}

# Header fields of the wrong JSON type: field name, then files and argv as in
# MALFORMED.
BAD_HEADERS = {
    "field-n-list": (
        "'n'",
        {"field.json": {"n": [2], "m": 1, "components": []}},
        ["jet", "field.json", "--point", "0,0", "--k", "1"],
    ),
    "field-m-string": (
        "'m'",
        {"field.json": {"n": 2, "m": "1", "components": [{}]}},
        ["jet", "field.json", "--point", "0,0", "--k", "1"],
    ),
    "field-components-object": (
        "'components'",
        {"field.json": {"n": 2, "m": 1, "components": {}}},
        ["jet", "field.json", "--point", "0,0", "--k", "1"],
    ),
    "tensor-degree-float": (
        "'degree'",
        {"dense.json": tensor_obj("contra", "dense", 1.5, {})},
        ["symmetrize", "dense.json", "--out", "out.json"],
    ),
    "tensor-n-bool": (
        "'n'",
        {
            "co.json": {**tensor_obj("co", "symmetric", 1, {}), "n": True},
            "contra.json": tensor_obj("contra", "symmetric", 1, {}),
        },
        ["pair", "co.json", "contra.json"],
    ),
    "tensor-variance-list": (
        "'variance'",
        {"dense.json": tensor_obj(["contra"], "dense", 1, {})},
        ["symmetrize", "dense.json", "--out", "out.json"],
    ),
    "stress-k-null": (
        "'k'",
        {"stress.json": {**VARIATIONAL, "k": None}, "field.json": ONE_FIELD},
        ["power", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
    "stress-kind-list": (
        "'kind'",
        {"stress.json": {**VARIATIONAL, "kind": ["traction"]}, "field.json": ONE_FIELD},
        ["flux", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
}


@pytest.mark.parametrize("kind", sorted(BAD_HEADERS))
def test_header_type_error_is_one_error_line(tmp_path, capsys, kind):
    field, files, args = BAD_HEADERS[kind]
    for name, obj in files.items():
        write_json(tmp_path / name, obj)
    argv = [str(tmp_path / arg) if arg in files or arg == "out.json" else arg for arg in args]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert field in lines[0]
    assert not (tmp_path / "out.json").exists()


def test_jet_and_form_headers_name_the_bad_field():
    jet = {"n": 2, "m": 1, "k": 1, "x": ["0", "0"]}
    for bad, field in (({"x": "0,0"}, "'x'"), ({"k": "1"}, "'k'"), ({"m": [1]}, "'m'")):
        with pytest.raises(ValueError, match=field):
            fileio.jet_from_obj({**jet, **bad})
    form = {"n": 2, "coeffs": ["1", "0"]}
    for bad, field in (({"coeffs": "1,0"}, "'coeffs'"), ({"n": 2.0}, "'n'")):
        with pytest.raises(ValueError, match=field):
            fileio.form_from_obj({**form, **bad})
