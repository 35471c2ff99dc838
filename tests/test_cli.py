from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jetstress import _checks, cli, fileio
from jetstress.cli import main
from jetstress.multiindex import CardinalityIndex
from jetstress.polyfield import PolyField, Polynomial
from jetstress.hyperstress import TractionStressField, VariationalStressField
from jetstress.symtensor import DenseTensor, SymTensor, include

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_symmetrize_and_pair_take_dense_files_above_the_permutation_cap(tmp_path, capsys):
    # At n=2 the degree-9 class with counts (8, 1) holds 9 of the 512 dense components.
    dense = DenseTensor.from_map(2, 9, "contra", {(2,) + (1,) * 8: 9})
    src = write_json(tmp_path / "dense.json", fileio.tensor_to_obj(dense))
    out = tmp_path / "sym.json"
    assert main(["symmetrize", src, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    expected = SymTensor.from_map(2, 9, "contra", "plain", {(1,) * 8 + (2,): 1})
    assert fileio.tensor_from_obj(fileio.load(str(out))) == expected
    co = include(SymTensor.from_map(2, 9, "co", "plain", {(1,) * 8 + (2,): 1}))
    co_file = write_json(tmp_path / "co.json", fileio.tensor_to_obj(co))
    assert main(["pair", co_file, str(out)]) == 0
    assert capsys.readouterr().out == "9\n"


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


VERIFY_LINES = {
    "epsilon": "epsilon: 5 cases at n=2, l=2: OK\n",
    "duality": "duality: all basis pairs up to degree 2 at n=2: OK\n",
    "cauchy": "cauchy: 5 cases at n=2, m=2, k=2: OK\n",
    "jets": "jets: 5 cases at n=2, m=2, k=2: OK\n",
}


def test_verify_suites_pass(capsys):
    for suite, line in VERIFY_LINES.items():
        assert main(["verify", suite, "--cases", "5", "--n", "2", "--l", "2"]) == 0
        assert capsys.readouterr().out == line


def test_verify_is_deterministic(capsys):
    args = ["verify", "cauchy", "--cases", "5", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_seeded_draws_are_the_randint_draws():
    # rand_fraction draws with randrange(a, b + 1), which randint(a, b) is documented to be, and
    # hands out one shared Fraction per value.
    shapes = ((9, 7), (3, 3), (4, 3), (2, 2), (1, 1))
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for span, den in shapes:
            for _ in range(20):
                got = _checks.rand_fraction(rng, span, den)
                assert got == Fraction(ref.randint(-span, span), ref.randint(1, den))
                assert type(got) is Fraction
        tensor = _checks.rand_sym(rng, 3, 3, "co", "arrow")
        expected = tuple(Fraction(ref.randint(-9, 9), ref.randint(1, 7)) for _ in range(10))
        assert tensor == SymTensor(3, 3, "co", "arrow", expected)
        assert rng.random() == ref.random()


# Out-of-range verify flags, each with the flag its error line must name.
BAD_VERIFY_FLAGS = {
    "epsilon-negative-cases": (["epsilon", "--cases", "-5"], "--cases"),
    "epsilon-zero-cases": (["epsilon", "--cases", "0"], "--cases"),
    "duality-negative-l": (["duality", "--l", "-1"], "--l"),
    "epsilon-zero-n": (["epsilon", "--n", "0"], "--n"),
    "cauchy-zero-m": (["cauchy", "--m", "0"], "--m"),
    "jets-negative-k": (["jets", "--k", "-1"], "--k"),
    "jets-zero-m": (["jets", "--m", "0"], "--m"),
}


@pytest.mark.parametrize("kind", sorted(BAD_VERIFY_FLAGS))
def test_verify_flag_out_of_range_is_one_error_line(capsys, kind):
    args, flag = BAD_VERIFY_FLAGS[kind]
    assert main(["verify", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} must be at least")


@pytest.mark.parametrize("n, l", [(4, 8), (6, 8), (1, 10**9)])
def test_verify_duality_refuses_sizes_past_its_budget(capsys, n, l):
    assert main(["verify", "duality", "--n", str(n), "--l", str(l)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: verify duality at --n {n} --l {l} exceeds its budget of 20000 basis pairs\n"
    )


def test_verify_duality_budget_admits_sizes_below_it(monkeypatch):
    # n=3, l=5 checks 812 basis pairs and n=4, l=6 checks 11,934.
    calls = []
    monkeypatch.setattr(_checks, "verify_duality", lambda n, l: calls.append((n, l)) or 0)
    for n, l in ((3, 5), (4, 6)):
        assert main(["verify", "duality", "--n", str(n), "--l", str(l)]) == 0
    assert calls == [(3, 5), (4, 6)]


@pytest.mark.parametrize(
    "flags, budget",
    [
        # 25 cases of 8! permutations each are 1,008,000 applications.
        (["--n", "3", "--l", "8", "--cases", "25"], "1000000 permutation applications"),
        # One dense draw of 9**6 = 531,441 components.
        (["--n", "9", "--l", "6", "--cases", "5"], "100000 components"),
        (["--n", "100", "--l", "8", "--cases", "1"], "100000 components"),
    ],
)
def test_verify_epsilon_refuses_sizes_past_its_budgets(capsys, monkeypatch, flags, budget):
    monkeypatch.setattr(_checks, "verify_epsilon", lambda *args: pytest.fail("drew cases"))
    assert main(["verify", "epsilon", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    named = " ".join(flags)
    assert captured.err == f"error: verify epsilon at {named} exceeds its budget of {budget}\n"


@pytest.mark.parametrize("l", ["9", "1000000000"])
def test_verify_epsilon_refuses_degrees_past_the_permutation_cap(capsys, l):
    assert main(["verify", "epsilon", "--l", l]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: degree {l} exceeds permutation cap 8\n"


def test_verify_epsilon_budgets_admit_sizes_up_to_them(monkeypatch):
    calls = []
    monkeypatch.setattr(_checks, "verify_epsilon", lambda *args: calls.append(args[1:]) or 0)
    # 24 * 8! = 967,680 applications; one draw of 10**5 dense components.
    for n, l, cases in ((3, 8, 24), (10, 5, 9)):
        assert main(["verify", "epsilon", "--n", str(n), "--l", str(l), "--cases", str(cases)]) == 0
    assert calls == [(3, 8, 24), (10, 5, 9)]


def test_verify_epsilon_runs_at_the_benchmark_shape(capsys):
    # 8,640 permutation applications and 1,458 dense components.
    assert main(["verify", "epsilon", "--n", "3", "--l", "6", "--cases", "12"]) == 0
    assert capsys.readouterr().out == "epsilon: 12 cases at n=3, l=6: OK\n"


# One jet slot per case of either suite, so --cases alone meets the budget of 10,000.
ONE_SLOT = ["--n", "1", "--m", "1", "--k", "0"]


@pytest.mark.parametrize(
    "suite, flags, named",
    [
        ("jets", ["--n", "8", "--k", "10", "--cases", "1"], "--n 8 --m 2 --k 10 --cases 1"),
        ("cauchy", ["--cases", "1000000000"], "--n 3 --m 2 --k 2 --cases 1000000000"),
        ("jets", [*ONE_SLOT, "--cases", "10001"], "--n 1 --m 1 --k 0 --cases 10001"),
        ("cauchy", [*ONE_SLOT, "--cases", "10001"], "--n 1 --m 1 --k 0 --cases 10001"),
    ],
)
def test_verify_jet_suites_refuse_sizes_past_their_budget(capsys, suite, flags, named):
    assert main(["verify", suite, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    budget = "exceeds its budget of 10000 jet slots"
    assert captured.err == f"error: verify {suite} at {named} {budget}\n"


def test_verify_jet_suites_budget_admits_sizes_up_to_it(monkeypatch):
    calls = []
    monkeypatch.setattr(_checks, "verify_jets", lambda *args: calls.append(args[1:]) or 0)
    monkeypatch.setattr(_checks, "verify_cauchy", lambda *args: calls.append(args[1:]) or 0)
    for suite in ("jets", "cauchy"):
        assert main(["verify", suite, *ONE_SLOT, "--cases", "10000"]) == 0
    assert calls == [(1, 1, 0, 10000), (1, 1, 1, 10000)]


def test_verify_jet_suites_run_at_the_benchmark_shapes(capsys):
    # 6 jets cases at n=3, m=2, k=3 draw 240 jet slots; 12 cauchy cases at k=4 draw 1,440.
    assert main(["verify", "jets", "--n", "3", "--k", "3", "--m", "2", "--cases", "6"]) == 0
    assert capsys.readouterr().out == "jets: 6 cases at n=3, m=2, k=3: OK\n"
    assert main(["verify", "cauchy", "--n", "3", "--k", "4", "--m", "2", "--cases", "12"]) == 0
    assert capsys.readouterr().out == "cauchy: 12 cases at n=3, m=2, k=4: OK\n"


def test_import_loads_no_module_beyond_the_package():
    """``import jetstress.cli`` adds only jetstress modules to what the stdlib it uses loads.

    ``-S`` skips ``site``, whose ``.pth`` files may preload modules on one
    interpreter and not on another.  The ``verify`` suites, and ``random``
    with them, load only when ``verify`` runs, and ``json`` only when a file
    is read or written.  Neither ``argparse`` (with ``gettext`` and
    ``locale``) nor ``typing`` loads at all.
    """
    script = (
        "import sys\n"
        "import __future__, fractions, functools, itertools, math, operator\n"
        "before = set(sys.modules)\n"
        "import jetstress.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    added = result.stdout.split()
    assert "jetstress.cli" in added
    assert "random" not in added and "jetstress._checks" not in added and "json" not in added
    assert [name for name in added if name.split(".")[0] != "jetstress"] == []


@pytest.mark.parametrize(
    "argv",
    [["dims", "--n", "3", "--l", "2"], ["verify", "epsilon", "--l", "2", "--cases", "2"],
     ["verify", "cauchy", "--cases", "1"]],
    ids=["dims", "verify-epsilon", "verify-cauchy"],
)
def test_commands_that_read_no_file_never_load_json(argv):
    script = (
        "import sys\n"
        "import jetstress.cli\n"
        f"code = jetstress.cli.main({argv!r})\n"
        "print(code, 'json' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 False"


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
    "traction-order-zero": (
        {
            "stress.json": {"n": 2, "m": 1, "k": 0, "kind": "traction", "blocks": {}},
            "field.json": ONE_FIELD,
        },
        ["flux", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
    "slot-spelled-twice": (
        {
            "stress.json": {
                "n": 2, "m": 1, "k": 1, "kind": "variational",
                "blocks": {"1|": {"": "1"}, " 1|": {"": "5"}},
            },
            "field.json": ONE_FIELD,
        },
        ["power", "stress.json", "field.json", "--box", "0,0:1,1"],
    ),
    "monomial-spelled-twice": (
        {"field.json": {"n": 2, "m": 1, "components": [{"0,0": "1", " 0,0": "2"}]}},
        ["jet", "field.json", "--point", "0,0", "--k", "1"],
    ),
}
# The one error line of some kinds, in full; write_json sorts the keys, so " 1|" comes first.
MALFORMED_LINES = {
    "traction-order-zero": "error: order must be at least 1, got 0",
    "slot-spelled-twice": "error: ' 1|' and '1|' name one stress slot",
    "monomial-spelled-twice": "error: ' 0,0' and '0,0' name one monomial",
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
    if kind in MALFORMED_LINES:
        assert lines[0] == MALFORMED_LINES[kind]


HUGE = 10**20
X1X2 = {"n": 2, "m": 1, "components": [{"1,1": "1"}]}
BOX = ["--box", "0,0:1,1"]


def stress_obj(kind, n=2, m=1, k=1):
    return {"n": n, "m": m, "k": k, "kind": kind, "blocks": {}}


# A 42-byte field file of x1**100000, past the degree budget, and for each command that reads
# it the other files and the argv, as in MALFORMED.
X1_DEGREE_HUGE = {"n": 1, "m": 1, "components": [{"100000": "1"}]}
DEGREE_FILES = {
    "jet": ({}, ["jet", "field.json", "--point", "1", "--k", "1"]),
    "power": (
        {"stress.json": stress_obj("variational", n=1) | {"blocks": {"1|": {"": "1"}}}},
        ["power", "stress.json", "field.json", "--box", "0:1"],
    ),
    "power-subdiv": (
        {"stress.json": stress_obj("variational", n=1) | {"blocks": {"1|": {"": "1"}}}},
        ["power", "stress.json", "field.json", "--box", "0:1", "--subdiv", "7"],
    ),
    "flux": (
        {"stress.json": stress_obj("traction", n=1) | {"blocks": {"1||1": {"": "1"}}}},
        ["flux", "stress.json", "field.json", "--box", "0:1"],
    ),
}


# Requests past a stated budget: files and argv as in MALFORMED, then the budget the error names.
OVERSIZED = {
    "dense-10-9": (
        {"dense.json": tensor_obj("contra", "dense", 9, {}) | {"n": 10}},
        ["symmetrize", "dense.json", "--out", "out.json"],
        "100000 components",
    ),
    "dense-huge-degree": (
        {"dense.json": tensor_obj("contra", "dense", HUGE, {})},
        ["symmetrize", "dense.json", "--out", "out.json"],
        "100000 components",
    ),
    "symmetric-1000-1000": (
        {
            "co.json": tensor_obj("co", "symmetric", 1000, {}) | {"n": 1000},
            "contra.json": tensor_obj("contra", "symmetric", 1, {}),
        },
        ["pair", "co.json", "contra.json"],
        "100000 components",
    ),
    "symmetric-huge": (
        {
            "co.json": tensor_obj("co", "symmetric", HUGE, {}) | {"n": HUGE},
            "contra.json": tensor_obj("contra", "symmetric", 1, {}),
        },
        ["pair", "co.json", "contra.json"],
        "100000 components",
    ),
    "symmetric-one-axis-huge-degree": (
        {
            "co.json": tensor_obj("co", "symmetric", HUGE, {}) | {"n": 1},
            "contra.json": tensor_obj("contra", "symmetric", HUGE, {}) | {"n": 1},
        },
        ["pair", "co.json", "contra.json"],
        "100000 components",
    ),
    "variational-huge-k": (
        {"stress.json": stress_obj("variational", k=HUGE), "field.json": X1X2},
        ["power", "stress.json", "field.json", *BOX],
        "10000 jet slots",
    ),
    "variational-huge-n": (
        {"stress.json": stress_obj("variational", n=HUGE), "field.json": X1X2},
        ["power", "stress.json", "field.json", *BOX],
        "10000 jet slots",
    ),
    "traction-huge-k": (
        {"stress.json": stress_obj("traction", k=HUGE), "field.json": X1X2},
        ["flux", "stress.json", "field.json", *BOX],
        "10000 jet slots",
    ),
    "traction-huge-m": (
        {"stress.json": stress_obj("traction", m=HUGE), "field.json": X1X2},
        ["flux", "stress.json", "field.json", *BOX],
        "10000 jet slots",
    ),
    **{
        f"field-degree-{command}": (
            {"field.json": X1_DEGREE_HUGE, **files}, args, "100 in total degree"
        )
        for command, (files, args) in DEGREE_FILES.items()
    },
    "stress-degree-101": (
        {
            "stress.json": stress_obj("variational") | {"blocks": {"1|": {"50,51": "1"}}},
            "field.json": X1X2,
        },
        ["power", "stress.json", "field.json", *BOX],
        "100 in total degree",
    ),
    "dims-16-8": ({}, ["dims", "--n", "16", "--l", "8"], "10000 index classes"),
    "dims-40-10": ({}, ["dims", "--n", "40", "--l", "10"], "10000 index classes"),
    "dims-one-axis-huge": ({}, ["dims", "--n", "1", "--l", str(HUGE)], "10000 index classes"),
    "jet-k-200": (
        {"field.json": X1X2},
        ["jet", "field.json", "--point", "0,0", "--k", "200", "--out", "out.json"],
        "10000 jet slots",
    ),
    "jet-k-800": (
        {"field.json": X1X2},
        ["jet", "field.json", "--point", "0,0", "--k", "800"],
        "10000 jet slots",
    ),
    "jet-k-huge": (
        {"field.json": X1X2},
        ["jet", "field.json", "--point", "0,0", "--k", str(HUGE)],
        "10000 jet slots",
    ),
    "power-subdiv": (
        {"stress.json": stress_obj("variational"), "field.json": X1X2},
        ["power", "stress.json", "field.json", *BOX, "--subdiv", str(HUGE)],
        "100000 cells per axis",
    ),
    "flux-subdiv": (
        {"stress.json": stress_obj("traction"), "field.json": X1X2},
        ["flux", "stress.json", "field.json", *BOX, "--subdiv", "100001"],
        "100000 cells per axis",
    ),
    # A degree-200 density, each file within the degree budget, under the most cells allowed.
    "power-subdiv-degree-200": (
        {
            "stress.json": stress_obj("variational", n=1, k=0) | {"blocks": {"1|": {"100": "1"}}},
            "field.json": {"n": 1, "m": 1, "components": [{"100": "1"}]},
        },
        ["power", "stress.json", "field.json", "--box", "0:1", "--subdiv", "100000"],
        "1000000 midpoint powers",
    ),
    # 1,000 cells of 1,008-bit midpoints at degree 200; admitted, it ran 2.4 s to print a value.
    "power-subdiv-long-midpoints": (
        {
            "stress.json": stress_obj("variational", n=1, k=0) | {"blocks": {"1|": {"100": "1"}}},
            "field.json": {"n": 1, "m": 1, "components": [{"100": "1"}]},
        },
        ["power", "stress.json", "field.json", "--box", "1e-300:1", "--subdiv", "1000", "--float"],
        "50000000 midpoint bits",
    ),
    # x1**100 at 10**-4300 is 1,428,500 bits; admitted, it ran 4 to 5 s to the print limit.
    "jet-point-bits": (
        {"field.json": {"n": 1, "m": 1, "components": [{"100": "1"}]}},
        ["jet", "field.json", "--point", "1e-4300", "--k", "10"],
        "20000 monomial bits",
    ),
}
# The requests that ran for seconds when admitted run in a child with a timeout.
IN_A_CHILD = {"jet-point-bits", "power-subdiv-long-midpoints"}


@pytest.mark.parametrize("kind", sorted(OVERSIZED))
def test_oversized_request_is_refused_at_once(tmp_path, capsys, kind):
    files, args, budget = OVERSIZED[kind]
    for name, obj in files.items():
        write_json(tmp_path / name, obj)
    argv = [str(tmp_path / arg) if arg in files or arg == "out.json" else arg for arg in args]
    start = time.perf_counter()
    if kind in IN_A_CHILD:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        child = subprocess.run(
            [sys.executable, "-m", "jetstress.cli", *argv],
            env=env, capture_output=True, text=True, timeout=30,
        )
        code, out, err = child.returncode, child.stdout, child.stderr
    else:
        code = main(argv)
        out, err = capsys.readouterr()
    assert code == 1
    assert time.perf_counter() - start < 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith(f" exceeds its budget of {budget}")
    assert not (tmp_path / "out.json").exists()


HUGE_EXPONENT = "1e999999999"
X1 = {"n": 1, "m": 1, "components": [{"1": "1"}]}

# A literal whose exponent is past its budget, in a file value, --point and --box: files and
# argv as in MALFORMED, then text the error line must hold.
HUGE_EXPONENTS = {
    "file-value": (
        {"field.json": {"n": 1, "m": 1, "components": [{"1": HUGE_EXPONENT}]}},
        ["jet", "field.json", "--point", "1", "--k", "1"],
        "exponent exceeds its budget of 4300",
    ),
    "point": (
        {"field.json": X1},
        ["jet", "field.json", "--point", HUGE_EXPONENT, "--k", "1"],
        f"bad point '{HUGE_EXPONENT}'",
    ),
    "box": (
        {"stress.json": stress_obj("variational", n=1), "field.json": X1},
        ["power", "stress.json", "field.json", "--box", f"0:{HUGE_EXPONENT}"],
        f"bad point '{HUGE_EXPONENT}'",
    ),
}


@pytest.mark.parametrize("kind", sorted(HUGE_EXPONENTS))
def test_huge_exponent_is_refused_at_once(tmp_path, kind):
    # In a child with a timeout, so that building 10**999999999 fails the test instead of hanging.
    files, args, text = HUGE_EXPONENTS[kind]
    for name, obj in files.items():
        write_json(tmp_path / name, obj)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in args]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 1 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and text in lines[0]


@pytest.mark.parametrize("command", sorted(DEGREE_FILES))
def test_huge_degree_is_refused_in_a_child_at_once(tmp_path, command):
    # In a child with a timeout, so that expanding x1**100000 fails the test instead of hanging.
    files, args = DEGREE_FILES[command]
    for name, obj in {"field.json": X1_DEGREE_HUGE, **files}.items():
        write_json(tmp_path / name, obj)
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in args]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == (
        "error: monomial '100000' exceeds its budget of 100 in total degree\n"
    )


# x1**100 against itself: a degree-200 density with one term.  With long box bounds one power
# of the bound is a big number, so each axis table may compute only the exponents terms use.
X1_100_STRESS = {"n": 1, "m": 1, "k": 0, "kind": "variational", "blocks": {"1|": {"100": "1"}}}
X1_100 = {"n": 1, "m": 1, "components": [{"100": "1"}]}


@pytest.mark.parametrize(
    "flags, cells", [([], None), (["--subdiv", "200"], 200)], ids=["exact", "midpoint"]
)
def test_long_bounds_on_a_sparse_density_are_quick_in_a_child(tmp_path, flags, cells):
    # In a child with a timeout: with a table of every exponent to 200, the exact case took
    # 6 to 9 s and the midpoint case of 1,000 cells ran past 60 s; 200 cells stay within the
    # midpoint bits.  Against the bound 0 the values are 1/201 and the midpoint sum of x**200;
    # a lower bound of 1e-1000 or 1e-300 does not move the float.
    stress = write_json(tmp_path / "stress.json", X1_100_STRESS)
    field = write_json(tmp_path / "field.json", X1_100)
    box = "1e-300:1" if cells else "1e-1000:1"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", "power", stress, field, "--box", box, *flags,
         "--float"],
        env=env, capture_output=True, text=True, timeout=15,
    )
    if cells:
        value = sum(Fraction(2 * c + 1, 2 * cells) ** 200 for c in range(cells)) / cells
    else:
        value = Fraction(1, 201)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{float(value):.17g}\n"


def test_long_midpoints_under_many_exponents_are_quick_in_a_child(tmp_path):
    # x1**100 against every power x1**0..x1**100: 247 cells of 1,008-bit midpoints under 101
    # used exponents pass every budget.  One power per midpoint and exponent ran about 40 s;
    # one running power per midpoint takes about 4 s.
    stress = write_json(tmp_path / "stress.json", X1_100_STRESS)
    every_power = {"n": 1, "m": 1, "components": [{str(e): "1" for e in range(101)}]}
    field = write_json(tmp_path / "field.json", every_power)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", "power", stress, field, "--box", "1e-300:1",
         "--subdiv", "247", "--float"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "0.6854019301743558\n"


def symmetric_degree_1(n: int, variance: str) -> dict:
    components = {str(axis): str(axis % 7 - 3) for axis in range(1, n + 1)}
    return {"n": n, "degree": 1, "variance": variance, "storage": "symmetric",
            "convention": "plain", "components": components}


@pytest.mark.parametrize("command", ["dims", "pair"])
def test_wide_index_classes_are_listed_quickly_in_a_child(tmp_path, command):
    # In a child with a timeout: listing the classes as one n-long count tuple each, sorted, took
    # 28 s for dims at n = 9,999 and 23.5 s for the pairing at n = 10,000; the axis lists take
    # milliseconds.
    if command == "dims":
        argv = ["dims", "--n", "9999", "--l", "1"]
        expected = "\n".join([
            f"{'l':>3} {'sym_dim':>10} {'dense_dim':>12} {'multiplicity_sum':>18} check",
            f"{0:>3} {1:>10} {1:>12} {1:>18} ok",
            f"{1:>3} {9999:>10} {9999:>12} {9999:>18} ok",
        ]) + "\n"
    else:
        co = write_json(tmp_path / "co.json", symmetric_degree_1(10_000, "co"))
        contra = write_json(tmp_path / "contra.json", symmetric_degree_1(10_000, "contra"))
        argv = ["pair", co, contra]
        expected = f"{sum((axis % 7 - 3) ** 2 for axis in range(1, 10_001))}\n"
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=20,
    )
    assert (result.returncode, result.stderr, result.stdout) == (0, "", expected)


@pytest.mark.parametrize("command", ["jet", "power", "flux", "power --subdiv 2"])
def test_a_field_of_huge_n_ends_in_its_one_error_line_in_a_child(tmp_path, command):
    # In a child with a timeout: a field of n = 1,000,000 read whole, then refused by the jet's slot
    # budget or by the stress's shape, before any kernel sizes a key to its n.
    field = write_json(tmp_path / "field.json", {"n": 1_000_000, "m": 1, "components": [{"": "2"}]})
    if command == "jet":
        argv = ["jet", field, "--point", "0", "--k", "1"]
        expected = "jet at --k 1 of a field with n=1000000, m=1 exceeds its budget of 10000 jet slots"
    else:
        kind, slot = ("traction", "1||1") if command == "flux" else ("variational", "1|1")
        stress = {"n": 2, "m": 1, "k": 2, "kind": kind, "blocks": {slot: {"0,1": "1/3"}}}
        stress_path = write_json(tmp_path / "stress.json", stress)
        argv = [*command.split()[:1], stress_path, field, "--box", "0,0:1,1", *command.split()[1:]]
        expected = "shape mismatch"
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=20,
    )
    assert (result.returncode, result.stderr, result.stdout) == (1, f"error: {expected}\n", "")


def test_power_at_the_widest_n_the_stress_budget_admits_is_quick_in_a_child(tmp_path):
    # n = 9,999, m = 1, k = 1 is 10,000 slots, the whole budget.  In a child with a timeout: a
    # monomial's packed key is made and read in time linear in n; one held as n weights of up to
    # n digits each took 32 s here.
    n = 9_999

    def key(*powers: tuple[int, int]) -> str:
        counts = [0] * n
        for axis, power in powers:
            counts[axis - 1] += power
        return ",".join(map(str, counts))

    field = {"n": n, "m": 1, "components": [
        {key((1, 2)): "1/3", key((n, 1), (5, 1)): "-2", key(): "7", key((n, 3)): "1"}
    ]}
    blocks = {"1|": {key((2, 1)): "1", key(): "1/2"}}
    for axis in (1, 5, n, 17):
        blocks[f"1|{axis}"] = {key((axis, 1)): "3", key((n, 2)): "-1/7"}
    stress = {"n": n, "m": 1, "k": 1, "kind": "variational", "blocks": blocks}
    box = ",".join(["0"] * n) + ":" + ",".join(["1"] * n)
    argv = ["power", write_json(tmp_path / "stress.json", stress),
            write_json(tmp_path / "field.json", field), "--box", box]
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=20,
    )
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "1427/210\n")


# Three degree-100 monomials in four variables, inside every budget: a jet's cost follows its
# order and slot count, not the field's degree.
F4 = {
    "n": 4,
    "m": 1,
    "components": [{"25,25,25,25": "1/3", "10,30,30,30": "2", "40,20,20,20": "-1"}],
}


def test_jet_of_a_degree_100_field_is_quick_and_matches_sympy(tmp_path):
    sympy = pytest.importorskip("sympy")
    point = ("1/2", "2/3", "3/4", "4/5")
    argv = ["jet", write_json(tmp_path / "f4.json", F4), "--point", ",".join(point), "--k", "2"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert result.returncode == 0 and result.stderr == ""
    xs = sympy.symbols("x1:5")
    field = sum(
        sympy.Rational(c) * sympy.prod([x**int(e) for x, e in zip(xs, key.split(","))])
        for key, c in F4["components"][0].items()
    )
    at = dict(zip(xs, map(sympy.Rational, point)))
    expected: dict = {str(l): {} for l in range(3)}
    for counts in itertools.product(range(3), repeat=4):
        if sum(counts) <= 2:
            value = sympy.diff(field, *zip(xs, counts)).subs(at)
            key = f"1|{','.join(map(str, counts))}"
            expected[str(sum(counts))][key] = fileio.format_rational(Fraction(value.p, value.q))
    assert json.loads(result.stdout)["blocks"] == expected


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_value_too_long_to_print_is_one_error_line(tmp_path, capsys, out):
    # x1**3 at 10**1500 is 10**4500, past Python's 4,300-digit limit on printing an int.
    field = write_json(tmp_path / "field.json", {"n": 1, "m": 1, "components": [{"3": "1"}]})
    argv = ["jet", field, "--point", "1e1500", "--k", "0"]
    assert main(argv + ["--out", str(tmp_path / "jet.json")] if out else argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact value too long to print: more than 4300 digits\n"
    assert not (tmp_path / "jet.json").exists()


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["dims", "--n", "8", "--l", "7"], False),
        (["dims", "--n", "1", "--l", "9999"], False),
        (["dims", "--n", "1", "--l", "10000"], True),
        (["jet", "field.json", "--point", "0,0", "--k", "139"], False),
        (["jet", "field.json", "--point", "0,0", "--k", "140"], True),
        (["jet", "x1-99-x2.json", "--point", f"{2**199},{2**199}", "--k", "1"], False),
        (["jet", "x1-99-x2.json", "--point", f"{2**199},{2**200}", "--k", "1"], True),
    ],
)
def test_flag_budgets_admit_sizes_up_to_them(tmp_path, monkeypatch, capsys, argv, refused):
    # dims --n 8 --l 7 lists 6,435 classes; a jet of order 139 of a one-component field on the
    # plane has 9,870 slots and one of order 140 has 10,011.  x1**99 * x2 at two 200-bit
    # coordinates is 20,000 monomial bits, and 20,001 with a 201-bit x2.  The work is stubbed out.
    monkeypatch.setattr(cli, "sym_dim", lambda n, l: 0)
    monkeypatch.setattr(cli, "class_multiplicities", lambda n, l: ())
    monkeypatch.setattr(cli, "jet_of", lambda field, point, k: None)
    monkeypatch.setattr(fileio, "jet_to_obj", lambda jet: {})
    write_json(tmp_path / "field.json", X1X2)
    write_json(tmp_path / "x1-99-x2.json", {"n": 2, "m": 1, "components": [{"99,1": "1"}]})
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    main(argv)
    assert ("exceeds its budget" in capsys.readouterr().err) == refused


README = Path(__file__).resolve().parent.parent / "README.md"

COMMAND_CHOICES = "(choose from 'dims', 'symmetrize', 'jet', 'power', 'flux', 'pair', 'verify')"

# argv, then the one error line it ends in; argparse's wording where the rule is argparse's.
USAGE_ERRORS = {
    "no-command": ([], "the following arguments are required: command"),
    "flag-alone": (["--float"], "the following arguments are required: command"),
    "flag-before-command": (
        ["--float", "dims", "--n", "2", "--x"], "unrecognized arguments: --float --x"
    ),
    "bad-command": (["nope"], f"argument command: invalid choice: 'nope' {COMMAND_CHOICES}"),
    "abbreviation": (["power", "s", "f", "--box", "0:1", "--fl"], "unrecognized arguments: --fl"),
    "switch-value": (
        ["pair", "a", "b", "--float=x"], "argument --float: ignored explicit argument 'x'"
    ),
    "missing-value": (["jet", "f", "--point", "0", "--k"], "argument --k: expected one argument"),
    "extra-positional": (["pair", "a", "b", "c"], "unrecognized arguments: c"),
    "unknown-flag": (["power", "a", "b", "--box=0:1", "--k", "2"], "unrecognized arguments: --k 2"),
    "single-dash": (["dims", "--n", "2", "-n"], "unrecognized arguments: -n"),
    "required": (["jet"], "the following arguments are required: field, --point, --k"),
    "required-first": (["dims", "--fl"], "the following arguments are required: --n"),
    "bad-int": (["dims", "--n", "x"], "argument --n: invalid int value: 'x'"),
    "every-value-read": (["dims", "--n", "x", "--n", "2"], "argument --n: invalid int value: 'x'"),
    "flag-as-value": (["dims", "--n", "--l"], "argument --n: invalid int value: '--l'"),
    "suite-first": (
        ["verify", "x", "--n", "y"],
        "argument suite: invalid choice: 'x' (choose from 'epsilon', 'duality', 'cauchy', 'jets')",
    ),
}


@pytest.mark.parametrize("kind", sorted(USAGE_ERRORS))
def test_usage_error_is_one_error_line(capsys, kind):
    argv, message = USAGE_ERRORS[kind]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def readme_synopsis() -> str:
    """The lines of README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    return text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["dims", "--help"],
        ["-h"],
        ["dims", "--n", "2", "--help"],
        ["jet", "f", "--point", "-h"],
        ["nope", "--help"],
    ],
)
def test_help_exits_zero(capsys, argv):
    # -h or --help anywhere prints README's synopsis.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == ("usage:\n" + readme_synopsis(), "")


def test_flag_forms_and_repeats_read_alike(tmp_path, capsys):
    # --name value and --name=value give one value, the last given counts, and an int flag
    # reads as Python's int does; a value may start with '-'.
    field = product_field_file(tmp_path)
    head = {"n": 2, "degree": 1, "storage": "symmetric", "components": {"1": "1/3"}}
    co = write_json(tmp_path / "co.json", {**head, "variance": "co"})
    contra = write_json(tmp_path / "contra.json", {**head, "variance": "contra"})
    for forms in (
        [["dims", "--n", "2", "--l", "3"], ["dims", "--l=3", "--n=1", "--n", " +2 "]],
        [["jet", field, "--point=-1,2", "--k", "2"], ["jet", field, "--point", "-1,2", "--k=2"]],
        [["pair", co, contra, "--float"], ["pair", "--float", co, "--float", contra]],
    ):
        outputs = []
        for argv in forms:
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    # The console script calls main() with no arguments.
    main(["dims", "--n", "2", "--l", "1"])
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["jetstress", "dims", "--n", "2", "--l", "1"])
    assert main() == 0
    assert capsys.readouterr() == expected


def test_main_calls_the_command_bound_in_the_module(monkeypatch):
    # A profiler that rebinds cmd_* in the module sees every call main makes.
    calls = []
    monkeypatch.setattr(cli, "cmd_dims", lambda args: calls.append(vars(args)) or 0)
    assert main(["dims", "--n", "2"]) == 0
    assert calls == [{"n": 2, "l": 6}]


def child_env(**extra: str) -> dict:
    """The environment of a CLI child: no ``PYTHON*`` variable, so stdout is block-buffered."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    return {**env, "PYTHONPATH": str(SRC), **extra}


def console_script() -> list[str]:
    """The installed ``jetstress`` script: pyproject's entry, called as pip's wrapper calls it."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, function = text.split('\njetstress = "', 1)[1].split('"', 1)[0].split(":")
    call = f"import sys; from {module} import {function}; sys.exit({function}())"
    return [sys.executable, "-c", call]


STARTS = {"module": [sys.executable, "-m", "jetstress.cli"], "script": console_script()}


def exit_path_argv(tmp_path, kind: str) -> list[str]:
    field = product_field_file(tmp_path)
    if kind == "power":
        stress = VariationalStressField.from_map(
            2, 1, 1, {(1, CardinalityIndex((1, 0))): Polynomial.variable(2, 2)}
        )
        stress_file = write_json(tmp_path / "stress.json", fileio.stress_to_obj(stress))
        return ["power", stress_file, field, "--box", "0,0:1,2"]
    out = str(tmp_path / "j.json")
    return {
        "jet-out": ["jet", field, "--point", "1/3,2", "--k", "3", "--out", out],
        "file-error": ["jet", str(tmp_path / "missing.json"), "--point", "0", "--k", "1"],
        "usage-error": ["dims", "--n", "x"],
        "help": ["pair", "--help"],
    }[kind]


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("kind", ["power", "jet-out", "file-error", "usage-error", "help"])
def test_a_child_ends_as_main_returns(tmp_path, capsys, kind, start):
    # The entry exits once the output is flushed: the same stdout, stderr, exit code and --out
    # bytes as main() in process, with stdout block-buffered.
    argv = exit_path_argv(tmp_path, kind)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    expected = (code, *capsys.readouterr())
    out = tmp_path / "j.json"
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    child = subprocess.run(
        STARTS[start] + argv, env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == expected
    assert (out.read_bytes() if out.exists() else None) == written
    assert expected[0] == (kind in ("file-error", "usage-error"))


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize(
    "argv", [["dims", "--n", "2", "--l", "2"], ["--help"], ["dims", "--n", "1", "--l", "200"]]
)
@pytest.mark.parametrize("sink", ["/dev/full", "closed-pipe"])
@pytest.mark.parametrize("start", sorted(STARTS))
def test_a_failed_write_of_stdout_is_one_error_line(start, sink, argv, buffered):
    # A full disk or a pipe with no reader: one error line and exit 1, whether stdout is
    # buffered, so the entry's flush is what fails, or not, so main's write is; the dims table
    # through --l 200 is larger than the buffer.
    extra = {} if buffered else {"PYTHONUNBUFFERED": "1"}
    command = STARTS[start] + argv
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full")
        stdout, message = os.open(sink, os.O_WRONLY), "[Errno 28] No space left on device"
    else:
        read, stdout = os.pipe()
        os.close(read)
        message = "[Errno 32] Broken pipe"
    try:
        child = subprocess.run(
            command, env=child_env(**extra), stdout=stdout, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
    finally:
        os.close(stdout)
    assert (child.returncode, child.stderr) == (1, f"error: {message}\n")


def test_an_unexpected_exception_keeps_its_traceback():
    # Only main's return and _parse's exit take the fast exit; anything else is Python's.
    call = "from jetstress import cli; cli.cmd_dims = lambda args: 1 / 0; cli.run()"
    child = subprocess.run(
        [sys.executable, "-c", call, "dims", "--n", "2"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith("Traceback") and "ZeroDivisionError" in child.stderr


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


# One file per command: the first file it reads, nested deeper than Python's recursion limit.
NESTED = {
    "symmetrize": ["symmetrize", "deep.json", "--out", "out.json"],
    "pair": ["pair", "deep.json", "contra.json"],
    "jet": ["jet", "deep.json", "--point", "0,0", "--k", "1", "--out", "out.json"],
    "power": ["power", "deep.json", "field.json", "--box", "0,0:1,1"],
    "flux": ["flux", "deep.json", "field.json", "--box", "0,0:1,1"],
}


def _nested(tmp_path, depth: int) -> None:
    (tmp_path / "deep.json").write_text('{"n": 2, "m": ' + "[" * depth + "]" * depth + "}")
    (tmp_path / "field.json").write_text('{"n": 2, "m": 1, "components": [{"1,0": "1"}]}')
    contra = {"n": 2, "degree": 1, "variance": "contra", "storage": "dense"}
    write_json(tmp_path / "contra.json", contra)


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("command", sorted(NESTED))
def test_json_nested_too_deeply_ends_in_one_error_line(tmp_path, capsys, command, depth):
    _nested(tmp_path, depth)
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in NESTED[command]]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: JSON nested too deeply\n")
    assert not (tmp_path / "out.json").exists()


def test_json_nested_too_deeply_ends_in_one_error_line_in_a_child(tmp_path):
    _nested(tmp_path, 100_000)
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in NESTED["flux"]]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "jetstress.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: JSON nested too deeply\n"


def test_file_and_flag_text_is_ascii(tmp_path, capsys):
    field = tmp_path / "field.json"
    for components, err in (
        ('{"\\u0661,0": "1"}', "error: bad counts list '١,0'\n"),
        ('{"1,0": "١/٢"}', "error: bad rational '١/٢': not ASCII\n"),
    ):
        field.write_text('{"n": 2, "m": 1, "components": [' + components + "]}", encoding="utf-8")
        assert main(["jet", str(field), "--point", "0,0", "--k", "1"]) == 1
        assert capsys.readouterr() == ("", err)
    # Padded, signed and zero-led ASCII spellings load, and write back in the plain form.
    field.write_text('{"n": 2, "m": 1, "components": [{" +1, 00 ": " 1_0/4 "}]}')
    assert main(["jet", str(field), "--point", "0,0", "--k", "1"]) == 0
    assert '"1|1,0": "5/2"' in capsys.readouterr().out
    assert main(["jet", str(field), "--point", "０,0", "--k", "1"]) == 1
    assert capsys.readouterr() == (
        "", "error: bad point '０,0'; expected comma-separated rationals\n"
    )
