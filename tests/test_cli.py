import argparse
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgenera import quasitoric
from toricgenera.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_VIOLATION,
    JobConfig,
    main,
    parse_builtin,
    parse_manifold,
    run,
)
from toricgenera.fgl import CATALOG_NAMES, GenusSpec
from toricgenera.localize import CfEntry, CfSeries, dataset
from toricgenera.quasitoric import (
    FixedPointData,
    QuasitoricPair,
    fpd_to_json_obj,
    from_json_obj,
    pair_to_json_obj,
    signs_and_weights,
    simplex_pair,
    square_pair,
)


def _run(command, **kw):
    job = JobConfig(command=command, **kw)
    code = run(job)
    return code, job.lines


# ---------------------------------------------------------------------------
# builtin parsing
# ---------------------------------------------------------------------------

def test_parse_builtin_s6():
    fpd = parse_builtin("builtin:s6")
    assert isinstance(fpd, FixedPointData)
    assert len(fpd) == 2


def test_parse_builtin_cp2_eps():
    pair = parse_builtin("builtin:cp2:eps=--")
    ref = simplex_pair(2, (-1, -1))
    assert pair.lam.entries == ref.lam.entries


def test_parse_builtin_square():
    pair = parse_builtin("builtin:square:eps=-1,-1:delta=2,0")
    ref = square_pair(-1, -1, 2, 0)
    assert pair.lam.entries == ref.lam.entries


def test_parse_builtin_rejects_bad():
    from toricgenera.cli import InputError
    with pytest.raises(InputError):
        parse_builtin("builtin:torus")
    with pytest.raises(InputError):
        parse_builtin("builtin:cp2:eps=+-+")
    with pytest.raises(InputError):
        parse_builtin("builtin:square:eps=1,1:delta=1,1")
    # unknown, repeated, and given to a builtin that takes none: the
    # message names the key
    for spec, key in [("builtin:square:delta=1,0:epsilon=1,1", "'epsilon'"),
                      ("builtin:cp2:eps=++:eps=--", "'eps'"),
                      ("builtin:cp3:delta=1,0", "'delta'"),
                      ("builtin:square:eps=1,1:eps=-1,-1", "'eps'"),
                      ("builtin:s6:eps=+", "'eps'"),
                      ("builtin:flag3:order=2", "'order'")]:
        with pytest.raises(InputError, match=key):
            parse_builtin(spec)
    assert main(["genus", "--input", "builtin:square:delta=1,0:epsilon=1,1",
                 "--genus", "todd"]) == EXIT_INPUT


_SQUARE = "builtin:square:eps=-1,-1:delta=1,0"


@pytest.mark.parametrize("argv, message", [
    (["validate", "--input", "builtin:cp1_0"], "unknown builtin 'builtin:cp1_0'"),
    (["validate", "--input", "builtin:cp+2"], "unknown builtin 'builtin:cp+2'"),
    (["validate", "--input", "builtin:cp02"], "unknown builtin 'builtin:cp02'"),
    (["validate", "--input", "builtin:cp 2"], "unknown builtin 'builtin:cp 2'"),
    (["validate", "--input", "builtin:cp-1"], "unknown builtin 'builtin:cp-1'"),
    (["validate", "--input", "builtin:cp\u0662"], "unknown builtin"),
    (["validate", "--input", "builtin:square:eps=+1,-1:delta=1,0"],
     "square parameters must be integers"),
    (["validate", "--input", "builtin:square:eps=1,-1:delta=1_0,0"],
     "square parameters must be integers"),
    (["validate", "--input", "builtin:square:eps=1, -1:delta=1,0"],
     "square parameters must be integers"),
    (["validate", "--input", "builtin:square:eps=1,-1:delta=\u0661,0"],
     "square parameters must be integers"),
    (["pairing", "--input", _SQUARE, "--pairing", "+1-4,2-3"],
     "malformed --pairing '+1-4,2-3'"),
    (["pairing", "--input", _SQUARE, "--pairing", "01-4,2-3"],
     "malformed --pairing '01-4,2-3'"),
    (["pairing", "--input", _SQUARE, "--pairing", "0-4,2-3"],
     "malformed --pairing '0-4,2-3'"),
    (["pairing", "--input", _SQUARE, "--pairing", "1-4,2-\u0663"],
     "malformed --pairing"),
    (["validate", "--input", "builtin:cp0"],
     "characteristic matrix shape does not match polytope"),
])
def test_builtin_and_pairing_integers_are_ascii_decimals(argv, message,
                                                         capsys):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["validate", "--input", "builtin:cp2:eps"],
     "malformed builtin parameter 'eps'"),
    (["pairing", "--input", _SQUARE],
     "provide --pairing blocks or --search-pairings"),
    (["special-check", "--input", "builtin:s6"],
     "special-check needs a quasitoric pair"),
    (["validate", "--input", "no-such-manifold.json"],
     "cannot read no-such-manifold.json"),
])
def test_main_refuses_with_its_message(argv, message, capsys, tmp_path,
                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_parse_manifold_round_trip(tmp_path):
    pair = square_pair(-1, 1, 2, 0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(pair_to_json_obj(pair)))
    back = parse_manifold(str(path))
    assert back.lam.entries == pair.lam.entries

    fpd = dataset("s6")
    path2 = tmp_path / "f.json"
    path2.write_text(json.dumps(fpd_to_json_obj(fpd)))
    back2 = parse_manifold(str(path2))
    assert [(p.sign, p.weights) for p in back2.points] == \
        [(p.sign, p.weights) for p in fpd.points]


def test_parse_manifold_malformed_json(tmp_path):
    from toricgenera.cli import InputError
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError) as err:
        parse_manifold(str(path))
    assert "line" in str(err.value)


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_genus_command_todd_cp3():
    code, lines = _run("genus", input="builtin:cp3", genus="todd", order=3)
    assert code == EXIT_PASS
    assert lines[-1] == "genus_value: -z^3"


def test_check_cf_flag3():
    code, lines = _run("check-cf", input="builtin:flag3", genus="hurewicz",
                       order=1, genus_order=4)
    assert code == EXIT_PASS
    assert lines[-1] == "pass"
    assert lines[0] == "cf_0 = 0"


def test_check_rigidity_s6_krichever():
    code, lines = _run("check-rigidity", input="builtin:s6",
                       genus="krichever", order=4)
    assert code == EXIT_PASS
    assert lines[-1] == "rigid"


def test_check_rigidity_fails_hurewicz_cp2():
    code, lines = _run("check-rigidity", input="builtin:cp2",
                       genus="hurewicz", order=4, genus_order=3)
    assert code == EXIT_VIOLATION


def test_phi_command_universal():
    code, lines = _run("phi", input="builtin:cp1", genus="hurewicz",
                       mode="universal", order=4, genus_order=4)
    assert code == EXIT_PASS
    assert lines[0].startswith("phi = -2*b1")


@pytest.mark.parametrize("command, kw", [
    ("phi", dict(input="builtin:flag3", genus="elliptic", order=2)),
    ("phi", dict(input="builtin:s6", genus="krichever", order=3,
                 mode="universal")),
    ("check-cf", dict(input="builtin:cp3", genus="hurewicz", order=0,
                      genus_order=3)),
    ("check-rigidity", dict(input="builtin:s6", genus="t2", order=2)),
    ("special-check", dict(input="builtin:square:eps=-1,1:delta=2,0",
                           order=3)),
    # a genus value needs the genus to n + 1 at every --order
    ("genus", dict(input="builtin:cp4", genus="krichever", order=0)),
    ("genus", dict(input="builtin:cp3", genus="hurewicz", order=1)),
    ("genus", dict(input="builtin:flag3", genus="todd", order=0)),
])
def test_torus_job_builds_its_genus_once(monkeypatch, command, kw):
    # the genus is built at the order localization needs, never rebuilt
    rebuilds = []
    at_order = GenusSpec.at_order

    def counting_at_order(spec, order):
        if order > spec.order:
            rebuilds.append((spec.name, spec.order, order))
        return at_order(spec, order)

    monkeypatch.setattr(GenusSpec, "at_order", counting_at_order)
    code, _lines = _run(command, **kw)
    assert code in (EXIT_PASS, EXIT_VIOLATION)
    assert rebuilds == []


def test_special_check_eliminates_the_vertex_minors_once(monkeypatch):
    calls = []
    eliminate = quasitoric._eliminate

    def counting_eliminate(pair):
        calls.append(pair.name)
        return eliminate(pair)

    monkeypatch.setattr(quasitoric, "_eliminate", counting_eliminate)
    code, lines = _run("special-check",
                       input="builtin:square:eps=-1,1:delta=2,0", order=3)
    assert code == EXIT_PASS and lines[-1] == "pass"
    assert len(calls) == 1


def test_validate_command():
    code, lines = _run("validate", input="builtin:square:eps=-1,1:delta=2,0")
    assert code == EXIT_PASS and lines[-1] == "valid"


def test_validate_rejects_bad_file(tmp_path):
    pair = simplex_pair(2, (-1, -1))
    obj = pair_to_json_obj(pair)
    obj["lambda"] = [[1, 0, -1], [0, 2, -1]]  # vertex minor det 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, lines = _run("validate", input=str(path))
    assert code == EXIT_INPUT
    assert any("determinant" in l for l in lines)


def test_fixed_points_command_json():
    code, lines = _run("fixed-points", input="builtin:cp1", format="json")
    assert code == EXIT_PASS
    obj = json.loads(lines[0])
    assert obj["type"] == "fixed_points"
    assert obj["points"][0]["weights"] == [[1]]


def test_flip_orientation():
    code, lines = _run("fixed-points", input="builtin:cp1",
                       flip_orientation=True, format="json")
    obj = json.loads(lines[0])
    assert [p["sign"] for p in obj["points"]] == [-1, -1]


def test_special_check_command():
    code, lines = _run("special-check",
                       input="builtin:square:eps=-1,1:delta=2,0", order=3)
    assert code == EXIT_PASS
    assert lines[-1] == "pass"


def test_special_check_precondition():
    code, lines = _run("special-check", input="builtin:cp2", order=3)
    assert code == EXIT_INPUT


def test_pairing_explicit_and_search():
    code, lines = _run("pairing", input="builtin:square:eps=-1,-1:delta=1,0",
                       pairing="1-4,2-3")
    assert code == EXIT_PASS
    code, lines = _run("pairing", input="builtin:square:eps=-1,-1:delta=1,0",
                       pairing="1-2,3-4")
    assert code == EXIT_VIOLATION
    code, lines = _run("pairing", input="builtin:square:eps=-1,-1:delta=1,0",
                       search_pairings=True)
    assert code == EXIT_PASS
    assert any("1,4" in l for l in lines)


def test_pairing_never_x1_x3():
    code, lines = _run("pairing", input="builtin:square:eps=-1,-1:delta=1,0",
                       pairing="1-3,2-4")
    assert code == EXIT_VIOLATION


def test_json_report_schema():
    code, lines = _run("check-cf", input="builtin:s6", genus="hurewicz",
                       order=0, genus_order=3, format="json")
    assert code == EXIT_PASS
    obj = json.loads(lines[0])
    assert obj["pass"] is True
    assert obj["first_violation"] is None
    assert obj["cf"][0] == {"l": 0, "value": "0"}
    assert obj["genus_value"] == "-2*b1^3 + 6*b1*b2 - 6*b3"


def test_corrupted_data_exit_code(tmp_path):
    fpd = dataset("s6").flip_one(0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fpd_to_json_obj(fpd)))
    code, lines = _run("check-cf", input=str(path), genus="hurewicz",
                       order=0, genus_order=3)
    assert code == EXIT_VIOLATION
    code, lines = _run("genus", input=str(path), genus="todd")
    assert code == EXIT_VIOLATION


@pytest.mark.parametrize("obj,message", [
    ({"type": "fixed_points", "n": 1, "k": 1,
      "points": [{"sign": 1, "weights": [[1.7]]},
                 {"sign": 1, "weights": [[-1.2]]}]},
     "weight entry at 'x0' is not an integer: 1.7"),
    (dict(pair_to_json_obj(simplex_pair(2, (-1, -1))),
          **{"lambda": [[1, 0, -1], [0, 1, -1.5]]}),
     "characteristic matrix entry at row 2, column 3 is not an integer"),
    ([1, 2], "manifold JSON must be an object"),
    (7, "manifold JSON must be an object"),
    ({"type": "fixed_points", "n": -1, "k": 1, "points": []},
     "n and k must be >= 0"),
    ({"type": "fixed_points", "n": 1, "k": 1, "points": {"a": 1}},
     "points must be a list of objects"),
])
def test_bad_manifold_json_exits_1(tmp_path, capsys, obj, message):
    from toricgenera.cli import main
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["genus", "--input", str(path), "--genus", "todd"]) == \
        EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: ") and message in err


@pytest.mark.parametrize("row, col, value", [(0, 0, True), (1, 2, -1.0)],
                         ids=["true", "float"])
def test_coerced_pair_normals_exit_1(tmp_path, capsys, row, col, value):
    # both were read as the numbers 1 and -1 before, and the job passed
    obj = pair_to_json_obj(simplex_pair(2, (-1, -1)))
    obj["polytope"]["normals"][row][col] = value
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(obj))
    assert main(["genus", "--input", str(path), "--genus", "todd"]) == \
        EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out and err == (
        "error: normal entry at row %d, column %d is not an exact "
        "rational: %r\n" % (row + 1, col + 1, value))


@pytest.mark.parametrize("command", ["validate", "genus"])
@pytest.mark.parametrize("value", ["1/0", "1_0", "\u0663", "+1", "07", "1e3",
                                   "0.5"])
def test_normal_strings_not_in_the_written_form_exit_1(tmp_path, capsys,
                                                       command, value):
    # "1/0" raised ZeroDivisionError, and the others were coerced
    obj = pair_to_json_obj(simplex_pair(2, (-1, -1)))
    obj["polytope"]["normals"][1][0] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--input", str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out and err == (
        "error: normal entry at row 2, column 1 is not an exact "
        "rational: %r\n" % value)


def _job(entry, capsys, command, **kw):
    """(exit code, output lines) of a job run through ``main`` or ``run``;
    ``main`` prints an exit-1 job to stderr alone, any other to stdout."""
    if entry == "run":
        return _run(command, **kw)
    argv = [command]
    for key, value in kw.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert not (out if code == EXIT_INPUT else err)
    return code, (err if code == EXIT_INPUT else out).splitlines()


@pytest.mark.parametrize("entry, value", [
    ("main", -3), ("main", 0), ("run", -3), ("run", 0)],
    ids=["-3", "0", "run:-3", "run:0"])
def test_genus_order_below_one_exits_1(capsys, entry, value):
    assert _job(entry, capsys, "genus", input="builtin:cp2",
                genus_order=value) == \
        (EXIT_INPUT, ["error: --genus-order must be >= 1"])
    assert _job(entry, capsys, "genus", input="builtin:cp2",
                genus_order=1)[0] == EXIT_PASS


@pytest.mark.parametrize("command, kw, message", [
    ("check-cf", dict(order=-1), "--order must be >= 0"),
    ("phi", dict(genus_order=-2), "--genus-order must be >= 1"),
], ids=["check-cf-order", "phi-genus-order"])
def test_run_refuses_orders_out_of_range(command, kw, message):
    # run is the library's entry point too: it checks what main checked
    assert _run(command, input="builtin:s6", **kw) == \
        (EXIT_INPUT, ["error: " + message])


@pytest.mark.parametrize("option", ["--order", "--genus-order"])
@pytest.mark.parametrize("value", ["1_0", "+2", " 2", "\u0663", "2.0", "07"],
                         ids=["underscore", "plus", "space", "arabic-indic",
                              "float", "leading-zero"])
def test_malformed_orders_exit_1(capsys, option, value):
    # int() would read each of these (but 2.0); an order is an ASCII
    # decimal or bad input, refused by run, not by argparse's exit 2
    argv = ["genus", "--input", "builtin:cp2", "--genus", "hurewicz",
            option, value]
    message = "error: %s: %r is not a decimal integer" % (option, value)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", message + "\n")
    key = option[2:].replace("-", "_")
    assert _run("genus", input="builtin:cp2", **{key: value}) == \
        (EXIT_INPUT, [message])


@pytest.mark.parametrize("option, value, message", [
    ("--order", "-1", "--order must be >= 0"),
    ("--genus-order", "0", "--genus-order must be >= 1"),
    ("--genus-order", "-1", "--genus-order must be >= 1"),
])
def test_orders_out_of_range_keep_their_messages(capsys, option, value,
                                                 message):
    assert main(["genus", "--input", "builtin:cp2", option, value]) == \
        EXIT_INPUT
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_decimal_orders_from_the_command_line_are_ints(capsys):
    assert main(["genus", "--input", "builtin:cp2", "--genus", "hurewicz",
                 "--order", "2", "--genus-order", "3"]) == EXIT_PASS
    job = JobConfig("genus", input="builtin:cp2", order="2", genus_order="3")
    assert run(job) == EXIT_PASS
    assert (job.order, job.genus_order) == (2, 3)
    assert job.lines == capsys.readouterr()[0].splitlines()


GENUS_ORDER_REFUSED = ("error: --genus-order applies only to --genus "
                       "hurewicz in phi, genus, check-cf, check-rigidity")


@pytest.mark.parametrize("entry", ["main", "run"])
@pytest.mark.parametrize("command, kw", [
    ("phi", dict(input="builtin:s6", genus="todd", order=1)),
    ("genus", dict(input="builtin:cp2", genus="krichever")),
    ("check-cf", dict(input="builtin:s6", genus="todd", order=0)),
    ("check-rigidity", dict(input="builtin:s6", genus="t2", order=1)),
    ("pairing", dict(input="builtin:square:eps=-1,-1:delta=1,0",
                     pairing="1-3,2-4")),
    ("special-check", dict(input="builtin:square:eps=-1,1:delta=2,0",
                           order=1)),
    ("validate", dict(input="builtin:cp2")),
    ("list-builtins", dict()),
], ids=["phi-todd", "genus-krichever", "check-cf-todd", "check-rigidity-t2",
        "pairing", "special-check", "validate", "list-builtins"])
def test_genus_order_outside_hurewicz_exits_1(capsys, entry, command, kw):
    # the option is refused wherever it would be dropped, never ignored
    code, lines = _job(entry, capsys, command, genus_order=5, **kw)
    assert (code, lines) == (EXIT_INPUT, [GENUS_ORDER_REFUSED])
    assert _job(entry, capsys, command, **kw)[0] != EXIT_INPUT


@pytest.mark.parametrize("entry", ["main", "run"])
@pytest.mark.parametrize("command", ["phi", "genus", "check-cf",
                                     "check-rigidity"])
def test_genus_order_sizes_the_hurewicz_ring(capsys, entry, command):
    kw = dict(input="builtin:s6", genus="hurewicz", order=0)
    code, lines = _job(entry, capsys, command, genus_order=2, **kw)
    assert code != EXIT_INPUT
    # a ring of two generators, so no b3 in the value
    assert any("b2" in l for l in lines) and not any("b3" in l for l in lines)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_special_check_on_a_reversed_normal_exits_1(tmp_path, capsys, fmt):
    # reversing facet 4's normal flips the signs at its two vertices: the
    # pair stays specially omnioriented, but its signs break the edge rule
    # on two edges, so it is invalid (it once passed validation and broke
    # Conner-Floyd, exit 2)
    obj = pair_to_json_obj(square_pair(-1, 1, 2, 0))
    obj["polytope"]["normals"][1][3] = "1"
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(obj))
    code, lines = _job("main", capsys, "special-check", input=str(path),
                       order=1, format=fmt)
    assert code == EXIT_INPUT
    assert lines == [
        "error: invalid pair: the orientations of vertices (1, 2) and "
        "(1, 4) disagree along their edge; the orientations of vertices "
        "(2, 3) and (3, 4) disagree along their edge"]


def test_genus_on_a_pair_with_a_minor_of_determinant_2_exits_1(tmp_path,
                                                               capsys):
    from toricgenera.cli import main
    obj = dict(pair_to_json_obj(simplex_pair(2, (-1, -1))),
               **{"lambda": [[1, 0, -1], [0, 1, 2]]})
    path = tmp_path / "det2.json"
    path.write_text(json.dumps(obj))
    assert main(["genus", "--input", str(path), "--genus", "todd"]) == \
        EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: invalid pair: vertex (1, 3) has minor determinant 2\n"


def test_genus_on_a_pair_with_neither_normals_nor_orientations_exits_1(
        tmp_path, capsys):
    obj = pair_to_json_obj(simplex_pair(2, (-1, -1)))
    path = tmp_path / "oriented.json"
    # the signs of the vertices' normal determinants stand in for the
    # normals and give the same genus value
    obj["polytope"].update(normals=None, orientations=[1, 1, -1])
    path.write_text(json.dumps(obj))
    assert main(["genus", "--input", str(path), "--genus", "todd"]) == \
        EXIT_PASS
    assert capsys.readouterr().out == "genus_value: z^2\n"
    del obj["polytope"]["orientations"]
    path.write_text(json.dumps(obj))
    assert main(["genus", "--input", str(path), "--genus", "todd"]) == \
        EXIT_INPUT
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: signs need facet normals or vertex orientations\n"


def test_a_pair_with_both_normals_and_orientations_exits_1(
        tmp_path, capsys):
    # the orientations contradict the normal determinants [1, 1, -1]
    obj = pair_to_json_obj(simplex_pair(2, (-1, -1)))
    obj["polytope"]["orientations"] = [-1, -1, 1]
    path = tmp_path / "both.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "genus"):
        assert main([command, "--input", str(path), "--genus", "todd"]) == \
            EXIT_INPUT
        out, err = capsys.readouterr()
        assert not out
        assert err == ("error: a polytope takes normals or orientations, "
                       "not both\n")


# a point: the 0-dimensional pair, one vertex on no facets
_POINT = {"type": "quasitoric",
          "polytope": {"n": 0, "m": 0, "vertices": [[]], "normals": []},
          "lambda": []}


def test_a_point_is_a_valid_pair_with_genus_1(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(_POINT))
    expected = [("validate", [], "valid\n"),
                ("fixed-points", [], "x            sign=+1 weights=[]\n")]
    expected += [("genus", ["--genus", g], "genus_value: 1\n")
                 for g in CATALOG_NAMES]
    expected += [("check-cf", ["--genus", g, "--order", "1"],
                  "cf_0 = 1\ncf_1 = 0\npass\n") for g in CATALOG_NAMES]
    for command, argv, out in expected:
        assert main([command, "--input", str(path)] + argv) == EXIT_PASS
        assert capsys.readouterr() == (out, "")


def test_commands_keep_their_order():
    assert COMMANDS == ("validate", "fixed-points", "phi", "genus",
                        "check-cf", "check-rigidity", "pairing",
                        "special-check", "list-builtins")


def test_unknown_genus_and_missing_input():
    code, _ = _run("genus", input="builtin:cp1", genus="mystery")
    assert code == EXIT_INPUT
    code, _ = _run("genus")
    assert code == EXIT_INPUT


def test_list_builtins():
    code, lines = _run("list-builtins")
    assert code == EXIT_PASS
    assert any("s6" in l for l in lines)
    assert any("flag3" in l for l in lines)
    assert any("square" in l for l in lines)


def test_deterministic_output():
    runs = []
    for _ in range(2):
        code, lines = _run("check-cf", input="builtin:cp2", genus="todd",
                           order=2, format="json")
        runs.append((code, tuple(lines)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, kw", [
    ("check-cf", dict(input="builtin:flag3", genus="hurewicz", order=1,
                      genus_order=4)),
    ("check-rigidity", dict(input="builtin:s6", genus="krichever", order=3)),
], ids=["check-cf", "check-rigidity"])
def test_check_renders_each_cf_entry_once(monkeypatch, command, kw, fmt):
    calls = _count_value_str(monkeypatch)
    code, _lines = _run(command, format=fmt, **kw)
    assert code == EXIT_PASS
    # flag3 and s6 have n = 3, so cf_0 .. cf_(3 + order); text
    # check-rigidity prints, and so renders, only cf_3 and above
    low = 3 if (command, fmt) == ("check-rigidity", "text") else 0
    assert sorted(calls) == list(range(low, 3 + kw["order"] + 1))


def _count_value_str(monkeypatch):
    """The l of every ``CfEntry.value_str`` call, as a list that fills."""
    calls = []
    value_str = CfEntry.value_str

    def counting_value_str(entry):
        calls.append(entry.l)
        return value_str(entry)

    monkeypatch.setattr(CfEntry, "value_str", counting_value_str)
    return calls


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_text_check_rigidity_skips_the_violations_it_does_not_print(
        monkeypatch, tmp_path, fmt):
    # one flipped sign of CP^2: cf_0 and cf_1 are violations over D
    path = tmp_path / "cp2-flip1.json"
    path.write_text(json.dumps(fpd_to_json_obj(
        signs_and_weights(simplex_pair(2, (-1, -1))).flip_one(1))))
    calls = _count_value_str(monkeypatch)
    code, lines = _run("check-rigidity", input=str(path), genus="todd",
                       order=2, format=fmt)
    assert code == EXIT_VIOLATION
    if fmt == "text":
        assert sorted(calls) == [2, 3, 4]
        forms = " / [(u2) (u1 - u2) (u1)]"
        assert lines == [
            "cf_2 = ((1/6)*z^2*u1^2*u2 - (1/6)*z^2*u1*u2^2 - (1/6)*z^2*u2^3)"
            + forms,
            "cf_3 = -(1/6)*z^3*u1 + (1/12)*z^3*u2",
            "cf_4 = (-(1/120)*z^4*u1^4*u2 + (1/60)*z^4*u1^3*u2^2"
            " + (1/360)*z^4*u1^2*u2^3 - (1/90)*z^4*u1*u2^4"
            " + (1/360)*z^4*u2^5)" + forms,
            "not rigid (cf_0 != 0)"]
    else:
        assert sorted(calls) == [0, 1, 2, 3, 4]
        cf = json.loads(lines[0])["cf"]
        assert [v["l"] for v in cf] == [0, 1, 2, 3, 4]
        assert " / [" in cf[0]["value"]


@pytest.mark.parametrize("command", ["check-cf", "check-rigidity"])
def test_check_renders_the_genus_value_only_for_json(monkeypatch, command):
    calls = []
    genus_value = CfSeries.genus_value

    def counting_genus_value(cf):
        calls.append(cf.n)
        return genus_value(cf)

    monkeypatch.setattr(CfSeries, "genus_value", counting_genus_value)
    kw = dict(input="builtin:s6", genus="krichever", order=2)
    code, _lines = _run(command, **kw)
    assert code == EXIT_PASS and calls == []
    code, lines = _run(command, format="json", **kw)
    assert code == EXIT_PASS and calls == [3]
    assert json.loads(lines[0])["genus_value"] == "p3"


def test_main_builds_its_parser_at_most_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert main(["validate", "--input", "builtin:cp3:eps=+-+"]) == \
            EXIT_PASS
    assert len(built) <= 1
    assert capsys.readouterr().out == "valid\nvalid\n"


def test_main_entry_point():
    from toricgenera.cli import main
    assert main(["genus", "--input", "builtin:cp2", "--genus",
                 "signature", "--order", "2"]) == EXIT_PASS
    assert main(["genus", "--input", "builtin:nowhere"]) == EXIT_INPUT


def test_round_trip_all_builtins(tmp_path):
    # parse(serialize(x)) = x over the builtin families
    specs = ["builtin:cp1", "builtin:cp2:eps=+-", "builtin:cp3:eps=---",
             "builtin:square:eps=-1,1:delta=2,0", "builtin:s6",
             "builtin:flag3"]
    for i, spec in enumerate(specs):
        m = parse_builtin(spec)
        path = tmp_path / ("b%d.json" % i)
        if isinstance(m, FixedPointData):
            path.write_text(json.dumps(fpd_to_json_obj(m)))
            back = parse_manifold(str(path))
            assert [(p.label, p.sign, p.weights) for p in back.points] == \
                [(p.label, p.sign, p.weights) for p in m.points], spec
        else:
            path.write_text(json.dumps(pair_to_json_obj(m)))
            back = parse_manifold(str(path))
            assert back.lam.entries == m.lam.entries, spec
            assert back.polytope.vertices == m.polytope.vertices, spec
            assert back.polytope.normals == m.polytope.normals, spec


# ---------------------------------------------------------------------------
# hostile fixed-point JSON: exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

def _main_on_json(obj, argv):
    """(exit code, stderr) of ``main(argv)`` on ``obj`` written to a JSON
    file; ``from_json_obj`` itself may raise nothing but ValueError."""
    try:
        from_json_obj(obj)
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", path])
    return code, err.getvalue()


_HOSTILE = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                     st.floats(-2, 2), st.text(max_size=2),
                     st.lists(st.integers(-1, 1), max_size=2),
                     st.dictionaries(st.text(max_size=1), st.integers(-1, 1),
                                     max_size=2))


@st.composite
def _fixed_point_objs(draw):
    """Well-formed fixed-point data with small n, k and point counts, with
    at most one entry replaced by a hostile value or deleted."""
    n, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    weight = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    points = [{"label": "p%d" % i, "sign": draw(st.sampled_from([1, -1])),
               "weights": draw(st.lists(weight, min_size=n, max_size=n))}
              for i in range(draw(st.integers(0, 3)))]
    obj = {"type": "fixed_points", "n": n, "k": k, "points": points}
    # a path to one container and a key in it
    targets = [(obj, key) for key in ("n", "k", "points")]
    for p in points:
        targets += [(p, "label"), (p, "sign"), (p, "weights")]
        targets += [(p["weights"], i) for i in range(len(p["weights"]))]
        targets += [(w, i) for w in p["weights"] for i in range(len(w))]
    targets += [(points, i) for i in range(len(points))]
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(targets))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_HOSTILE)
    return obj


@settings(max_examples=150, deadline=None)
@given(obj=_fixed_point_objs(),
       argv=st.sampled_from([
           ["validate"], ["fixed-points"], ["genus"], ["check-cf"],
           ["check-rigidity"], ["phi"], ["phi", "--mode", "universal"],
           ["pairing", "--search-pairings"], ["special-check"]]),
       genus=st.sampled_from(["todd", "hurewicz"]),
       order=st.integers(0, 2))
def test_hostile_fixed_point_json_exits_cleanly(obj, argv, genus, order):
    code, err = _main_on_json(obj, argv + ["--genus", genus,
                                           "--order", str(order)])
    assert code in (EXIT_PASS, EXIT_INPUT, EXIT_VIOLATION)
    if code == EXIT_INPUT:
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# hostile pair JSON: exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

@st.composite
def _pair_objs(draw):
    """The cp2 or square pair JSON with one entry replaced by a hostile
    value or deleted."""
    pair = draw(st.sampled_from([simplex_pair(2, (-1, -1)),
                                 square_pair(-1, 1, 2, 0)]))
    obj = pair_to_json_obj(pair)
    poly = obj["polytope"]
    # a path to one container and a key in it
    targets = [(obj, key) for key in ("name", "polytope", "lambda")]
    targets += [(poly, key) for key in poly]
    for rows in (poly["vertices"], poly["normals"], obj["lambda"]):
        targets += [(rows, i) for i in range(len(rows))]
        targets += [(row, i) for row in rows for i in range(len(row))]
    container, key = draw(st.sampled_from(targets))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(_HOSTILE)
    return obj


@settings(max_examples=150, deadline=None)
@given(obj=_pair_objs(),
       argv=st.sampled_from([["validate"], ["genus"], ["fixed-points"],
                             ["special-check"]]),
       genus=st.sampled_from(["todd", "hurewicz"]),
       order=st.integers(0, 2))
def test_hostile_pair_json_exits_cleanly(obj, argv, genus, order):
    code, err = _main_on_json(obj, argv + ["--genus", genus,
                                           "--order", str(order)])
    assert code in (EXIT_PASS, EXIT_INPUT, EXIT_VIOLATION)
    if code == EXIT_INPUT:
        # an input error, or the problems validate found in the pair
        assert err.startswith(("error: ", "violation: "))
