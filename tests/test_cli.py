import json
import os
from fractions import Fraction

import pytest

from detindex import determinantal
from detindex.cli import _COMMANDS, _jsonable, build_parser, run

from conftest import time_limit

MANIFEST_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")
SURFACE = os.path.join(MANIFEST_DIR, "surface-232.json")


def write_manifest(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alg_index_on_shipped_manifest(capsys):
    code, out, _ = run_cli(capsys, "alg-index", SURFACE)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["alg_index"] == 5
    assert report["provenance"]["ordering"] == "anti-graded reverse lexicographic"


def test_hom_index_on_shipped_manifest(capsys):
    code, out, _ = run_cli(capsys, "hom-index", SURFACE)
    assert code == 0
    assert json.loads(out)["result"]["omega_quotient_dim"] == 6


def test_oracle_flag_reports_agreement(capsys):
    code, out, _ = run_cli(capsys, "alg-index", SURFACE, "--oracle")
    assert code == 0
    oracle = json.loads(out)["provenance"]["oracle"]
    assert oracle["agrees"] is True
    assert oracle["stabilized"] is True
    assert oracle["value"] == 5


def test_oracle_degree_cap_below_two_names_the_flag(capsys):
    for cap in ("0", "1"):
        code, out, err = run_cli(capsys, "alg-index", SURFACE, "--oracle", "--degree-cap", cap)
        assert code == 1
        assert out == ""
        assert "--degree-cap" in err


def test_oracle_degree_cap_below_start_is_evaluated(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "alg-index", SURFACE, "--oracle", "--degree-cap", "3")
    assert code == 0
    oracle = json.loads(out)["provenance"]["oracle"]
    assert oracle == {"agrees": True, "degree_cap": 3, "stabilized": True, "value": 5}
    path = write_manifest(tmp_path, {"variables": ["x", "y"], "ideal": ["x", "y"]})
    code, out, _ = run_cli(capsys, "colength", path, "--oracle", "--degree-cap", "2")
    assert code == 0
    oracle = json.loads(out)["provenance"]["oracle"]
    assert oracle == {"agrees": True, "degree_cap": 2, "stabilized": True, "value": 1}


def test_oracle_tries_a_ceiling_off_the_doubling_schedule(tmp_path, capsys):
    path = write_manifest(tmp_path, {"variables": ["x", "y"], "ideal": ["x^9", "y"]})
    for cap in (10, 12):
        code, out, _ = run_cli(capsys, "colength", path, "--oracle", "--degree-cap", str(cap))
        assert code == 0
        oracle = json.loads(out)["provenance"]["oracle"]
        assert oracle == {"agrees": True, "degree_cap": cap, "stabilized": True, "value": 9}
    code, out, _ = run_cli(capsys, "colength", path, "--oracle", "--degree-cap", "9")
    assert code == 2
    oracle = json.loads(out)["provenance"]["oracle"]
    assert oracle == {"agrees": False, "degree_cap": 9, "stabilized": False, "value": None}


@pytest.mark.parametrize("target, reason", [
    ("missing-dir/x.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_output_names_the_flag(tmp_path, capsys, target, reason):
    code, out, err = run_cli(capsys, "check", SURFACE, "--output", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: --output: ")
    assert reason in err
    assert err.count("\n") == 1


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", SURFACE)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["type"] == [2, 3, 2]
    assert result["smoothable"] is True
    assert result["isolated"] is True
    assert result["stratum_dims"] == [0, 2]
    assert result["dim"] == 2


def test_minors_command_defaults_to_t(capsys):
    code, out, _ = run_cli(capsys, "minors", SURFACE)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["size"] == 2
    assert len(result["minors"]) == 3


def test_colength_command_with_explicit_ideal(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "ideal": ["x^2", "y^3"],
    })
    code, out, _ = run_cli(capsys, "colength", path, "--oracle")
    assert code == 0
    assert json.loads(out)["result"]["colength"] == 6


def test_colength_command_on_a_sparse_staircase(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y", "z"],
        "ideal": ["x^2000", "y^2000", "z^2000", "x*y", "y*z", "x*z"],
    })
    with time_limit(2):
        code, out, _ = run_cli(capsys, "colength", path)
    assert code == 0
    assert json.loads(out)["result"]["colength"] == 5998


def test_colength_infinite_is_not_an_error(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "ideal": ["x*y"],
    })
    code, out, _ = run_cli(capsys, "colength", path)
    assert code == 0
    assert json.loads(out)["result"]["colength"] == "INFINITE"


def test_infinite_index_exits_two(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "matrix": [["x^2"]],
        "t": 1,
        "form": ["0", "1"],
    })
    code, out, _ = run_cli(capsys, "alg-index", path)
    assert code == 2
    assert json.loads(out)["result"]["alg_index"] == "INFINITE"


def test_icis_command(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y", "z"],
        "matrix": [["x^2 + y^2 + z^2"]],
        "t": 1,
        "form": ["0", "0", "1"],
    })
    code, out, _ = run_cli(capsys, "icis", path, "--oracle")
    assert code == 0
    assert json.loads(out)["result"]["icis_index"] == 2


def test_gmvs_command(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y", "z"],
        "matrix": [["z", "y", "x"], ["0", "x", "y"]],
        "t": 2,
        "form": ["1", "0", "1"],
    })
    code, out, _ = run_cli(capsys, "gmvs", path)
    assert code == 0
    assert json.loads(out)["result"]["gmvs_index"] == 4


def test_tables_command(capsys):
    code, out, _ = run_cli(capsys, "tables", "--type", "2,3,2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["nmat"] == [[1, -1], [0, 1]]
    assert result["mmat"] == [[1, 1], [0, 1]]
    assert result["chi_bar_hyperplane"] == 1


def test_convert_command(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "type": [2, 3, 2],
        "N": 6,
        "radial": [1, 3],
        "chi": [1, 4],
        "chi_sing": 1,
    })
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["radial_roundtrip"] == 3
    assert set(result["ph_index"]) == {"1", "2", "3"}
    assert result["isolated"]["chi_sing"] == 1
    # the reduced and stratified formulas agree on this data
    assert result["isolated"]["ph_index"] == result["ph_index"]
    assert result["isolated"]["phn_index"] == result["phn_index"]


@pytest.mark.parametrize("command", ["convert", "tables"])
@pytest.mark.parametrize("ambient", [0, -3])
def test_ambient_dimension_below_one_names_field(tmp_path, capsys, command, ambient):
    path = write_manifest(tmp_path, {
        "type": [2, 3, 2],
        "N": ambient,
        "radial": [1, 3],
        "chi": [1, 4],
    })
    code, out, err = run_cli(capsys, command, path)
    assert code == 1
    assert out == ""
    assert "manifest field 'N'" in err


@pytest.mark.parametrize("content, reason", [
    (b'{"variables": ["x\xff"]}', "not valid UTF-8"),
    (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    (b'{"N": ' + b"9" * 5000 + b"}", "invalid JSON"),
], ids=["not-utf8", "deep-nesting", "long-integer"])
def test_unreadable_manifest_names_the_file(tmp_path, capsys, content, reason):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: manifest file: ") and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("triple, radial", [([2, 3, -1], [1]), ([2, 3, 5], [1, 2])],
                         ids=["t-negative", "t-above-m"])
def test_convert_checks_type_before_the_vectors(tmp_path, capsys, triple, radial):
    path = write_manifest(tmp_path, {"type": triple, "N": 4, "radial": radial, "chi": [1] * len(radial)})
    code, out, err = run_cli(capsys, "convert", path)
    assert code == 1
    assert out == ""
    assert err == "error: manifest field 'type': need 1 <= t <= m <= n\n"


def test_validation_error_names_field(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "matrix": [["x", "y"], ["y"]],
        "t": 1,
    })
    code, _, err = run_cli(capsys, "check", path)
    assert code == 1
    assert "matrix" in err


@pytest.mark.parametrize("t", [0, 3])
def test_rank_bound_out_of_range_names_t(tmp_path, capsys, t):
    with open(SURFACE) as fh:
        doc = json.load(fh)
    doc["t"] = t  # the matrix is 2 x 3
    code, out, err = run_cli(capsys, "alg-index", write_manifest(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert "manifest field 't'" in err


def test_unknown_variable_in_entry_names_field(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "matrix": [["x + q"]],
        "t": 1,
    })
    code, _, err = run_cli(capsys, "check", path)
    assert code == 1
    assert "matrix" in err and "q" in err


def test_deeply_nested_entry_names_field(tmp_path, capsys):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "ideal": ["(" * 3000 + "x" + ")" * 3000, "y"],
    })
    code, out, err = run_cli(capsys, "colength", path)
    assert code == 1
    assert out == ""
    assert "ideal" in err and "nested too deeply" in err


@pytest.mark.parametrize("command", ["alg-index", "hom-index", "icis", "gmvs"])
def test_missing_form_names_field(capsys, tmp_path, command):
    path = write_manifest(tmp_path, {
        "variables": ["x", "y"],
        "matrix": [["x^2 + y^2"]],
        "t": 1,
    })
    code, out, err = run_cli(capsys, command, path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: manifest field 'form':")


# The generic 2 x 3 matrix in C^6, where N is the isolation bound for t = 2,
# and a variant whose singular stratum has infinite colength.
SIX = ["x", "y", "z", "u", "v", "w"]
GENERIC_232 = [["x", "y", "z"], ["u", "v", "w"]]
DEGENERATE_232 = [["x", "y", "z"], ["u", "v", "x"]]


def test_check_reports_chi_sing_at_the_isolation_bound(tmp_path, capsys):
    path = write_manifest(tmp_path, {"variables": SIX, "matrix": GENERIC_232, "t": 2})
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sing_stratum_colength_finite"] is True
    assert result["chi_sing"] == 1


def test_report_embeds_the_copied_fields_as_given(tmp_path, capsys):
    # parsed fields are embedded in canonical form, the copied ones as
    # given, a null one included; an unknown field is dropped
    path = write_manifest(tmp_path, {"variables": ["y", "x", "z"], "matrix": [["x + x", "y"]], "t": 1,
                                     "type": [1, 2, 1], "N": 2, "radial": [7], "chi": [2],
                                     "chi_sing": None, "note": "dropped"})
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert json.loads(out)["manifest"] == {
        "variables": ["y", "x", "z"], "matrix": [["2*x", "y"]], "t": 1,
        "type": [1, 2, 1], "N": 2, "radial": [7], "chi": [2], "chi_sing": None,
    }


def test_check_computes_the_singular_stratum_colength_once(capsys, monkeypatch):
    # at the isolation bound, chi_sing is the colength that `classify`
    # already computed for sing_stratum_colength_finite
    calls = []
    original = determinantal.colength

    def counting(ideal):
        calls.append(len(ideal.generators))
        return original(ideal)

    monkeypatch.setattr(determinantal, "colength", counting)
    code, out, _ = run_cli(capsys, "check", os.path.join(MANIFEST_DIR, "generic-232-c6.json"))
    assert code == 0
    assert json.loads(out)["result"]["chi_sing"] == 1
    assert calls == [6]  # the six 1x1 minors, once


def test_check_omits_chi_sing_when_its_colength_is_infinite(tmp_path, capsys):
    path = write_manifest(tmp_path, {"variables": SIX, "matrix": DEGENERATE_232, "t": 2})
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sing_stratum_colength_finite"] is False
    assert "chi_sing" not in result


def test_convert_computes_chi_sing_from_the_matrix(tmp_path, capsys):
    # the shipped manifest gives chi_sing = 1 by hand; here it is computed
    path = write_manifest(tmp_path, {"variables": SIX, "matrix": GENERIC_232, "t": 2,
                                     "radial": [1, 3], "chi": [1, 4]})
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 0
    code, shipped, _ = run_cli(capsys, "convert", os.path.join(MANIFEST_DIR, "convert-generic-232.json"))
    assert code == 0
    assert json.loads(out)["result"] == json.loads(shipped)["result"]


def test_convert_without_a_finite_chi_sing_exits_two(tmp_path, capsys):
    path = write_manifest(tmp_path, {"variables": SIX, "matrix": DEGENERATE_232, "t": 2,
                                     "radial": [1, 3], "chi": [1, 4]})
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 2
    result = json.loads(out)["result"]
    assert "isolated" not in result
    assert result["radial_roundtrip"] == 3


_ABSENT = object()  # a manifest path with no file behind it
_TYPE_232 = {"type": [2, 3, 2], "N": 6}


@pytest.mark.parametrize("argv, doc, where, message", [
    pytest.param(["check"], _ABSENT, "manifest file", "No such file", id="no-file"),
    pytest.param(["check"], [1], "manifest file", "top-level value must be an object", id="top-level-list"),
    pytest.param(["check"], {"manifest": 3, "command": "check"}, "manifest",
                 "embedded manifest must be an object", id="embedded-manifest"),
    pytest.param(["check"], {"variables": []}, "variables", "must be a nonempty list of strings",
                 id="variables-empty"),
    pytest.param(["check"], {"variables": ["x", "x"]}, "variables", "variable names must be distinct",
                 id="variables-repeated"),
    pytest.param(["check"], {"matrix": GENERIC_232, "t": 2}, "variables", "required when a matrix is given",
                 id="matrix-without-variables"),
    pytest.param(["check"], {"variables": SIX, "matrix": []}, "matrix", "must be a nonempty list of rows",
                 id="matrix-empty"),
    pytest.param(["check"], {"variables": SIX, "matrix": [["x + 1", "y", "z"], ["u", "v", "w"]], "t": 2},
                 "matrix", "matrix entries must vanish at the origin", id="matrix-unit-entry"),
    pytest.param(["check"], {"variables": SIX, "matrix": GENERIC_232}, "t", "required when a matrix is given",
                 id="t-missing"),
    pytest.param(["check"], {"variables": SIX, "matrix": GENERIC_232, "t": "2"}, "t", "must be an integer",
                 id="t-string"),
    pytest.param(["alg-index"], {"form": ["1"]}, "variables", "required when a form is given",
                 id="form-without-variables"),
    pytest.param(["alg-index"], {"variables": SIX, "matrix": GENERIC_232, "t": 2, "form": ["1"]}, "form",
                 "must list one coefficient per variable", id="form-short"),
    pytest.param(["colength"], {"ideal": ["x"]}, "variables", "required when an ideal is given",
                 id="ideal-without-variables"),
    pytest.param(["minors", "--size", "5"], {"variables": SIX, "matrix": GENERIC_232, "t": 2}, "--size",
                 "minor size out of range", id="size-too-large"),
    pytest.param(["convert"], {"N": 6, "radial": [1, 3], "chi": [1, 4]}, "type",
                 "required when no matrix is given", id="type-missing"),
    pytest.param(["convert"], {"type": [2, 3], "N": 6, "radial": [1, 3], "chi": [1, 4]}, "type",
                 "must have length 3", id="type-short"),
    pytest.param(["convert"], {"type": [2, 3, 2], "radial": [1, 3], "chi": [1, 4]}, "N",
                 "required (integer) when no matrix is given", id="N-missing"),
    pytest.param(["convert"], dict(_TYPE_232, radial=[1, "3"], chi=[1, 4]), "radial",
                 "must be a list of integers", id="radial-not-integers"),
    pytest.param(["convert"], dict(_TYPE_232, radial=[1, 3]), "chi", "required for conversions",
                 id="chi-missing"),
    pytest.param(["convert"], dict(_TYPE_232, radial=[1, 3], chi=[1, 4], chi_sing="1"), "chi_sing",
                 "must be an integer", id="chi-sing-string"),
    # two bad copied fields: the first in the order type, radial, chi, N, chi_sing is named
    pytest.param(["check"], {"chi_sing": "1", "type": [2, 3]}, "type", "must have length 3",
                 id="type-before-chi-sing"),
    pytest.param(["check"], {"N": "6", "chi": "x"}, "chi", "must be a list of integers",
                 id="chi-before-N"),
    pytest.param(["tables", "--type", "2,x,2"], None, "--type", "expected m,n,t integers",
                 id="tables-type-not-integers"),
    pytest.param(["tables", "--type", "3,2,2"], None, "--type", "need 1 <= t <= m <= n",
                 id="tables-type-order"),
    pytest.param(["tables"], None, "--type", "required when no manifest is given", id="tables-no-input"),
    pytest.param(["colength", "--oracle", "--degree-cap", "1"], {"variables": ["x"], "ideal": ["x"]}, "--degree-cap",
                 "must be at least 2", id="degree-cap-one"),
])
def test_each_validation_error_names_its_field(tmp_path, capsys, argv, doc, where, message):
    # a manifest field by its name; the manifest file and the options as themselves
    if where != "manifest file" and not where.startswith("--"):
        where = "manifest field '%s'" % where
    argv = list(argv)
    if doc is _ABSENT:
        argv.insert(1, str(tmp_path / "absent.json"))
    elif doc is not None:
        argv.insert(1, write_manifest(tmp_path, doc))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: %s: " % where)
    assert message in err
    assert err.count("\n") == 1


def _with_field(path, field, value):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = [value] if field in ("type", "radial", "chi") else value
    return doc


@pytest.mark.parametrize("command, base", [("check", SURFACE),
                                           ("convert", os.path.join(MANIFEST_DIR, "convert-generic-232.json"))],
                         ids=["check", "convert"])
@pytest.mark.parametrize("field", ["type", "N", "radial", "chi", "chi_sing"])
@pytest.mark.parametrize("value", [1.5, float("nan")], ids=["float", "nan"])
def test_pass_through_field_of_the_wrong_type_names_the_field(tmp_path, capsys, command, base, field, value):
    # these fields are copied into every report, so a float (or JSON NaN)
    # in one must stop every command with a message, not at the report
    code, out, err = run_cli(capsys, command, write_manifest(tmp_path, _with_field(base, field, value)))
    assert code == 1
    assert out == ""
    assert err.startswith("error: manifest field '%s': must be " % field)
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, entries, message", [
    ("matrix", [["x", 3]], "manifest field 'matrix': entry [0][1] must be a string"),
    ("matrix", [["x", "y"], ["y", "x + q"]], "manifest field 'matrix': entry [1][1]: "),
    ("form", ["1", "y +"], "manifest field 'form': entry [1]: "),
    ("ideal", ["x", "y", "q"], "manifest field 'ideal': entry [2]: "),
])
def test_entry_errors_name_field_and_position(tmp_path, capsys, field, entries, message):
    doc = {"variables": ["x", "y"], field: entries}
    if field == "matrix":
        doc["t"] = 1
    code, out, err = run_cli(capsys, "check", write_manifest(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("entry", ["7" * 5000 + "*x", "x^" + "7" * 5000])
def test_numeral_past_the_digit_limit_names_field(tmp_path, capsys, entry):
    path = write_manifest(tmp_path, {"variables": ["x", "y"], "ideal": [entry, "y"]})
    code, out, err = run_cli(capsys, "colength", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: manifest field 'ideal': entry [0]: numeral too long")


def run_usage(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv, message", [
    (["alg-index", SURFACE, "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["alg-index"], "the following arguments are required: manifest"),
    (["alg-index", SURFACE, "--oracle", "--degree-cap", "abc"], "argument --degree-cap: invalid int value: 'abc'"),
    (["check", SURFACE, "--oracle"], "unrecognized arguments: --oracle"),
])
def test_usage_errors_exit_one(capsys, argv, message):
    code, out, err = run_usage(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: detindex")
    assert message in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_help_exits_zero(capsys):
    code, out, _ = run_usage(capsys, "alg-index", "--help")
    assert code == 0
    assert "--oracle" in out and "--degree-cap" in out


@pytest.mark.parametrize("command", ["check", "minors", "convert", "tables"])
@pytest.mark.parametrize("flag", [["--oracle"], ["--degree-cap", "8"]])
def test_only_colength_commands_take_oracle_flags(capsys, command, flag):
    code, out, err = run_usage(capsys, command, SURFACE, *flag)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: %s" % " ".join(flag) in err


def test_shipped_manifests_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.join(MANIFEST_DIR, "manifest.schema.json")) as fh:
        schema = json.load(fh)
    for name in os.listdir(MANIFEST_DIR):
        if name.endswith(".json") and name != "manifest.schema.json":
            with open(os.path.join(MANIFEST_DIR, name)) as fh:
                jsonschema.validate(json.load(fh), schema)


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")


def _golden_argvs():
    """Every command on every shipped manifest, then each colength
    command again with the oracle at degree cap 8."""
    manifests = sorted("manifests/" + name for name in os.listdir(MANIFEST_DIR)
                       if name.endswith(".json") and name != "manifest.schema.json")
    argvs = [[command, m] for m in manifests for command in _COMMANDS]
    argvs += [[command, m, "--oracle", "--degree-cap", "8"]
              for m in manifests for command, (_, oracle) in _COMMANDS.items() if oracle]
    return argvs


def test_reports_match_the_golden_runs(capsys, monkeypatch):
    # Exit code, stdout and stderr of each run, recorded once; any change
    # to a value, a message or the report layout shows here byte for byte.
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [entry["argv"] for entry in golden] == _golden_argvs()
    monkeypatch.chdir(os.path.join(MANIFEST_DIR, os.pardir))
    for entry in golden:
        code = run(entry["argv"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (entry["code"], entry["stdout"], entry["stderr"]), entry["argv"]


def _argv_id(argv):
    command, manifest = argv[:2]
    name = os.path.splitext(os.path.basename(manifest))[0]
    return "-".join([command, name] + (["oracle"] if "--oracle" in argv else []))


@pytest.mark.parametrize("argv", _golden_argvs(), ids=_argv_id)
def test_report_round_trip_is_byte_stable(tmp_path, capsys, monkeypatch, argv):
    # A written report, fed back in as the manifest with the same options,
    # reproduces itself byte for byte and with the same exit code.  A run
    # that writes no report is an input error.
    monkeypatch.chdir(os.path.join(MANIFEST_DIR, os.pardir))
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    code1, _, _ = run_cli(capsys, *argv, "--output", str(out1))
    if not out1.exists():
        assert code1 == 1
        return
    command, _, *options = argv
    code2, _, _ = run_cli(capsys, command, str(out1), *options, "--output", str(out2))
    assert code2 == code1
    assert out2.read_bytes() == out1.read_bytes()


@pytest.mark.parametrize("value", [
    Fraction(1, 2),
    {"index": 1.5},
    [1, {"chi": (2, {3})}],
], ids=["fraction", "float-in-dict", "set-nested"])
def test_a_value_with_no_report_form_is_a_type_error(value):
    with pytest.raises(TypeError, match="is not representable in a report"):
        _jsonable(value)
