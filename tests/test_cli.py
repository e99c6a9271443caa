import json

import pytest

from invword.cli import main
from invword.constructor import replay, witness_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_matrix_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "5", "--matrix", "1,1;0,1")
    assert code == 0
    w = witness_from_json(out.strip())
    assert replay(w).ok
    path = tmp_path / "w.json"
    path.write_text(out.strip())
    code, out, _ = run(capsys, "verify", "--witness", str(path))
    assert code == 0 and out.startswith("ok length=")


def test_construct_perm(capsys):
    code, out, _ = run(capsys, "construct", "--group", "alt", "--n", "6",
                       "--perm", "(1,2,3,4,5)")
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == {"family": "Alt", "n": 6}
    assert len(obj["steps"]) == 2


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "5", "--matrix", "2,0;0,1")
    assert code == 2 and "determinant" in err
    code, _, err = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "5", "--matrix", "not a matrix")
    assert code == 2
    code, _, err = run(capsys, "construct", "--group", "sl", "--n", "3",
                       "--q", "5", "--matrix", "1,1;0,1")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "5")
    assert code == 2
    code, _, err = run(capsys, "construct", "--group", "alt", "--n", "6",
                       "--perm", "(1,2)")
    assert code == 2 and "odd" in err


def test_construct_unreachable_exits_one(capsys):
    code, out, err = run(capsys, "construct", "--group", "sl", "--n", "2",
                         "--q", "2", "--matrix", "0,1;1,1")
    assert code == 1
    assert json.loads(out.splitlines()[-1]) == {"unreachable": True}


def test_verify_tampered_exits_one(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "7", "--matrix", "2,0;0,4")
    obj = json.loads(out)
    orig = obj["steps"][0]["c"]
    obj["steps"][0]["c"] = "1,0;3,1" if orig != "1,0;3,1" else "1,0;5,1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--witness", str(path))
    assert code == 1 and out.startswith("violation")


@pytest.mark.parametrize("n", [2, 7])
def test_verify_edited_group_size_exits_one(capsys, tmp_path, n):
    # the matrices stay 3x3, so the record no longer describes SL(n, 5)
    code, out, _ = run(capsys, "construct", "--group", "sl", "--n", "3",
                       "--q", "5", "--matrix", "1,1,0;0,1,1;0,0,1")
    obj = json.loads(out)
    obj["group"]["n"] = n
    path = tmp_path / "resized.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--witness", str(path))
    assert code == 1 and out.startswith("violation")
    assert "spec-mismatch" in out


@pytest.mark.parametrize("g", ["0,1;1,0", "0,0;0,0"])
def test_verify_element_outside_the_group_exits_one(capsys, tmp_path, g):
    # det -1 is outside SL(2,5), and the zero matrix has no inverse
    obj = {"group": {"family": "SL", "n": 2, "q": 5}, "g": g,
           "target": "0,1;1,0", "net_exponent": 1,
           "steps": [{"c": "1,0;0,1", "e": 1, "case": "x"}]}
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--witness", str(path))
    assert (code, out) == (1, "violation element-outside-group\n")


def test_verify_bad_exponent_exits_two(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "5", "--matrix", "1,1;0,1")
    obj = json.loads(out)
    obj["steps"][0]["e"] = 2
    obj["net_exponent"] = sum(s["e"] for s in obj["steps"])
    path = tmp_path / "bad_e.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and "exponent" in err


def test_verify_unreadable_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--witness",
                       str(tmp_path / "absent.json"))
    assert code == 2
    path = tmp_path / "junk.json"
    path.write_text("{]")
    code, _, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2


def _set(*path):
    """An edit that puts path[-1] at the key path[:-1] of a record."""
    def edit(obj):
        *keys, last, value = path
        for k in keys:
            obj = obj[k]
        obj[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    lambda obj: [obj],
    _set("group", "q", "5"),
    _set("group", "n", "3"),
    _set("steps", 5),
    _set("steps", 0, "c", 5),
    _set("steps", 0, "case", 5),
    _set("g", 5),
    _set("net_exponent", "0"),
], ids=["record-is-list", "q-is-str", "n-is-str", "steps-is-int",
        "c-is-int", "case-is-int", "g-is-int", "net-is-str"])
def test_verify_malformed_record_exits_two(capsys, tmp_path, edit):
    code, out, _ = run(capsys, "construct", "--group", "sl", "--n", "2",
                       "--q", "5", "--matrix", "1,1;0,1")
    obj = json.loads(out)
    obj = edit(obj) or obj
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,n", [
    (("--group", "sl", "--n", "2", "--q", "5", "--matrix", "1,1;0,1"), 0),
    (("--group", "alt", "--n", "6", "--perm", "(1,2,3)"), -1),
], ids=["sl-n-0", "alt-n-minus-1"])
def test_verify_group_size_below_one_exits_two(capsys, tmp_path, argv, n):
    code, out, _ = run(capsys, "construct", *argv)
    obj = json.loads(out)
    obj["group"]["n"] = n
    path = tmp_path / "small.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == ""
    assert err == "verify: n must be at least 1, not %d\n" % n


def test_survey_alt(capsys):
    code, out, _ = run(capsys, "survey", "--family", "alt", "--n", "5..6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family\tn\tq\trep\tsize\tdist\td_max"
    d_max = {line.split("\t")[1]: line.split("\t")[6] for line in lines[1:]}
    assert d_max == {"5": "3", "6": "2"}


def test_survey_psl2(capsys):
    code, out, _ = run(capsys, "survey", "--family", "psl2", "--q", "5,7")
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()[1:]]
    assert all(int(r[6]) <= 3 for r in rows)


def test_survey_sl2_reports_unreachable_none(capsys):
    code, out, _ = run(capsys, "survey", "--family", "sl2", "--q", "2")
    assert code == 0
    assert "None" in out


def test_survey_refuses_non_simple_group(capsys):
    code, _, err = run(capsys, "survey", "--family", "alt", "--n", "4")
    assert code == 2 and "not simple" in err


@pytest.mark.parametrize("argv", [
    ("survey", "--family", "sl2", "--q", "1"),
    ("survey", "--family", "psl2", "--q", "6"),
    ("charsum", "--q", "1")], ids=["survey-q-1", "survey-q-6", "charsum-q-1"])
def test_field_order_no_prime_power_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "%s: field order %s is not a prime power\n" % (argv[0],
                                                                 argv[-1])


def test_charsum_positive(capsys):
    code, out, _ = run(capsys, "charsum", "--q", "5")
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()[1:]]
    assert rows and all(int(r[2]) > 0 for r in rows)


def test_charsum_rejects_even_q(capsys):
    code, _, err = run(capsys, "charsum", "--q", "4")
    assert code == 2 and "odd" in err


def test_bounds_csv_and_verdicts(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "sp-even")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,params,numerator,denominator,verdict"
    fails = [l for l in lines[1:] if l.endswith("FAIL")]
    assert sorted(l.split(",")[1] for l in fails) == ["2:2", "3:2"]


def test_bounds_all_families_exit_zero(capsys):
    for fam in ("gl-mn", "gl-m1", "gu-i", "gu-ii", "sp-odd", "o"):
        code, out, _ = run(capsys, "bounds", "--family", fam)
        assert code == 0, fam


def test_orbdiam(capsys):
    code, out, _ = run(capsys, "orbdiam")
    assert code == 0
    assert out.strip() == "orbdiam=3 d_t=3 half_lower=True upper_72x=True"


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as ei:
        main(["survey"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["bogus"])
    assert ei.value.code == 2
