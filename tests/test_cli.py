import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cptate.cli as cli
import cptate.numfield as numfield
from cptate.cli import main
from cptate.cpmod import Verdict

DATA = Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument handling ---------------------------------------------------------


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_quadratic_rejects_empty_range(capsys):
    code, _, err = run(capsys, ["verify-quadratic", "--d-min", "5", "--d-max", "-5"])
    assert code == 2
    assert "empty range" in err


def test_verify_quadratic_rejects_bad_jobs(capsys):
    code, _, err = run(capsys, ["verify-quadratic", "--d-min", "-5", "--d-max", "5",
                                "--jobs", "0"])
    assert code == 2
    assert "--jobs" in err


# -- verify-quadratic ------------------------------------------------------------


def test_verify_quadratic_table_output(capsys):
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "-20", "--d-max", "20"])
    assert code == 0
    # 25 square-free d in [-20, 20] other than 0 and 1
    assert "checked 25 fields (16 skipped)" in out
    rows = [line for line in out.splitlines() if line.startswith("d=")]
    assert len(rows) == 25
    assert all("Cl=" in row and "FAIL" not in row for row in rows)


def test_verify_quadratic_json_document(capsys):
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "-30", "--d-max", "30",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"reports", "summary"}
    ds = [r["d"] for r in doc["reports"]]
    assert ds == sorted(ds, key=lambda x: (abs(x), x))
    assert ds[0] == -1
    assert doc["summary"]["fields_checked"] == len(ds)
    assert doc["summary"]["checks_failed"] == 0
    assert doc["summary"]["counterexamples"] == []
    non_null = sum(1 for r in doc["reports"]
                   for c in r["checks"].values() if c is not None)
    assert doc["summary"]["checks_passed"] == non_null
    for r in doc["reports"]:
        if r["d"] < 0:
            assert r["unit_norm"] is None
            assert r["checks"]["gauss_identity"] is None


def test_verify_quadratic_parallel_matches_serial(capsys):
    args = ["verify-quadratic", "--d-min", "-33", "--d-max", "33", "--format", "json"]
    code1, out1, _ = run(capsys, args + ["--jobs", "1"])
    code2, out2, _ = run(capsys, args + ["--jobs", "2"])
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["reports"] == doc2["reports"]


class _SerialExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size it was
    asked for and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, cancel_futures=False):
        pass


def test_verify_quadratic_pool_is_no_larger_than_the_range(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialExecutor)
    monkeypatch.setattr(_SerialExecutor, "sizes", [])
    # -3, -2, -1 and 2, 3 are the square-free d in [-3, 3] other than 0 and 1
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "-3", "--d-max", "3",
                                "--jobs", "64"])
    assert code == 0 and "checked 5 fields" in out
    assert _SerialExecutor.sizes == [5]
    # one eligible field runs serially, with no pool at all
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "2", "--d-max", "2",
                                "--jobs", "64"])
    assert code == 0 and "checked 1 fields" in out
    assert _SerialExecutor.sizes == [5]
    # a pool still forms while the range has more fields than jobs
    run(capsys, ["verify-quadratic", "--d-min", "-3", "--d-max", "3", "--jobs", "2"])
    assert _SerialExecutor.sizes == [5, 2]


def test_verify_quadratic_rejects_jobs_above_the_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialExecutor)
    monkeypatch.setattr(_SerialExecutor, "sizes", [])
    jobs = cli.MAX_JOBS + 1
    code, out, err = run(capsys, ["verify-quadratic", "--d-min", "-3", "--d-max", "3",
                                  "--jobs", str(jobs)])
    assert code == 2 and out == ""
    assert err == f"error: --jobs {jobs}: must be between 1 and {cli.MAX_JOBS}\n"
    # refused before any pool is asked for
    assert _SerialExecutor.sizes == []


def test_verify_quadratic_reports_unit_norm_exception(capsys):
    # the unit-norm prediction genuinely fails at d = 34, and the sweep
    # must say so rather than hide it
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "34", "--d-max", "34"])
    assert code == 1
    # with the rational point that makes -1 a norm all the same
    line = "FAIL: d=34 gauss_identity: lhs=1 rhs=2  unit norm +1, yet 3^2 - 34*1^2 = -5^2"
    assert line in out.splitlines()


def _plant_upper_failure(monkeypatch):
    """Make the shared upper bound, as numfield binds it, fail on the
    inputs of d = 10: s0 = 2, dim H^0(Cl) = 1, dim H^1(units) = 1. Among
    2 <= d <= 30 only d = 26 has the same three numbers."""
    real = numfield.upper

    def planted(theorem, s, h0, h1_free, *rest):
        if (s, h0, h1_free) == (2, 1, 1):
            return Verdict(theorem, 99, 0, True, False)
        return real(theorem, s, h0, h1_free, *rest)

    monkeypatch.setattr(numfield, "upper", planted)


def test_verify_quadratic_flags_planted_failure(capsys, monkeypatch):
    _plant_upper_failure(monkeypatch)
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "2", "--d-max", "30"])
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL: d=10 upper_nf: lhs=99 rhs=0", "FAIL: d=26 upper_nf: lhs=99 rhs=0"]


def test_verify_quadratic_fail_fast_stops_early(capsys, monkeypatch):
    _plant_upper_failure(monkeypatch)
    code, out, _ = run(capsys, ["verify-quadratic", "--d-min", "2", "--d-max", "30",
                                "--fail-fast"])
    assert code == 1
    # d = 10 is the sixth eligible value, nothing beyond it is checked
    assert "checked 6 fields (11 skipped)" in out


@pytest.mark.parametrize("argv, message", [
    (["verify-quadratic", "--d-min", "-1000000000000000000039",
      "--d-max", "-1000000000000000000039"],
     "--d-min -1000000000000000000039: |d| is above the limit 10000000000"),
    (["verify-quadratic", "--d-min", "10000000001", "--d-max", "10000000001"],
     "--d-min 10000000001: |d| is above the limit 10000000000"),
    (["verify-quadratic", "--d-min", "10000000000", "--d-max", "10000000001", "--format", "json"],
     "--d-max 10000000001: |d| is above the limit 10000000000"),
    (["examples", "--p", "1000000000000000003"],
     "--p entry 1000000000000000003 is above the limit 256"),
    (["examples", "--p", "2,257"], "--p entry 257 is above the limit 256"),
    (["examples", "--n-max", "128"], "--n-max 128: must be between 1 and 127"),
    (["nine-fields", "--bound", "-10000000001"],
     "--bound -10000000001: |d| is above the limit 10000000000"),
], ids=("d-far", "d-min", "d-max", "p-far", "p", "n-max", "bound"))
def test_work_above_a_limit_is_refused(capsys, argv, message):
    # each limit is checked before any field, factorization or module
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# -- examples ----------------------------------------------------------------------


def test_examples_all_documented(capsys):
    code, out, _ = run(capsys, ["examples"])
    assert code == 0
    assert "[UNEXPECTED]" not in out
    assert "0 unexpected" in out


def test_examples_json(capsys):
    code, out, _ = run(capsys, ["examples", "--p", "2,3", "--n-max", "2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["examples"]) == 6  # per prime: one lens + two hempel
    for entry in doc["examples"]:
        assert set(entry["verdicts"]) == {"upperT", "upper1", "lower1",
                                          "reznikov", "cor_lower"}
        for v in entry["verdicts"].values():
            assert v["matches_expected"] is True
    assert doc["summary"]["checks_failed"] == 0


def test_examples_json_is_pinned_byte_for_byte(capsys):
    code, out, _ = run(capsys, ["examples", "--p", "2,3,5,7", "--n-max", "8",
                                "--format", "json"])
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if '"elapsed_seconds"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "34188ffada95479148c4e4673cc17b646603d0bf178a1adeb0ca4dc6da14f2f4")


@pytest.mark.parametrize("primes", ["", ",", " , "], ids=["empty", "comma", "spaced"])
def test_examples_rejects_empty_prime_list(capsys, primes):
    code, out, err = run(capsys, ["examples", "--p", primes])
    assert code == 2
    assert "--p" in err
    assert out == ""


def test_examples_rejects_composite_prime(capsys):
    code, _, err = run(capsys, ["examples", "--p", "4"])
    assert code == 2
    assert "not prime" in err


def test_examples_rejects_bad_n_max(capsys):
    code, _, err = run(capsys, ["examples", "--n-max", "0"])
    assert code == 2


# -- cohomology ---------------------------------------------------------------------


def test_cohomology_trivial_module(capsys):
    code, out, _ = run(capsys, ["cohomology", "--spec", str(DATA / "trivial_z_p5.json")])
    assert code == 0
    assert "dim h0 = 1, dim h1 = 0" in out
    assert "free rank 1" in out
    assert "free=0 trivial=1 augmentation=0" in out


def test_cohomology_regular_representation(capsys):
    code, out, _ = run(capsys, ["cohomology", "--spec", str(DATA / "regular_c3.json")])
    assert code == 0
    assert "dim h0 = 0, dim h1 = 0" in out
    assert "free=1 trivial=0 augmentation=0" in out


def test_cohomology_with_relations(capsys, tmp_path):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({
        "p": 3,
        "tau": [[1]],
        "relations": [[9]],
    }), encoding="utf-8")
    code, out, _ = run(capsys, ["cohomology", "--spec", str(spec)])
    assert code == 0
    assert "dim h0 = 1, dim h1 = 1" in out
    assert "torsion-free type" not in out


def test_cohomology_rejects_wrong_order_tau(capsys):
    code, _, err = run(capsys, ["cohomology", "--spec", str(DATA / "bad_tau.json")])
    assert code == 2
    assert "field 'tau'" in err
    assert "TauOrderNotDividingP" in err


def test_cohomology_rejects_composite_p(capsys, tmp_path):
    spec = tmp_path / "m.json"
    spec.write_text('{"p": 6, "tau": [[1]], "relations": []}', encoding="utf-8")
    code, _, err = run(capsys, ["cohomology", "--spec", str(spec)])
    assert code == 2
    assert "field 'p'" in err and "NotPrime" in err


def test_cohomology_json_syntax_error_has_location(capsys, tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text('{"p": 5, "tau": [[1]\n', encoding="utf-8")
    code, _, err = run(capsys, ["cohomology", "--spec", str(spec)])
    assert code == 2
    assert "broken.json:" in err


@pytest.mark.parametrize("payload,fragment", [
    ('{"tau": [[1]]}', "missing field 'p'"),
    ('{"p": true, "tau": [[1]]}', "field 'p'"),
    ('{"p": 5}', "field 'tau'"),
    ('{"p": 5, "tau": [[1, 0], [0]]}', "row 1"),
    ('{"p": 5, "tau": [[1, 0], ["x", 1]]}', "tau[1][0]"),
    ('{"p": 2, "tau": [[1]], "relations": [[true]]}', "relations[0][0]"),
    ('{"p": 2, "tau": [[1]], "relations": [[1, 2]]}', "entry 0"),
    ('[1, 2]', "top level"),
    ('{"p": 6, "tau": [[1]]}', "field 'p': NotPrime"),
    ('{"p": 3, "tau": [[2]]}', "field 'tau': TauNotInvertible"),
])
def test_cohomology_spec_diagnostics(capsys, tmp_path, payload, fragment):
    # every content error is one line that names the file
    spec = tmp_path / "m.json"
    spec.write_text(payload, encoding="utf-8")
    code, out, err = run(capsys, ["cohomology", "--spec", str(spec)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("payload, message", [
    ('{"p": 1000000000000000003, "tau": [[1]]}',
     "field 'p': 1000000000000000003 is above the limit 256"),
    ('{"p": 257, "tau": [[1]]}', "field 'p': 257 is above the limit 256"),
    (json.dumps({"p": 2, "tau": [[int(i == j) for j in range(129)] for i in range(129)]}),
     "field 'tau': rank 129 is above the limit 128"),
], ids=("p-far", "p", "rank"))
def test_cohomology_spec_above_a_limit_is_refused(capsys, tmp_path, payload, message):
    spec = tmp_path / "m.json"
    spec.write_text(payload, encoding="utf-8")
    code, out, err = run(capsys, ["cohomology", "--spec", str(spec)])
    assert code == 2 and out == ""
    assert err == f"error: {spec}: {message}\n"


def test_cohomology_spec_integer_over_the_digit_limit(capsys, tmp_path):
    # json turns a longer integer literal into a ValueError of its own
    spec = tmp_path / "long.json"
    spec.write_text('{"p": 2, "tau": [[' + "1" * 5000 + "]]}", encoding="utf-8")
    code, out, err = run(capsys, ["cohomology", "--spec", str(spec)])
    assert code == 2 and out == ""
    assert err == (f"error: {spec}: an integer has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


def test_cohomology_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["cohomology", "--spec", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("command, name, payload", [
    ("cohomology", "bad.json", b'{"p": 5, "tau": [[1]]}\xff'),
    ("cohomology", "deep.json", b"[" * 10**5 + b"]" * 10**5),
    ("verify-cubic", "bad.csv", b"conductor,class_invariants\n7,\xff\n"),
], ids=("spec-not-utf8", "spec-nested", "csv-not-utf8"))
def test_unreadable_input_is_one_error_line(capsys, tmp_path, command, name, payload):
    # a byte that is not UTF-8, or JSON nested past the parser's depth,
    # is malformed input: exit 2 and one line naming the file
    path = tmp_path / name
    path.write_bytes(payload)
    option = "--spec" if command == "cohomology" else "--csv"
    code, _, err = run(capsys, [command, option, str(path)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


# -- verify-cubic ----------------------------------------------------------------------


def test_verify_cubic_bundled_fixture(capsys):
    code, out, _ = run(capsys, ["verify-cubic", "--csv", str(DATA / "cyclic_cubic.csv")])
    assert code == 0
    assert "4 records, 4 passed, 0 failed, 0 malformed" in out
    assert "conductor=63" in out and "rank3=1 >= s-1=1: ok" in out


def test_verify_cubic_corrupt_fixture(capsys):
    code, out, _ = run(capsys, ["verify-cubic",
                                "--csv", str(DATA / "cyclic_cubic_corrupt.csv")])
    assert code == 1
    # the record claiming trivial class group for two ramified primes fails
    assert "conductor=63" in out and "FAIL" in out
    # inadmissible conductor and unparseable row are both reported, with
    # processing continuing to the valid final row
    assert "malformed" in out
    assert "exponent 1" in out
    assert "line 5" in out
    assert "conductor=9" in out
    assert "3 records, 2 passed, 1 failed, 2 malformed" in out


def test_verify_cubic_reports_an_over_long_field_and_goes_on(capsys, tmp_path):
    # the csv reader rejects a field over its length limit; that line is
    # one malformed row, and the rows after it are still checked
    path = tmp_path / "long.csv"
    path.write_text("conductor,class_invariants\n7,\n7," + "1" * 200_000 + "\n9,\n",
                    encoding="utf-8")
    code, out, err = run(capsys, ["verify-cubic", "--csv", str(path)])
    assert code == 1 and err == ""
    assert "line 3: malformed: field larger than field limit" in out
    assert "conductor=9" in out
    assert "2 records, 2 passed, 0 failed, 1 malformed" in out


def test_verify_cubic_reports_a_conductor_above_the_limit_and_goes_on(capsys, tmp_path):
    # the conductor is refused before it is factored
    path = tmp_path / "big.csv"
    path.write_text("conductor,class_invariants\n100000000000000000039,\n9,\n",
                    encoding="utf-8")
    code, out, err = run(capsys, ["verify-cubic", "--csv", str(path)])
    assert code == 1 and err == ""
    assert out.splitlines()[0] == ("line 2: malformed: conductor 100000000000000000039 "
                                   "out of range [2, 1000000000000]")
    assert "conductor=9" in out
    assert "1 records, 1 passed, 0 failed, 1 malformed" in out


def test_verify_cubic_fail_fast(capsys):
    code, out, _ = run(capsys, ["verify-cubic",
                                "--csv", str(DATA / "cyclic_cubic_corrupt.csv"),
                                "--fail-fast"])
    assert code == 1
    assert "conductor=9" not in out


def test_verify_cubic_bad_header(capsys, tmp_path):
    bad = tmp_path / "h.csv"
    bad.write_text("x,y\n7,\n", encoding="utf-8")
    code, _, err = run(capsys, ["verify-cubic", "--csv", str(bad)])
    assert code == 1
    assert "bad header" in err


def test_verify_cubic_header_only(capsys, tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("conductor,class_invariants\n", encoding="utf-8")
    code, out, _ = run(capsys, ["verify-cubic", "--csv", str(empty)])
    assert code == 0
    assert "0 records, 0 passed, 0 failed, 0 malformed" in out


def test_verify_cubic_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["verify-cubic", "--csv", str(tmp_path / "nope.csv")])
    assert code == 2


# -- nine-fields -------------------------------------------------------------------------


def test_nine_fields_default(capsys):
    code, out, _ = run(capsys, ["nine-fields"])
    assert code == 0
    ds = [int(line) for line in out.splitlines() if line.lstrip("-").isdigit()]
    assert ds == [-1, -2, -3, -7, -11, -19, -43, -67, -163]
    assert "match" in out


def test_nine_fields_small_bound(capsys):
    code, out, _ = run(capsys, ["nine-fields", "--bound", "-50"])
    assert code == 0
    assert "7 imaginary fields" in out


def test_nine_fields_rejects_positive_bound(capsys):
    code, _, err = run(capsys, ["nine-fields", "--bound", "5"])
    assert code == 2


def test_nine_fields_detects_wrong_class_numbers(capsys, monkeypatch):
    real = numfield.class_number

    def lying(d):
        return 1 if d == -6 else real(d)

    monkeypatch.setattr(numfield, "class_number", lying)
    code, out, _ = run(capsys, ["nine-fields", "--bound", "-50"])
    assert code == 1
    assert "MISMATCH" in out


# -- packaging ---------------------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cptate.cli", "nine-fields", "--bound", "-20"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "match" in proc.stdout
