"""The command line's contract on generated input, driven in process:
the exit code is 0, 1 or 2, no exception escapes but argparse's
SystemExit(2), and an error about an input file is one line that names
the file. Sizes stay under the limits in cli and numfield, and --jobs
stays at 1, so every run is quick."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from cptate.cli import main

CONTRACT = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2
            code = 2
    assert code in (0, 1, 2)
    return code, out.getvalue(), err.getvalue()


def assert_names_file(err, path):
    if err:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


# -- argv ----------------------------------------------------------------------


small = st.integers(-30, 30).map(str)
far = st.sampled_from(["10000000001", "-1000000000000000000039", "257",
                       "1000000000000000003", "128"])
# no help, which exits 0, and no --jobs, so that no run starts a worker
word = st.text(max_size=6).filter(lambda t: not t.startswith(("-h", "--h", "--j")))
command = st.sampled_from(["verify-quadratic", "examples", "nine-fields"])
token = st.one_of(small, far, word, command, st.sampled_from([
    "--d-min", "--d-max", "--format", "json", "table", "--p", "--n-max", "--bound",
    "--fail-fast", ",",
]))


@CONTRACT
@given(st.lists(token, max_size=7) | st.builds(lambda c, rest: [c, *rest], command,
                                                st.lists(token, max_size=6)))
def test_any_argv(argv):
    run(argv)


@CONTRACT
@given(st.integers(-40, 40), st.integers(-40, 40), st.sampled_from(["table", "json"]),
       st.booleans())
def test_verify_quadratic(lo, hi, fmt, fail_fast):
    argv = ["verify-quadratic", "--d-min", str(lo), "--d-max", str(hi), "--format", fmt,
            "--jobs", "1"] + ["--fail-fast"] * fail_fast
    code, out, err = run(argv)
    assert (code == 2) == (lo > hi)


@CONTRACT
@given(st.lists(st.sampled_from([2, 3, 5, 7]) | st.sampled_from([-3, 0, 1, 4, 257, 10**18 + 3]),
                max_size=3),
       st.integers(-2, 3))
def test_examples(primes, n_max):
    run(["examples", "--p", ",".join(map(str, primes)), "--n-max", str(n_max)])


# -- input files -----------------------------------------------------------------


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["p", "tau", "relations", "x"]), inner, max_size=3),
    max_leaves=12)
entry = st.integers(-3, 3)
specs = st.integers(0, 3).flatmap(lambda m: st.fixed_dictionaries({
    "p": st.sampled_from([-2, 0, 1, 2, 3, 4, 5, 7, 257, 10**18 + 3]),
    "tau": st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m),
    "relations": st.lists(st.lists(entry, min_size=m, max_size=m), max_size=2),
}))
# tau = 1 is an action on any group
trivial_specs = st.integers(0, 3).flatmap(lambda m: st.fixed_dictionaries({
    "p": st.sampled_from([2, 3, 5, 7]),
    "tau": st.just([[int(i == j) for j in range(m)] for i in range(m)]),
    "relations": st.lists(st.lists(entry, min_size=m, max_size=m), max_size=3),
}))
spec_bytes = st.one_of(
    st.binary(max_size=64),
    json_values.map(lambda v: json.dumps(v).encode()),
    (specs | trivial_specs).map(lambda v: json.dumps(v).encode()),
    st.integers(4301, 4400).map(lambda n: b'{"p": 2, "tau": [[' + b"7" * n + b"]]}"),
)


@CONTRACT
@given(spec_bytes)
def test_cohomology_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_bytes(payload)
    code, _, err = run(["cohomology", "--spec", str(path)])
    assert (code == 2) == bool(err)
    assert_names_file(err, path)


integer = st.integers(-10**6, 10**6).map(str)
cell = st.one_of(
    integer,
    st.sampled_from(["1000000000001", "100000000000000000039", "7" * 5000, "1" * 140_000]),
    st.lists(st.integers(-3, 30), max_size=4).map(lambda v: ";".join(map(str, v))),
    st.text(max_size=6),
)
row = st.lists(cell, max_size=3).map(",".join)
csv_bytes = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from(["conductor,class_invariants", "x,y", ""]),
              st.lists(row, max_size=4)).map(
        lambda t: "\n".join([t[0], *t[1]]).encode()),
)


@CONTRACT
@given(csv_bytes, st.booleans())
def test_verify_cubic_csv(tmp_path, payload, fail_fast):
    path = tmp_path / "records.csv"
    path.write_bytes(payload)
    code, _, err = run(["verify-cubic", "--csv", str(path)] + ["--fail-fast"] * fail_fast)
    assert_names_file(err, path)
