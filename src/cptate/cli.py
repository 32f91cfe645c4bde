"""Command line harness: discriminant sweeps, example suites, one-off
cohomology queries, cubic CSV checks.

Exit codes: 0 all checks passed, 1 at least one check failed (or a data
row was malformed), 2 usage or I/O error: a command raises InputError,
which main prints as one "error: ..." line that names any file involved.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import mfld, numfield
from .cpmod import CpModuleError, NotPrime, classify_free, is_prime, new_cp_module, tate
from .intlinalg import IntMatrix

# Limits on the work a command line or a spec file can ask for; README
# gives what each allows.
MAX_P = 256      # examples --p and a spec's p: lens(p) costs about p^3
MAX_RANK = 128   # a spec's rank, and the rank n + 1 of hempel(p, n)
MAX_JOBS = 64    # verify-quadratic's worker processes


class InputError(Exception):
    """Input a command rejects: main prints it and exits 2."""


@contextmanager
def _reading(path):
    """Raises InputError for a path that cannot be opened or read as UTF-8."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text ({err.reason})") from None
    except OSError as err:
        raise InputError(str(err)) from None


def _check_abs_d(option: str, d: int) -> None:
    if abs(d) > numfield.MAX_ABS_D:
        raise InputError(f"{option} {d}: |d| is above the limit {numfield.MAX_ABS_D}")


@dataclass
class RunSummary:
    fields_checked: int = 0
    skipped: int = 0
    checks_passed: int = 0
    checks_failed: int = 0
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, key, name, passed, lhs, rhs) -> bool:
        """Count one check; a failed one also joins the counterexamples.
        Returns passed."""
        if passed:
            self.checks_passed += 1
        else:
            self.checks_failed += 1
            self.counterexamples.append((key, name, lhs, rhs))
        return passed

    def to_dict(self) -> dict:
        return {
            "fields_checked": self.fields_checked,
            "skipped": self.skipped,
            "checks_passed": self.checks_passed,
            "checks_failed": self.checks_failed,
            "counterexamples": [list(c) for c in self.counterexamples],
            "elapsed_seconds": round(self.elapsed, 3),
        }


# -- verify-quadratic --------------------------------------------------------


def _field_payload(d: int) -> dict:
    # top-level so ProcessPoolExecutor can pickle it
    return numfield.report_to_dict(numfield.field_report(d))


def _fmt_group(invariants) -> str:
    return " x ".join(f"Z/{f}" for f in invariants) if invariants else "0"


def _fmt_check(c) -> str:
    if c is None:
        return "-"
    return "ok" if c["pass"] else "FAIL"


_CHECK_ORDER = ("upper_nf", "lower_nf", "gauss_identity", "cor_lower")


def _field_row(payload: dict) -> str:
    checks = "  ".join(
        f"{name.replace('_nf', '').replace('_identity', '')}={_fmt_check(payload['checks'][name])}"
        for name in _CHECK_ORDER
    )
    norm = payload["unit_norm"]
    return (f"d={payload['d']:>6}  disc={payload['discriminant']:>7}  "
            f"s={payload['s']}  Cl={_fmt_group(payload['class_invariants']):<14}  "
            f"h0={payload['dim_h0_cl']}  unit={'.' if norm is None else f'{norm:+d}'}  {checks}")


def _tally_field(payload: dict, summary: RunSummary) -> bool:
    """Count one field's checks into summary; True when any failed."""
    bad = False
    for name in _CHECK_ORDER:
        c = payload["checks"][name]
        if c is not None and not summary.record(payload["d"], name, c["pass"], c["lhs"], c["rhs"]):
            bad = True
    return bad


def _witness(d: int, name: str) -> str:
    """For a failing gauss_identity, the unit's norm and a rational point
    showing that -1 is a norm all the same; empty for other checks. ASCII,
    like the rest of the table, so any stdout encoding can print it."""
    point = numfield.gauss_witness(d) if name == "gauss_identity" else None
    if point is None:
        return ""
    x, z = point
    return (f"  unit norm {numfield.field_report(d).class_data.unit_norm:+d}, "
            f"yet {x}^2 - {d}*1^2 = -{z}^2")


def cmd_verify_quadratic(args) -> int:
    if args.d_min > args.d_max:
        raise InputError(f"empty range [{args.d_min}, {args.d_max}]")
    _check_abs_d("--d-min", args.d_min)
    _check_abs_d("--d-max", args.d_max)
    if not 1 <= args.jobs <= MAX_JOBS:
        raise InputError(f"--jobs {args.jobs}: must be between 1 and {MAX_JOBS}")
    summary = RunSummary()
    eligible = []
    for d in sorted(range(args.d_min, args.d_max + 1), key=lambda x: (abs(x), x)):
        if d in (0, 1) or not numfield.is_squarefree(d):
            summary.skipped += 1
        else:
            eligible.append(d)

    start = time.perf_counter()
    executor = None
    # the executor forks every worker at the first submit, so it gets no
    # more than there are fields
    workers = min(args.jobs, len(eligible))
    if workers > 1:
        executor = ProcessPoolExecutor(max_workers=workers)
        chunk = max(1, len(eligible) // (workers * 4))
        payloads = executor.map(_field_payload, eligible, chunksize=chunk)
    else:
        payloads = map(_field_payload, eligible)

    reports = []
    try:
        for payload in payloads:
            summary.fields_checked += 1
            bad = _tally_field(payload, summary)
            if args.format == "table":
                print(_field_row(payload))
            else:
                reports.append(payload)
            if bad and args.fail_fast:
                break
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    summary.elapsed = time.perf_counter() - start

    if args.format == "json":
        print(json.dumps({"reports": reports, "summary": summary.to_dict()}, indent=2))
    else:
        for d, name, lhs, rhs in summary.counterexamples:
            print(f"FAIL: d={d} {name}: lhs={lhs} rhs={rhs}{_witness(d, name)}")
        print(f"checked {summary.fields_checked} fields ({summary.skipped} skipped), "
              f"{summary.checks_passed} checks passed, {summary.checks_failed} failed, "
              f"{summary.elapsed:.2f}s")
    return 0 if summary.checks_failed == 0 else 1


# -- examples ----------------------------------------------------------------


def _verdict_status(v) -> str:
    if v.hypotheses_met:
        return "pass" if v.passed else "FAIL"
    return "hyp-violated, bare " + ("holds" if v.bare_holds else "fails")


def cmd_examples(args) -> int:
    if not args.p:
        raise InputError("--p needs at least one prime")
    for q in args.p:
        if q > MAX_P:
            raise InputError(f"--p entry {q} is above the limit {MAX_P}")
        if not is_prime(q):
            raise InputError(f"--p entry {q} is not prime")
    # hempel(p, n) has rank n + 1
    if not 1 <= args.n_max < MAX_RANK:
        raise InputError(f"--n-max {args.n_max}: must be between 1 and {MAX_RANK - 1}")
    summary = RunSummary()
    out = []
    start = time.perf_counter()
    for p in args.p:
        cases = [mfld.example_lens(p)]
        cases += [mfld.example_hempel(p, n) for n in range(1, args.n_max + 1)]
        for e in cases:
            summary.fields_checked += 1
            verdicts = mfld.run_all_checks(e)
            expected = mfld.expected_outcomes(e)
            entry = {"name": e.name, "p": e.p, "s": e.s, "verdicts": {}}
            for name, v in verdicts.items():
                okay = summary.record(e.name, name,
                                      (v.hypotheses_met, v.bare_holds) == expected[name],
                                      v.lhs, v.rhs)
                d = mfld.verdict_to_dict(v)
                d["matches_expected"] = okay
                entry["verdicts"][name] = d
                if args.format == "table":
                    mark = "" if okay else "  [UNEXPECTED]"
                    print(f"{e.name:<18} {name:<9} lhs={v.lhs} rhs={v.rhs}  "
                          f"{_verdict_status(v)}{mark}")
            out.append(entry)
    summary.elapsed = time.perf_counter() - start
    if args.format == "json":
        print(json.dumps({"examples": out, "summary": summary.to_dict()}, indent=2))
    else:
        print(f"{summary.fields_checked} examples, {summary.checks_passed} verdicts as "
              f"documented, {summary.checks_failed} unexpected, {summary.elapsed:.2f}s")
    return 0 if summary.checks_failed == 0 else 1


# -- cohomology --------------------------------------------------------------


def _spec_int(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"field '{where}': not an integer")
    return value


def _load_module(path):
    """The module of the file {"p": int, "tau": [[row], ...], "relations":
    [[col], ...]}, validated. Every InputError names the file.

    tau is row-major and square; each relation is one column vector of
    the same length. relations may be omitted for a free group.
    """
    with _reading(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # an integer literal past int's digit limit
        raise InputError(f"{path}: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    try:
        return new_cp_module(*_spec_contents(data))
    except InputError as err:
        raise InputError(f"{path}: {err}") from None
    except CpModuleError as err:
        where = "p" if isinstance(err, NotPrime) else "tau"
        raise InputError(f"{path}: field '{where}': {type(err).__name__}: {err}") from None


def _spec_contents(data):
    """(p, relations, tau) of a decoded spec, checked for shape, types and
    the limits on p and the rank."""
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object")
    if "p" not in data:
        raise InputError("missing field 'p'")
    p = _spec_int(data["p"], "p")
    if p > MAX_P:
        raise InputError(f"field 'p': {p} is above the limit {MAX_P}")
    tau_rows = data.get("tau")
    if not isinstance(tau_rows, list):
        raise InputError("field 'tau': must be a list of rows")
    m = len(tau_rows)
    if m > MAX_RANK:
        raise InputError(f"field 'tau': rank {m} is above the limit {MAX_RANK}")
    for i, row in enumerate(tau_rows):
        if not isinstance(row, list) or len(row) != m:
            raise InputError(f"field 'tau': row {i} must be a list of length {m}")
        for j, x in enumerate(row):
            _spec_int(x, f"tau[{i}][{j}]")
    rel_cols = data.get("relations", [])
    if not isinstance(rel_cols, list):
        raise InputError("field 'relations': must be a list of column vectors")
    for i, col in enumerate(rel_cols):
        if not isinstance(col, list) or len(col) != m:
            raise InputError(f"field 'relations': entry {i} must be a list of length {m}")
        for j, x in enumerate(col):
            _spec_int(x, f"relations[{i}][{j}]")
    tau = IntMatrix.from_rows(tau_rows) if m else IntMatrix.zeros(0, 0)
    rel = IntMatrix.from_columns([tuple(c) for c in rel_cols], m)
    return p, rel, tau


def cmd_cohomology(args) -> int:
    module = _load_module(args.spec)
    co = tate(module)
    invs = module.group.invariant_factors
    def count(n: int, noun: str) -> str:
        return f"{n} {noun}" if n == 1 else f"{n} {noun}s"

    print(f"p = {module.p}")
    print(f"group: {module.group}  ({count(module.ambient_rank, 'generator')},"
          f" {count(module.group.relations.cols, 'relation')})")
    print(f"invariant factors: {', '.join(map(str, invs)) if invs else '(none)'};"
          f" free rank {module.group.free_rank}")
    print(f"tate: dim h0 = {co.dim_h0}, dim h1 = {co.dim_h1}")
    if not invs:
        t = classify_free(module)
        print(f"torsion-free type multiplicities: free={t.f} trivial={t.t} augmentation={t.a}")
    return 0


# -- verify-cubic ------------------------------------------------------------


def cmd_verify_cubic(args) -> int:
    summary = RunSummary()
    malformed = 0
    start = time.perf_counter()
    try:
        with _reading(args.csv):
            for lineno, item in numfield.scan_cubic_csv(args.csv):
                if isinstance(item, numfield.MalformedRecord):
                    malformed += 1
                    print(f"line {lineno}: malformed: {item}")
                    bad = True
                else:
                    verdict = numfield.cubic_rank_check(item)
                    summary.fields_checked += 1
                    bad = not summary.record(item.conductor, "cubic_rank", verdict.passed,
                                             verdict.lhs, verdict.rhs)
                    invs = ";".join(map(str, item.invariants)) or "(trivial)"
                    print(f"conductor={item.conductor:<6} Cl invariants={invs:<12} "
                          f"rank3={verdict.lhs} >= s-1={verdict.rhs}: "
                          f"{'ok' if verdict.passed else 'FAIL'}")
                if bad and args.fail_fast:
                    break
    except numfield.MalformedRecord as err:
        print(f"error: {args.csv}: {err}", file=sys.stderr)
        return 1
    summary.elapsed = time.perf_counter() - start
    print(f"{summary.fields_checked} records, {summary.checks_passed} passed, "
          f"{summary.checks_failed} failed, {malformed} malformed, {summary.elapsed:.2f}s")
    return 0 if summary.checks_failed == 0 and malformed == 0 else 1


# -- nine-fields -------------------------------------------------------------


def cmd_nine_fields(args) -> int:
    if args.bound >= 0:
        raise InputError("--bound must be negative")
    _check_abs_d("--bound", args.bound)
    found = numfield.nine_fields_check(args.bound)
    expected = tuple(d for d in numfield.HEEGNER_DS if d >= args.bound)
    for d in found:
        print(d)
    ok = found == expected
    print(f"{len(found)} imaginary fields with trivial class group in "
          f"[{args.bound}, -1]; expected {len(expected)}: "
          f"{'match' if ok else 'MISMATCH'}")
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def _int_list(text: str) -> list:
    return [int(t) for t in text.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cptate",
        description="Verification harness for cyclic prime-order actions: "
                    "ramified-prime counts against class-group and unit "
                    "cohomology, plus the manifold example families.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify-quadratic",
                       help="sweep square-free d and check the count bounds")
    q.add_argument("--d-min", type=int, required=True)
    q.add_argument("--d-max", type=int, required=True)
    q.add_argument("--format", choices=("table", "json"), default="table")
    q.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    q.add_argument("--fail-fast", action="store_true",
                   help="stop at the first field with a failed check")
    q.set_defaults(func=cmd_verify_quadratic)

    e = sub.add_parser("examples",
                       help="run the manifold example families against their "
                            "documented outcomes")
    e.add_argument("--p", type=_int_list, default=[2, 3, 5],
                   help="comma-separated primes (default 2,3,5)")
    e.add_argument("--n-max", type=int, default=4,
                   help="largest n for the hempel family (default 4)")
    e.add_argument("--format", choices=("table", "json"), default="table")
    e.set_defaults(func=cmd_examples)

    c = sub.add_parser("cohomology",
                       help="compute both Tate groups of one module from a "
                            "JSON description")
    c.add_argument("--spec", required=True,
                   help="JSON file: {\"p\": prime, \"tau\": row-major square "
                        "matrix, \"relations\": list of column vectors}")
    c.set_defaults(func=cmd_cohomology)

    v = sub.add_parser("verify-cubic",
                       help="check 3-rank lower bounds for cyclic cubic "
                            "records from a CSV file")
    v.add_argument("--csv", required=True,
                   help="CSV with header conductor,class_invariants")
    v.add_argument("--fail-fast", action="store_true")
    v.set_defaults(func=cmd_verify_cubic)

    n = sub.add_parser("nine-fields",
                       help="scan imaginary fields for trivial class groups "
                            "and compare with the classical list")
    n.add_argument("--bound", type=int, default=-200)
    n.set_defaults(func=cmd_nine_fields)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
