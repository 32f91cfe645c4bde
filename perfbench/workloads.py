"""The benchmark's workloads: inputs made from a seed, the item each input
drives through cptate's public API, and the checks on the outputs.

Every workload is a fixed list of items (a "pass"). The timed loop walks
the list in order and starts again from the top when it runs out, after
clearing cptate's memo caches so that each pass costs what a fresh sweep
costs. Outputs are checked after the loop, never inside it.

Workloads:

quad-small  every square-free d with 1 < |d| <= 5000 in the CLI's (|d|, d)
            order, each through field_report -> report_to_dict. The seed
            does not change the inputs: this is the acceptance sweep.
quad-large  a band of 600 consecutive t near 10^6, square-free ones as
            d = -t and d = t. The seed picks the band's offset in [0, 100);
            bands overlap, so the mix of class-group sizes, which sets the
            tail, stays alike from seed to seed.
manifolds   lens(p) and hempel(p, n) for primes p <= 23 and n <= 16, each
            in its canonical presentation and in three seed-drawn bases.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
from dataclasses import replace
from typing import Callable, NamedTuple

from cptate import cpmod, intlinalg, mfld, numfield

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

CHECK_ORDER = ("upper_nf", "lower_nf", "gauss_identity", "cor_lower")

# d in [2, 5000] where the unit-norm prediction of gauss_identity fails;
# frozen by the acceptance suite (130 values, the first is 34).
GAUSS_FAILURES = frozenset((
    34, 146, 178, 194, 205, 221, 305, 377, 386, 410, 466, 482, 505, 514,
    545, 562, 674, 689, 706, 745, 793, 802, 866, 890, 898, 905, 1154, 1186,
    1202, 1205, 1234, 1282, 1345, 1346, 1394, 1405, 1469, 1513, 1517, 1537,
    1538, 1717, 1762, 1802, 1858, 1874, 1885, 1945, 1954, 1961, 2005, 2018,
    2041, 2045, 2066, 2098, 2105, 2194, 2245, 2306, 2329, 2353, 2386, 2410,
    2434, 2498, 2533, 2578, 2594, 2669, 2701, 2722, 2818, 2845, 2866, 2938,
    2962, 2978, 2993, 3005, 3034, 3106, 3205, 3218, 3298, 3305, 3394, 3442,
    3497, 3505, 3506, 3602, 3737, 3746, 3778, 3805, 3826, 3842, 3893, 3965,
    4010, 4034, 4069, 4090, 4105, 4145, 4162, 4178, 4258, 4321, 4322, 4369,
    4381, 4405, 4453, 4546, 4562, 4633, 4645, 4658, 4705, 4717, 4786, 4810,
    4834, 4849, 4882, 4930, 4946, 4981,
))

MANIFOLD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
HEMPEL_N_MAX = 16
RANDOM_BASES = 3
LARGE_BASE = 10 ** 6
LARGE_OFFSETS = 100
LARGE_WIDTH = 600


# -- shared helpers ------------------------------------------------------------


def factor_squarefree(n: int):
    """Distinct prime factors of |n| >= 2 by trial division, or None when
    a square divides n. Independent of numfield.factorize."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            out.append(p)
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def clear_caches():
    """Empty every memo cache in cptate, so the next pass starts cold.
    Returns the (hits, misses) each named cache held before clearing."""
    stats = {}
    for mod in (intlinalg, cpmod, numfield, mfld):
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                info = obj.cache_info()
                stats[f"{mod.__name__}.{name}"] = (info.hits, info.misses)
                obj.cache_clear()
    return stats


def quad_item(d, traced):
    if traced:
        # field_report reaches the class group through the private memoised
        # _class_data; calling the public entry points first gives that
        # work its own spans and leaves the total work unchanged
        numfield.class_number(d)
        if d > 1:
            numfield.fundamental_unit(d)
    return numfield.report_to_dict(numfield.field_report(d))


def _raised(outputs):
    """Indices of items whose call raised (the loop stores the exception)."""
    return [k for k, out in enumerate(outputs) if isinstance(out, Exception)]


# -- quad-small ----------------------------------------------------------------


def quad_small_inputs(seed: int) -> list:
    del seed  # the acceptance sweep is the same for every seed
    return [d for d in sorted(range(-5000, 5001), key=lambda x: (abs(x), x))
            if d not in (0, 1) and numfield.is_squarefree(d)]


def load_quad_small_reference() -> bytes:
    """The seed's `verify-quadratic --d-min -5000 --d-max 5000 --format
    json` document with summary.elapsed_seconds removed."""
    with gzip.open(os.path.join(REFERENCE_DIR, "quad_small.json.gz"), "rb") as fh:
        return fh.read()


def sweep_document(payloads, skipped: int) -> bytes:
    """The CLI's JSON document for these payloads, minus elapsed_seconds."""
    passed = failed = 0
    counterexamples = []
    for p in payloads:
        for name in CHECK_ORDER:
            c = p["checks"][name]
            if c is None:
                continue
            if c["pass"]:
                passed += 1
            else:
                failed += 1
                counterexamples.append([p["d"], name, c["lhs"], c["rhs"]])
    summary = {
        "fields_checked": len(payloads),
        "skipped": skipped,
        "checks_passed": passed,
        "checks_failed": failed,
        "counterexamples": counterexamples,
    }
    return json.dumps({"reports": list(payloads), "summary": summary}, indent=2).encode()


def check_quad_small(items, payloads, seed):
    """Indices of payloads that disagree with the reference document, plus
    notes. A full pass must also reproduce the document byte for byte."""
    raw = load_quad_small_reference()
    ref = {r["d"]: r for r in json.loads(raw)["reports"]}
    bad = set(_raised(payloads))
    for k, (d, p) in enumerate(zip(items, payloads)):
        if k in bad:
            continue
        if p != ref.get(d):
            bad.add(k)
            continue
        gauss = p["checks"]["gauss_identity"]
        if gauss is not None and (not gauss["pass"]) != (d in GAUSS_FAILURES):
            bad.add(k)
    notes = []
    if len(payloads) == len(ref) and not bad:
        skipped = 10001 - len(ref)
        if sweep_document(payloads, skipped) != raw:
            notes.append("assembled sweep document differs from the reference bytes")
            bad.add(0)
        else:
            notes.append("sweep document matches the reference byte for byte")
    return sorted(bad), notes


# -- quad-large ----------------------------------------------------------------


def quad_large_inputs(seed: int) -> list:
    offset = random.Random(f"quad-large:{seed}").randrange(LARGE_OFFSETS)
    lo = LARGE_BASE + offset
    out = []
    for t in range(lo, lo + LARGE_WIDTH):
        if numfield.is_squarefree(t):
            out += [-t, t]
    return out


def _periodic(pattern: bytes, n: int) -> int:
    """Byte vector (one byte 0/1 per index) of length n repeating pattern."""
    return int.from_bytes((pattern * (n // len(pattern) + 1))[:n], "little")


_CHI2_MINUS = {1: (), -4: (3, 7), 8: (3, 5), -8: (5, 7)}


def dirichlet_class_number(d: int) -> int:
    """h(D) for d < -1 square-free by Dirichlet's formula
    h = (2 - chi(2))^-1 * sum_{0 < a < |D|/2} chi(a), valid for D < -4.

    chi = (D/.) splits into (./q) for each odd q | D and one character
    mod 8; each factor is a periodic byte vector, so the sum is a few
    big-integer XORs and popcounts. Shares no code with numfield.
    """
    D = d if d % 4 == 1 else 4 * d
    if D >= -4:
        raise ValueError(f"formula needs D < -4, got D = {D}")
    n = (1 - D) // 2
    zero = minus = 0
    odd_part = 1
    for q in factor_squarefree(d):
        if q == 2:
            continue
        odd_part *= q if q % 4 == 1 else -q
        residue = bytearray(q)
        for x in range(1, (q + 1) // 2):
            residue[x * x % q] = 1
        nonresidue = bytearray(1 - r for r in residue)
        nonresidue[0] = 0
        minus ^= _periodic(bytes(nonresidue), n)
        zero |= _periodic(b"\x01" + bytes(q - 1), n)
    two_part = D // odd_part
    if two_part != 1:
        zero |= _periodic(b"\x01\x00" * 4, n)
        minus ^= _periodic(bytes(r in _CHI2_MINUS[two_part] for r in range(8)), n)
    total = n - zero.bit_count() - 2 * (minus & ~zero).bit_count()
    chi2 = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    h, r = divmod(total, 2 - chi2)
    if r:
        raise ArithmeticError(f"Dirichlet sum {total} not divisible for D = {D}")
    return h


def quad_large_ok(d: int, p: dict) -> bool:
    """Checks that do not use the code under test."""
    if p.get("d") != d:
        return False
    for name in ("upper_nf", "lower_nf", "cor_lower"):
        if not p["checks"][name]["pass"]:
            return False
    if d < 0:
        return p["class_number"] == dirichlet_class_number(d)
    # value(d) = s - dim H^0(Cl) is 1 exactly when every odd prime divisor
    # of d is 1 mod 4
    value = p["s"] - p["dim_h0_cl"]
    want = 1 if all(q % 4 == 1 for q in factor_squarefree(d) if q != 2) else 2
    return value == want


def payload_digest(payloads) -> str:
    h = hashlib.sha256()
    for p in payloads:
        h.update(json.dumps(p, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_quad_large(items, payloads, seed: int):
    bad = set(_raised(payloads))
    for k, (d, p) in enumerate(zip(items, payloads)):
        if k not in bad and not quad_large_ok(d, p):
            bad.add(k)
    imaginary = sum(1 for d in items if d < 0)
    notes = [f"Dirichlet class number checked on {imaginary} imaginary fields"]
    with open(os.path.join(REFERENCE_DIR, "quad_large.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if seed == ref["seed"] and len(payloads) == ref["fields"]:
        if payload_digest(payloads) != ref["sha256"]:
            notes.append(f"digest for seed {seed} differs from the recorded one")
            bad.add(0)
        else:
            notes.append(f"digest for seed {seed} matches the recorded one")
    return sorted(bad), notes


# -- manifolds -----------------------------------------------------------------


def _lens_presentation(p):
    """Z/p with trivial action + the augmentation ideal (companion matrix)."""
    n = p - 1
    rel = [[p]] + [[0] for _ in range(n)]
    tau = [[0] * p for _ in range(p)]
    tau[0][0] = 1
    for j in range(n - 1):
        tau[1 + j + 1][1 + j] = 1
    for i in range(n):
        tau[1 + i][n] = -1
    return rel, tau


def _hempel_presentation(p, n):
    """Z^(n-1) with trivial action + Z + Z/p with (x, y) -> (x, x + y)."""
    m = n + 1
    rel = [[0] for _ in range(m)]
    rel[m - 1][0] = p
    tau = [[int(i == j) for j in range(m)] for i in range(m)]
    tau[m - 1][m - 2] = 1
    return rel, tau


def _change_basis(rel, tau, rng):
    """Apply a random unimodular U: relations -> U rel, tau -> U tau U^-1,
    as a product of row swaps and row additions mirrored on the columns
    of tau, so no matrix product is formed."""
    rel = [row[:] for row in rel]
    tau = [row[:] for row in tau]
    m = len(tau)
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        if rng.random() < 0.25:
            rel[i], rel[j] = rel[j], rel[i]
            tau[i], tau[j] = tau[j], tau[i]
            for row in tau:
                row[i], row[j] = row[j], row[i]
            continue
        c = rng.choice((-2, -1, 1, 2))
        rel[i] = [a + c * b for a, b in zip(rel[i], rel[j])]
        tau[i] = [a + c * b for a, b in zip(tau[i], tau[j])]
        for row in tau:
            row[j] -= c * row[i]
    return rel, tau


def manifold_inputs(seed: int) -> list:
    """(example key, basis index, p, relations, tau, metadata) per item."""
    items = []
    for p in MANIFOLD_PRIMES:
        cases = [(("lens", p), _lens_presentation(p),
                  dict(name=f"lens(p={p})", s=3, quotient_free_rank=0,
                       quotient_tor_p_trivial=True, splits=True))]
        for n in range(1, HEMPEL_N_MAX + 1):
            cases.append((("hempel", p, n), _hempel_presentation(p, n),
                          dict(name=f"hempel(p={p},n={n})", s=n, quotient_free_rank=n,
                               quotient_tor_p_trivial=True, splits=False)))
        for key, (rel, tau), meta in cases:
            rng = random.Random(f"manifolds:{seed}:{key}")
            for b in range(RANDOM_BASES + 1):
                r, t = (rel, tau) if b == 0 else _change_basis(rel, tau, rng)
                items.append((key, b, p,
                              intlinalg.IntMatrix.from_rows(r),
                              intlinalg.IntMatrix.from_rows(t), meta))
    return items


def manifold_item(item, traced):
    key, b, p, rel, tau, meta = item
    h1 = cpmod.new_cp_module(p, rel, tau)
    example = mfld.ManifoldExample(p=p, h1=h1, **meta)
    return example, mfld.run_all_checks(example)


def _canonical_example(key):
    if key[0] == "lens":
        return mfld.example_lens(key[1])
    return mfld.example_hempel(key[1], key[2])


def check_manifolds(items, outputs, seed):
    """Verdicts against mfld.expected_outcomes; Tate dims of H_1 equal
    across the bases of each example; canonical presentations equal to
    the ones mfld's constructors build."""
    bad = set()
    dims = {}
    for k, (item, out) in enumerate(zip(items, outputs)):
        key, b = item[0], item[1]
        if isinstance(out, Exception):
            bad.add(k)
            continue
        example, verdicts = out
        expected = mfld.expected_outcomes(example)
        for name, v in verdicts.items():
            met, outcome = expected[name]
            actual = v.passed if v.hypotheses_met else v.bare_holds
            if v.hypotheses_met != met or actual != outcome:
                bad.add(k)
        co = cpmod.tate(example.h1)
        dims.setdefault(key, {})[k] = (co.dim_h0, co.dim_h1)
        if b == 0:
            # CpModule equality ignores the relations, so compare them too
            ref = _canonical_example(key)
            if (replace(ref, h1=example.h1) != example
                    or ref.h1.group.relations != example.h1.group.relations):
                bad.add(k)
    for per_basis in dims.values():
        if len(set(per_basis.values())) > 1:
            bad.update(per_basis)
    return sorted(bad), [f"Tate dims compared across bases of {len(dims)} examples"]


# -- registry --------------------------------------------------------------------


class Workload(NamedTuple):
    inputs: Callable      # seed -> list of items
    item: Callable        # (item, traced) -> output
    check: Callable       # (items, outputs, seed) -> (bad indices, notes)


WORKLOADS = {
    "quad-small": Workload(quad_small_inputs, quad_item, check_quad_small),
    "quad-large": Workload(quad_large_inputs, quad_item, check_quad_large),
    "manifolds": Workload(manifold_inputs, manifold_item, check_manifolds),
}
