"""Outside-in tracing of cptate's layers.

The tracer wraps public functions of intlinalg, cpmod, numfield and mfld
from outside the program: every binding of a traced function in a
cptate.* namespace (module attributes, and module-level dicts such as
mfld.CHECKS) is replaced by a wrapper that records a span. Spans stay in
memory as (name, parent, start, end) arrays and are written out when the
run ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

TRACED = {
    "intlinalg": ("snf", "cokernel", "induced_subquotient", "lattice_basis"),
    "cpmod": ("new_cp_module", "tate", "fixed_points", "tor_module",
              "free_module", "classify_free"),
    "numfield": ("class_number", "fundamental_unit", "class_group", "unit_module",
                 "check_upper_nf", "check_lower_nf", "gauss_identity",
                 "check_cor_lower_nf", "field_report"),
    "mfld": ("run_all_checks", "check_upperT", "check_upper1", "check_lower1",
             "check_reznikov", "check_cor_lower_mfld"),
}
SNF_BUCKETS = ((4, "le4"), (16, "le16"), (64, "le64"), (None, "gt64"))
ITEM = "item"
_MARK = "__perfbench_traced__"


def _snf_bucket(args):
    size = args[0].rows * args[0].cols
    for limit, label in SNF_BUCKETS:
        if limit is None or size <= limit:
            return f"intlinalg.snf.size-{label}"


def _sign_label(args):
    return "numfield.class_number.neg" if args[0] < 0 else "numfield.class_number.pos"


class Tracer:
    def __init__(self):
        self.labels = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._current = [-1]
        self.validations = 0

    def _id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(self, label, fn):
        """fn with every call recorded as a span named label."""
        return self._wrap(fn, lambda _args, nid=self._id(label): nid)

    def _wrap(self, fn, name_of):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        current = self._current
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(name_of(args))
            parent.append(current[0])
            end.append(0.0)
            current[0] = i
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                current[0] = parent[i]

        setattr(traced, _MARK, True)
        return traced

    def install(self):
        """Wrap every traced function in every cptate namespace that binds
        it, and count IntMatrix validations."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cptate" or n.startswith("cptate."))]
        for mod_name, fns in TRACED.items():
            mod = sys.modules[f"cptate.{mod_name}"]
            for fn_name in fns:
                orig = getattr(mod, fn_name, None)
                if orig is None:
                    continue
                label = f"{mod_name}.{fn_name}"
                if label == "intlinalg.snf":
                    wrapper = self._wrap(orig, lambda a: self._id(_snf_bucket(a)))
                elif label == "numfield.class_number":
                    wrapper = self._wrap(orig, lambda a: self._id(_sign_label(a)))
                else:
                    wrapper = self.wrap(label, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    value[k] = wrapper
        self._count_validations(sys.modules["cptate.intlinalg"].IntMatrix)

    def _count_validations(self, cls):
        orig = cls.__dict__.get("__post_init__")
        if orig is None:
            return
        tracer = self

        def counted(obj):
            tracer.validations += 1
            return orig(obj)

        setattr(counted, _MARK, True)
        cls.__post_init__ = counted

    def self_times(self):
        """{label: (calls, self seconds)} from the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        for i in range(n):
            label = self.labels[self.name[i]]
            calls, secs = out.get(label, (0, 0.0))
            out[label] = (calls + 1, secs + (end[i] - start[i]) - child[i])
        return out

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"labels": self.labels, "count": len(self.start),
                  "arrays": [["name", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read_spans(path):
    """Inverse of Tracer.write: (labels, [(name, parent, start, end), ...])."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            cols.append(arr)
    return header["labels"], list(zip(*cols))


def wrapped_names():
    """Bindings in cptate namespaces that are tracer wrappers; empty in an
    untraced process."""
    found = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == "cptate" or n.startswith("cptate.")):
            continue
        for attr, value in vars(m).items():
            values = value.values() if isinstance(value, dict) else (value,)
            if any(getattr(v, _MARK, False) for v in values):
                found.append(f"{n}.{attr}")
    intmatrix = sys.modules["cptate.intlinalg"].IntMatrix
    if getattr(intmatrix.__dict__.get("__post_init__"), _MARK, False):
        found.append("cptate.intlinalg.IntMatrix.__post_init__")
    return found


def layer_metrics(tracer, items):
    """Per-item calls and self milliseconds for every traced function."""
    stats = tracer.self_times()
    metrics = {}

    def put(labels):
        calls = sum(stats.get(lb, (0, 0.0))[0] for lb in labels)
        secs = sum(stats.get(lb, (0, 0.0))[1] for lb in labels)
        return calls / items, secs * 1e3 / items

    for mod_name, fns in TRACED.items():
        for fn_name in fns:
            stem = f"{mod_name}.{fn_name}"
            if stem == "intlinalg.snf":
                labels = [f"intlinalg.snf.size-{b}" for _, b in SNF_BUCKETS]
            elif stem == "numfield.class_number":
                labels = ["numfield.class_number.neg", "numfield.class_number.pos"]
            else:
                labels = [stem]
            calls, ms = put(labels)
            metrics[f"{stem}.calls"] = (calls, "calls/item")
            metrics[f"{stem}.self_ms"] = (ms, "ms/item")
    for _, b in SNF_BUCKETS:
        calls, ms = put([f"intlinalg.snf.size-{b}"])
        metrics[f"intlinalg.snf.calls.size-{b}"] = (calls, "calls/item")
        metrics[f"intlinalg.snf.self_ms.size-{b}"] = (ms, "ms/item")
    for sign in ("neg", "pos"):
        _, ms = put([f"numfield.class_number.{sign}"])
        metrics[f"numfield.class_number.self_ms.{sign}"] = (ms, "ms/item")
    metrics["intlinalg.IntMatrix.validations"] = (tracer.validations / items, "calls/item")
    return metrics
