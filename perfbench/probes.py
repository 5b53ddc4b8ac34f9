"""Layer probes for the traced run: profile groups, counting wrappers, spans.

Everything here is applied from outside the library.  A probe names its
target as "module:qualname"; wrappers are installed by rebinding that
attribute on its owner and on every other loaded qdisk module that holds
the same object, so calls through `from .x import f` bindings are seen too.
A target that no longer resolves (a private helper renamed or moved) makes
the metrics built on it absent instead of crashing the run.

`profile_summary`, `Spans` and `Counters` run inside a worker
process; `merge` and `layer_metrics` run in the harness and turn the child
reports into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pstats
import statistics
import time

MODULES = ("qfield", "zalgebra", "qfunc", "haar", "diskpoly", "tensor", "uqaction", "cli")


def resolve(target: str):
    """(owner, attribute name, value) for "module:Qual.name", or None."""
    mod_name, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


def _code_of(obj):
    """The code object cProfile keys a function by, behind any wrapper."""
    obj = inspect.unwrap(getattr(obj, "__func__", obj))  # staticmethod, span wrapper
    return getattr(obj, "__code__", None)


def _class_functions(cls) -> list:
    return [c for c in (_code_of(v) for v in vars(cls).values()) if c is not None]


def rebind(target: str, make_wrapper) -> bool:
    """Replace target everywhere qdisk holds it; False when it is missing."""
    found = resolve(target)
    if found is None:
        return False
    owner, attr, orig = found
    wrapper = make_wrapper(orig)
    holders = [owner] if isinstance(owner, type) else []
    holders += [importlib.import_module(f"qdisk.{m}") for m in MODULES]
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, name, wrapper)
    return True


# ----------------------------------------------------------------------
# cProfile groups: call counts, self time and outermost cumulative time

PROFILE_GROUPS = {
    "gcd": ["qdisk.qfield:poly_gcd"],
    "poly_mul": ["qdisk.qfield:poly_mul"],
    "divexact": ["qdisk.qfield:poly_divexact"],
    "qrat_add": ["qdisk.qfield:QRat.__add__"],
    "qrat_sub": ["qdisk.qfield:QRat.__sub__"],
    "qrat_mul": ["qdisk.qfield:QRat.__mul__"],
    "qrat": ["qdisk.qfield:QRat.*"],
    "solve_linear": ["qdisk.qfield:solve_linear"],
    "mono_mul": ["qdisk.zalgebra:_mono_mul"],
    "zmul": ["qdisk.zalgebra:ZElement.__mul__"],
    "jacobi": ["qdisk.qfunc:little_q_jacobi"],
    "disk_poly": ["qdisk.diskpoly:disk_poly"],
    "inner": ["qdisk.haar:inner"],
    "pair_haar": ["qdisk.haar:_pair_haar"],
    "haar_monomial": ["qdisk.haar:haar_monomial"],
    "tmul": ["qdisk.tensor:TensorElement.__mul__"],
    "act_ef": ["qdisk.uqaction:act_e", "qdisk.uqaction:act_f"],
    "invariant_subspace": ["qdisk.uqaction:invariant_subspace"],
    "parse": ["qdisk.cli:parse"],
    "format": ["qdisk.cli:format_element", "qdisk.cli:format_qrat",
               "qdisk.qfield:QRat.__str__", "qdisk.cli:_verdict_line"],
}


def _group_codes(targets: list):
    codes = []
    for target in targets:
        if target.endswith(".*"):
            found = resolve(target[:-2])
            if found is None or not isinstance(found[2], type):
                return None
            codes += _class_functions(found[2])
            continue
        found = resolve(target)
        code = _code_of(found[2]) if found else None
        if code is None:
            return None
        codes.append(code)
    return codes


def profile_summary(profiler) -> dict:
    """Per group: calls, self seconds, and cumulative seconds counted once
    (calls made from inside the group itself are not added again)."""
    stats = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in stats.values())
    groups, absent = {}, []
    for name, targets in PROFILE_GROUPS.items():
        codes = _group_codes(targets)
        if codes is None:
            absent.append(name)
            continue
        keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}
        calls, self_s, cum = 0, 0.0, 0.0
        for key in keys & stats.keys():
            _, nc, tt, ct, callers = stats[key]
            calls += nc
            self_s += tt
            cum += sum(v[3] for k, v in callers.items() if k not in keys) if callers else ct
        groups[name] = {"calls": calls, "self": self_s, "cum": cum}
    return {"total": total, "groups": groups, "absent": absent}


# ----------------------------------------------------------------------
# spans at the public layer boundaries

SPAN_TARGETS = [
    "qdisk.tensor:verify_addition", "qdisk.tensor:addition_lhs", "qdisk.tensor:addition_rhs",
    "qdisk.haar:inner", "qdisk.haar:norm_const",
    "qdisk.diskpoly:spherical", "qdisk.diskpoly:assoc_spherical", "qdisk.diskpoly:disk_poly",
    "qdisk.uqaction:invariant_subspace", "qdisk.uqaction:is_invariant",
    "qdisk.qfield:solve_linear", "qdisk.cli:main",
]


class Spans:
    """In-memory spans [id, parent, name, start, end]; one open stack."""

    def __init__(self):
        self.records = []
        self._stack = []

    def open(self, name: str) -> list:
        rec = [len(self.records), self._stack[-1][0] if self._stack else None,
               name, time.perf_counter(), None]
        self.records.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield
        finally:
            self.close(rec)

    def install(self, counters: dict) -> list:
        """Wrap each public layer call in a span; returns the inputs made absent.

        The verify_addition wrapper also adds the verdict's term counts to
        counters."""
        missing = []
        for target in SPAN_TARGETS:
            name = target.replace("qdisk.", "").replace(":", ".")

            def make(orig, name=name):
                @functools.wraps(orig)
                def wrapper(*args, **kwargs):
                    rec = self.open(name)
                    try:
                        result = orig(*args, **kwargs)
                    finally:
                        self.close(rec)
                    if name == "tensor.verify_addition":
                        counters["lhs_terms"] += result.lhs_terms
                        counters["rhs_terms"] += result.rhs_terms
                    return result
                return wrapper

            if not rebind(target, make):
                missing.append(f"span:{name}")
            elif name == "tensor.verify_addition":
                counters.update(lhs_terms=0, rhs_terms=0)
        return missing


def span_seconds(records: list) -> dict:
    """Total and self seconds per span name (self = span minus its children)."""
    child_time = {}
    for rid, parent, name, start, end in records:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for rid, parent, name, start, end in records:
        total, self_s = out.get(name, (0.0, 0.0))
        out[name] = (total + end - start, self_s + end - start - child_time.get(rid, 0.0))
    return out


# ----------------------------------------------------------------------
# counting wrappers for the ratio and size metrics

# private memo tables: their sizes give memo entries and miss ratios
MEMO_TABLES = {
    "mono": "qdisk.zalgebra:_MONO_CACHE",
    "pull": "qdisk.zalgebra:_PULL_CACHE",
    "wz": "qdisk.zalgebra:_WZ_CACHE",
    "pair": "qdisk.haar:_PAIR_HAAR_CACHE",
}


def _is_laurent(x) -> bool:
    den = getattr(x, "den", (1,))
    return den[-1] == 1 and not any(den[:-1])


def _is_zero(x) -> bool:
    return not (x.num if hasattr(x, "num") else x)


class Counters:
    """Counting wrappers for the ratio and size metrics.

    Counts are taken only inside `timed()`, so the untimed result checks
    (which call the same library code) do not add to them."""

    def __init__(self):
        self.values = {}
        self.on = False

    @contextlib.contextmanager
    def timed(self):
        """Count inside this block; memo growth inside it gives the misses."""
        before = memo_sizes()
        self.on = True
        try:
            yield
        finally:
            self.on = False
            for table, size in memo_sizes().items():
                key = f"memo_new_{table}"
                self.values[key] = self.values.get(key, 0) + size - before.get(table, 0)
                self.values[f"memo_{table}"] = size

    def install(self) -> list:
        """Install the wrappers; returns the inputs made absent."""
        c = self.values

        def counting(key):
            def make(orig):
                @functools.wraps(orig)
                def wrapper(*args, **kwargs):
                    if self.on:
                        c[key] += 1
                    return orig(*args, **kwargs)
                return wrapper
            return make

        def gcd(orig):
            @functools.wraps(orig)
            def wrapper(a, b):
                g = orig(a, b)
                if self.on:
                    c["gcd_calls"] += 1
                    if g and g[-1] == 1 and not any(g[:-1]):
                        c["gcd_trivial"] += 1
                return g
            return wrapper

        def sized(orig):
            @functools.wraps(orig)
            def wrapper(a, b):
                if self.on:
                    c["poly_max_len"] = max(c["poly_max_len"], len(a), len(b))
                    bits = max((abs(x).bit_length() for x in a + b), default=0)
                    c["poly_max_bits"] = max(c["poly_max_bits"], bits)
                return orig(a, b)
            return wrapper

        def qrat_op(orig):
            @functools.wraps(orig)
            def wrapper(x, y):
                if self.on:
                    c["qrat_ops"] += 1
                    if _is_laurent(x) and _is_laurent(y):
                        c["qrat_laurent"] += 1
                    if _is_zero(x) or _is_zero(y):
                        c["qrat_zero"] += 1
                return orig(x, y)
            return wrapper

        def cells(orig):
            @functools.wraps(orig)
            def wrapper(matrix, rhs):
                if self.on:
                    c["solve_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
                return orig(matrix, rhs)
            return wrapper

        plan = [
            ("qdisk.qfield:poly_gcd", gcd, ["gcd_calls", "gcd_trivial"]),
            ("qdisk.qfield:poly_mul", sized, ["poly_max_len", "poly_max_bits"]),
            ("qdisk.qfield:poly_divexact", sized, ["poly_max_len", "poly_max_bits"]),
            ("qdisk.qfield:solve_linear", cells, ["solve_cells"]),
            ("qdisk.zalgebra:_mono_mul", counting("mono_calls"), ["mono_calls"]),
            ("qdisk.haar:_pair_haar", counting("pair_calls"), ["pair_calls"]),
        ]
        # __radd__ and __rmul__ are the same objects and get rebound with them
        for op in ("__add__", "__sub__", "__mul__"):
            plan.append((f"qdisk.qfield:QRat.{op}", qrat_op,
                         ["qrat_ops", "qrat_laurent", "qrat_zero"]))
        absent = [f"memo:{t}" for t in MEMO_TABLES if t not in memo_sizes()]
        for target, make, keys in plan:
            if rebind(target, make):
                c.update(dict.fromkeys(keys, 0))
            else:
                absent += [f"counter:{k}" for k in keys]
        return absent


def memo_sizes() -> dict:
    sizes = {}
    for name, target in MEMO_TABLES.items():
        found = resolve(target)
        if found is not None and isinstance(found[2], dict):
            sizes[name] = len(found[2])
    return sizes


# ----------------------------------------------------------------------
# harness side: per-layer metrics from the merged child reports


def merge(profiled: dict, counted: dict) -> dict:
    """The profile of one traced child with the counters of both, and the
    probe inputs either could not find ("span:<name>", "counter:<key>")."""
    return {"total": profiled["profile"]["total"], "groups": profiled["profile"]["groups"],
            "counters": {**profiled["counters"], **counted["counters"]},
            "absent": set(profiled["absent"]) | set(counted["absent"])}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(units: dict, merged: dict, spans: list, import_s: list,
                  traced_s: float, untraced_s: float) -> tuple:
    """(metrics, absent names) for the per-layer metrics named in units."""
    g, c, total = merged["groups"], merged["counters"], merged["total"]
    sp = span_seconds(spans)
    for name in merged["absent"]:
        if name.startswith("span:"):
            sp[name[5:]] = None  # a lookup of it below marks the metric absent
    pass_s = sum(v[0] for k, v in sp.items() if k.startswith("pass."))

    def calls(name):
        return g[name]["calls"]

    def cum(name):
        return _ratio(g[name]["cum"], total)

    def self_share(name):
        return _ratio(g[name]["self"], total)

    def span(name, which):
        if sp.get(name, ()) is None:
            raise KeyError(name)
        return _ratio(sp.get(name, (0.0, 0.0))[which], pass_s)

    values = {
        "qfield.poly_gcd.calls": lambda: calls("gcd"),
        "qfield.poly_gcd.cum_share": lambda: cum("gcd"),
        "qfield.poly_gcd.trivial_ratio": lambda: _ratio(c["gcd_trivial"], c["gcd_calls"]),
        "qfield.poly_mul.calls": lambda: calls("poly_mul"),
        "qfield.poly_mul.self_share": lambda: self_share("poly_mul"),
        "qfield.poly_divexact.calls": lambda: calls("divexact"),
        "qfield.poly_divexact.self_share": lambda: self_share("divexact"),
        "qfield.poly.max_len": lambda: c["poly_max_len"],
        "qfield.poly.max_bits": lambda: c["poly_max_bits"],
        "qfield.QRat.add.calls": lambda: calls("qrat_add"),
        "qfield.QRat.mul.calls": lambda: calls("qrat_mul"),
        "qfield.QRat.sub.calls": lambda: calls("qrat_sub"),
        "qfield.QRat.cum_share": lambda: cum("qrat"),
        "qfield.QRat.laurent_ratio": lambda: _ratio(c["qrat_laurent"], c["qrat_ops"]),
        "qfield.QRat.zero_operand_ratio": lambda: _ratio(c["qrat_zero"], c["qrat_ops"]),
        "qfield.solve_linear.cum_share": lambda: cum("solve_linear"),
        "qfield.solve_linear.cells": lambda: c["solve_cells"],
        "zalgebra.mono_mul.calls": lambda: calls("mono_mul"),
        "zalgebra.mono_mul.miss_ratio": lambda: _ratio(c["memo_new_mono"], c["mono_calls"]),
        "zalgebra.memo.entries": lambda: c["memo_mono"] + c["memo_pull"] + c["memo_wz"],
        "zalgebra.ZElement.mul.calls": lambda: calls("zmul"),
        "zalgebra.ZElement.mul.cum_share": lambda: cum("zmul"),
        "qfunc.little_q_jacobi.calls": lambda: calls("jacobi"),
        "qfunc.little_q_jacobi.cum_share": lambda: cum("jacobi"),
        "diskpoly.disk_poly.calls": lambda: calls("disk_poly"),
        "diskpoly.disk_poly.cum_share": lambda: cum("disk_poly"),
        "haar.inner.cum_share": lambda: cum("inner"),
        "haar.pair_haar.calls": lambda: calls("pair_haar"),
        "haar.pair_haar.miss_ratio": lambda: _ratio(c["memo_new_pair"], c["pair_calls"]),
        "haar.haar_monomial.calls": lambda: calls("haar_monomial"),
        "tensor.lhs_share": lambda: span("tensor.addition_lhs", 0),
        "tensor.rhs_share": lambda: span("tensor.addition_rhs", 0),
        "tensor.diff_share": lambda: span("tensor.verify_addition", 1),
        "tensor.lhs_terms": lambda: c["lhs_terms"],
        "tensor.rhs_terms": lambda: c["rhs_terms"],
        "tensor.TensorElement.mul.cum_share": lambda: cum("tmul"),
        "uqaction.act_ef.calls": lambda: calls("act_ef"),
        "uqaction.invariant_subspace.cum_share": lambda: cum("invariant_subspace"),
        "cli.import_s": lambda: statistics.median(import_s),
        "cli.parse_share": lambda: cum("parse"),
        "cli.format_share": lambda: cum("format"),
        "trace.overhead_ratio": lambda: _ratio(traced_s, untraced_s),
    }
    metrics, absent = {}, []
    for name, unit in units.items():
        try:
            metrics[name] = {"value": values[name](), "unit": unit}
        except KeyError:  # a probe input whose target this commit does not have
            absent.append(name)
    return metrics, absent
