"""Spans and counters recorded around the library's public names.

``Tracer.install`` replaces each traced function in every ``mosaichash``
module that binds it (``verify.classify``, ``designs.classify`` and
``cli.classify`` are one function bound three times), and the traced
methods on their classes.  Spans record name, start, end, parent span
and op id and stay in memory until ``layer_metrics`` reads them.  Hot
functions (``Field`` arithmetic, ``HashFamily.evaluate``) get counters
only.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time

FIELD_OPS = ("add", "sub", "neg", "mul", "coeffs", "index")
CONSTRUCTIONS = ("seed_extension", "point_extension", "concatenate",
                 "double_extension", "krawczyk_lift", "balanced_epsilon")
SPANNED = {
    "fields": ("field_new",),
    "verify": ("classify", "regularity_check", "min_epsilon"),
    "designs": ("mosaic_from_function", "analyze_structure", "sum_mosaic",
                "find_resolution", "is_isomorphic", "check_structure_theorems"),
    "construct": CONSTRUCTIONS,
    "privacy": ("pa_joint", "security_distance", "renyi2_conditional",
                "iid_extend", "run_pa"),
}

# span record fields
NAME, START, END, PARENT, OP, STATUS, EXTRA = range(7)

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "fields.field_new.calls": "count", "fields.field_new.s": "s", "fields.ops.calls": "count",
    "families.to_table.calls": "count", "families.to_table.s": "s",
    "families.to_table.entries": "count", "families.to_table.unique_ratio": "ratio",
    "families.evaluate.calls": "count", "families.json.s": "s", "families.json.bytes": "B",
    "verify.classify.calls": "count", "verify.classify.s": "s",
    "verify.regularity_check.calls": "count", "verify.regularity_check.self_s": "s",
    "verify.min_epsilon.AU.self_s": "s", "verify.min_epsilon.ACFU.self_s": "s",
    "verify.min_epsilon.ASU.self_s": "s", "verify.min_epsilon.BALANCED.self_s": "s",
    "verify.min_epsilon.pairs": "count",
    "designs.mosaic_from_function.s": "s", "designs.analyze_structure.calls": "count",
    "designs.analyze_structure.s": "s", "designs.sum_mosaic.s": "s",
    "designs.find_resolution.calls": "count", "designs.find_resolution.s": "s",
    "designs.find_resolution.failed": "count", "designs.is_isomorphic.calls": "count",
    "designs.is_isomorphic.s": "s", "designs.is_isomorphic.deadline": "count",
    "designs.check_structure_theorems.self_s": "s",
    "construct.build.s": "s", "construct.to_table.s": "s",
    "privacy.pa_joint.s": "s", "privacy.security_distance.s": "s",
    "privacy.renyi2_conditional.s": "s", "privacy.iid_extend.s": "s",
    "privacy.run_pa.self_s": "s", "privacy.joint_cells": "count",
    "cli.import_s": "s",
    **{f"cli.main.{cmd}.s": "s" for cmd in ("family", "verify", "design", "construct", "pa")},
    "cli.overhead_s": "s",
    **{f"cli.exit.{code}": "count" for code in ("0", "1", "2", "other")},
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.field_ops = [0]
        self.evaluations = [0]
        self.constructed = {}  # id -> family built by a construction (kept alive)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, "ok", None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name (used for ``cli.main``)."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[STATUS] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _spanned(self, name, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name(args, kwargs) if callable(name) else name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                rec[STATUS] = type(exc).__name__
                raise
            finally:
                tracer._close(rec)
                if extra is not None:
                    rec[EXTRA] = extra(args, kwargs, out)

        return wrapper

    @staticmethod
    def _counted(cell, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "mosaichash" or name.startswith("mosaichash."))]

    def _rebind(self, orig, new):
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        self._undo.append((cls, attr, raw))

    def install(self):
        import mosaichash
        from mosaichash import families, fields

        for cell, cls, attrs in ((self.field_ops, fields.Field, FIELD_OPS),
                                 (self.evaluations, families.HashFamily, ("evaluate",))):
            for attr in attrs:
                self._patch_method(cls, attr, functools.partial(self._counted, cell))

        def table_extra(args, kwargs, out):
            f = args[0]
            return {"entries": f.x_size * f.s_size, "family": f}

        self._patch_method(families.HashFamily, "to_table",
                           lambda fn: self._spanned("families.to_table", fn, table_extra))
        self._patch_method(families.FunctionTable, "to_json",
                           lambda fn: self._spanned("families.json", fn,
                                                    lambda a, k, out: {"bytes": len(out or "")}))
        self._patch_method(families.FunctionTable, "from_json",
                           lambda fn: self._spanned("families.json", fn,
                                                    lambda a, k, out: {"bytes": len(a[1])}))

        def epsilon_name(args, kwargs):
            return "verify.min_epsilon." + str(args[1] if len(args) > 1 else kwargs["hash_class"])

        def pairs(args, kwargs, out):
            n = args[0].x_size
            return {"pairs": n * (n - 1) // 2}

        def cells(args, kwargs, out):
            src, f = args[0], args[1]
            return {"cells": src.z_size * f.s_size * f.a_size}

        def remember(args, kwargs, out):
            fam = out[0] if isinstance(out, tuple) else out
            if fam is not None and hasattr(fam, "to_table"):
                self.constructed[id(fam)] = fam
            return None

        extras = {"min_epsilon": pairs, "pa_joint": cells,
                  **{name: remember for name in CONSTRUCTIONS if name != "balanced_epsilon"}}
        for module, names in SPANNED.items():
            mod = getattr(mosaichash, module)
            for name in names:
                orig = getattr(mod, name)
                span_name = epsilon_name if name == "min_epsilon" else f"{module}.{name}"
                self._rebind(orig, self._spanned(span_name, orig, extras.get(name)))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def counters(self):
        return {"fields.ops.calls": self.field_ops[0],
                "families.evaluate.calls": self.evaluations[0]}

    def layer_metrics(self, ops, counters_before, counters_after):
        """Per-layer totals over spans of the given op ids.

        ``fields.field_new`` also counts set-up spans, where fields are built.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]

        def outermost(i):
            name, p = spans[i][NAME], spans[i][PARENT]
            while p >= 0:
                if spans[p][NAME] == name:
                    return False
                p = spans[p][PARENT]
            return True

        agg = {}
        for i, rec in enumerate(spans):
            if rec[OP] not in ops and rec[NAME] != "fields.field_new":
                continue
            a = agg.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0,
                                           "deadline": 0, "recs": []})
            dur = rec[END] - rec[START]
            a["calls"] += 1
            a["self_s"] += dur - child[i]
            if outermost(i):
                a["s"] += dur
            if rec[STATUS] != "ok":
                a["raised"] += 1
            if rec[STATUS] == "OpDeadline":
                a["deadline"] += 1
            a["recs"].append(rec)

        def get(name, key):
            return agg.get(name, {}).get(key, 0)

        tables = agg.get("families.to_table", {}).get("recs", [])
        m = {
            "fields.field_new.calls": get("fields.field_new", "calls"),
            "fields.field_new.s": get("fields.field_new", "s"),
            "families.to_table.calls": len(tables),
            "families.to_table.s": get("families.to_table", "s"),
            "families.to_table.entries": sum(r[EXTRA]["entries"] for r in tables if r[EXTRA]),
            "families.to_table.unique_ratio":
                len({id(r[EXTRA]["family"]) for r in tables if r[EXTRA]}) / len(tables)
                if tables else 0.0,
            "families.json.s": get("families.json", "s"),
            "families.json.bytes": sum(r[EXTRA]["bytes"] for r in
                                       agg.get("families.json", {}).get("recs", []) if r[EXTRA]),
            "verify.classify.calls": get("verify.classify", "calls"),
            "verify.classify.s": get("verify.classify", "s"),
            "verify.regularity_check.calls": get("verify.regularity_check", "calls"),
            "verify.regularity_check.self_s": get("verify.regularity_check", "self_s"),
        }
        for cls in ("AU", "ACFU", "ASU", "BALANCED"):
            m[f"verify.min_epsilon.{cls}.self_s"] = get(f"verify.min_epsilon.{cls}", "self_s")
        m["verify.min_epsilon.pairs"] = sum(
            r[EXTRA]["pairs"] for name, a in agg.items()
            if name.startswith("verify.min_epsilon.") for r in a["recs"] if r[EXTRA])
        m.update({
            "designs.mosaic_from_function.s": get("designs.mosaic_from_function", "s"),
            "designs.analyze_structure.calls": get("designs.analyze_structure", "calls"),
            "designs.analyze_structure.s": get("designs.analyze_structure", "s"),
            "designs.sum_mosaic.s": get("designs.sum_mosaic", "s"),
            "designs.find_resolution.calls": get("designs.find_resolution", "calls"),
            "designs.find_resolution.s": get("designs.find_resolution", "s"),
            "designs.find_resolution.failed": get("designs.find_resolution", "raised"),
            "designs.is_isomorphic.calls": get("designs.is_isomorphic", "calls"),
            "designs.is_isomorphic.s": get("designs.is_isomorphic", "s"),
            "designs.is_isomorphic.deadline": get("designs.is_isomorphic", "deadline"),
            "designs.check_structure_theorems.self_s":
                get("designs.check_structure_theorems", "self_s"),
            "construct.build.s": sum(get(f"construct.{n}", "self_s") for n in CONSTRUCTIONS),
            "construct.to_table.s": sum(r[END] - r[START] for r in tables
                                        if r[EXTRA] and id(r[EXTRA]["family"]) in self.constructed),
            "privacy.pa_joint.s": get("privacy.pa_joint", "s"),
            "privacy.security_distance.s": get("privacy.security_distance", "s"),
            "privacy.renyi2_conditional.s": get("privacy.renyi2_conditional", "s"),
            "privacy.iid_extend.s": get("privacy.iid_extend", "s"),
            "privacy.run_pa.self_s": get("privacy.run_pa", "self_s"),
            "privacy.joint_cells": sum(r[EXTRA]["cells"] for r in
                                       agg.get("privacy.pa_joint", {}).get("recs", []) if r[EXTRA]),
        })
        for name in PER_LAYER:
            if name.startswith("cli.main."):
                m[name] = get(name[:-2], "s")
        for key in counters_after:
            m[key] = counters_after[key] - counters_before[key]
        return m

    def dump(self):
        """Spans as plain records, for writing out when the run ends."""
        return [{"name": r[NAME], "start": r[START], "end": r[END], "parent": r[PARENT],
                 "op": r[OP], "status": r[STATUS]} for r in self.spans]
