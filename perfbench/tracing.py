"""Spans and counters for the benchmark's traced run.

The tracer wraps the library's entry points from outside: it replaces each
function or method by a wrapper at the place where callers look it up
(class attributes for methods; every module namespace that imported a
function by name).  Calls that happen thousands of times per job are only
aggregated per (name, parent name); module-entry spans and job spans are
also kept individually, so memory stays bounded.

A span's self time is its duration minus the time covered by its traced
children.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        # frame: [name, seconds covered by traced children, recorded span id]
        self._stack = [["", 0.0, -1]]
        self.agg = {}        # (name, parent name) -> [calls, total s, self s]
        self.spans = []      # (name, start, end, parent span id)
        self.counts = Counter()
        self.maxima = Counter()
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, record=False, after=None, label=None):
        """Wrap fn in a span; after(args, result) runs on normal return.

        A recorded span is kept under label (default: name)."""
        stack, agg, spans, clock = self._stack, self.agg, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[2]
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                key = (name, parent[0])
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += d
                a[2] += d - frame[1]
                if record:
                    spans[sid] = (label or name, t0, t1, parent[2])
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        """Wrap fn so that it only counts its calls (no span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def job(self, label, fn):
        """Run fn inside a recorded top-level span for one benchmark job."""
        return self.span("job", fn, record=True, label="job " + label)()

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Patch the seven plorder modules; undo with unpatch()."""
        from plorder import cli, exactnum, plante, plgroup, preorders, realize, symsets

        def plmap_stats(args, result):
            m = self.maxima
            nb = len(result.breakpoints)
            if nb > m["plgroup.max_breakpoints"]:
                m["plgroup.max_breakpoints"] = nb
            bits = max(x.denominator.bit_length()
                       for part in (result.breakpoints, result.slopes, result.offsets)
                       for x in part)
            if bits > m["plgroup.max_den_bits"]:
                m["plgroup.max_den_bits"] = bits

        def ball_kept(args, result):
            self.counts["plgroup.ball.kept"] += len(result) - 1

        def frame_cosets(args, result):
            self.counts["realize.build_frame.cosets"] += len(result)

        PLMap, Orbit = plgroup.PLMap, realize.OrbitFrame
        spans = [
            # (name, [(owner, attr), ...], record, after)
            ("plgroup.mul", [(PLMap, "__mul__")], False, plmap_stats),
            ("plgroup.inverse", [(PLMap, "inverse")], False, None),
            ("plgroup.eval", [(PLMap, "__call__")], False, None),
            ("plgroup.pow", [(PLMap, "__pow__")], False, None),
            ("plgroup.ball", [(plgroup, "ball"), (realize, "ball"), (cli, "ball")],
             True, ball_kept),
            ("exactnum.decompose", [(exactnum.SlopeGroup, "decompose")], False, None),
            ("preorders.sign.jump", [(preorders.JumpEngine, "sign")], False, None),
            ("preorders.sign.escaping", [(preorders.EscapingEngine, "sign")], False, None),
            ("preorders.sign.restriction", [(preorders.RestrictionEngine, "sign")],
             False, None),
            ("preorders.sign.prime", [(preorders.PrimeJumpEngine, "sign")], False, None),
            ("preorders.xg", [(preorders, "xg")], False, None),
            ("preorders.axioms_report",
             [(preorders, "axioms_report"), (cli, "axioms_report")], True, None),
            ("realize.build_frame", [(realize, "build_frame"), (cli, "build_frame")],
             True, frame_cosets),
            ("realize.locate", [(Orbit, "locate")], False, None),
            ("realize.cmp", [(Orbit, "cmp_elements")], False, None),
            ("realize.classify_empirical",
             [(realize, "classify_empirical"), (cli, "classify_empirical")], True, None),
            ("realize.induced_map", [(realize, "induced_map"), (cli, "induced_map")],
             True, None),
            ("plante.mul", [(plante.WreathElement, "__mul__")], False, None),
            ("plante.sign", [(plante.PlanteEngine, "sign")], False, None),
            ("plante.cross_free",
             [(plante, "cset_family_cross_free"), (cli, "cset_family_cross_free")],
             True, None),
            ("symsets.image", [(symsets.TailSet, "image")], False, None),
            ("symsets.compare", [(symsets, "_compare")], False, None),
            ("cli.main", [(cli, "main")], True, None),
            ("cli.parse", [(cli, "parse_engine"), (cli, "parse_word"),
                           (cli, "parse_wreath_word")], True, None),
            ("cli.emit", [(cli, "_emit_csv")], True, None),
        ]
        for name, sites, record, after in spans:
            for owner, attr in sites:
                self.patch(owner, attr,
                           self.span(name, owner.__dict__[attr], record, after))
        for name, owner, attr in [("plgroup.init", PLMap, "__init__"),
                                  ("exactnum.sign_of", exactnum.LatticePreorder, "sign_of"),
                                  ("plante.relation", plante.CSet, "relation")]:
            self.patch(owner, attr, self.counted(name, owner.__dict__[attr]))

        points_desc = preorders.DiscreteInvariantSet.__dict__["points_desc"]
        counts = self.counts

        def counting_points_desc(K, upper):
            for x in points_desc(K, upper):
                counts["preorders.xg.points"] += 1
                yield x

        self.patch(preorders.DiscreteInvariantSet, "points_desc", counting_points_desc)

    # -- results ------------------------------------------------------------

    def _sum(self, name, parent=None, field=0):
        return sum(v[field] for (n, p), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def metrics(self) -> dict:
        """The per-layer metrics of everything traced so far."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ratio(a, b):
            return a / b if b else 0.0

        for name in ("plgroup.mul", "plgroup.inverse", "plgroup.pow", "plgroup.eval",
                     "exactnum.decompose", "preorders.sign.jump",
                     "preorders.sign.escaping", "preorders.sign.restriction",
                     "preorders.sign.prime", "preorders.xg", "realize.cmp",
                     "plante.mul", "symsets.image", "symsets.compare"):
            put(name + ".calls", self._sum(name), "count")
            put(name + ".self_s", self._sum(name, field=2), "s")
        for name in ("realize.locate", "plante.sign", "cli.main"):
            put(name + ".calls", self._sum(name), "count")
        for name in ("plgroup.ball", "preorders.axioms_report", "realize.build_frame",
                     "realize.classify_empirical", "realize.induced_map",
                     "plante.cross_free", "cli.parse", "cli.emit"):
            put(name + ".self_s", self._sum(name, field=2), "s")
        for name in ("plgroup.init", "exactnum.sign_of", "plante.relation"):
            put(name + ".calls", self.counts[name], "count")
        put("plgroup.max_breakpoints", self.maxima["plgroup.max_breakpoints"], "count")
        put("plgroup.max_den_bits", self.maxima["plgroup.max_den_bits"], "bits")
        products = (self._sum("plgroup.mul", "plgroup.ball")
                    + self._sum("plante.mul", "plgroup.ball"))
        put("plgroup.ball.new_ratio", ratio(self.counts["plgroup.ball.kept"], products),
            "ratio")
        put("realize.build_frame.new_ratio",
            ratio(self.counts["realize.build_frame.cosets"],
                  self._sum("realize.locate", "realize.build_frame")), "ratio")
        put("realize.cmp_per_locate",
            ratio(self._sum("realize.cmp", "realize.locate"), self._sum("realize.locate")),
            "ratio")
        put("preorders.xg.points_per_call",
            ratio(self.counts["preorders.xg.points"], self._sum("preorders.xg")),
            "points/call")
        return out

    def dump(self) -> dict:
        """Spans and the per-(name, parent) table, for writing out."""
        return {
            "spans": [{"name": n, "start": a, "end": b, "parent": p}
                      for n, a, b, p in self.spans],
            "calls": [{"name": n, "parent": p or None, "calls": c,
                       "total_s": t, "self_s": s}
                      for (n, p), (c, t, s) in sorted(self.agg.items(),
                                                      key=lambda kv: -kv[1][1])],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

