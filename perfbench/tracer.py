"""Outside-in tracer for the layers of tworb.

The tracer wraps, from outside the package, the public functions and
methods of every layer module (``tworb.<layer>``) and the element
operations of ``tworb.fields``.  No source file of tworb changes.

* A call into ``linalg``, ``orbits``, ``parabolic``, ``ratfun``, ``zeta`` or
  ``cli`` records one span: name, start, end, parent span and case id.
  A span's self time is its duration minus the time its child spans and
  the element operations directly inside it cover.
* ``fields`` element operations (about 10^6 per pass) are not kept as
  spans; their counts and time are aggregated per case.

Modules bind layer functions with ``from .linalg import ...``, so a
function is replaced at every binding site that holds it: each module's
globals, each class dictionary and each dict a module holds (such as
``cli.SUITES``), matched by identity.  ``unpatched_sites`` lists any site
still holding an original.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("fields", "linalg", "orbits", "parabolic", "ratfun", "zeta", "cli")

# per-case element-operation slots
MUL, ADD, INV, SIGMA, OTHER, TIME = range(6)
OP_NAMES = ("mul", "add", "inv", "sigma", "other")
FIELD_SLOTS = {"__mul__": MUL, "__rmul__": MUL,
               "__add__": ADD, "__radd__": ADD, "__sub__": ADD,
               "__rsub__": ADD, "__neg__": ADD,
               "inverse": INV, "sigma": SIGMA}
# dunders that do a layer's work (public methods are always wrapped)
DUNDERS = {
    "fields": {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__neg__", "__eq__", "__hash__",
               "__bool__"},
    "ratfun": {"__init__", "__eq__", "__neg__", "__pow__", "__rsub__",
               "__rtruediv__"},
}


def _extra(tr, name):
    return tr.extra.setdefault(name, {})


def _hook_twisted_power(ex, args, kwargs, result):
    ex["factors"] = ex.get("factors", 0) + (
        args[1] if len(args) > 1 else kwargs["k"])


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _hook_bracket(ex, args, kwargs, result):
    if result is not None:
        ex["cells"] = ex.get("cells", 0) + _cells(result.rows)


def _hook_rank(ex, args, kwargs, result):
    ex["cells"] = ex.get("cells", 0) + _cells(args[0].rows)


def _hook_stabilizer(ex, args, kwargs, result):
    y = args[0]
    ex["matrices"] = ex.get("matrices", 0) + (
        y.model.p ** (y.model.degree * y.n * y.n))


def _hook_jordan(ex, args, kwargs, result):
    ex["returned"] = ex.get("returned", 0) + (result is not None)


def _hook_porb(ex, args, kwargs, result):
    if result is not None:
        ex["certified"] = ex.get("certified", 0) + result.certified_trials
        ex["trials"] = ex.get("trials", 0) + result.trials


def _hook_induce(ex, args, kwargs, result):
    ex["accepted"] = ex.get("accepted", 0) + (result is not None)
    if result is not None:
        trials = result.trials_used
    else:  # a failed induction used every trial it was allowed
        from tworb.parabolic import induce_orbit_report

        call = inspect.signature(induce_orbit_report).bind(*args, **kwargs)
        call.apply_defaults()
        trials = call.arguments["max_trials"]
    ex["trials"] = ex.get("trials", 0) + trials


HOOKS = {
    "linalg.twisted_power": _hook_twisted_power,
    "linalg.bracket_system": _hook_bracket,
    "linalg.FLinearSystem.rank_F": _hook_rank,
    "orbits.stabilizer_order": _hook_stabilizer,
    "orbits.jordan_type_of": _hook_jordan,
    "parabolic.verify_porb": _hook_porb,
    "parabolic.induce_orbit_report": _hook_induce,
}


def _wrappable(name: str, obj, layer: str) -> bool:
    return (inspect.isfunction(obj)
            and not inspect.isgeneratorfunction(obj)
            and (not name.startswith("_") or name in DUNDERS.get(layer, ())))


class Tracer:
    """Spans and per-case element counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []    # (name id, start, end, parent, case, self)
        self.stack: list = []    # open spans: [span index, child time]
        self.case = 0
        self.ops = [0, 0, 0, 0, 0, 0.0]
        self.case_ops = [self.ops]
        self.in_leaf = False
        self.loose_leaf_s = 0.0  # element-op time outside every span
        self.excluded_s = 0.0    # time spent outside tworb inside a span
        self.extra: dict[str, dict] = {}
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (orig, wrapper)
        self._patched: list = []               # (owner, attr, original)

    # -- case boundaries ------------------------------------------------

    def exclude(self, seconds: float) -> None:
        """Leave time the benchmark spent inside an open span (the speed
        probe) out of every layer's self time."""
        if self.stack:
            self.stack[-1][1] += seconds
            self.excluded_s += seconds

    def next_case(self) -> None:
        self.case += 1
        self.ops = [0, 0, 0, 0, 0, 0.0]
        self.case_ops.append(self.ops)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        tr = self
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            stack, spans = tr.stack, tr.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            case = tr.case
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (nid, t0, t1, parent, case, dur - frame[1])
                if stack:
                    stack[-1][1] += dur
                if hook is not None:
                    hook(_extra(tr, name), args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, slot: int, fn):
        tr = self

        def traced(*args, **kwargs):
            if tr.in_leaf:  # nested element op: counted, timed by the outer
                tr.ops[slot] += 1
                return fn(*args, **kwargs)
            tr.in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                tr.in_leaf = False
                ops = tr.ops
                ops[slot] += 1
                ops[TIME] += d
                if tr.stack:
                    tr.stack[-1][1] += d
                else:
                    tr.loose_leaf_s += d

        traced.__wrapped__ = fn
        return traced

    def _wrap(self, layer: str, attr: str, fn):
        hit = self._wrappers.get(id(fn))
        if hit is not None and hit[0] is fn:
            return hit[1]
        if layer == "fields":
            w = self._leaf(FIELD_SLOTS.get(attr, OTHER), fn)
        else:
            w = self._span(f"{layer}.{fn.__qualname__}", fn)
        self._wrappers[id(fn)] = (fn, w)
        return w

    @staticmethod
    def _put(owner, key, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _set(self, owner, key, value, original) -> None:
        self._put(owner, key, value)
        self._patched.append((owner, key, original))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every layer, then rebind every site holding an original."""
        for layer in LAYERS:
            mod = sys.modules[f"tworb.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _wrappable(name, obj, layer):
                    self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod in self._modules():
            for owner in [mod] + [d for n, d in vars(mod).items()
                                  if isinstance(d, dict)
                                  and not n.startswith("__")]:
                items = owner if isinstance(owner, dict) else vars(owner)
                for name, val in list(items.items()):
                    hit = self._wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._set(owner, name, hit[1], val)

    def _install_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if _wrappable(attr, val, layer):
                self._wrap(layer, attr, val)
        # aliases such as ``__mul__ = mul`` share the one wrapper
        for attr, val in list(vars(cls).items()):
            hit = self._wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                self._set(cls, attr, hit[1], val)
            elif (layer == "fields" and isinstance(val, property)
                  and val.fget is not None):
                w = self._wrap(layer, attr, val.fget)
                self._set(cls, attr, property(w), val)

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if n == "tworb" or n.startswith("tworb.")]

    def unpatched_sites(self) -> list[str]:
        """Binding sites that still hold an unwrapped original."""
        originals = {id(o): o for o, _ in self._wrappers.values()}
        found = []
        owners = self._modules()
        for mod in list(owners):
            owners += [c for c in vars(mod).values() if inspect.isclass(c)
                       and c.__module__.startswith("tworb.")]
        for owner in owners:
            where = getattr(owner, "__name__", owner)
            for name, val in list(vars(owner).items()):
                if isinstance(val, property):
                    val = val.fget
                held = [(f"{where}.{name}", val)]
                if isinstance(val, dict):
                    held += [(f"{where}.{name}[{k!r}]", v)
                             for k, v in val.items()]
                found += [site for site, v in held
                          if id(v) in originals and originals[id(v)] is v]
        return sorted(set(found))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            self._put(owner, key, original)
        self._patched.clear()

    def reset(self) -> None:
        """Forget recorded data; the wrappers stay installed."""
        self.spans.clear()
        self.stack.clear()
        self.case = 0
        self.ops = [0, 0, 0, 0, 0, 0.0]
        self.case_ops = [self.ops]
        self.loose_leaf_s = 0.0
        self.excluded_s = 0.0
        self.extra.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls and self time; per-layer self time;
        element-operation totals; the extra counters of the hooks."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        root_s = 0.0
        for nid, t0, t1, parent, _case, own in self.spans:
            calls[nid] += 1
            self_s[nid] += own
            if parent < 0:
                root_s += t1 - t0
        ops = [sum(c[i] for c in self.case_ops) for i in range(TIME + 1)]
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_self["fields"] = ops[TIME]
        funcs = {}
        for nid, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += self_s[nid]
            funcs[name] = {"calls": calls[nid], "self_s": self_s[nid]}
        # every second inside a root span or an element op is some layer's
        # self time exactly once, or excluded
        attributed = sum(layer_self.values()) + self.excluded_s
        covered = root_s + self.loose_leaf_s
        return {"funcs": funcs,
                "layer_self_s": layer_self,
                "ops": dict(zip(OP_NAMES, ops[:TIME])),
                "extra": self.extra,
                "spans": len(self.spans),
                "balanced": (not self.stack
                             and abs(attributed - covered)
                             <= 1e-6 * max(covered, 1.0))}

    def write(self, path) -> None:
        """Write every span and per-case counter, times in microseconds
        from the first span."""
        t_base = self.spans[0][1] if self.spans else 0.0

        def us(t):
            return round((t - t_base) * 1e6)

        data = {"names": self.names,
                "span_fields": ["name", "start_us", "end_us", "parent",
                                "case", "self_us"],
                "spans": [[nid, us(t0), us(t1), parent, case,
                           round(own * 1e6)]
                          for nid, t0, t1, parent, case, own in self.spans],
                "case_op_fields": list(OP_NAMES) + ["self_us"],
                "case_ops": [c[:TIME] + [round(c[TIME] * 1e6)]
                             for c in self.case_ops]}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


def self_check(tracer: Tracer) -> list[str]:
    """Count check on a tiny fixed input; returns the failures found.

    ``twisted_power(y, k)`` on an n x n matrix makes k ``mat_mul`` calls,
    k*n^3 E multiplications, k*n^2*(n-1) E additions and k*n^2 involutions;
    ``jordan_type_of`` reaches ``is_nilpotent`` through the name that
    ``orbits`` imported, so its span must have that child.
    """
    from tworb import fields, linalg, orbits

    model = fields.make_extension({"kind": "rational", "tau": 2})
    n, k = 3, 2
    y = linalg.TwistedEndo.from_rows(
        model, [[(i + j + 1, i - j) for j in range(n)] for i in range(n)])
    rep = orbits.standard_representative(orbits.JordanType((2, 1)), model)
    tracer.reset()
    linalg.twisted_power(y, k)
    s = tracer.summary()
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got}, expected {want}")

    expect("mat_mul calls", s["funcs"]["linalg.mat_mul"]["calls"], k)
    expect("twisted_power calls", s["funcs"]["linalg.twisted_power"]["calls"], 1)
    expect("twisted_power factors",
           s["extra"].get("linalg.twisted_power", {}).get("factors"), k)
    expect("E multiplications", s["ops"]["mul"], k * n**3)
    expect("E additions", s["ops"]["add"], k * n * n * (n - 1))
    expect("involutions", s["ops"]["sigma"], k * n * n)
    expect("balanced", s["balanced"], True)
    tracer.reset()
    orbits.jordan_type_of(rep)
    names = tracer.names
    by_index = {i: names[sp[0]] for i, sp in enumerate(tracer.spans)}
    children = {(by_index[sp[3]] if sp[3] >= 0 else None, names[sp[0]])
                for sp in tracer.spans}
    for edge in [("orbits.jordan_type_of", "linalg.is_nilpotent"),
                 ("linalg.is_nilpotent", "linalg.twisted_power"),
                 ("linalg.twisted_power", "linalg.mat_mul")]:
        if edge not in children:
            failures.append(f"no span edge {edge[0]} -> {edge[1]}")
    tracer.reset()
    return failures
