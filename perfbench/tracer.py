"""Spans and counters around relpsi's public functions, patched in from outside.

`Tracer.install()` replaces each target at every binding site: module-level
functions in every loaded `relpsi` module that holds them (modules import
names directly, so `cli.psi_relative`, `verify.psi_relative` and the
`relpsi` namespace are separate sites), and methods on the class that
defines them. `Tracer.uninstall()` puts the originals back.

Coarse boundaries get spans, kept in memory: id, name, start, end, parent
span and command index. Frequent calls whose self time is wanted are timed
but not kept as spans. Hot leaf calls (group multiply/inverse, field ops,
max-flow edges) are only counted.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

MULTIPLY_CLASSES = ("CyclicGroup", "PermutationGroup", "CayleyTableGroup",
                    "FrobeniusFieldGroup", "DirectProductGroup")
MARK = "_perfbench_wrapper"  # set on every wrapper this module makes
NAMED_CONSTRUCTORS = ("cyclic", "abelian_of_type", "dihedral", "symmetric", "alternating",
                      "quaternion8", "frobenius_field", "direct_product")


def relpsi_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "relpsi" or name.startswith("relpsi.")]


def wrapped_bindings() -> list[str]:
    """Every relpsi module attribute or class attribute that is a wrapper."""
    found = []
    for mod in relpsi_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{name}" for name, member in vars(value).items()
                          if hasattr(member, MARK)]
    return found


class Tracer:
    def __init__(self):
        self.command = -1  # index of the command being run, set by the caller
        self.spans: list[tuple] = []
        self.timed: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds spent in child spans]
        self._active: Counter = Counter()  # name -> spans of that name open now
        self._next_id = 0
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # targets this version of relpsi lacks

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, record=True, on_enter=None, on_exit=None):
        stack, spans, active = self._stack, self.spans, self._active
        entry = self.timed.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            state = on_enter(args) if on_enter else None
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if record:
                    spans.append((frame[0], name, start, end, parent, self.command))
            if on_exit:
                on_exit(args, result, state)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch_function(self, module, fname, wrap) -> None:
        original = getattr(module, fname, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{fname}")
            return
        wrapper = wrap(original)
        for mod in relpsi_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrap) -> None:
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def install(self) -> None:
        from relpsi import classify, cli, finite_field, group_core, matching, numtheory
        from relpsi import order_sums, subgroup_lattice, verify

        def span(module, fname, metric=None, **hooks):
            name = metric or f"{module.__name__.split('.')[-1]}.{fname}"
            self._patch_function(module, fname, lambda fn: self._timed(name, fn, **hooks))

        def timed(name, **hooks):
            return lambda fn: self._timed(name, fn, **hooks)

        def counted(name):
            return lambda fn: self._counted(name, fn)

        def multiplies(_args=None):
            return sum(self.counts[f"group_core.multiply.calls.{c}"] for c in MULTIPLY_CLASSES)

        def after_psi_relative(args, result, before):
            self.counts["order_sums.psi_relative.elements"] += args[0].order
            self.counts["order_sums.psi_relative.multiplies"] += multiplies() - before

        def after_generate(args, result, _):
            self.counts["subgroup_lattice.generate.elements_out"] += result.order
            if self._active["subgroup_lattice.all_subgroups"]:
                self.counts["subgroup_lattice.all_subgroups.generate_calls"] += 1

        span(cli, "main")
        span(cli, "load_cayley_file")
        for fname in ("subgroup_ratio_scan", "build_counterexample", "bijection_exists",
                      "default_catalog"):
            span(verify, fname)
        span(verify, "scan_catalog", on_exit=lambda a, report, _: self.counts.update(
            {"verify.scan_errors": len(report.errors)}))
        span(subgroup_lattice, "all_subgroups", on_exit=lambda a, subs, _: self.counts.update(
            {"subgroup_lattice.all_subgroups.subgroups_out": len(subs)}))
        span(subgroup_lattice, "generate", on_exit=after_generate)
        span(order_sums, "psi_relative", on_enter=multiplies, on_exit=after_psi_relative)
        span(order_sums, "relative_order")
        span(order_sums, "psi", record=False)
        for fname in ("is_nilpotent", "is_solvable"):
            span(classify, fname)
        span(group_core, "from_cayley_table")
        for fname in NAMED_CONSTRUCTORS:
            span(group_core, fname, metric="group_core.construct")
        span(numtheory, "factorize")
        span(numtheory, "is_prime", record=False)

        for cls in (group_core.FiniteGroup, group_core.CyclicGroup):
            self._patch_method(cls, "element_order", timed("group_core.element_order", record=False))
        for cname in MULTIPLY_CLASSES:
            cls = getattr(group_core, cname, None)
            self._patch_method(cls, "multiply", counted(f"group_core.multiply.calls.{cname}"))
            self._patch_method(cls, "inverse", counted("group_core.inverse.calls"))
        field = getattr(finite_field, "FiniteField", None)
        self._patch_method(field, "__init__", timed("finite_field.FiniteField"))
        for op in ("mul", "pow", "add", "neg"):
            self._patch_method(field, op, counted("finite_field.ops.calls"))
        flow = getattr(matching, "MaxFlow", None)
        self._patch_method(flow, "max_flow", timed("matching.max_flow"))
        self._patch_method(flow, "add_edge", counted("matching.edges"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def span_records(self):
        for span_id, name, start, end, parent, command in self.spans:
            yield {"id": span_id, "name": name, "start": start, "end": end,
                   "parent": parent, "command": command}
