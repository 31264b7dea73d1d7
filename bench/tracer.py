"""Per-layer tracing of graphpick from outside the program.

``Tracer.install`` wraps the public entry points of each layer.  A name is
rebound at every place a module holds it: class attributes such as
``Polynomial.__mul__`` (and its alias ``__rmul__``) on the class, and
functions in every ``graphpick`` module that imported them with
``from .x import y``.  ``uninstall`` restores the originals.

Each call opens a span on a stack.  When it closes, its duration minus
the time covered by its child spans is added to the self time of its
layer metric, and its duration is charged to its parent.  Spans are folded
into these totals as they close, so memory stays flat on runs with
millions of polynomial products.
"""

from __future__ import annotations

import importlib
import sys
import time

# metric group -> (module, attribute path) of every wrapped entry point
TARGETS = {
    "ratfun.mul": [("graphpick.ratfun", "Polynomial.__mul__")],
    "ratfun.exact_div": [("graphpick.ratfun", "Polynomial.exact_div")],
    "ratfun.gcd": [("graphpick.ratfun", "_gcd_full")],
    "ratfun.field": [
        ("graphpick.ratfun", f"RatFun.{name}")
        for name in (
            "__init__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__truediv__", "__rtruediv__", "__pow__", "reciprocal", "substitute",
            "derivative",
        )
    ],
    "ratfun.parse": [
        ("graphpick.ratfun", name)
        for name in ("parse_polynomial", "parse_ratfun", "ratfun_from_json")
    ],
    "ratfun.render": [
        ("graphpick.ratfun", name)
        for name in (
            "Polynomial.__str__", "Polynomial.latex", "RatFun.__str__",
            "RatFun.latex", "RatFun.to_json",
        )
    ],
    "nevanlinna.representing_function": [("graphpick.nevanlinna", "representing_function")],
    "nevanlinna.verify": [
        ("graphpick.nevanlinna", name)
        for name in ("verify_star_identity", "verify_comb_identity", "verify_retract_identity")
    ],
    "linalg.determinant": [("graphpick.linalg", "determinant")],
    "linalg.inverse_entry": [("graphpick.linalg", "inverse_entry")],
    "linalg.schur_reduce": [("graphpick.linalg", "schur_reduce")],
    "laurent.expand_at_infinity": [("graphpick.laurent", "expand_at_infinity")],
    "laurent.walk_generating_series": [("graphpick.laurent", "walk_generating_series")],
    "laurent.contact_order": [("graphpick.laurent", "contact_order")],
    "graphs.graph_from_json": [("graphpick.graphs", "graph_from_json")],
    "graphs.products": [
        ("graphpick.graphs", name) for name in ("star_product", "comb_product_z", "retract")
    ],
    "sticks.stick_determinants": [("graphpick.sticks", "stick_determinants")],
    "numcheck.pick_property_sample": [("graphpick.numcheck", "pick_property_sample")],
    "numcheck.eval_complex": [("graphpick.numcheck", "eval_complex")],
}

# Counters read from ``Polynomial._terms`` (the packed-monomial dict) so that
# sizing a result does not itself call a wrapped method.
COUNTERS = ("ratfun.mul.term_pairs", "ratfun.peak_terms", "ratfun.peak_coeff_bits")
PEAKS = ("ratfun.peak_terms", "ratfun.peak_coeff_bits")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps graphpick entry points and aggregates their spans."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.fails: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.fails = dict.fromkeys(TARGETS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    # ------------------------------------------------------------------

    def _note_result(self, poly) -> None:
        terms = getattr(poly, "_terms", None)
        if terms is None:
            return
        c = self.counters
        if len(terms) > c["ratfun.peak_terms"]:
            c["ratfun.peak_terms"] = len(terms)
        bits = max((abs(v).bit_length() for v in terms.values()), default=0)
        if bits > c["ratfun.peak_coeff_bits"]:
            c["ratfun.peak_coeff_bits"] = bits

    def _after_mul(self, args, result) -> None:
        a, b = args[0], args[1]
        nb = len(b._terms) if hasattr(b, "_terms") else int(bool(b))
        self.counters["ratfun.mul.term_pairs"] += len(a._terms) * nb
        self._note_result(result)

    def _after_div(self, args, result) -> None:
        self._note_result(result)

    def _wrap(self, group: str, fn, after=None):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, fails = self.calls, self.self_s, self.fails

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                fails[group] += 1
                raise
            finally:
                dur = clock() - frame[0]
                stack.pop()
                calls[group] += 1
                self_s[group] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None and result is not NotImplemented:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target wherever a graphpick module or class holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {"ratfun.mul": self._after_mul, "ratfun.exact_div": self._after_div}
        holders = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "graphpick" or name.startswith("graphpick.")
        ]
        for group, targets in TARGETS.items():
            for module, path in targets:
                owner, name = _resolve(module, path)
                original = owner.__dict__[name]
                wrapper = self._wrap(group, original, after.get(group))
                # a class may alias a method (``__rmul__ = __mul__``); a
                # function is bound in every module that imported it
                scopes = [owner] if isinstance(owner, type) else holders
                for scope in scopes:
                    for attr, value in list(vars(scope).items()):
                        if value is original:
                            self._patches.append((scope, attr, original))
                            setattr(scope, attr, wrapper)

    def uninstall(self) -> None:
        for scope, attr, original in reversed(self._patches):
            setattr(scope, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat metric dict: ``<group>.calls``, ``<group>.self_s``, counters."""
        out: dict[str, float] = {}
        for group in TARGETS:
            out[f"{group}.calls"] = self.calls[group]
            out[f"{group}.self_s"] = self.self_s[group]
        out["ratfun.exact_div.fail"] = self.fails["ratfun.exact_div"]
        out.update(self.counters)
        return out


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add one snapshot into another; peak counters take the maximum."""
    for key, value in part.items():
        if key in PEAKS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
