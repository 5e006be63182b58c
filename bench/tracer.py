"""Layer spans recorded from outside the program.

The tracer wraps every public function of each layer module of redsep, and
the constructor of every public class, in a span that counts calls and
measures self time: the span minus the time its child spans cover.  A
function is patched under every name that binds it in any redsep module
namespace, since ``from .x import f`` copies the binding; ``remove`` puts
every original back and reports any that it could not.  Spans live in
memory and are summarised when the run ends.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "masks",
    "spaces",
    "catalog",
    "hausdorff",
    "maps",
    "classes",
    "transfer",
    "suites",
    "serialize",
    "cli",
)

# Building the argument parser is part of cli.main's own work.
SKIP = {"cli.build_parser"}


class Tracer:
    def __init__(self):
        self.stats = {}  # "layer.name" -> [calls, self seconds]
        self.extra = {}  # per-layer counts and per-suite figures gathered by hooks
        self._stack = [0.0]  # child seconds per open span; [0] sums top-level spans
        self._patches = []  # (owner, attribute, original)

    def _add(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def _wrap(self, key, fn, hook=None):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - child
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        return span

    def _hooks(self):
        def pairs(key):
            return lambda args, kwargs, res, dt: self._add(key, res.pairs_checked)

        def generate(args, kwargs, res, dt):
            base, generators, mode = args[:3]
            free = sum(1 for idx in base.relevant_indices(mode) if idx != ())
            self._add("classes.generate_class.assignments", len(generators) ** free)
            self._add("classes.generate_class.outcomes", len(res))

        def suite(args, kwargs, res, dt):
            name = args[0] if args else kwargs["name"]
            self._add(f"suites.{name}.s", dt)
            self._add(f"suites.{name}.cases", res.cases)

        return {
            "classes.check_reduction": pairs("classes.check_reduction.pairs_checked"),
            "classes.check_separation": pairs("classes.check_separation.pairs_checked"),
            "classes.generate_class": generate,
            "suites.run_suite": suite,
            "serialize.canonical_json": lambda a, k, res, dt: self._add(
                "serialize.canonical_json.bytes", len(res.encode())
            ),
        }

    def install(self):
        """Wrap every public function and constructor of the layer modules."""
        hooks = self._hooks()
        functions = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"redsep.{layer}")
            for name, val in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{val.__name__}" if hasattr(val, "__name__") else None
                if key in SKIP:
                    continue
                if inspect.isclass(val) and "__init__" in vars(val):
                    init = vars(val)["__init__"]
                    self._patches.append((val, "__init__", init))
                    setattr(val, "__init__", self._wrap(key, init))
                elif inspect.isfunction(val) and id(val) not in functions:
                    functions[id(val)] = (val, self._wrap(key, val, hooks.get(key)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "redsep" and not mod_name.startswith("redsep."):
                continue
            for name, val in list(vars(mod).items()):
                hit = functions.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, name, val))
                    setattr(mod, name, hit[1])
        return len(self._patches)

    def remove(self):
        """Restore every patched binding; return how many are not the original."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        return sum(1 for owner, name, original in self._patches if vars(owner).get(name) is not original)

    def top_level_s(self):
        return self._stack[0]

    def summary(self):
        """Flat "layer.name.stat" -> value table of every span and hook figure."""
        out = dict(self.extra)
        for key, (calls, own) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = own
        out["serialize.parse.self_s"] = sum(
            own
            for key, (_, own) in self.stats.items()
            if key.startswith("serialize.") and key.endswith("_from_doc")
        )
        return out
