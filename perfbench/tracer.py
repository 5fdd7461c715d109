"""Span tracer that wraps totaldom's cross-module calls from outside.

Every layer in layers.json names the module attributes through which its
function is called (for example ``search.is_planar``, the name the search
module bound at import).  ``Tracer.install`` replaces each of those
attributes with a wrapper that records one span per call:

    [layer, start, end, parent, busy, root]

``parent`` and ``root`` are span indices (-1 for none), so the spans of one
request share a root.  ``busy`` is the time the call was running: end minus
start for a function, and the sum of its resumptions for a generator, whose
span stays open while its consumer works between items.  Spans stay in
memory and are written as JSON by ``dump``.

Run as a script, it traces one CLI call:

    python3 perfbench/tracer.py --spans FILE -- <totaldom arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")

# counters kept beside the spans: layer -> (counter, amount per call result)
OUTPUT_COUNTERS = {
    "hypergraph.enumerate_minimal_transversals": ("hypergraph.transversals_out", lambda fam: len(fam.edges)),
}
# a traced generator counts its items under "<layer>.items"


def load_layers() -> list[dict]:
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["layers"]


class Tracer:
    def __init__(self, names: list[str]):
        self.names = names
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    @classmethod
    def install(cls) -> "Tracer":
        layers = load_layers()
        tracer = cls([layer["name"] for layer in layers])
        for index, layer in enumerate(layers):
            for site in layer["sites"]:
                module_name, _, attr_path = site.partition(".")
                owner = importlib.import_module("totaldom." + module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                setattr(owner, attr, tracer.wrap(index, layer["name"], getattr(owner, attr)))
        return tracer

    def _open(self, layer: int, now: float) -> list:
        stack = self.stack
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else len(self.spans)
        span = [layer, now, now, parent, 0.0, root]
        self.spans.append(span)
        return span

    def wrap(self, layer: int, name: str, fn):
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                span = tracer._open(layer, clock())
                index = len(tracer.spans) - 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        stack.append(index)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                            span[2] = clock()
                            span[4] += span[2] - t0
                        tracer.counters[items] = tracer.counters.get(items, 0) + 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        counter = OUTPUT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, clock())
            stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[4] = span[2] - span[1]
            if counter is not None:
                tracer.counters[counter[0]] = tracer.counters.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "layers": self.names,
                       "counters": self.counters, "spans": self.spans}, fh)


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <totaldom arguments>", file=sys.stderr)
        return 2
    spans_file = os.path.abspath(argv[1])
    tracer = Tracer.install()
    from totaldom import cli

    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
