"""Span tracer for the public functions of the finsimp modules.

The tracer wraps every public module-level function of the traced modules
from outside the package: no file under ``src/`` knows about it.  A
function defined in one module is often bound in several others
(``from .strings import canonicalize`` copies the binding into ``grids``,
``shuffles`` and ``presentation``), so every binding of the same function
object in any ``finsimp`` module is replaced, and restored afterwards.

Spans live in memory as four parallel arrays (function id, parent span,
start, end) and are written out in one file when the traced run ends.

Run as a script, this file is the traced child of the benchmark::

    python3 perfbench/tracer.py SPANS_PATH -- present --alpha 4

It runs ``finsimp.cli.main`` on the arguments after ``--`` with tracing on,
writes the spans to ``SPANS_PATH`` and exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from array import array

PACKAGE = "finsimp"
MODULES = ("finmap", "strings", "grids", "shuffles", "presentation", "cli")


def _distinct_key(args, kwargs, result):
    return args[0] if args else next(iter(kwargs.values()))


def _classes_returned(args, kwargs, result):
    return sum(len(level) for level in result)


# Per-function probes record one value per call, for the ratio metrics.
PROBES = {
    "grids.image_subset": _distinct_key,
    "strings.enumerate_nondegenerate": _classes_returned,
}


class Tracer:
    """Wraps the public functions of ``MODULES`` and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.probes: list[tuple[int, object]] = []
        self._stack = [-1]
        self._restore: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        """Replace every binding of each public function with a wrapper."""
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                key = f"{short}.{attr}"
                wrappers[fn] = self._wrap(fn, len(self.names), PROBES.get(key))
                self.names.append(key)
        for name, mod in sorted(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((namespace, attr, value))
                    namespace[attr] = wrappers[value]

    def restore(self) -> None:
        """Put back every binding that ``install`` replaced."""
        for namespace, attr, value in reversed(self._restore):
            namespace[attr] = value
        self._restore.clear()

    def _wrap(self, fn, fid: int, probe):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        probes, stack = self.probes, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probes.append((idx, probe(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def write(self, path: str) -> None:
        """Write the spans as a JSON header line followed by the raw arrays.

        A probe value that is not a number (a grid) is written as the
        ordinal of its first occurrence, so equal arguments share an ordinal.
        """
        ordinals: dict = {}
        probes = [
            (idx, value if isinstance(value, (int, float)) else ordinals.setdefault(value, len(ordinals)))
            for idx, value in self.probes
        ]
        header = {"names": self.names, "count": len(self.fid), "probes": probes}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: str):
    """Inverse of :meth:`Tracer.write`: ``(header, fid, parent, start, end)``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header, *arrays)


def summarize(path: str) -> dict:
    """Per-function ``calls``, inclusive ``s`` and ``self_s``, plus probe counts.

    A span's self time is its duration minus the durations of its direct
    child spans; spans nest because the traced program is single-threaded.
    Inclusive time counts only the outermost span of a recursive function.
    """
    header, fid, parent, start, end = read_spans(path)
    names = header["names"]
    ids = {name: k for k, name in enumerate(names)}
    enum_id = ids.get("strings.enumerate_nondegenerate", -1)
    canon_id = ids.get("strings.canonicalize", -1)
    calls = [0] * len(names)
    incl = [0.0] * len(names)
    self_s = [0.0] * len(names)
    open_ends: list[list[float]] = [[] for _ in names]  # ends of open spans, per function
    under_enum = bytearray(len(fid))
    canon_in_enum = 0
    for i, f in enumerate(fid):
        dur = end[i] - start[i]
        calls[f] += 1
        self_s[f] += dur
        p = parent[i]
        if p >= 0:
            self_s[fid[p]] -= dur
            under_enum[i] = under_enum[p] or fid[p] == enum_id
        if f == canon_id and under_enum[i]:
            canon_in_enum += 1
        ends = open_ends[f]
        while ends and ends[-1] <= start[i]:
            ends.pop()
        if not ends:
            incl[f] += dur
        ends.append(end[i])
    image_id = ids.get("grids.image_subset", -1)
    return {
        "functions": {
            name: {"calls": calls[f], "s": incl[f], "self_s": self_s[f]} for f, name in enumerate(names)
        },
        "image_subset_distinct": len({v for i, v in header["probes"] if fid[i] == image_id}),
        "enumerate_classes": sum(v for i, v in header["probes"] if fid[i] == enum_id),
        "enumerate_canonicalize_calls": canon_in_enum,
    }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of separate traced processes (distinct grids never repeat across them)."""
    out = {"functions": {}, "image_subset_distinct": 0, "enumerate_classes": 0, "enumerate_canonicalize_calls": 0}
    for summary in summaries:
        for name, row in summary["functions"].items():
            acc = out["functions"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in row.items():
                acc[field] += value
        for key in ("image_subset_distinct", "enumerate_classes", "enumerate_canonicalize_calls"):
            out[key] += summary[key]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_PATH -- CLI_ARGS...", file=sys.stderr)
        return 64
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["finsimp.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
        sys.stdout.flush()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
