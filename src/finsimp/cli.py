"""Deterministic command-line frontend.

Every command emits JSON (DOT for ``shuffles --dot``) with sorted keys and
sorted member lists, so identical invocations are byte-identical.  Exit
codes: 0 success, 1 invalid input or unmet hypothesis, 2 a certified claim
failed to verify.

Output is streamed straight from the values: a command hands
``_write_json`` its result objects (maps, strings, complexes, grids,
certificates, the ``Attachment`` that ``attach`` writes whole) inside a
small JSON tree, and the writer writes the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` of their ``to_json()`` trees,
and a final newline, in pieces of about ``_FLUSH_SIZE`` characters.  Neither
those trees nor a string of the whole document is built, and each distinct
map and attachment record is encoded once per document.  This holds for
stdout, ``--output`` and the exit-2 diagnostic on stderr.  The DOT text
of ``shuffles --dot`` is written from the lines ``poset_dot`` yields, a few
thousand lines per write.  An ``--output`` file that fails partway is
removed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .errors import CertificateError, InputError
from .finmap import FinMap
from .grids import defect_subcomplex, grid_from_json
from .presentation import excess_strings, match_excess, order_excess, present, skeletal_dimension
from .shuffles import AttachmentCertificate, attach_diagram, enumerate_shuffles, horn_certificate, poset_dot
from .strings import StringComplex, core, defect, enumerate_nondegenerate, string_from_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _check_output(path: str) -> None:
    """Refuse an unwritable output path before any work is done.

    Opening for append neither truncates an existing file nor changes its
    bytes; a file created by the probe is removed again, so a run that
    later fails leaves nothing behind.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise InputError(f"output: {exc}") from None
    if not existed:
        os.remove(path)


# ``_write_json`` hands its pending text to ``write`` once it holds this
# many characters; it counts them every ``_COUNT_PIECES`` pieces.
_FLUSH_SIZE = 1 << 16
_COUNT_PIECES = 64

# ``_write`` joins this many lines of a line iterator into one write.
_LINES_PER_WRITE = 4096

# Values that repeat in a document, so their text is encoded once per call;
# strings and grids are written once or twice and are never memoised.
_MEMOISED = (FinMap, AttachmentCertificate)


def _write_json(obj, write) -> None:
    """Write the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    newline, where ``obj`` is a JSON tree that may hold value objects.

    A value object (``FinMap``, ``MapString``, ``GridDiagram``, the
    certificates and the other records) is written as its shallow
    ``json_form()``, which is the tree its ``to_json()`` expands; an array
    may also come as a ``map`` object, consumed as it is written.  So no
    tree of the document is built.  Within one call the text of each
    ``_MEMOISED`` value is encoded once, at depth 0, and indented to its
    depth with ``str.replace("\\n", nl)`` once per depth, which is exact
    since encoded JSON strings hold no raw newline.  The sorted key layout
    of each dict shape and depth is built once per call too, and an array
    of ints is joined in one step.  Nothing outlives the call.

    No string of the whole document is built either: the pending text is
    measured at array items, every ``_COUNT_PIECES`` pieces, and goes to
    ``write`` once it reaches ``_FLUSH_SIZE`` characters.  Dict keys must be
    ``str``, and every other node an exact ``dict``, ``list``, ``tuple``,
    ``str`` or ``int``, a ``bool``, ``None`` or a value with ``json_form``:
    anything else, a float included, raises ``TypeError``.
    """
    chunks: list[str] = []
    append = chunks.append
    memo: dict = {}
    layouts: dict = {}
    counted = size = capturing = 0

    def flush_if_full() -> None:
        # counts the pieces appended since the last count; never splits the
        # text of a value being memoised
        nonlocal counted, size
        if capturing:
            return
        size += sum(map(len, chunks[counted:]))
        counted = len(chunks)
        if size >= _FLUSH_SIZE:
            write("".join(chunks))
            chunks.clear()
            counted = size = 0

    def text_of(o, nl: str) -> str:
        # a memoised value's text at the depth of ``nl``: its depth-0 text,
        # encoded once, re-indented once per depth
        nonlocal capturing
        texts = memo.get(nl)
        if texts is None:
            texts = memo[nl] = {}
        text = texts.get(o)
        if text is None:
            if nl == "\n":
                mark = len(chunks)
                capturing += 1
                emit(o.json_form(), nl)
                capturing -= 1
                text = "".join(chunks[mark:])
                del chunks[mark:]
            else:
                text = text_of(o, "\n").replace("\n", nl)
            texts[o] = text
        return text

    def emit(o, nl: str) -> None:
        cls = o.__class__
        if cls is dict:
            if not o:
                append("{}")
                return
            keys = tuple(o)
            layout = layouts.get((keys, nl))
            if layout is None:
                for key in keys:
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                inner = nl + "  "
                layout = layouts[keys, nl] = [
                    (key, ("{" if k == 0 else ",") + inner + encode_basestring_ascii(key) + ": ")
                    for k, key in enumerate(sorted(keys))
                ]
            inner = nl + "  "
            for key, head in layout:
                value = o[key]
                if value.__class__ is int:
                    append(head + int.__repr__(value))
                else:
                    append(head)
                    emit(value, inner)
            append(nl + "}")
        elif cls is list or cls is tuple or cls is map:
            inner = nl + "  "
            if cls is not map and o and o[0].__class__ is int and all([x.__class__ is int for x in o]):
                append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
                return
            sep, comma = "[" + inner, "," + inner
            for item in o:
                append(sep)
                if item.__class__ in _MEMOISED:
                    append(text_of(item, inner))
                else:
                    emit(item, inner)
                sep = comma
                if len(chunks) - counted >= _COUNT_PIECES:
                    flush_if_full()
            append("[]" if sep[0] == "[" else nl + "]")
        elif cls in _MEMOISED:
            append(text_of(o, nl))
        elif cls is int:
            append(int.__repr__(o))
        elif cls is str:
            append(encode_basestring_ascii(o))
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif o is None:
            append("null")
        elif hasattr(o, "json_form"):
            emit(o.json_form(), nl)
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    emit(obj, "\n")
    append("\n")
    write("".join(chunks))


def _write(payload, write) -> None:
    """Write ``payload``: an iterator of text lines (DOT) in batches of
    ``_LINES_PER_WRITE`` lines, anything else as JSON."""
    if isinstance(payload, Iterator):
        while batch := "".join(itertools.islice(payload, _LINES_PER_WRITE)):
            write(batch)
    else:
        _write_json(payload, write)


def _emit(args, payload) -> None:
    """Write ``payload`` to ``--output`` or stdout.

    A file that cannot be written to the end is removed, so a failed run
    leaves no partial output behind.
    """
    if args.output == "-":
        _write(payload, sys.stdout.write)
        sys.stdout.flush()  # a closed pipe raises here, inside ``main``, not at shutdown
        return
    try:
        fh = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"output: {exc}") from None
    try:
        with fh:
            _write(payload, fh.write)
    except BaseException as exc:
        os.remove(args.output)
        if isinstance(exc, OSError):
            raise InputError(f"output: {exc}") from None
        raise


def _read_json(path: str | None, what: str):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: invalid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what}: not UTF-8 ({exc})") from None
    except RecursionError:
        raise InputError(f"{what}: JSON nested too deeply") from None
    except OSError as exc:
        raise InputError(f"{what}: {exc}") from None


def _complex_from_json(obj, where: str) -> StringComplex:
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a JSON array of strings")
    members = []
    for k, item in enumerate(obj):
        z = string_from_json(item, f"{where}[{k}]")
        members.append(core(z)[0])
    return StringComplex(members)


def _cmd_f_enumerate(args) -> int:
    levels = enumerate_nondegenerate(
        args.alpha, args.degree_bound, args.allow_empty, max_defect=args.alpha
    )
    # the levels come in degree order, each sorted, so this is sort_key order
    members = [z for level in levels for z in level]
    _emit(
        args,
        {
            "alpha": args.alpha,
            "degree_bound": args.degree_bound,
            "allow_empty": args.allow_empty,
            "count": len(members),
            "simplices": [z.json_form(True) for z in members],
        },
    )
    return 0


def _cmd_defect(args) -> int:
    z = string_from_json(_read_json(args.input, "input"), "input")
    _emit(args, {"degree": z.degree, "defect": defect(z)})
    return 0


def _cmd_e_alpha(args) -> int:
    C = defect_subcomplex(args.alpha, args.allow_empty)
    _emit(
        args,
        {
            "alpha": args.alpha,
            "allow_empty": args.allow_empty,
            "count": len(C),
            "simplices": C,
        },
    )
    return 0


def _cmd_shuffles(args) -> int:
    if args.dot:
        _emit(args, poset_dot(args.r, args.s))
        return 0
    words = enumerate_shuffles(args.r, args.s)
    _emit(
        args,
        {
            "r": args.r,
            "s": args.s,
            "count": len(words),
            "shuffles": words,
            "minimal": words[0],
            "maximal": words[-1],
        },
    )
    return 0


def _cmd_horns(args) -> int:
    if args.r < 1 or args.s < 1:
        raise InputError("horns needs --r >= 1 and --s >= 1")
    certs = [horn_certificate(w) for w in enumerate_shuffles(args.r, args.s)]
    _emit(args, {"r": args.r, "s": args.s, "certificates": certs})
    return 0


def _cmd_attach(args) -> int:
    if args.subset == "-" and args.grid == "-":
        raise InputError("--subset and --grid cannot both read stdin ('-')")
    C = _complex_from_json(_read_json(args.subset, "subset"), "subset")
    grid = grid_from_json(_read_json(args.grid, "grid"), "grid")
    _emit(args, attach_diagram(C, grid))
    return 0


def _cmd_present(args) -> int:
    skel = present(args.alpha, args.allow_empty)
    _emit(args, skel)
    return 0


def _cmd_t_match(args) -> int:
    profiles = excess_strings(args.alpha, args.degree_bound, args.allow_empty)
    matching = match_excess(profiles, args.alpha, args.degree_bound)
    ordered, report = order_excess(profiles, args.alpha)
    _emit(
        args,
        {
            "alpha": args.alpha,
            "degree_bound": args.degree_bound,
            "allow_empty": args.allow_empty,
            "profiles": profiles,
            "matching": matching,
            "ordering": {
                "order": [p.string.json_form(True) for p in ordered],
                "report": report,
            },
        },
    )
    return 0


def _cmd_skeleton_dim(args) -> int:
    _emit(
        args,
        {
            "alpha": args.alpha,
            "allow_empty": args.allow_empty,
            "skeletal_dimension": skeletal_dimension(args.alpha, args.allow_empty),
        },
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="finsimp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--output", default="-", help="output path (default stdout)")
        return p

    p = add("f-enumerate", _cmd_f_enumerate, "strings of bounded defect up to a degree bound")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--degree-bound", type=int, required=True)
    p.add_argument("--allow-empty", action="store_true")

    p = add("defect", _cmd_defect, "defect of a string read from stdin (or --input)")
    p.add_argument("--input", default="-", help="path to a string JSON (default stdin)")

    p = add("e-alpha", _cmd_e_alpha, "the full defect-bounded complex")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--allow-empty", action="store_true")

    p = add("shuffles", _cmd_shuffles, "shuffle words in attachment order")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--dot", action="store_true", help="emit the poset Hasse diagram as DOT")

    p = add("horns", _cmd_horns, "horn certificates for every shuffle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = add("attach", _cmd_attach, "attach a grid image to a complex")
    p.add_argument("--subset", required=True, help="path to a JSON array of strings ('-' for stdin)")
    p.add_argument("--grid", required=True, help="path to a grid JSON ('-' for stdin)")

    p = add("present", _cmd_present, "certified presentation skeleton")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--allow-empty", action="store_true")

    p = add("t-match", _cmd_t_match, "excess-string matching and precedence audit")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--degree-bound", type=int, required=True)
    p.add_argument("--allow-empty", action="store_true")

    p = add("skeleton-dim", _cmd_skeleton_dim, "largest nondegenerate degree at the bound")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--allow-empty", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("alpha", "degree_bound"):
            if getattr(args, name, None) is not None and getattr(args, name) < 1:
                raise InputError(f"--{name.replace('_', '-')} must be >= 1")
        for name in ("r", "s"):
            if getattr(args, name, None) is not None and getattr(args, name) < 0:
                raise InputError(f"--{name} must be >= 0")
        if args.output != "-":
            _check_output(args.output)
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # stdout's reader left: what stays buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: output: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        payload = {"error": str(exc), "witness": exc.witness}
        _write_json(payload, sys.stderr.write)
        return 2


if __name__ == "__main__":
    sys.exit(main())
