"""Maps between standard finite sets.

The standard set of cardinality ``n`` is ``{0, ..., n-1}``; cardinality 0
(the empty set) is permitted.  A map is stored by its image array, so all
operations are pure integer bookkeeping.

``FinMap`` is a named tuple ``(src, dst, img)``: hashing, equality and
field access run in C, and ``hash(FinMap(s, d, i)) == hash((s, d, i))``.
``strings.MapString`` is the named tuple ``(card0, maps)`` built the same
way, with ``strings._unchecked_string`` as its unchecked constructor.
Calling ``FinMap`` validates its arguments; that is the boundary for every
map that comes from outside (``from_json``, ``all_maps``, the staircase
completion).  A map derived from valid maps is valid by construction, so
``identity``, ``compose`` and ``epi_mono_factor`` build theirs with the one
unchecked constructor ``_unchecked_map``, which is ``tuple.__new__(FinMap,
(src, dst, img))``; so do ``strings.canonicalize`` and
the grid fill ``grids._add_column``.

The value classes of the package state their JSON once, as a shallow form
``json_form()``: a dict whose children may be values themselves, tuples
(written as arrays) or ``map`` objects over values.  ``to_json()`` is
``_plain_json`` of that form, a tree of plain dicts and lists, and the
CLI writer streams the form itself, so it builds no such tree.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple

from .errors import InputError

# The largest cardinality a JSON reader accepts: string walks are linear in it.
MAX_CARD = 1 << 16


class MapClass(enum.Enum):
    BIJECTIVE = "bijective"
    PROPER_INJECTIVE = "proper_injective"
    PROPER_SURJECTIVE = "proper_surjective"
    NEITHER = "neither"


class FinMap(namedtuple("FinMap", "src dst img")):
    """A map ``{0,..,src-1} -> {0,..,dst-1}`` given by its image tuple."""

    __slots__ = ()

    def __new__(cls, src: int, dst: int, img):
        if src < 0 or dst < 0:
            raise InputError(f"negative cardinality: src={src}, dst={dst}")
        if not isinstance(img, tuple):
            img = tuple(img)
        if len(img) != src:
            raise InputError(f"img has length {len(img)}, expected src={src}")
        if img and not (0 <= min(img) and max(img) < dst):
            for k, v in enumerate(img):
                if not 0 <= v < dst:
                    raise InputError(f"img[{k}]={v} out of range [0, {dst})")
        return tuple.__new__(cls, (src, dst, img))

    def __call__(self, x: int) -> int:
        return self.img[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.img)) == self.src

    @property
    def is_surjective(self) -> bool:
        return len(set(self.img)) == self.dst

    @property
    def is_bijective(self) -> bool:
        return self.src == self.dst and self.is_injective

    def image(self) -> tuple[int, ...]:
        """Image of the map as an increasing tuple."""
        return tuple(sorted(set(self.img)))

    def json_form(self) -> dict:
        return {"src": self.src, "dst": self.dst, "img": self.img}

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


def _plain_json(form):
    """The plain JSON tree of a shallow form: every value replaced by the
    tree of its ``json_form()``, every tuple or ``map`` by a list."""
    cls = form.__class__
    if cls is dict:
        return {k: _plain_json(v) for k, v in form.items()}
    if cls is list or cls is tuple or cls is map:
        return [_plain_json(v) for v in form]
    json_form = getattr(form, "json_form", None)
    return form if json_form is None else _plain_json(json_form())


def _unchecked_map(src: int, dst: int, img: tuple[int, ...]) -> FinMap:
    """A FinMap built without validation, for maps derived from valid ones."""
    return tuple.__new__(FinMap, (src, dst, img))


def identity(n: int) -> FinMap:
    if n < 0:
        raise InputError(f"negative cardinality: src={n}, dst={n}")
    return _unchecked_map(n, n, tuple(range(n)))


def classify(f: FinMap) -> MapClass:
    """Classify by the injective/surjective dichotomy."""
    size = len(set(f.img))
    inj, sur = size == f.src, size == f.dst
    if inj and sur:
        return MapClass.BIJECTIVE
    if inj:
        return MapClass.PROPER_INJECTIVE
    if sur:
        return MapClass.PROPER_SURJECTIVE
    return MapClass.NEITHER


def compose(g: FinMap, f: FinMap) -> FinMap:
    """The composite ``g after f``; requires ``f.dst == g.src``."""
    if f.dst != g.src:
        raise InputError(f"not composable: f.dst={f.dst} != g.src={g.src}")
    return _unchecked_map(f.src, g.dst, tuple(map(g.img.__getitem__, f.img)))


def epi_mono_factor(f: FinMap) -> tuple[FinMap, FinMap]:
    """Factor ``f`` as a surjection onto its image followed by an injection.

    The injection enumerates the image in increasing order, which makes the
    factorization canonical: it is the unique one with an order-preserving
    second factor.  Returns ``(epi, mono)`` with ``compose(mono, epi) == f``.
    """
    image = f.image()
    rank = {v: k for k, v in enumerate(image)}
    epi = _unchecked_map(f.src, len(image), tuple(map(rank.__getitem__, f.img)))
    mono = _unchecked_map(len(image), f.dst, image)
    return epi, mono


def all_maps(src: int, dst: int):
    """All maps ``src -> dst`` in lexicographic order of image tuples
    (none when dst == 0 < src)."""
    return (FinMap(src, dst, img) for img in itertools.product(range(dst), repeat=src))


def _check_card(n, where: str) -> None:
    """Refuse a JSON cardinality that is no integer or exceeds ``MAX_CARD``."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"{where}: expected an integer")
    if n > MAX_CARD:
        raise InputError(f"{where}: {n} exceeds the cardinality bound {MAX_CARD}")


def from_json(obj, where: str = "map") -> FinMap:
    """Parse a FinMap from ``{"src":…, "dst":…, "img":[…]}``, naming bad fields."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object, got {type(obj).__name__}")
    for field in ("src", "dst", "img"):
        if field not in obj:
            raise InputError(f"{where}.{field}: missing")
    src, dst, img = obj["src"], obj["dst"], obj["img"]
    _check_card(src, f"{where}.src")
    _check_card(dst, f"{where}.dst")
    if not isinstance(img, list) or any(not isinstance(v, int) or isinstance(v, bool) for v in img):
        raise InputError(f"{where}.img: expected a list of integers")
    try:
        return FinMap(src, dst, tuple(img))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
