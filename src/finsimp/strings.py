"""Composable strings of finite-set maps, treated as simplices.

A degree-``t`` string is ``S_0 <- S_1 <- ... <- S_t`` with ``maps[i-1]``
the map ``S_i -> S_{i-1}``.  Face operators compose adjacent maps (or drop
an end), degeneracies insert identities, and two strings are regarded as
equal when they differ by levelwise bijections.  ``canonicalize`` picks the
lexicographically minimal representative of that equivalence class (the
least concatenation of image tuples), which makes string sets hashable and
output byte-stable.  It works level by level on the string read as a
leveled rooted forest, from a frontier of nested tie-groups of
equal-shaped subtrees, in polynomial time.

Each level of ``canonicalize`` is one step: from the frontier of a level
and the map onto it, the canonical block of the map and the frontier of
its source.  Frontiers are hashable nested tuples, interned, and
``_step`` computes each (frontier, map) pair once for the whole process,
so, as in the AHU labelling of rooted trees, each distinct shape is
handled once: a few hundred steps stand for the hundreds of thousands a
census or a walk asks for.  ``canonicalize``, ``core``, the censuses
(through ``canonical_extensions``), the walk of the member trie and
``grids.path_cores`` all take this one step; a step is a pure function of
its key, so every result is the one a fresh computation gives.

Prefix lemma: block ``k`` of the canonical form depends on the first ``k``
maps alone, and any relabeling of a prefix extends to the whole string, so
the prefix of a canonical string is canonical and every canonical string
of degree ``t+1`` has exactly one canonical parent, its degree-``t``
prefix.  Written in the parent's labels, its top block is the sorted block
of a fiber vector ``c``, and the child is canonical iff ``c`` is the
largest fiber vector over the orders the parent's top frontier admits,
that is iff the step gives the map back as its own block.
``canonical_extensions`` applies this acceptance test once per frontier
and table, and the censuses (``enumerate_nondegenerate`` and the corner
census of ``grids``) grow each canonical string once from its parent: no
canonicalizing, no dedupe.

The candidate maps depend only on the parent's top cardinality, so each
census call builds one ``extension_table`` per top cardinality: one shared
``FinMap`` per candidate, with its defect increment and its class, sorted
once by the compact JSON of the one-map string.  Order lemma: a child's
``serialize`` is its parent's with the closing ``]}`` replaced by
``,<map json>]}`` (no comma after an empty list), and no map's JSON is a
prefix of another's, since each holds exactly one ``}``, at its end.  So
children emitted in parent order, and in table order within a parent,
come out sorted; only degree 0 is sorted.

The members of ``E^alpha`` (the canonical nondegenerate strings of defect
at most ``alpha``) form a trie by the prefix lemma, and ``walk_members``
walks it once, depth first.  It returns the members, one list per degree
in ``sort_key`` order by the order lemma: the census of ``E^alpha`` that
the union of the grid images is checked against.  It also carries the
state of ``canonicalize`` (the canonical blocks so far and the top
frontier) for each face of a member and for its saturation.  For a child
``w = z + (f,)`` of degree ``t+1``, face ``i < t`` is face ``i`` of ``z``
extended by ``f``; face ``t`` is the prefix of ``z`` extended by the
composite of the last two maps; face ``t+1`` is ``z``; and the saturation
of ``w`` is that of ``z`` extended by the ``mono`` and then the ``epi`` of
``f``.  Each is one ``_step``.  A bijective map has an all-ones fiber,
which resolves no part of the frontier, so its block is the identity, and
the walk drops it, as ``core`` does.  So each face core and each
saturation core costs one step, not a ``core``.  The walk fills only
the memos of ``face_cores`` and ``_saturation_core``, which are functions
of each string; a string it did not reach is cored as before, so the grid
images never depend on the walk's lists.

Identity is cheap: ``MapString`` is a named tuple ``(card0, maps)``, as
``FinMap`` is, so its hash, ``hash((card0, maps))``, and its equality run
in C, and ``serialize`` writes the compact JSON by hand.

Values are validated at the boundary.  ``MapString(...)`` checks that its
maps compose, and ``string_from_json``, ``extension_table`` and the other
public constructors keep doing so; a string derived from valid strings is
valid by construction, so ``face``, ``canonicalize``, ``core``,
``canonical_extensions``, ``saturate`` and ``grids.path_cores`` build
theirs with ``_unchecked_string``, which is ``tuple.__new__(MapString,
(card0, maps))``, and ``_step`` builds its blocks with
``_block``, through ``finmap._unchecked_map``.

The census carries what it already knows about each string: its defect,
and its top runs ``(inj_run, surj_run, junction)``, the properly injective
maps at the top, the properly surjective maps directly below them and the
class of the map below both (``None`` when the runs reach the bottom).
Each extension table entry knows its class, so a child's runs follow from
its parent's in O(1); ``presentation.excess_strings`` reads its profiles
off them through ``_census``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter

from .errors import InputError
from .finmap import FinMap, MapClass, _plain_json, _unchecked_map, compose, epi_mono_factor, identity
from .finmap import _check_card, from_json as finmap_from_json


class MapString(namedtuple("MapString", "card0 maps")):
    """A string of composable maps; ``card0`` is the cardinality of ``S_0``."""

    __slots__ = ()

    def __new__(cls, card0: int, maps: tuple[FinMap, ...] = ()):
        if card0 < 0:
            raise InputError(f"negative card0: {card0}")
        if not isinstance(maps, tuple):
            maps = tuple(maps)
        prev = card0
        for k, f in enumerate(maps):
            if f.dst != prev:
                raise InputError(f"maps[{k}]: dst={f.dst} does not match previous cardinality {prev}")
            prev = f.src
        return tuple.__new__(cls, (card0, maps))

    @property
    def degree(self) -> int:
        return len(self.maps)

    def cards(self) -> tuple[int, ...]:
        """Cardinalities ``(|S_0|, ..., |S_t|)``."""
        return (self.card0,) + tuple(f.src for f in self.maps)

    def is_nondegenerate(self) -> bool:
        """No bijective map anywhere; degeneracies always insert bijections."""
        return all(not f.is_bijective for f in self.maps)

    def sort_key(self) -> tuple:
        return (self.degree, serialize(self))

    def json_form(self, canonical: bool | None = None) -> dict:
        form = {"card0": self.card0, "maps": self.maps}
        if canonical is not None:
            form["canonical"] = canonical
        return form

    def to_json(self, canonical: bool | None = None) -> dict:
        return _plain_json(self.json_form(canonical))


def _unchecked_string(card0: int, maps: tuple[FinMap, ...]) -> MapString:
    """A MapString built without validation, for strings derived from valid
    ones; ``maps`` must be a tuple of composable maps."""
    return tuple.__new__(MapString, (card0, maps))


def serialize(z: MapString) -> str:
    """Compact deterministic JSON form, used as the tie-break sort key: the
    bytes of ``json.dumps(z.to_json(), sort_keys=True, separators=(",", ":"))``,
    written by hand."""
    maps = ['{"dst":%d,"img":[%s],"src":%d}' % (f.dst, ",".join(map(str, f.img)), f.src) for f in z.maps]
    return '{"card0":%d,"maps":[%s]}' % (z.card0, ",".join(maps))


def face(z: MapString, i: int) -> MapString:
    """Drop level ``i``: compose the two adjacent maps, or forget an end."""
    t = z.degree
    if t < 1:
        raise InputError("face of a degree-0 string")
    if not 0 <= i <= t:
        raise InputError(f"face index {i} out of range [0, {t}]")
    if i == 0:
        return _unchecked_string(z.maps[0].src, z.maps[1:])
    if i == t:
        return _unchecked_string(z.card0, z.maps[:-1])
    merged = compose(z.maps[i - 1], z.maps[i])
    return _unchecked_string(z.card0, z.maps[: i - 1] + (merged,) + z.maps[i + 1 :])


def degeneracy(z: MapString, i: int) -> MapString:
    """Repeat level ``i`` by inserting an identity map."""
    t = z.degree
    if not 0 <= i <= t:
        raise InputError(f"degeneracy index {i} out of range [0, {t}]")
    c = z.cards()[i]
    return MapString(z.card0, z.maps[:i] + (identity(c),) + z.maps[i:])


def defect(z: MapString) -> int:
    """``sum |S_i| - sum |im(maps[i])|``; never increases under faces."""
    return sum(z.cards()) - sum(len(set(f.img)) for f in z.maps)


def saturate(z: MapString) -> MapString:
    """Factor every map into surjection-then-inclusion, doubling the degree.

    The pair replacing ``f`` is ``(mono, epi)`` in string order, so the face
    composing them recovers ``f``; the defect is unchanged.
    """
    if z.degree < 1:
        raise InputError("saturate needs degree >= 1")
    out = []
    for f in z.maps:
        epi, mono = epi_mono_factor(f)
        out.append(mono)
        out.append(epi)
    return _unchecked_string(z.card0, tuple(out))


# A frontier is the set of admissible orders of one level, stored as a
# tuple of parts in fixed order.  A part is an element (int), a tuple of
# elements that may be permuted freely, or a tie-group (``_Tie``): a tuple of
# at least two equal-shaped member frontiers that may be permuted only as
# wholes.  Frontiers are hashable and interned, so each state of
# ``canonicalize`` is one object, and ``_step`` computes each (frontier, map)
# pair once.


class _Tie(tuple):
    """A tie-group of a frontier; its own type, so that ``p.__class__ is
    tuple`` still picks out the free parts."""

    __slots__ = ()


_vector = itemgetter(0)


def _resolve(parts, fiber: list[int]) -> tuple[tuple[int, ...], list]:
    """Largest fiber vector over the orders ``parts`` admits, and the
    frontier of the orders that reach it, as a list that only ``_expand``
    reads (its tie-groups are lists).

    Members of a group are sorted by vector, largest first; members with
    equal vectors stay one group, every other member is spliced in place.
    An all-ones fiber leaves every part as it is.
    """
    vec: list[int] = []
    out: list = []
    for p in parts:
        if p.__class__ is int:
            vec.append(fiber[p])
            out.append(p)
            continue
        if p.__class__ is tuple:
            els = sorted(p, key=fiber.__getitem__, reverse=True)
            i, n = 0, len(els)
            while i < n:
                c = fiber[els[i]]
                j = i + 1
                while j < n and fiber[els[j]] == c:
                    j += 1
                out.append(els[i] if j - i == 1 else tuple(els[i:j]))
                vec.extend([c] * (j - i))
                i = j
            continue
        members = sorted([_resolve(m, fiber) for m in p], key=_vector, reverse=True)
        i, n = 0, len(members)
        while i < n:
            v = members[i][0]
            j = i + 1
            while j < n and members[j][0] == v:
                j += 1
            if j - i == 1:
                out.extend(members[i][1])
            else:
                out.append([m[1] for m in members[i:j]])
            vec.extend(v * (j - i))
            i = j
    return tuple(vec), out


def _expand(parts: list, children: list[tuple[int, ...]]) -> tuple:
    """Frontier of the next level after ``parts`` is resolved: the children
    of one element permute freely, and tied parts keep their children
    together.  Tied parts have equal fiber vectors, so their children have
    equal shapes, and a part of leaves vanishes."""
    out: list = []
    for p in parts:
        if p.__class__ is int:
            ch = children[p]
            if len(ch) == 1:
                out.append(ch[0])
            elif ch:
                out.append(ch)
            continue
        if p.__class__ is tuple:
            ch = children[p[0]]
            if len(ch) == 1:
                out.append(tuple([children[e][0] for e in p]))
            elif ch:
                out.append(_Tie([(children[e],) for e in p]))
            continue
        members = [_expand(m, children) for m in p]
        if members[0]:
            out.append(_Tie(members))
    return tuple(out)


def _block(src: int, dst: int, vec: tuple[int, ...]) -> FinMap:
    """The sorted block ``0^c0 1^c1 ...`` of the fiber vector ``vec``."""
    block: list[int] = []
    for i, c in enumerate(vec):
        block += [i] * c
    return _unchecked_map(src, dst, tuple(block))


# The interned frontiers, and the result of ``_step`` per (frontier, map).
_frontiers: dict[tuple, tuple] = {}
_steps: dict[tuple[tuple, FinMap], tuple[FinMap, tuple, bool]] = {}


def _intern_frontier(frontier: tuple) -> tuple:
    return _frontiers.setdefault(frontier, frontier)


def _start_frontier(c: int) -> tuple:
    """The frontier of a bottom level of cardinality ``c``, whose elements
    permute freely, spelled as ``_expand`` spells a level: no part for an
    empty level, an element alone, else one free tuple."""
    return _intern_frontier(() if c == 0 else (0,) if c == 1 else (tuple(range(c)),))


def _step(frontier: tuple, f: FinMap) -> tuple[FinMap, tuple, bool]:
    """One level of ``canonicalize``: from the frontier of the level ``f``
    maps onto, the canonical block of ``f``, the frontier of ``f``'s source
    and whether ``f`` is bijective; computed once per (frontier, map).

    A bijective map has an all-ones fiber, which resolves no part, so its
    block is the identity and its step only moves the frontier; the walks
    that carry the state of a core drop that block, as ``core`` merges the
    levels a bijection joins.
    """
    key = (frontier, f)
    out = _steps.get(key)
    if out is None:
        children: list[list[int]] = [[] for _ in range(f.dst)]
        for j, v in enumerate(f.img):
            children[v].append(j)
        vec, resolved = _resolve(frontier, [len(ch) for ch in children])
        ahead = _intern_frontier(_expand(resolved, [tuple(ch) for ch in children]))
        out = _steps[key] = (_block(f.src, f.dst, vec), ahead, f.src == f.dst and 0 not in vec)
    return out


def canonicalize(z: MapString) -> MapString:
    """Lexicographically minimal relabeling of ``z``.

    Minimizes the concatenation ``img(maps[0]) || img(maps[1]) || ...`` over
    all tuples of levelwise bijections.  The result is a member of the
    input's equivalence class, so equal canonical forms are equivalent
    strings by construction.

    The string is a leveled rooted forest: the parent of an element of
    ``S_{k+1}`` is its image in ``S_k``.  For a fixed order of ``S_k`` the
    best block ``k`` is sorted, ``0^c0 1^c1 ...`` with ``c_i`` the fiber
    size of the element labeled ``i``, so the minimal block comes from the
    admissible order whose fiber vector ``(c0, c1, ...)`` is
    lexicographically largest.  The admissible orders of a level form a
    frontier of nested tie-groups: order is fixed between parts and free
    among the members of a group, which move only as wholes because tied
    subtrees swap together.  Each level resolves the frontier (sort the
    members of each group by fiber vector, split off the unequal ones) and
    expands it by the children of every element, in time polynomial in the
    size of the string; ``_step`` does each level, once per distinct
    (frontier, map) pair.
    """
    if z.degree == 0:
        return z
    frontier = _start_frontier(z.card0)
    maps = []
    for f in z.maps:
        block, frontier, _ = _step(frontier, f)
        maps.append(block)
    return _unchecked_string(z.card0, tuple(maps))


class Extension(namedtuple("Extension", "map inc cls")):
    """One entry of an extension table: a map onto the top level, shared by
    every string it extends, with its defect increment ``src - |image|``
    and its class.  No entry is a bijection: it is properly injective when
    ``inc == 0``, properly surjective when ``inc > 0`` and every fiber is
    nonzero, and neither otherwise."""

    __slots__ = ()


class ExtensionTable(list):
    """Extension table entries in table order, with the entries
    ``canonical_extensions`` accepted over each frontier it was asked
    about, and the frontier each leads to."""

    __slots__ = ("accepted",)

    def __init__(self, entries=()):
        super().__init__(entries)
        self.accepted: dict[tuple, list[tuple[Extension, tuple]]] = {}


def extension_table(last: int, lo: int, max_card: int, room: float) -> ExtensionTable:
    """The extensions of a string whose top cardinality is ``last`` by one
    non-identity map with a weakly increasing image tuple, a source of
    cardinality ``lo`` to ``max_card`` and a defect increment of at most
    ``room``, sorted by the compact JSON of the one-map string (see the
    order lemma above).

    An image tuple is its set of values together with the multiset of its
    ``inc`` repeats, so only the tuples within ``room`` are generated."""
    table = []
    for k in range(last + 1):
        for inc in range(max(0, lo - k), min(room, max_card - k) + 1):
            if k == last and inc == 0:
                continue  # the identity
            if inc == 0:
                cls = MapClass.PROPER_INJECTIVE
            elif k == last:
                cls = MapClass.PROPER_SURJECTIVE
            else:
                cls = MapClass.NEITHER
            for support in itertools.combinations(range(last), k):
                for repeats in itertools.combinations_with_replacement(support, inc):
                    img = tuple(sorted(support + repeats))
                    table.append(Extension(FinMap(k + inc, last, img), inc, cls))
    table.sort(key=lambda e: serialize(MapString(last, (e.map,))))
    return ExtensionTable(table)


def canonical_extensions(z: MapString, frontier: tuple, table: ExtensionTable):
    """Each canonical extension of the canonical string ``z`` by an entry of
    ``table`` (an ``extension_table`` of ``z``'s top cardinality, or a part
    of one), as ``(child, its top frontier, entry)``, in table order.
    ``frontier`` is that of ``z``'s top level (``_start_frontier(n)`` for
    ``MapString(n)``).  An entry is kept iff ``_step`` gives it back as its
    own block: its fiber vector is the largest the frontier admits (the
    prefix lemma above).  The kept entries are found once per frontier and
    table, and kept in ``table.accepted``."""
    accepted = table.accepted.get(frontier)
    if accepted is None:
        accepted = table.accepted[frontier] = []
        for e in table:
            block, ahead, _ = _step(frontier, e.map)
            if block == e.map:
                accepted.append((e, ahead))
    card0, maps = z.card0, z.maps
    for e, ahead in accepted:
        yield _unchecked_string(card0, maps + (e.map,)), ahead, e


def core(z: MapString) -> tuple[MapString, tuple[int, ...]]:
    """Strip bijective maps, yielding the nondegenerate base in canonical form.

    Returns ``(base, indices)`` where applying ``degeneracy(.., i)`` for
    ``i`` in reversed ``indices`` rebuilds a string equivalent to ``z``.
    This is ``canonicalize``'s step loop with the block of each bijective
    step dropped, since a bijection merges the two levels it joins: a
    bijection at position ``k`` is degeneracy ``k`` less the number of
    bijections before it.
    """
    frontier = _start_frontier(z.card0)
    blocks = []
    indices = []
    for k, f in enumerate(z.maps):
        block, frontier, bijective = _step(frontier, f)
        if bijective:
            indices.append(k - len(indices))
        else:
            blocks.append(block)
    return _unchecked_string(z.card0, tuple(blocks)), tuple(indices)


def string_from_json(obj, where: str = "string") -> MapString:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object, got {type(obj).__name__}")
    if "card0" not in obj:
        raise InputError(f"{where}.card0: missing")
    card0 = obj["card0"]
    _check_card(card0, f"{where}.card0")
    maps_obj = obj.get("maps", [])
    if not isinstance(maps_obj, list):
        raise InputError(f"{where}.maps: expected a list")
    maps = tuple(finmap_from_json(m, f"{where}.maps[{k}]") for k, m in enumerate(maps_obj))
    try:
        return MapString(card0, maps)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


# Each core met by a closure walk as one shared object, the cores of its
# faces in face order, and the core of its saturation.
_interned: dict[MapString, MapString] = {}
_face_cores: dict[MapString, tuple[MapString, ...]] = {}
_saturation_cores: dict[MapString, MapString] = {}


def _intern(z: MapString) -> MapString:
    return _interned.setdefault(z, z)


def interned_core(z: MapString) -> MapString:
    """The core of ``z`` as the one shared object of its class; an interned
    string is its own core, so it is not cored again."""
    w = _interned.get(z)
    return _intern(core(z)[0]) if w is None else w


def face_cores(z: MapString) -> tuple[MapString, ...]:
    """The interned cores of the faces of the interned core ``z``, in face
    order; computed once per class and shared by every caller.

    The top face of a canonical nondegenerate string is its prefix, which
    is canonical by the prefix lemma and keeps no bijection, so it is its
    own core and is interned without coring."""
    faces = _face_cores.get(z)
    if faces is None:
        faces = ()
        t = z.degree
        if t:
            faces = tuple(_intern(core(face(z, i))[0]) for i in range(t))
            faces += (_intern(face(z, t)),)
        _face_cores[z] = faces
    return faces


def _saturation_core(z: MapString) -> MapString:
    """``core(saturate(z))[0]`` for ``z`` of degree at least 1, computed
    once per string."""
    w = _saturation_cores.get(z)
    if w is None:
        w = _saturation_cores[z] = core(saturate(z))[0]
    return w


def degree_cap(alpha: int) -> int:
    """The top degree ``walk_members`` reaches in ``E^alpha``: it lists the
    members of this degree but extends none of them.  The degree ends on
    its own well below, since a proper injection shrinks the top
    cardinality and every other map raises the defect, so a member of this
    degree means the walk did not end, and ``check_against_enumeration``
    raises on it."""
    return alpha * (alpha + 2) + 1


def walk_members(alpha: int, allow_empty: bool = False, saturations: bool = False) -> list[list[MapString]]:
    """The members of ``E^alpha`` (the canonical nondegenerate strings of
    defect at most ``alpha``), from one depth-first walk of their trie: one
    list per degree up to the first empty one or to the cap, as
    ``enumerate_nondegenerate(alpha, degree_cap(alpha), allow_empty,
    max_defect=alpha)`` returns them.  Within a degree the walk meets the
    members in parent order and then in table order, which is ``sort_key``
    order by the order lemma.

    The walk also fills ``face_cores``'s memo, and with ``saturations``
    that of ``_saturation_core``, for every member.  Each member carries
    ``canonicalize``'s state ``(card0, blocks, frontier)`` for each of its
    faces and for its saturation; every state of a child is one ``_step``
    from a state of its parent (see the module docstring), whose block is
    dropped when the map is bijective.  A string that no walk reached still
    gets its cores from ``core``.
    """
    lo = 0 if allow_empty else 1
    cap = degree_cap(alpha)
    table = _tables(lo, alpha, alpha)
    levels: list[list[MapString]] = [[]]

    def step(state: tuple, f: FinMap) -> tuple:
        card0, blocks, frontier = state
        block, ahead, bijective = _step(frontier, f)
        return card0, blocks if bijective else blocks + (block,), ahead

    def visit(z: MapString, frontier: tuple, d: int, faces: list, below: tuple, sat: tuple, top) -> None:
        # ``faces``: the states of the faces of ``z`` but its prefix;
        # ``below``: the top frontier of its prefix; ``top``: its top map;
        # ``t``: the degree of its children
        t = len(z.maps) + 1
        if t == len(levels):
            levels.append([])
        level = levels[t]
        last = z.maps[-1].src if z.maps else z.card0
        for w, ahead, e in canonical_extensions(z, frontier, table(last, alpha - d)):
            w = _intern(w)
            level.append(w)
            f = e.map
            grown = [step(s, f) for s in faces]
            if top is None:
                grown.append((f.src, (), _start_frontier(f.src)))
            else:
                grown.append(step((z.card0, z.maps[:-1], below), compose(top, f)))
            _face_cores[w] = tuple([_intern(_unchecked_string(c, b)) for c, b, _ in grown]) + (z,)
            saturated = None
            if saturations:
                epi, mono = epi_mono_factor(f)
                saturated = step(step(sat, mono), epi)
                _saturation_cores[w] = _intern(_unchecked_string(z.card0, saturated[1]))
            if t < cap:
                visit(w, ahead, d + e.inc, grown, frontier, saturated, f)

    for z in sorted(map(MapString, range(lo, alpha + 1)), key=serialize):
        z = _intern(z)
        c = z.card0
        levels[0].append(z)
        _face_cores[z] = ()
        frontier = _start_frontier(c)
        visit(z, frontier, c, [], frontier, (c, (), frontier), None)
    return levels


def core_face_indices(bijective) -> tuple[int | None, ...]:
    """Where the core of each face of a string sits, given whether each of
    its maps is bijective (``bijective[k]`` for ``maps[k]``), per face index
    ``x``: ``None`` when it is the core of the string itself, else the index
    ``x'`` with ``core(face(z, x))[0] == face_cores(interned_core(z))[x']``.

    ``core`` merges each run of levels joined by bijective maps into one
    level.  Dropping a level that shares its run leaves a degeneracy of the
    same core (``d_j s_j = d_{j+1} s_j = id``); dropping a level alone in
    its run is the face at that run's index.
    """
    t = len(bijective)
    out = []
    k = -1
    for x in range(t + 1):
        below = x > 0 and bijective[x - 1]
        if not below:
            k += 1
        out.append(None if below or (x < t and bijective[x]) else k)
    return tuple(out)


def face_closure(seed, stop=frozenset()) -> set[MapString]:
    """The face closure of the cores of ``seed``, less the members of
    ``stop``, which must be face-closed.

    The walk stops at members of ``stop`` and at members it has already
    visited.  Every core it meets is interned, and the cores of a member's
    faces come from ``face_cores``, so each canonical class is one object
    and has its faces cored once.
    """
    todo = [interned_core(z) for z in seed]
    out: set[MapString] = set()
    while todo:
        z = todo.pop()
        if z in out or z in stop:
            continue
        out.add(z)
        todo.extend(face_cores(z))
    return out


class StringComplex(frozenset):
    """A face-closed set of canonical nondegenerate strings.

    Degenerate strings are never stored; membership of an arbitrary string
    is decided through its core.  This keeps finite data for objects that
    would be infinite as raw simplex sets.

    A ``frozenset`` of the cores: ``in``, ``len``, iteration, equality,
    hashing and the set operations are the frozenset's own, and mean what
    they mean for a complex; ``C | D`` and ``C - D`` are plain frozensets.
    """

    __slots__ = ()

    @staticmethod
    def closure(seed) -> StringComplex:
        """Face-closure of arbitrary strings (canonicalized via cores); see
        ``face_closure``."""
        return StringComplex(face_closure(seed))

    def max_degree(self) -> int:
        return max((z.degree for z in self), default=-1)

    def json_form(self) -> map:
        """The members in ``sort_key`` order, each with ``canonical: true``,
        formed one at a time as the array is consumed."""
        members = sorted(self, key=MapString.sort_key)
        return map(MapString.json_form, members, itertools.repeat(True))

    def to_json(self) -> list:
        return _plain_json(self.json_form())


def _tables(lo: int, max_card: int, cap: float):
    """``table(last, room)``: the ``extension_table`` of top cardinality
    ``last`` and defect room ``room``, for strings of defect at most
    ``cap``, built once per pair."""
    tables: dict[tuple[int, float], ExtensionTable] = {}

    def table(last: int, room: float) -> ExtensionTable:
        # a string's defect is at least its top cardinality, so no string
        # with top ``last`` has more room than ``cap - last``; the tables
        # for less room keep the same entries
        t = tables.get((last, room))
        if t is None:
            widest = cap - last
            if room == widest:
                t = extension_table(last, lo, max_card, room)
            else:
                t = ExtensionTable(e for e in table(last, widest) if e.inc <= room)
            tables[last, room] = t
        return t

    return table


def _census(max_card: int, max_degree: int, allow_empty: bool = False, max_defect: int | None = None):
    """The census behind ``enumerate_nondegenerate``, one level per degree,
    each a list of ``(z, frontier, defect, runs)`` sorted by
    ``MapString.sort_key``; ``frontier`` is that of ``z``'s top level and
    ``runs`` its top runs (see the module docstring).

    Orderly generation: ``canonical_extensions`` grows each canonical
    string of the next level once, from its prefix, through one shared
    ``extension_table`` per top cardinality.  With ``max_defect`` set,
    extensions over the bound are skipped (appending to a string never
    lowers its defect).  Children come in parent order and then in table
    order, which by the order lemma above is sorted, so only degree 0 is
    sorted.  A child's runs follow from its parent's and the class of its
    top map: a properly injective map lengthens the injective run; a
    properly surjective one starts the surjective run over, or lengthens it
    when the injective run is empty; any other map is the new junction.
    Each level is yielded before the next is grown from it.
    """
    lo = 0 if allow_empty else 1
    cap = float("inf") if max_defect is None else max_defect
    table = _tables(lo, max_card, cap)
    injective, surjective = MapClass.PROPER_INJECTIVE, MapClass.PROPER_SURJECTIVE
    level = [(MapString(c), _start_frontier(c), c, (0, 0, None)) for c in range(lo, max_card + 1) if c <= cap]
    level.sort(key=lambda e: serialize(e[0]))
    for degree in range(max_degree + 1):
        yield level
        if degree == max_degree or (degree and not level):
            break
        grown = []
        for z, frontier, d, (i, s, j) in level:
            last = z.maps[-1].src if z.maps else z.card0
            for w, top, e in canonical_extensions(z, frontier, table(last, cap - d)):
                c = e.cls
                if c is injective:
                    runs = (i + 1, s, j)
                elif c is surjective:
                    runs = (0, s + 1, j) if i == 0 else (0, 1, injective)
                else:
                    runs = (0, 0, c)
                grown.append((w, top, d + e.inc, runs))
        level = grown


def enumerate_nondegenerate(
    max_card: int,
    max_degree: int,
    allow_empty: bool = False,
    max_defect: int | None = None,
) -> list[list[MapString]]:
    """Canonical nondegenerate strings, grouped by degree and sorted by
    ``MapString.sort_key``: the strings of ``_census``.  Finished levels
    keep only their strings."""
    return [[e[0] for e in level] for level in _census(max_card, max_degree, allow_empty, max_defect)]
