"""Rectangular grids of finite sets with injective rows and surjective columns.

Cell ``(i, j)`` sits in column ``i`` (0..r, left to right) and row ``j``
(0..s, bottom to top).  Horizontal arrows ``(i+1,j) -> (i,j)`` are
injective, vertical arrows ``(i,j) -> (i,j-1)`` are surjective, and every
square commutes.  A grid is determined up to unique levelwise bijection by
its corner data (top row plus left column), and restricting along monotone
paths turns grids into strings.

A grid is checked once, where it enters: ``grid_from_json`` and
``complete_from_staircase`` validate the grid they build, while
``complete_from_corner`` validates its ``CornerData`` and builds a grid
valid by construction, with unchecked maps.  The corner census grows the
same grids, unchecked too, from corner strings its tables build valid.

The image of a grid is the face closure of the cores of its
``C(r+s, s)`` shuffle paths: every chain of the cell poset lies on some
shuffle path, so its restriction is an iterated face of a path
restriction.  Every image is read off the path cores, from one walk of
the trie of the shuffle paths, a column at a time, that carries the state
of ``canonicalize`` along each prefix and takes its memoised step
(``strings._step``): a path is never restricted, cored or canonicalized,
and a bijective step only moves the top frontier, since the core merges
the levels a bijection joins.  The walk also reports where the
core of each face of a path's restriction sits, so ``boundary_cores`` reads
the core of every boundary facet off the path cores without restricting
the facet.  ``complete_from_staircase`` reads the defect of each shuffle
pullback off the path cores too.  ``defect_subcomplex`` grows one member
set and walks only what each image adds to it, as the replay of
``present`` does.  No chain table is kept on a grid; the restriction
along a path and the whole image of one grid are test oracles.
``boundary_image`` stays public although the library does not call it,
since the benchmark's input generator builds its attach subsets with it,
and ``canonicalize`` is imported here unused, since the benchmark's
tracer test checks that binding.

``enumerate_corner_grids`` grows the corner trie once, breadth first and
in census order: each corner string comes from its parent, the string
less its last map, and each grid of two columns or more from its
parent's grid, the grid less its last column.  It shares the parent's
columns, and the path cores it yields with the grid continue the
parent's walk up the new column, so ``present`` and ``defect_subcomplex``
walk only parents whole, once each.  Only the parents still to extend
and the children grown so far are held.  ``complete_from_corner`` and
``path_cores`` serve grids from elsewhere and are the census's oracles.
The shuffles (in ``shuffles._shuffles``) and the boundary facet
positions are cached per ``(r, s)``, and each step of the path walk per
frontier and map, in the memo ``canonicalize`` shares.
``is_saturated`` looks up ``core(saturate(z))`` for every member in a memo
keyed by the member, and the replay of ``present`` looks up only the
members added since its last check, in the same memo.
``defect_subcomplex`` and ``present`` enumerate ``E^alpha`` once, by one
walk of the member trie (``strings.walk_members``).  The walk fills the
face-core memo for every member, and for ``present`` the saturation-core
memo too, so their grid loops core nothing; its lists of members are what
``check_against_enumeration`` compares the union of the grid images with.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import lru_cache

from .errors import CertificateError, DualConstructionError, InputError, StaircaseDefectError
from .finmap import FinMap, MapClass, _plain_json, _unchecked_map, classify, compose, identity
from .finmap import from_json as finmap_from_json
from .strings import (
    ExtensionTable,
    MapString,
    StringComplex,
    _intern,
    _saturation_core,
    _start_frontier,
    _step,
    _unchecked_string,
    canonical_extensions,
    canonicalize,  # unused here; perfbench's tracer test checks this binding
    core_face_indices,
    defect,
    degree_cap,
    extension_table,
    face_closure,
    face_cores,
    serialize,
    walk_members,
)


class GridDiagram(namedtuple("GridDiagram", "r s cards horiz vert")):
    """An ``r x s`` grid: ``cards[i][j]`` is the cardinality of cell
    ``(i, j)``, ``horiz[i][j]`` the map ``(i+1,j) -> (i,j)`` and
    ``vert[i][j]`` the map ``(i,j+1) -> (i,j)``."""

    __slots__ = ()

    def validate(self) -> None:
        if self.r < 0 or self.s < 0:
            raise InputError("negative grid size")
        if len(self.cards) != self.r + 1 or any(len(col) != self.s + 1 for col in self.cards):
            raise InputError("cards must be an (r+1) x (s+1) array")
        if len(self.horiz) != self.r or any(len(col) != self.s + 1 for col in self.horiz):
            raise InputError("horiz must be an r x (s+1) array")
        if len(self.vert) != self.r + 1 or any(len(col) != self.s for col in self.vert):
            raise InputError("vert must be an (r+1) x s array")
        for i in range(self.r):
            for j in range(self.s + 1):
                f = self.horiz[i][j]
                if (f.src, f.dst) != (self.cards[i + 1][j], self.cards[i][j]):
                    raise InputError(f"horiz[{i}][{j}] has wrong endpoints")
                if not f.is_injective:
                    raise InputError(f"horiz[{i}][{j}] is not injective")
        for i in range(self.r + 1):
            for j in range(self.s):
                f = self.vert[i][j]
                if (f.src, f.dst) != (self.cards[i][j + 1], self.cards[i][j]):
                    raise InputError(f"vert[{i}][{j}] has wrong endpoints")
                if not f.is_surjective:
                    raise InputError(f"vert[{i}][{j}] is not surjective")
        for i in range(self.r):
            for j in range(self.s):
                left_then_down = compose(self.vert[i][j], self.horiz[i][j + 1])
                down_then_left = compose(self.horiz[i][j], self.vert[i + 1][j])
                if left_then_down != down_then_left:
                    raise InputError(f"square at ({i},{j}) does not commute")

    def json_form(self) -> dict:
        return {"r": self.r, "s": self.s, "cards": self.cards, "horiz": self.horiz, "vert": self.vert}

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


class CornerData(namedtuple("CornerData", "corner_card top left", defaults=((), ()))):
    """Top row and left column of a grid, sharing the corner set ``(0, s)``.

    ``top[k]`` is the injection ``(k+1, s) -> (k, s)``; ``left[k]`` is the
    surjection ``(0, s-k) -> (0, s-k-1)``, listed from the corner down.
    """

    __slots__ = ()

    @property
    def r(self) -> int:
        return len(self.top)

    @property
    def s(self) -> int:
        return len(self.left)

    def validate(self) -> None:
        prev = self.corner_card
        for k, f in enumerate(self.top):
            if f.dst != prev:
                raise InputError(f"top[{k}]: dst={f.dst}, expected {prev}")
            if not f.is_injective:
                raise InputError(f"top[{k}] is not injective")
            prev = f.src
        prev = self.corner_card
        for k, f in enumerate(self.left):
            if f.src != prev:
                raise InputError(f"left[{k}]: src={f.src}, expected {prev}")
            if not f.is_surjective:
                raise InputError(f"left[{k}] is not surjective")
            prev = f.dst

    def is_nondegenerate(self) -> bool:
        return all(not f.is_bijective for f in self.top + self.left)

    def to_string(self) -> MapString:
        """Read the corner as a single string, column first then row."""
        maps = tuple(reversed(self.left)) + self.top
        card0 = self.left[-1].dst if self.left else self.corner_card
        return MapString(card0, maps)


def complete_from_corner(c: CornerData) -> GridDiagram:
    """Fill the grid whose cell ``(i,j)`` is the image of ``(i,s)`` in ``(0,j)``.

    Horizontal maps become inclusions of image subsets (re-indexed along the
    increasing enumeration) and vertical maps are the restricted quotients.
    The corner data is validated and the grid is valid by construction, so
    it is not re-checked: each cell is a subset of the labels of ``(0, j)``,
    rows include these subsets, columns restrict the corner's surjections
    to them, and both composites of a square restrict the same ambient map.
    """
    c.validate()
    r, s = c.r, c.s
    # inc[i]: composite injection (i,s) -> (0,s); quo[j]: composite surjection (0,s) -> (0,j)
    inc = [identity(c.corner_card)]
    for f in c.top:
        inc.append(compose(inc[-1], f))
    quo = [identity(c.corner_card)]
    for f in c.left:
        quo.append(compose(f, quo[-1]))
    quo.reverse()  # quo[j]: (0,s) -> (0,j)
    subsets = [
        [tuple(sorted({quo[j].img[v] for v in inc[i].img})) for j in range(s + 1)]
        for i in range(r + 1)
    ]
    cards = tuple(tuple(len(subsets[i][j]) for j in range(s + 1)) for i in range(r + 1))
    pos = [
        [{v: k for k, v in enumerate(subsets[i][j])} for j in range(s + 1)]
        for i in range(r + 1)
    ]
    horiz = tuple(
        tuple(
            _unchecked_map(
                cards[i + 1][j],
                cards[i][j],
                tuple(pos[i][j][v] for v in subsets[i + 1][j]),
            )
            for j in range(s + 1)
        )
        for i in range(r)
    )
    step = [c.left[s - 1 - j] for j in range(s)]  # step[j]: (0,j+1) -> (0,j) on ambient labels
    vert = tuple(
        tuple(
            _unchecked_map(
                cards[i][j + 1],
                cards[i][j],
                tuple(pos[i][j][step[j].img[v]] for v in subsets[i][j + 1]),
            )
            for j in range(s)
        )
        for i in range(r + 1)
    )
    return GridDiagram(r, s, cards, horiz, vert)


@lru_cache(maxsize=None)
def _boundary_positions(r: int, s: int) -> tuple[tuple[int, int], ...]:
    """Each boundary facet as ``(k, x)``: shuffle path ``k`` less its
    position ``x``, which is alone in its row or its column.  Facets are
    nonempty and without repeats, each named by its first pair; built once
    per shape."""
    from .shuffles import _shuffles  # local import to avoid a cycle

    facets: dict[tuple, tuple[int, int]] = {}
    for k, p in enumerate(sh.path() for sh in _shuffles(r, s)):
        for x, (i, j) in enumerate(p):
            if sum(v[0] == i for v in p) == 1 or sum(v[1] == j for v in p) == 1:
                facets.setdefault(p[:x] + p[x + 1 :], (k, x))
    return tuple(kx for ch, kx in facets.items() if ch)


# The face-core positions of each pattern of bijective flags.
_face_indices = lru_cache(maxsize=None)(core_face_indices)


def _climb(states: list, up: tuple, across: tuple | None = None) -> list:
    """The states ``(row, blocks, flags, frontier)`` of the shuffle-path
    prefixes that end in one column, in depth-first order: each of
    ``states`` steps ``H`` along ``across`` into the column (or, without
    ``across``, already ends in it), then climbs it along ``up``."""
    out = []
    for j, blocks, flags, frontier in states:
        steps = up[j:]
        if across is None:
            out.append((j, blocks, flags, frontier))
            j += 1
        else:
            steps = (across[j],) + steps
        for row, f in enumerate(steps, j):
            block, frontier, bijective = _step(frontier, f)
            flags += (bijective,)
            if not bijective:
                blocks += (block,)
            out.append((row, blocks, flags, frontier))
    return out


def _last_column(grid: GridDiagram) -> list:
    """The walk states of the prefixes that end in the last column."""
    states = _climb([(0, (), (), _start_frontier(grid.cards[0][0]))], grid.vert[0])
    for i in range(1, grid.r + 1):
        states = _climb(states, grid.vert[i], grid.horiz[i - 1])
    return states


def _cores(states: list, card0: int, s: int) -> tuple:
    """The path cores of the states that end in the top right cell."""
    return tuple(
        (_intern(_unchecked_string(card0, blocks)), _face_indices(flags))
        for j, blocks, flags, _ in states
        if j == s
    )


def path_cores(grid: GridDiagram) -> tuple[tuple[MapString, tuple[int | None, ...]], ...]:
    """The core of the restriction of each shuffle path, in shuffle order,
    from one walk of the trie of the paths, a column at a time.

    Per path: the interned core of its restriction, and where the core of
    each face of the restriction sits (``core_face_indices``).

    Every path starts at cell ``(0, 0)``; a step ``H`` adds
    ``horiz[i][j]`` and a step ``V`` adds ``vert[i][j]``.  The prefixes
    that end in each column come in the order of the depth-first walk that
    takes ``H`` before ``V``, which reaches the paths in
    ``enumerate_shuffles`` order.  Each prefix carries the state
    ``canonicalize`` carries along a string (the canonical blocks so far
    and the frontier of the top level) and the bijective flags, so each
    prefix is canonicalized once for all the paths that share it, by the
    memoised ``strings._step``.  A bijective step appends no block, since
    ``core`` merges the levels a bijection joins, and only moves the
    frontier.  No path is restricted, cored or canonicalized.
    """
    return _cores(_last_column(grid), grid.cards[0][0], grid.s)


def boundary_cores(grid: GridDiagram, paths) -> list[MapString]:
    """The core of each boundary facet, in ``_boundary_positions`` order,
    read off ``paths = path_cores(grid)`` without restricting the facets.

    The facet that drops position ``x`` of a path restricts to face ``x``
    of the path's restriction, so its core is the path core or one of the
    path core's face cores.
    """
    out = []
    for k, x in _boundary_positions(grid.r, grid.s):
        z, where = paths[k]
        i = where[x]
        out.append(z if i is None else face_cores(z)[i])
    return out


def boundary_image(grid: GridDiagram) -> StringComplex:
    """Image of the boundary of the cell prism (chains missing a row/column).

    The face closure of the boundary facets of the shuffle paths.  A chain
    missing row ``j`` lies on a path that crosses row ``j`` in one cell, so
    it is a face of the facet that drops that cell; likewise for columns.
    """
    return StringComplex.closure(boundary_cores(grid, path_cores(grid)))


def is_saturated(C: StringComplex) -> bool:
    """Closed under factoring every map of every member into epi-mono pairs.

    Degenerate members need no separate check: saturating a degeneracy gives
    a degeneracy of the saturation of its core.
    """
    return all(_saturation_core(z) in C for z in C if z.degree >= 1)


def _add_column(parent: GridDiagram, f: FinMap, maps: dict[FinMap, FinMap]) -> GridDiagram:
    """The child of ``parent`` whose top row goes on by the injection ``f``.

    New cell ``(i+1, j)`` is the image of ``(i+1, s)`` in ``(i, j)``,
    listed increasingly, as ``complete_from_corner`` fills it.  The maps of
    the extension tables have increasing image tuples, so ``f`` lists the
    new top right cell increasingly and every cell keeps its corner labels.
    Each map of the new column is interned in ``maps``, a dict the census
    call owns, so grids share every map they have in common.
    """
    i, s = parent.r, parent.s
    intern = maps.setdefault
    cells = [f.img]
    down = []
    for g in reversed(parent.vert[i]):  # g: (i, j+1) -> (i, j), from the top
        above = cells[-1]
        below = sorted({g.img[v] for v in above})
        pos = {v: k for k, v in enumerate(below)}
        d = _unchecked_map(len(above), len(below), tuple(pos[g.img[v]] for v in above))
        down.append(intern(d, d))
        cells.append(below)
    cells.reverse()
    down.reverse()
    across = (_unchecked_map(len(c), n, tuple(c)) for c, n in zip(cells, parent.cards[i]))
    return GridDiagram(
        i + 1,
        s,
        parent.cards + (tuple(map(len, cells)),),
        parent.horiz + (tuple(intern(h, h) for h in across),),
        parent.vert + (tuple(down),),
    )


def enumerate_corner_grids(max_card: int, allow_empty: bool = False):
    """All grids with nondegenerate corner data and cardinalities <= max_card.

    Yields ``(corner_string, s, r, grid, path_cores(grid))`` tuples sorted
    by total degree then serialization; one entry per isomorphism class.

    One breadth-first growth of the corner trie.  The corner strings
    (surjections then injections) are canonical, and so is each prefix, so
    each is grown once from its parent, the string less its last map,
    through ``canonical_extensions``, and none is canonicalized: by proper
    injections, and while the parent has no injection by proper
    surjections too, read off one ``extension_table`` per top cardinality.
    Cardinalities move strictly along proper maps, so the growth ends on
    its own.  Children come in parent order and table order, which by the
    order lemma of ``strings`` is census order, so only degree 0 is sorted.

    A surjection child is a grid of one column.  An injection child is its
    parent plus one column, and its shuffle paths are the parent's prefixes
    that end in the parent's last column, continued by ``H`` and up the new
    column; those prefix states are walked at the parent's first injection
    child.  Each parent is released once its children are grown, and only
    the children that can have children are kept: one column, or a top
    right cell above the least cardinality.  Every call builds its own
    grids, and interns the maps of their added columns in one dict of its
    own.
    """
    lo = 0 if allow_empty else 1
    tables: dict[int, tuple[ExtensionTable, ExtensionTable]] = {}
    maps: dict[FinMap, FinMap] = {}

    def extensions(last: int, r: int) -> ExtensionTable:
        # the proper injections onto ``last``, with the proper surjections
        # in table order while ``r == 0``; the table holds no identity
        split = tables.get(last)
        if split is None:
            table = extension_table(last, lo, max_card, float("inf"))
            split = tables[last] = (
                ExtensionTable(e for e in table if e.cls is MapClass.PROPER_INJECTIVE),
                ExtensionTable(e for e in table if e.cls is not MapClass.NEITHER),
            )
        return split[r == 0]

    def column(z: MapString) -> GridDiagram:
        return GridDiagram(0, z.degree, (z.cards(),), (), (z.maps,))

    # each entry ``(z, frontier, grid)``: the remaining parents of one
    # degree, then the children grown so far
    queue = deque()
    for c in sorted(range(lo, max_card + 1), key=lambda c: serialize(MapString(c))):
        z = MapString(c)
        grid = column(z)
        yield z, 0, 0, grid, _cores(_last_column(grid), c, 0)
        queue.append((z, _start_frontier(c), grid))
    while queue:
        z, frontier, parent = queue.popleft()
        states = None
        for w, top, e in canonical_extensions(z, frontier, extensions(z.cards()[-1], parent.r)):
            if e.inc:
                grid = column(w)
                walked = _last_column(grid)
            else:
                if states is None:
                    states = _last_column(parent)
                grid = _add_column(parent, e.map, maps)
                walked = _climb(states, grid.vert[-1], grid.horiz[-1])
            r, s = grid.r, grid.s
            yield w, s, r, grid, _cores(walked, w.card0, s)
            if r == 0 or grid.cards[r][s] > lo:  # else no proper injection goes on from it
                queue.append((w, top, grid))


# The largest defect bound ``defect_subcomplex`` and ``present`` accept:
# ``E^7`` has 42,128,037 members by the forest count, too many to enumerate.
MAX_ALPHA = 6


def _check_alpha(alpha: int) -> None:
    if alpha < 1:
        raise InputError("alpha must be >= 1")
    if alpha > MAX_ALPHA:
        raise InputError(f"alpha must be <= {MAX_ALPHA}: E^7 already has 42,128,037 members")


def defect_subcomplex(alpha: int, allow_empty: bool = False) -> StringComplex:
    """All canonical nondegenerate strings of defect <= alpha.

    Built two ways and compared: the union of the images of all grids with
    cardinalities <= alpha is checked by ``check_against_enumeration``
    against the members the walk of the member trie (``walk_members``)
    lists, as ``present`` checks its replay of the same union.  The walk
    comes first, since it fills the face-core memo the grid loop reads.
    """
    _check_alpha(alpha)
    members = walk_members(alpha, allow_empty)
    union: set[MapString] = set()
    for *_, paths in enumerate_corner_grids(alpha, allow_empty):
        union |= face_closure((w for w, _ in paths), union)
    C = StringComplex(union)
    check_against_enumeration(C, alpha, members)
    return C


def _lists_exactly(by_degree: list[list[MapString]], members: frozenset) -> bool:
    """Whether the lists hold each of ``members`` once, at its degree;
    builds no set of all of them."""
    if sum(map(len, by_degree)) != len(members):
        return False
    for t, level in enumerate(by_degree):
        listed = set(level)
        if len(listed) != len(level) or not listed <= members or any(len(z.maps) != t for z in listed):
            return False
    return True


def check_against_enumeration(C: StringComplex, alpha: int, by_degree: list[list[MapString]]) -> None:
    """Compare a union of grid images with ``by_degree``, the strings of
    defect <= alpha grown by the defect formula, one list per degree as
    ``walk_members(alpha, ...)`` returns them.

    The union is built from the grids alone: it reads the face-core memo
    the walk fills, never its lists, so a member the walk missed or added
    shows up here.  Disagreement raises, since it would falsify the
    equivalence the rest of the pipeline relies on, and so does a member
    at ``degree_cap(alpha)``, where the walk stopped.  The set of all
    listed members is built only for the witnesses.
    """
    cap = degree_cap(alpha)
    if by_degree[-1] and len(by_degree) >= cap:
        raise CertificateError(
            "degree cap reached",
            witness={"alpha": alpha, "cap": cap, "top_degree_members": len(by_degree[-1])},
        )
    if _lists_exactly(by_degree, C):
        return
    direct = {z for level in by_degree for z in level}
    if direct != C:
        only_direct = sorted(direct - C, key=MapString.sort_key)
        only_union = sorted(C - direct, key=MapString.sort_key)
        raise DualConstructionError(
            "defect enumeration and grid-image union disagree",
            witness={
                "only_direct": [serialize(z) for z in only_direct[:5]],
                "only_union": [serialize(z) for z in only_union[:5]],
            },
        )


def complete_from_staircase(st: MapString) -> GridDiagram:
    """Complete an alternating string to a full grid along the diagonal.

    The input must alternate proper injections (odd positions) and proper
    surjections (even positions), so its degree is even, say ``2T``.  The
    output is a ``T x T`` grid whose staircase path ``(0,0), (1,0), (1,1),
    ...`` restricts to the input.  Cells left of the staircase are filled so
    that each new square is a strict pullback (the staircase corner becomes
    the preimage of the square's lower-right set); cells right of it are
    images of composites.  The construction is then checked against the
    equal-defect requirement: every ``(T,T)``-shuffle pullback must have the
    same defect as the input.  Inputs whose geometry rules this out make the
    check fail, and the violating shuffles are reported.
    """
    if st.degree % 2 != 0:
        raise InputError("staircase degree must be even")
    T = st.degree // 2
    for k, f in enumerate(st.maps):
        want = MapClass.PROPER_INJECTIVE if k % 2 == 0 else MapClass.PROPER_SURJECTIVE
        if classify(f) is not want:
            raise InputError(f"maps[{k}] must be {want.value}")
    cards: dict[tuple[int, int], int] = {}
    horiz: dict[tuple[int, int], FinMap] = {}  # keyed by target cell (i,j): (i+1,j)->(i,j)
    vert: dict[tuple[int, int], FinMap] = {}   # keyed by target cell (i,j): (i,j+1)->(i,j)
    seq = st.cards()
    for k in range(T + 1):
        cards[(k, k)] = seq[2 * k]
    for k in range(T):
        cards[(k + 1, k)] = seq[2 * k + 1]
        horiz[(k, k)] = st.maps[2 * k]
        vert[(k + 1, k)] = st.maps[2 * k + 1]

    # Right of the staircase: (i,j) with i - j >= 2, by increasing distance.
    # The new cell is the image of the composite through the cell above it.
    for d in range(2, T + 1):
        for j in range(0, T - d + 1):
            i = j + d
            # composite (i, j+1) -> (i-1, j+1) -> (i-1, j)
            g = compose(vert[(i - 1, j)], horiz[(i - 1, j + 1)])
            image = tuple(sorted(set(g.img)))
            rank = {v: k for k, v in enumerate(image)}
            cards[(i, j)] = len(image)
            vert[(i, j)] = FinMap(g.src, len(image), tuple(rank[v] for v in g.img))
            horiz[(i - 1, j)] = FinMap(len(image), cards[(i - 1, j)], image)

    # Left of the staircase: (i,j) with j - i >= 1, by increasing distance.
    # The new cell extends the square below-right of it, adjoining the part
    # of (i,j-1) missed by (i+1,j-1); the finished square is then a strict
    # pullback of its vertical map along its bottom inclusion.
    for d in range(1, T + 1):
        for i in range(0, T - d + 1):
            j = i + d
            tr = cards[(i + 1, j)]
            bl = cards[(i, j - 1)]
            br_incl = horiz[(i, j - 1)]          # (i+1,j-1) -> (i,j-1)
            tr_down = vert[(i + 1, j - 1)]       # (i+1,j) -> (i+1,j-1)
            missing = [v for v in range(bl) if v not in set(br_incl.img)]
            cards[(i, j)] = tr + len(missing)
            horiz[(i, j)] = FinMap(tr, cards[(i, j)], tuple(range(tr)))
            down = [br_incl.img[tr_down.img[k]] for k in range(tr)] + missing
            vert[(i, j - 1)] = FinMap(cards[(i, j)], bl, tuple(down))

    grid = GridDiagram(
        T,
        T,
        tuple(tuple(cards[(i, j)] for j in range(T + 1)) for i in range(T + 1)),
        tuple(tuple(horiz[(i, j)] for j in range(T + 1)) for i in range(T)),
        tuple(tuple(vert[(i, j)] for j in range(T)) for i in range(T + 1)),
    )
    grid.validate()
    # the staircase path reads the diagonal maps, from cell (0, 0) up
    diagonal = [f for k in range(T) for f in (grid.horiz[k][k], grid.vert[k + 1][k])]
    if MapString(grid.cards[0][0], tuple(diagonal)) != st:
        raise DualConstructionError("staircase restriction does not reproduce the input")

    from .shuffles import _shuffles  # local import to avoid a cycle

    # a core drops only bijective levels, which keeps the defect, so each
    # pullback's defect is that of its path core
    want = defect(st)
    violations = []
    for sh, (z, _) in zip(_shuffles(T, T), path_cores(grid)):
        got = defect(z)
        if got != want:
            violations.append({"shuffle": sh.word, "defect": got, "expected": want})
    if violations:
        raise StaircaseDefectError(
            "shuffle pullbacks do not all share the staircase defect",
            witness={"staircase": serialize(st), "violations": violations},
        )
    return grid


def grid_from_json(obj, where: str = "grid") -> GridDiagram:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    for name in ("r", "s", "cards", "horiz", "vert"):
        if name not in obj:
            raise InputError(f"{where}.{name}: missing")
    r, s = obj["r"], obj["s"]
    if not isinstance(r, int) or not isinstance(s, int) or isinstance(r, bool) or isinstance(s, bool):
        raise InputError(f"{where}.r / {where}.s: expected integers")
    for name, v in (("r", r), ("s", s)):
        if v < 0:
            raise InputError(f"{where}.{name}: expected a nonnegative integer, got {v}")

    def int_grid(name, n_i, n_j):
        arr = obj[name]
        if not isinstance(arr, list) or len(arr) != n_i:
            raise InputError(f"{where}.{name}: expected a list of length {n_i}")
        for i, col in enumerate(arr):
            if not isinstance(col, list) or len(col) != n_j:
                raise InputError(f"{where}.{name}[{i}]: expected a list of length {n_j}")
        return arr

    cards_arr = int_grid("cards", r + 1, s + 1)
    for i, col in enumerate(cards_arr):
        for j, v in enumerate(col):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InputError(f"{where}.cards[{i}][{j}]: expected a nonnegative integer")
    horiz_arr = int_grid("horiz", r, s + 1) if r else obj["horiz"]
    vert_arr = int_grid("vert", r + 1, s) if s else obj["vert"]
    if r == 0 and horiz_arr != []:
        raise InputError(f"{where}.horiz: expected [] when r=0")
    if s == 0:
        if not isinstance(vert_arr, list) or any(col != [] for col in vert_arr):
            raise InputError(f"{where}.vert: expected empty columns when s=0")
    horiz = tuple(
        tuple(finmap_from_json(m, f"{where}.horiz[{i}][{j}]") for j, m in enumerate(col))
        for i, col in enumerate(horiz_arr)
    )
    vert = tuple(
        tuple(finmap_from_json(m, f"{where}.vert[{i}][{j}]") for j, m in enumerate(col))
        for i, col in enumerate(vert_arr)
    )
    grid = GridDiagram(r, s, tuple(tuple(col) for col in cards_arr), horiz, vert)
    try:
        grid.validate()
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    return grid
