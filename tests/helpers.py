"""Shared test utilities: raw enumerations, an independent iso checker, the
permutation-sweep canonicalizer kept as an oracle for the canonical form,
the list-based frontier canonicalizer, which computes every step afresh,
kept as an oracle for the memoised step on interned frontiers,
the all-chains restriction table kept as an oracle for the grid images
built from shuffle paths, the restricted boundary facets kept as an oracle
for the boundary cores read off the path cores, the boundary positions
found on the cells and deduplicated by chain kept as an oracle for those
read off the move words, the eager corner-grid
census and the per-grid image test kept as oracles for the streamed census
and the incremental image walk, the materialized prior subcomplex and the
set-of-faces past and horn certificate kept as oracles for the bitmask
versions in ``finsimp.shuffles``, the whole-complex replay kept as an
oracle for the incremental replay of ``present``, the walk that restricts
each excluded face kept as an oracle for the ``attach_walk`` that reads
the excluded faces off the path cores, the restricting ``path_cores`` kept
as an oracle for the walk of the shuffle-path trie, the ``core`` that
merges one bijection at a time kept as an oracle for the step loop of
``core``, the face cores and
saturation cores cored from scratch kept as oracles for the memos the
walk of the member trie fills, the breadth-first census of
``enumerate_nondegenerate`` kept as the oracle for the lists of members
that walk returns and as the census ``oracle_present`` checks against, the
canonicalize-then-dedupe censuses kept as oracles for the orderly
generation of ``enumerate_nondegenerate`` and of the corner census, the
``json.dumps`` body kept as an oracle for the hand-written ``serialize``,
the every-inner-face loop kept as an oracle for the cards-first
``_matching_faces`` of ``match_excess``, the ``match_excess`` that keyed
every lower string kept as an oracle for the one that keys only those an
upper string can match, the ``in_excess`` filter
kept as an oracle for ``excess_strings``, and the hand-written
``to_json`` bodies kept as an oracle for the trees derived from the
shallow ``json_form`` of each value class, the map-by-map ``_top_runs``
and ``profile_of`` kept as oracles for the runs the census carries, and
the staircase completion that restricts every shuffle path kept as an
oracle for ``complete_from_staircase``, which reads the defects off the
path cores, and the fill by ambient labels kept as an oracle for
``complete_from_corner``, which grows its columns as the corner census
does.  It also keeps ``restrict``, ``image_subset`` and
``corner_from_string`` and ``_path``, the cells of a move word's path,
which the library no longer needs, and
``relabel``, ``is_canonical``, ``corner_of``, ``contains`` and
``is_face_closed``, which only the tests use."""

import itertools
import json
import random
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from finsimp import FinMap, MapString, StringComplex, canonicalize, compose, core, defect, identity
from finsimp.errors import (
    CertificateError,
    DualConstructionError,
    InputError,
    MatchingError,
    StaircaseDefectError,
)
from finsimp.finmap import MapClass, _unchecked_map, all_maps, classify
from finsimp.grids import (
    CornerData,
    GridDiagram,
    _boundary_positions,
    complete_from_corner,
    enumerate_corner_grids,
    path_cores,
)
from finsimp.presentation import (
    ExcessProfile,
    Generator,
    Matching,
    PresentationSkeleton,
    _matching_faces,
    _profile,
    in_excess,
    match_partner,
)
from finsimp.shuffles import (
    AttachmentCertificate,
    HornCertificate,
    _excluded_faces,
    _gap_pattern_checks,
    _recover_gaps,
    _shuffles,
    attach_diagram,
    attach_walk,
    enumerate_shuffles,
    horn_certificate,
    is_inner_generalized_horn,
)
from finsimp import grids as grids_mod
from finsimp import strings
from finsimp.strings import (
    _unchecked_string,
    core_face_indices,
    enumerate_nondegenerate,
    face,
    face_closure,
    interned_core,
    saturate,
    serialize,
    walk_members,
)


def _path(word: str) -> tuple[tuple[int, int], ...]:
    """The cells of a move word's lattice path: position ``x`` is the cell
    of the counts of ``H`` and ``V`` in the first ``x`` moves."""
    return tuple((word.count("H", 0, x), word.count("V", 0, x)) for x in range(len(word) + 1))


def assert_rebuilds(z) -> None:
    """``z``, a FinMap or a MapString built without validation, is equal
    to the value the validating public constructors build from its fields,
    with the same hash."""
    if isinstance(z, FinMap):
        assert type(z) is FinMap and type(z.img) is tuple
        assert all(type(v) is int for v in z.img)
        w = FinMap(*z)
    else:
        assert type(z) is MapString and type(z.maps) is tuple
        for f in z.maps:
            assert_rebuilds(f)
        w = MapString(z.card0, tuple(FinMap(*f) for f in z.maps))
    assert w == z and hash(w) == hash(z)


def raw_strings(max_card, max_degree, allow_empty=False, nondegenerate_only=False):
    """Every string with the given bounds, not up to equivalence."""
    lo = 0 if allow_empty else 1
    level = [MapString(c) for c in range(lo, max_card + 1)]
    yield from level
    for _ in range(max_degree):
        new = []
        for z in level:
            last = z.cards()[-1]
            for c in range(lo, max_card + 1):
                for f in all_maps(c, last):
                    if nondegenerate_only and f.is_bijective:
                        continue
                    new.append(MapString(z.card0, z.maps + (f,)))
        yield from new
        level = new


def are_isomorphic(x: MapString, y: MapString) -> bool:
    """Levelwise-bijection equivalence, decided by a frontier sweep.

    Independent of the canonicalizer: it propagates the set of admissible
    bijections per level instead of minimizing anything.
    """
    if x.cards() != y.cards():
        return False
    frontier = set(itertools.permutations(range(x.card0)))
    for fx, fy in zip(x.maps, y.maps):
        nxt = set()
        for phi_src in itertools.permutations(range(fx.src)):
            relabeled = tuple(fx.img[phi_src.index(k)] for k in range(fx.src))
            for phi_dst in frontier:
                if tuple(phi_dst[v] for v in relabeled) == fy.img:
                    nxt.add(phi_src)
                    break
        if not nxt:
            return False
        frontier = nxt
    return True


def are_isomorphic_exhaustive(x: MapString, y: MapString) -> bool:
    """Ground-truth equivalence by trying every tuple of bijections."""
    if x.cards() != y.cards():
        return False
    pools = [list(itertools.permutations(range(c))) for c in x.cards()]
    return any(relabel(x, phis) == y for phis in itertools.product(*pools))


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v] = k
    return tuple(inv)


def oracle_canonicalize(z: MapString) -> MapString:
    """Lexicographically minimal relabeling of ``z``, by brute force per level.

    Minimizes the concatenation ``img(maps[0]) || img(maps[1]) || ...`` over
    all tuples of levelwise bijections.  Block ``k`` depends only on the
    bijections at levels ``k`` and ``k+1``, so a frontier of optimal
    level-``k`` bijections is enough state; every level still loops over
    all ``src!`` relabelings, so the cost is factorial in the cardinality.
    """
    if z.degree == 0:
        return z
    cards = z.cards()
    frontier = set(_perms(cards[0]))
    blocks: list[tuple[int, ...]] = []
    for f in z.maps:
        best = None
        winners = set()
        # one source-sorted image per phi_src; distinct pres share work
        pres: dict[tuple[int, ...], list] = {}
        for phi_src in _perms(f.src):
            pres.setdefault(tuple(map(f.img.__getitem__, _inverse(phi_src))), []).append(phi_src)
        for pre, sources in pres.items():
            for phi_dst in frontier:
                block = tuple(map(phi_dst.__getitem__, pre))
                if best is None or block < best:
                    best = block
                    winners = set(sources)
                elif block == best:
                    winners.update(sources)
        frontier = winners
        blocks.append(best)
    maps = tuple(
        FinMap(f.src, f.dst, blk) for f, blk in zip(z.maps, blocks)
    )
    return MapString(z.card0, maps)


# The frontier canonicalizer as it was before its step was memoised: a
# frontier is a list of parts, a part an element, a free tuple or a
# tie-group (a list of member frontiers), and every step is computed afresh.


def _list_resolve(parts: list, fiber: list[int]) -> tuple[tuple[int, ...], list]:
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
        members = sorted([_list_resolve(m, fiber) for m in p], key=lambda m: m[0], reverse=True)
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


def _list_expand(parts: list, children: list[list[int]]) -> list:
    out: list = []
    for p in parts:
        if p.__class__ is int:
            ch = children[p]
            if len(ch) == 1:
                out.append(ch[0])
            elif ch:
                out.append(tuple(ch))
            continue
        if p.__class__ is tuple:
            ch = children[p[0]]
            if len(ch) == 1:
                out.append(tuple(children[e][0] for e in p))
            elif ch:
                out.append([[tuple(children[e])] for e in p])
            continue
        members = [_list_expand(m, children) for m in p]
        if members[0]:
            out.append(members)
    return out


def list_canonicalize(z: MapString) -> MapString:
    """``canonicalize`` with list frontiers and no memo."""
    if z.degree == 0:
        return z
    frontier: list = [tuple(range(z.card0))]
    maps = []
    for f in z.maps:
        children: list[list[int]] = [[] for _ in range(f.dst)]
        for j, v in enumerate(f.img):
            children[v].append(j)
        vec, frontier = _list_resolve(frontier, [len(ch) for ch in children])
        block: list[int] = []
        for i, c in enumerate(vec):
            block += [i] * c
        maps.append(FinMap(f.src, f.dst, tuple(block)))
        frontier = _list_expand(frontier, children)
    return MapString(z.card0, tuple(maps))


def random_string(rng: random.Random, max_degree=5, max_card=4, allow_empty=False) -> MapString:
    lo = 0 if allow_empty else 1
    degree = rng.randint(0, max_degree)
    cards = [rng.randint(lo, max_card) for _ in range(degree + 1)]
    maps = []
    for k in range(degree):
        src, dst = cards[k + 1], cards[k]
        if dst == 0 and src > 0:
            src = cards[k + 1] = 0
        maps.append(FinMap(src, dst, tuple(rng.randrange(dst) for _ in range(src))))
    return MapString(cards[0], tuple(maps))


def is_canonical(z: MapString) -> bool:
    return canonicalize(z) == z


def contains(C: StringComplex, z: MapString) -> bool:
    """Whether the core of ``z`` is a member of ``C``."""
    return core(z)[0] in C


def is_face_closed(C: StringComplex) -> bool:
    """Whether the core of every face of every member of ``C`` is a member."""
    return all(
        core(face(z, i))[0] in C
        for z in C
        if z.degree >= 1
        for i in range(z.degree + 1)
    )


def relabel(z: MapString, bijections) -> MapString:
    """Apply one bijection per level."""
    bijections = [tuple(b) for b in bijections]
    if len(bijections) != z.degree + 1:
        raise InputError("need one bijection per level")
    maps = []
    for k, f in enumerate(z.maps):
        phi_dst, phi_src = bijections[k], bijections[k + 1]
        img = [0] * f.src
        for j, v in enumerate(f.img):
            img[phi_src[j]] = phi_dst[v]
        maps.append(FinMap(f.src, f.dst, tuple(img)))
    return MapString(z.card0, tuple(maps))


def random_relabeling(rng: random.Random, z: MapString):
    out = []
    for c in z.cards():
        phi = list(range(c))
        rng.shuffle(phi)
        out.append(tuple(phi))
    return out


def oracle_arrow(grid, src, dst) -> FinMap:
    """Composite folded from ``identity``: along the row of ``src``, then
    down the column of ``dst``."""
    (i2, j2), (i1, j1) = src, dst
    f = identity(grid.cards[i2][j2])
    for i in range(i2 - 1, i1 - 1, -1):
        f = compose(grid.horiz[i][j2], f)
    for j in range(j2 - 1, j1 - 1, -1):
        f = compose(grid.vert[i1][j], f)
    return f


def restrict(grid: GridDiagram, path) -> MapString:
    """The string of composites along a weakly monotone path of cells.

    The grid's maps compose (a grid is checked where it enters), so the
    string is built without checks."""
    path = [tuple(v) for v in path]
    if not path:
        raise InputError("empty path")
    for (i1, j1), (i2, j2) in zip(path, path[1:]):
        if not (i1 <= i2 and j1 <= j2):
            raise InputError(f"path step {(i1, j1)} -> {(i2, j2)} is not monotone")
    for (i, j) in path:
        if not (0 <= i <= grid.r and 0 <= j <= grid.s):
            raise InputError(f"path cell {(i, j)} outside the grid")
    maps = tuple(oracle_arrow(grid, b, a) for a, b in zip(path, path[1:]))
    i, j = path[0]
    return _unchecked_string(grid.cards[i][j], maps)


def image_subset(grid: GridDiagram) -> StringComplex:
    """Face closure of the cores of the grid's shuffle paths.

    Every chain of the cell poset lies on some shuffle path (the shuffle
    triangulation of the prism), so its restriction is an iterated face of
    a path restriction and its core lies in this closure.
    """
    return StringComplex.closure(z for z, _ in path_cores(grid))


def corner_from_string(z: MapString, s: int, r: int) -> CornerData:
    """Inverse of :meth:`CornerData.to_string` for an explicit (s, r) split;
    only the degree is checked, as ``complete_from_corner`` validates corners."""
    if z.degree != r + s:
        raise InputError(f"degree {z.degree} does not match r+s={r + s}")
    left = tuple(reversed(z.maps[:s]))
    top = z.maps[s:]
    return CornerData(z.cards()[s], top, left)


def oracle_chains(r, s):
    """Chains of the cell poset: lexicographically sorted cell subsets whose
    rows never decrease."""
    cells = sorted((i, j) for i in range(r + 1) for j in range(s + 1))
    for k in range(1, len(cells) + 1):
        for ch in itertools.combinations(cells, k):
            if all(a[1] <= b[1] for a, b in zip(ch, ch[1:])):
                yield ch


@lru_cache(maxsize=None)
def iter_chains(r: int, s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonempty strictly increasing chains in the cell poset, as tuples."""
    cells = [(i, j) for i in range(r + 1) for j in range(s + 1)]
    out = []

    def extend(chain):
        out.append(tuple(chain))
        last = chain[-1]
        for v in cells:
            if v != last and v[0] >= last[0] and v[1] >= last[1]:
                chain.append(v)
                extend(chain)
                chain.pop()

    for v in cells:
        extend([v])
    return tuple(out)


def chain_in_boundary(chain, r: int, s: int) -> bool:
    """True when the chain misses a column value or a row value."""
    return {v[0] for v in chain} != set(range(r + 1)) or {v[1] for v in chain} != set(
        range(s + 1)
    )


@dataclass(frozen=True)
class ProductSubset:
    """A subchain-closed set of strictly increasing chains in the cell poset."""

    r: int
    s: int
    chains: frozenset[tuple[tuple[int, int], ...]]

    def __contains__(self, chain) -> bool:
        return tuple(chain) in self.chains

    def issubset(self, other: "ProductSubset") -> bool:
        return self.chains <= other.chains

    def __len__(self):
        return len(self.chains)


def _subchains(path):
    n = len(path)
    for k in range(1, n + 1):
        for idx in itertools.combinations(range(n), k):
            yield tuple(path[x] for x in idx)


def heights(word: str) -> tuple[int, ...]:
    """The running count of ``V`` moves, prefix by prefix: the coordinates
    of the shuffle poset order as the paper defines it."""
    out = [0]
    for ch in word:
        out.append(out[-1] + (ch == "V"))
    return tuple(out)


def le(a: str, b: str) -> bool:
    """``a <= b`` in the shuffle poset, compared height by height; the
    library reads the same order off its covers (``hasse_edges``)."""
    if (a.count("H"), a.count("V")) != (b.count("H"), b.count("V")):
        raise InputError("shuffles of different shapes are incomparable")
    return all(x <= y for x, y in zip(heights(a), heights(b)))


def is_maximal(word: str) -> bool:
    """True for the top shuffle, all ``V`` moves before all ``H`` moves."""
    return word == "V" * word.count("V") + "H" * word.count("H")


def prior_subcomplex(sigma: str) -> ProductSubset:
    """Boundary of the prism plus all shuffle simplices strictly below sigma."""
    r, s = sigma.count("H"), sigma.count("V")
    chains = set()
    for sh in enumerate_shuffles(r, s):
        if sh != sigma and le(sh, sigma):
            chains.update(_subchains(_path(sh)))
    for ch in iter_chains(r, s):
        if chain_in_boundary(ch, r, s):
            chains.add(ch)
    return ProductSubset(r, s, frozenset(chains))


def oracle_chain_cores(grid) -> dict:
    """``core(restrict(grid, chain))`` per chain, with no cached state."""
    out = {}
    for ch in oracle_chains(grid.r, grid.s):
        maps = tuple(oracle_arrow(grid, b, a) for a, b in zip(ch, ch[1:]))
        i, j = ch[0]
        out[ch] = core(MapString(grid.cards[i][j], maps))[0]
    return out


def corner_of(grid: GridDiagram) -> CornerData:
    """The top row and left column of ``grid``."""
    top = tuple(grid.horiz[i][grid.s] for i in range(grid.r))
    left = tuple(grid.vert[0][j] for j in range(grid.s - 1, -1, -1))
    return CornerData(grid.cards[0][grid.s], top, left)


def proper_grid(r, s):
    """A grid of shape (r, s) whose every arrow is proper, so every shuffle
    restricts to a nondegenerate string; needs corner cardinality r+s+1."""
    c = r + s + 1
    top = tuple(FinMap(c - 1 - k, c - k, tuple(range(c - 1 - k))) for k in range(r))
    left = tuple(FinMap(c - k, c - k - 1, (0,) + tuple(range(c - k - 1))) for k in range(s))
    return complete_from_corner(CornerData(c, top, left))


def identity_grid_json(r: int, s: int | None = None) -> dict:
    """The JSON of the ``r x s`` grid (``r x r`` without ``s``) of singletons
    and identities, which has ``C(r+s, s)`` shuffle paths."""
    s = r if s is None else s
    one = {"src": 1, "dst": 1, "img": [0]}
    return {
        "r": r,
        "s": s,
        "cards": [[1] * (s + 1) for _ in range(r + 1)],
        "horiz": [[one] * (s + 1) for _ in range(r)],
        "vert": [[one] * s for _ in range(r + 1)],
    }


def relabel_grid(grid, rng: random.Random) -> GridDiagram:
    """The same grid with every cell relabelled by a random bijection, so
    its bijective arrows are no longer identities; validated."""

    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p

    perms = [[perm(n) for n in col] for col in grid.cards]

    def moved(f, src, dst):
        img = [0] * f.src
        for x, y in enumerate(f.img):
            img[src[x]] = dst[y]
        return FinMap(f.src, f.dst, tuple(img))

    horiz = tuple(
        tuple(moved(f, perms[i + 1][j], perms[i][j]) for j, f in enumerate(col))
        for i, col in enumerate(grid.horiz)
    )
    vert = tuple(
        tuple(moved(f, perms[i][j + 1], perms[i][j]) for j, f in enumerate(col))
        for i, col in enumerate(grid.vert)
    )
    out = GridDiagram(grid.r, grid.s, grid.cards, horiz, vert)
    out.validate()
    return out


def oracle_core(z: MapString) -> tuple[MapString, tuple[int, ...]]:
    """``core`` as it merged the first bijection into the level below, one
    face at a time, and canonicalized what was left."""
    w = z
    indices = []
    while True:
        pos = next((k for k, f in enumerate(w.maps) if f.is_bijective), None)
        if pos is None:
            break
        indices.append(pos)
        w = face(w, pos + 1)
    return canonicalize(w), tuple(indices)


def oracle_path_cores(grid) -> tuple[tuple[MapString, tuple[int | None, ...]], ...]:
    """``path_cores`` as it restricted each shuffle path once and cored the
    restriction from scratch."""
    out = []
    for sh in _shuffles(grid.r, grid.s):
        y = restrict(grid, _path(sh))
        out.append((interned_core(y), core_face_indices([f.is_bijective for f in y.maps])))
    return tuple(out)


def oracle_face_cores(z: MapString) -> tuple[MapString, ...]:
    """``face_cores`` as it cored every face but the top one from scratch,
    with no memo and no interning."""
    t = z.degree
    if not t:
        return ()
    return tuple(oracle_core(face(z, i))[0] for i in range(t)) + (face(z, t),)


def oracle_saturation_core(z: MapString) -> MapString:
    """The saturation core of ``z`` as it was computed for every member."""
    return oracle_core(saturate(z))[0]


_MEMOS = ("_interned", "_face_cores", "_saturation_cores", "_frontiers", "_steps")


def cold_memos(monkeypatch) -> None:
    """Give the test empty core memos, intern table, frontier table and step
    memo; ``monkeypatch`` puts the shared ones back afterwards."""
    for name in _MEMOS:
        monkeypatch.setattr(strings, name, {})


@contextmanager
def fresh_memos():
    """``cold_memos`` for one block, where no ``monkeypatch`` fixture is at
    hand (inside a Hypothesis example); ``clear_memos`` empties them again."""
    saved = {name: getattr(strings, name) for name in _MEMOS}
    try:
        for name in _MEMOS:
            setattr(strings, name, {})
        yield
    finally:
        for name, memo in saved.items():
            setattr(strings, name, memo)


def clear_memos() -> None:
    """Empty the memos in place; only for memos a test has made cold."""
    for name in _MEMOS:
        getattr(strings, name).clear()


def count_steps(monkeypatch) -> Counter:
    """Count the steps of ``canonicalize``'s state that callers ask for,
    under ``steps``: each candidate ``canonical_extensions`` weighs, hit or
    miss in its table's memo, and each ``_step`` call (so a candidate that
    misses counts twice)."""
    seen: Counter = Counter()
    step, extensions = strings._step, strings.canonical_extensions

    def counted_step(frontier, f):
        seen["steps"] += 1
        return step(frontier, f)

    def counted_extensions(z, frontier, table):
        seen["steps"] += len(table)
        yield from extensions(z, frontier, table)

    for module in (strings, grids_mod):
        monkeypatch.setattr(module, "_step", counted_step)
        monkeypatch.setattr(module, "canonical_extensions", counted_extensions)
    return seen


def compare_core_memos(alpha: int, allow_empty: bool = False) -> tuple[list, list, int, Counter]:
    """Walk the member trie with the face-core and saturation-core memos,
    which the caller has emptied, and compare what the walk returns and
    fills with the breadth-first census of ``E^alpha`` and, member by
    member, with ``oracle_face_cores`` and ``oracle_saturation_core``.

    Returns the walk's lists per degree, the census's
    (``enumerate_nondegenerate`` with the walk's degree cap), the number of
    members whose memo entries are missing, unequal or not interned, and a
    Counter of the memo keys that are no members (``extra``) and of the
    cores that lost a bijection: ``face`` for the faces, ``saturation`` for
    the saturations."""
    walked = walk_members(alpha, allow_empty, saturations=True)
    faces, saturations = strings._face_cores, strings._saturation_cores
    levels = enumerate_nondegenerate(alpha, alpha * (alpha + 2) + 1, allow_empty, alpha)
    members = {z for level in levels for z in level}
    bad = 0
    seen: Counter = Counter()
    seen["extra"] = len(set(faces) - members) + len(set(saturations) - members)
    for z in members:
        got = faces.get(z)
        want = oracle_face_cores(z)
        ok = got == want and all(w is strings._interned.get(w) for w in got)
        seen["face"] += sum(w.degree < z.degree - 1 for w in want)
        if z.degree:
            got = saturations.get(z)
            want = oracle_saturation_core(z)
            ok = ok and got == want and got is strings._interned.get(got)
            seen["saturation"] += want.degree < 2 * z.degree
        bad += not ok
    return walked, levels, bad, seen


def compare_path_cores(grids) -> tuple[int, int, int, Counter]:
    """Compare ``path_cores`` with ``oracle_path_cores`` on each grid, as
    tuples in shuffle order and core by core as the same interned object.
    Returns the number of grids, of paths and of grids that disagree, and
    where the bijective steps of the paths of degree 3 or more sat:
    ``bottom`` (the first map), ``top`` (the last) or ``middle``, and under
    ``relabelling`` how many of all bijective steps were not identities."""
    grids_seen = paths = bad = 0
    bijective: Counter = Counter()
    for grid in grids:
        got, want = path_cores(grid), oracle_path_cores(grid)
        grids_seen += 1
        paths += len(want)
        bad += got != want or any(a[0] is not b[0] for a, b in zip(got, want))
        for p in map(_path, _shuffles(grid.r, grid.s)):
            t = len(p) - 1
            for k, (a, b) in enumerate(zip(p, p[1:])):
                f = oracle_arrow(grid, b, a)
                if f.is_bijective:
                    bijective["relabelling"] += f.img != tuple(range(f.src))
                    if t >= 3:
                        bijective["bottom" if k == 0 else "top" if k == t - 1 else "middle"] += 1
    return grids_seen, paths, bad, bijective


def oracle_boundary_positions(r: int, s: int) -> tuple[tuple[int, int], ...]:
    """``_boundary_positions`` from the cells: each position alone in its
    row or its column, with the facets deduplicated by their cell chains."""
    facets: dict[tuple, tuple[int, int]] = {}
    for k, p in enumerate(map(_path, _shuffles(r, s))):
        for x, (i, j) in enumerate(p):
            if sum(v[0] == i for v in p) == 1 or sum(v[1] == j for v in p) == 1:
                facets.setdefault(p[:x] + p[x + 1 :], (k, x))
    return tuple(kx for ch, kx in facets.items() if ch)


def oracle_boundary_facets(r: int, s: int) -> list[tuple[tuple[int, int], ...]]:
    """The cell chains of the boundary facets, in ``_boundary_positions``
    order."""
    paths = [_path(sh) for sh in _shuffles(r, s)]
    return [paths[k][:x] + paths[k][x + 1 :] for k, x in _boundary_positions(r, s)]


def oracle_boundary_image(grid) -> StringComplex:
    """The face closure of the restricted boundary facets."""
    return StringComplex.closure(restrict(grid, ch) for ch in oracle_boundary_facets(grid.r, grid.s))


def oracle_complete_from_staircase(st: MapString) -> GridDiagram:
    """``complete_from_staircase`` as it restricted the staircase path and
    each shuffle path of the completed grid."""
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
    stair_path = [(0, 0)]
    for k in range(T):
        stair_path.append((k + 1, k))
        stair_path.append((k + 1, k + 1))
    if restrict(grid, stair_path) != st:
        raise DualConstructionError("staircase restriction does not reproduce the input")

    want = defect(st)
    violations = []
    for sh in enumerate_shuffles(T, T):
        got = defect(restrict(grid, _path(sh)))
        if got != want:
            violations.append({"shuffle": sh, "defect": got, "expected": want})
    if violations:
        raise StaircaseDefectError(
            "shuffle pullbacks do not all share the staircase defect",
            witness={"staircase": serialize(st), "violations": violations},
        )
    return grid


def oracle_complete_from_corner(c: CornerData) -> GridDiagram:
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


def all_corner_data(corner_cards, max_r: int, max_s: int):
    """Every corner data with a corner cardinality in ``corner_cards``, at
    most ``max_r`` top maps and at most ``max_s`` left maps, bijections and
    empty sets included."""

    def chains(card: int, k: int, injective: bool):
        yield ()
        for other in range(card + 1) if k else ():
            for f in all_maps(other, card) if injective else all_maps(card, other):
                if f.is_injective if injective else f.is_surjective:
                    for rest in chains(other, k - 1, injective):
                        yield (f,) + rest

    for card in corner_cards:
        lefts = list(chains(card, max_s, False))
        for top in chains(card, max_r, True):
            for left in lefts:
                yield CornerData(card, top, left)


def compare_completions(corners) -> Counter:
    """Fill each corner data by ``complete_from_corner``, check the grid,
    fill it by the oracle too, and count: the corners; the grids whose
    cards or path cores differ from the oracle's; those whose top row or
    left column is not the corner's own; the corners whose top maps all
    have increasing images; and those of them whose grids differ."""
    counts = Counter()
    for c in corners:
        grid, want = complete_from_corner(c), oracle_complete_from_corner(c)
        grid.validate()
        differ = grid != want
        increasing = all(list(f.img) == sorted(f.img) for f in c.top)
        counts["corners"] += 1
        counts["cards or cores differ"] += differ and (
            grid.cards != want.cards or path_cores(grid) != path_cores(want)
        )
        counts["corner not kept"] += corner_of(grid) != c
        counts["increasing tops"] += increasing
        counts["increasing tops, grids differ"] += increasing and differ
    return counts


def oracle_corner_grids(max_card: int, allow_empty: bool) -> list:
    """Every corner grid completed up front by the oracle fill from the
    canonicalize-then-dedupe corner strings, then sorted."""
    entries = []
    for z, s in oracle_corner_strings(max_card, allow_empty):
        r = z.degree - s
        grid = oracle_complete_from_corner(corner_from_string(z, s, r))
        entries.append((z, s, r, grid))
    entries.sort(key=lambda e: (e[0].degree, serialize(e[0]), e[1]))
    return entries


def census_corner_strings(max_card: int, allow_empty: bool) -> list:
    """The ``(z, s)`` of each entry of ``enumerate_corner_grids``, which must
    come in strictly increasing ``MapString.sort_key`` order."""
    got = [(z, s) for z, s, *_ in enumerate_corner_grids(max_card, allow_empty)]
    keys = [z.sort_key() for z, _ in got]
    assert all(a < b for a, b in zip(keys, keys[1:])), "the corner census is out of order"
    return got


def oracle_is_accessible(C: StringComplex) -> bool:
    """Whether ``C`` is the union of the grid images it contains, with
    every candidate image walked in full.

    Candidate grids are bounded by ``C`` itself: a grid with nondegenerate
    corner data contains its corner string, a nondegenerate simplex of
    degree r+s, so r+s is at most the top degree of ``C``, and every
    cardinality is at most the largest one of ``C``'s members."""
    if not C:
        return True
    allow_empty = any(0 in z.cards() for z in C)
    max_degree = C.max_degree()
    union: set[MapString] = set()
    max_card = max(max(z.cards()) for z in C)
    for z, s, r, grid in oracle_corner_grids(max_card, allow_empty):
        if r + s > max_degree:
            continue
        img = image_subset(grid)
        if img <= C:
            union |= img
    return union == C


@lru_cache(maxsize=None)
def _faces(n: int) -> tuple[tuple[int, ...], ...]:
    """Nonempty position subsets of ``0..n``, by size then lexicographically."""
    return tuple(
        idx for k in range(1, n + 2) for idx in itertools.combinations(range(n + 1), k)
    )


@lru_cache(maxsize=None)
def oracle_excluded_faces(word: str) -> tuple[tuple[int, ...], ...]:
    """The faces of a shuffle simplex outside its past, in ``_faces`` order.

    A face lies in the past when its chain lies in the prism boundary or on
    the path of a strictly smaller shuffle.  Every face not listed here is
    in the past; only the excluded side is kept, since it stays small while
    the number of faces doubles with each move.
    """
    r, s = word.count("H"), word.count("V")
    path = _path(word)
    smaller = [frozenset(_path(sh)) for sh in enumerate_shuffles(r, s) if sh != word and le(sh, word)]
    excluded = []
    for idx in _faces(r + s):
        chain = tuple(path[x] for x in idx)
        if chain_in_boundary(chain, r, s):
            continue
        cs = set(chain)
        if not any(cs <= p for p in smaller):
            excluded.append(idx)
    return tuple(excluded)


def oracle_horn_certificate(sigma: str) -> HornCertificate:
    """Certify the attachment shape of one shuffle simplex.

    Verifies, by direct computation of the overlap: every maximal overlap
    face has codimension one; the overlap is the union of those facets; for
    a non-maximal shuffle the facet index set is not an interval, and for
    the maximal shuffle the overlap is the entire boundary.  Any failure
    raises, since each of these facts is forced.
    """
    r, s = sigma.count("H"), sigma.count("V")
    if r < 1 or s < 1:
        raise InputError("horn certificates need r >= 1 and s >= 1")
    n = r + s
    excluded = set(oracle_excluded_faces(sigma))
    inside = [idx for idx in _faces(n) if idx not in excluded]
    inside_set = set(inside)
    full = tuple(range(n + 1))
    if full in inside_set:
        raise CertificateError("shuffle simplex lies in its own past", witness=sigma)
    # The overlap is subchain-closed, so maximality is detected by
    # one-element extensions.
    facets = [
        idx
        for idx in inside
        if all(
            tuple(sorted(set(idx) | {x})) not in inside_set
            for x in range(n + 1)
            if x not in idx
        )
    ]
    S = tuple(sorted(i for i in range(n + 1) if tuple(x for x in full if x != i) in inside_set))
    if is_maximal(sigma):
        expected = {idx for k in range(1, n + 1) for idx in itertools.combinations(range(n + 1), k)}
        if inside_set != expected:
            raise CertificateError(
                "maximal shuffle overlap is not the boundary sphere", witness=sigma
            )
        return HornCertificate(sigma, "boundary", S, tuple(sorted(facets)))
    if any(len(idx) != n for idx in facets):
        raise CertificateError(
            "overlap has a maximal face of codimension > 1",
            witness={"sigma": sigma, "facets": sorted(facets)},
        )
    union = set()
    for i in S:
        fc = tuple(x for x in full if x != i)
        for sub in itertools.chain.from_iterable(
            itertools.combinations(fc, k) for k in range(1, n + 1)
        ):
            union.add(sub)
    if union != inside_set:
        raise CertificateError(
            "overlap is not the union of its codimension-one faces", witness=sigma
        )
    if not is_inner_generalized_horn(set(S), n):
        raise CertificateError(
            "facet index set is an interval", witness={"sigma": sigma, "S": sorted(S)}
        )
    return HornCertificate(sigma, "inner", S, tuple(sorted(facets)))


def oracle_present(alpha: int, allow_empty: bool = False) -> PresentationSkeleton:
    """``present`` as a loop of whole-complex steps: per grid, the boundary
    image is tested against the complex so far and the public
    ``attach_diagram`` attaches the grid to all of it, re-checking the
    saturation of every member and the union with the image."""
    C = StringComplex()
    gens = []
    for z, s, r, grid, _ in enumerate_corner_grids(alpha, allow_empty):
        if not oracle_boundary_image(grid) <= C:
            raise CertificateError(
                "generator boundary not contained in earlier images",
                witness={"corner": serialize(z), "r": r, "s": s},
            )
        _, C, recs = attach_diagram(C, grid)
        if recs:
            gens.append(Generator(z, grid, recs))
    oracle_check_against_enumeration(C, alpha, allow_empty)
    return PresentationSkeleton(alpha, allow_empty, C, tuple(gens))


def oracle_check_against_enumeration(C: StringComplex, alpha: int, allow_empty: bool) -> None:
    """``check_against_enumeration`` as it enumerated ``E^alpha`` itself,
    breadth first, with ``enumerate_nondegenerate``."""
    cap = alpha * (alpha + 2) + 1
    by_degree = enumerate_nondegenerate(alpha, cap, allow_empty, max_defect=alpha)
    if by_degree[-1] and len(by_degree) >= cap:
        raise CertificateError(
            "degree cap reached",
            witness={"alpha": alpha, "cap": cap, "top_degree_members": len(by_degree[-1])},
        )
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


def oracle_attach_walk(
    current: set[MapString],
    grid: GridDiagram,
    cores: dict[str, MapString],
    order: list[str],
    anomaly,
    stop: set[MapString],
) -> tuple[list[AttachmentCertificate], list[MapString]]:
    """``attach_walk`` as it restricted the grid once more per excluded
    face and cored the result: attach the shuffle simplices of a grid to
    the member set ``current`` in place, in ``order``, certifying every
    one that is new.  ``order`` may be any linear extension of the shuffle
    poset, so the tests check against it that the attachment does not
    depend on the one order ``attach_walk`` walks.

    ``cores`` maps each move word to the interned core of its path's
    restriction.  ``anomaly(message, witness)`` raises for a condition
    that the attachment hypotheses force.  The face closure of each new
    path core stops at the members of ``stop``, a face-closed set that
    grows with each closure; ``stop`` is ``current`` itself when
    ``current`` is face-closed.  Returns the records and the members added.
    """
    r, s = grid.r, grid.s
    n = r + s
    full = tuple(range(n + 1))
    records = []
    added: list[MapString] = []
    for sigma in order:
        z = cores[sigma]
        if z in current:
            records.append(AttachmentCertificate(sigma, "already-present"))
            continue
        # a string is nondegenerate exactly when its core keeps its degree
        if z.degree != n:
            anomaly(
                "new shuffle simplex is degenerate but its core is missing",
                {"sigma": sigma},
            )
        excluded = _excluded_faces(sigma)
        if full not in excluded:
            raise CertificateError(
                "new shuffle simplex lies in its own past",
                witness={"sigma": sigma, "excluded": [list(T) for T in excluded]},
            )
        proper_excluded = [idx for idx in excluded if idx != full]
        for T in proper_excluded:
            _gap_pattern_checks(sigma, T)
        path = _path(sigma)
        face_cores = {}
        for T in proper_excluded:
            w = core(restrict(grid, [path[x] for x in T]))[0]
            face_cores[T] = w
            if w.degree != len(T) - 1:
                raise CertificateError(
                    "excluded proper face is degenerate",
                    witness={"sigma": sigma, "T": list(T)},
                )
            if w in current:
                anomaly(
                    "excluded face already lies in the complex",
                    {"sigma": sigma, "T": list(T)},
                )
        # map classes survive relabeling, so the canonical core of a
        # nondegenerate face string carries the same class pattern
        for T, w in face_cores.items():
            _recover_gaps(sigma, w, T)
        by_dim: dict[int, set[MapString]] = {}
        for T, w in face_cores.items():
            by_dim.setdefault(len(T), set()).add(w)
        for k, forms in by_dim.items():
            count = sum(1 for T in proper_excluded if len(T) == k)
            if len(forms) != count:
                raise CertificateError(
                    "two excluded faces share a canonical form",
                    witness={"sigma": sigma, "dimension": k - 1},
                )
        if r >= 1 and s >= 1 and not is_maximal(sigma):
            cert = horn_certificate(sigma)
            kind, S = cert.kind, cert.S
        else:
            # maximal shuffle (or a single-row/column grid): sphere attachment
            if proper_excluded:
                raise CertificateError(
                    "maximal shuffle has excluded proper faces",
                    witness={"sigma": sigma},
                )
            kind, S = "boundary", tuple(range(n + 1)) if n else ()
        closure = face_closure([z], stop)
        fresh = [w for w in closure if w not in current]
        stop |= closure
        current.update(fresh)
        added += fresh
        records.append(
            AttachmentCertificate(
                sigma,
                "attached",
                kind,
                tuple(S),
                tuple(sorted(proper_excluded)),
            )
        )
    return records, added


def compare_attach_walks(grids) -> tuple[int, int]:
    """Replay ``grids`` in order through ``attach_walk`` and
    ``oracle_attach_walk``, each on its own member set, attaching each grid
    whose image is not yet present as ``present`` does.  Returns the number
    of grids attached and the number whose records, added members or
    resulting member sets differ."""
    new: set[MapString] = set()
    old: set[MapString] = set()
    plans: dict = {}
    attached = bad = 0

    def anomaly(message, witness):
        raise CertificateError(message, witness)

    for grid in grids:
        shuffles = enumerate_shuffles(grid.r, grid.s)
        paths = path_cores(grid)
        if not face_closure((z for z, _ in paths), new):
            continue
        got = attach_walk(new, grid, paths, anomaly, new, plans)
        cores = {sh: z for sh, (z, _) in zip(shuffles, paths)}
        want = oracle_attach_walk(old, grid, cores, shuffles, anomaly, old)
        attached += 1
        bad += (
            got[0] != want[0]
            or len(got[1]) != len(set(got[1]))
            or set(got[1]) != set(want[1])
            or new != old
        )
    return attached, bad


def extension_maps(last_card: int, new_card: int):
    """Non-bijective maps ``new_card -> last_card`` up to source relabeling."""
    ident = tuple(range(last_card))
    # image tuples that are weakly increasing: one per source-relabel orbit
    for img in itertools.combinations_with_replacement(range(last_card), new_card):
        if new_card == last_card and img == ident:
            continue
        yield FinMap(new_card, last_card, img)


def oracle_enumerate_nondegenerate(
    max_card: int,
    max_degree: int,
    allow_empty: bool = False,
    max_defect: int | None = None,
) -> list[list[MapString]]:
    """Canonical nondegenerate strings, grouped by degree.

    Extends canonical representatives one map at a time; source-sorted image
    tuples cover every extension up to relabeling of the new level, and a
    canonical pass after each step removes the remaining symmetry.  With
    ``max_defect`` set, branches whose defect exceeds the bound are pruned
    (appending to a string never lowers its defect).
    """
    lo = 0 if allow_empty else 1
    level: list[MapString] = []
    for c in range(lo, max_card + 1):
        z = MapString(c)
        if max_defect is None or defect(z) <= max_defect:
            level.append(z)
    level.sort(key=MapString.sort_key)
    out = [level]
    for _ in range(max_degree):
        seen: set[MapString] = set()
        for z in level:
            last = z.cards()[-1]
            budget = None if max_defect is None else max_defect - defect(z)
            for new_card in range(lo, max_card + 1):
                for f in extension_maps(last, new_card):
                    if budget is not None and new_card - len(set(f.img)) > budget:
                        continue
                    seen.add(canonicalize(MapString(z.card0, z.maps + (f,))))
        level = sorted(seen, key=MapString.sort_key)
        out.append(level)
        if not level:
            break
    return out


def oracle_corner_strings(max_card: int, allow_empty: bool):
    """Canonical nondegenerate corner strings (surjections then injections).

    Cardinalities move strictly along proper maps, so both runs terminate
    on their own below ``max_card``.
    """
    lo = 0 if allow_empty else 1
    seen: set[tuple[MapString, int]] = set()
    out = []

    def note(z: MapString, s: int):
        zc = canonicalize(z)
        key = (zc, s)
        if key not in seen:
            seen.add(key)
            out.append((zc, s))

    def grow_top(z: MapString, s: int):
        note(z, s)
        last = z.cards()[-1]
        for new_card in range(lo, last):
            for f in extension_maps(last, new_card):
                if f.is_injective:
                    grow_top(MapString(z.card0, z.maps + (f,)), s)

    def grow_left(z: MapString):
        grow_top(z, z.degree)
        last = z.cards()[-1]
        for new_card in range(last + 1, max_card + 1):
            for f in extension_maps(last, new_card):
                if f.is_surjective:
                    grow_left(MapString(z.card0, z.maps + (f,)))

    for c in range(lo, max_card + 1):
        grow_left(MapString(c))
    return out


def oracle_serialize(z: MapString) -> str:
    """The compact JSON form through ``json.dumps``."""
    return json.dumps(oracle_to_json(z), sort_keys=True, separators=(",", ":"))


def oracle_matching_faces(z: MapString, w: MapString) -> list[int]:
    """The inner face indices of ``z`` whose canonical face is ``w``, found
    by canonicalizing every inner face."""
    return [i for i in range(1, z.degree) if canonicalize(face(z, i)) == w]


def oracle_match_excess(profiles: list[ExcessProfile], alpha: int, degree_bound: int) -> Matching:
    """``match_excess`` as it keyed every lower string, those of degree
    ``degree_bound`` too, which no upper string within the bound can match:
    verify the matching invariants over the enumerated range.

    ``profiles`` arrive in ``excess_strings`` order, by degree and then by
    serialization, and the pairs keep the order of their upper strings.
    For every upper string the distinguished face index is strictly inner
    and unique, the face preserves defect, lands in the lower class with
    the surjective run shortened by one, and the assignment is a bijection
    from upper strings of each degree to lower strings one degree down.
    """
    uppers = [p for p in profiles if p.side == "upper"]
    lowers = {p.string: p for p in profiles if p.side == "lower"}
    pairs = []
    image_by_degree: dict[int, set[MapString]] = defaultdict(set)
    for p in uppers:
        n, j = p.degree, p.junction
        if not 0 < j < n:
            raise MatchingError(
                "distinguished face index is not inner", witness=serialize(p.string)
            )
        if p.surj_run < 1:
            raise MatchingError(
                "upper string with empty surjective run", witness=serialize(p.string)
            )
        w = match_partner(p)
        if defect(w) != p.excess_defect:
            raise MatchingError(
                "matched face changes the defect",
                witness={"upper": serialize(p.string), "lower": serialize(w)},
            )
        if w not in lowers:
            raise MatchingError(
                "matched face is not an enumerated lower string",
                witness={"upper": serialize(p.string), "lower": serialize(w)},
            )
        wp = lowers[w]
        if (wp.inj_run, wp.surj_run) != (p.inj_run, p.surj_run - 1):
            raise MatchingError(
                "matched face has the wrong profile",
                witness={"upper": serialize(p.string), "lower": serialize(w)},
            )
        hits = _matching_faces(p.string, w, j)
        if hits != [j]:
            raise MatchingError(
                "distinguished face index is not unique",
                witness={"upper": serialize(p.string), "indices": hits},
            )
        if w in image_by_degree[n]:
            raise MatchingError(
                "two upper strings share a matched face", witness=serialize(w)
            )
        image_by_degree[n].add(w)
        pairs.append((p.string, w, j))
    upper_count = Counter(p.degree for p in uppers)
    lower_by_degree: dict[int, set[MapString]] = defaultdict(set)
    for z in lowers:
        lower_by_degree[z.degree].add(z)
    lower_count = {m: len(zs) for m, zs in lower_by_degree.items()}
    for m in range(1, degree_bound):
        want = lower_by_degree[m]
        got = image_by_degree[m + 1]
        if want != got:
            missing = sorted(want - got, key=MapString.sort_key)
            raise MatchingError(
                "matching is not onto the lower class",
                witness={"degree": m, "missing": [serialize(z) for z in missing[:5]]},
            )
    degrees = sorted(set(upper_count) | set(lower_count))
    per_degree = tuple((d, upper_count.get(d, 0), lower_count.get(d, 0)) for d in degrees)
    return Matching(alpha, degree_bound, tuple(pairs), per_degree)


def _top_runs(z: MapString) -> tuple[int, int, MapClass | None]:
    """``(inj_run, surj_run, junction)`` of ``z``, classified map by map:
    the properly injective maps at the top, the properly surjective maps
    directly below them, and the class of the map below both runs (``None``
    when the runs reach the bottom); the oracle for the runs the census
    carries."""
    t = z.degree
    r = 0
    while r < t and classify(z.maps[t - 1 - r]) is MapClass.PROPER_INJECTIVE:
        r += 1
    s = 0
    while r + s < t and classify(z.maps[t - 1 - r - s]) is MapClass.PROPER_SURJECTIVE:
        s += 1
    return r, s, classify(z.maps[t - 1 - r - s]) if r + s < t else None


def profile_of(z: MapString, d: int) -> ExcessProfile:
    """The run-length profile of ``z``, whose defect is ``d``, from runs
    classified map by map; requires the runs to stop inside."""
    return _profile(z, d, _top_runs(z))


def oracle_excess_strings(alpha: int, degree_bound: int, allow_empty: bool = False):
    """Profiles of all canonical excess strings up to the degree bound,
    with every string of the census checked by ``in_excess`` and its
    defect computed again."""
    if alpha < 1:
        raise InputError("alpha must be >= 1")
    if degree_bound < 2:
        raise InputError("degree_bound must be >= 2")
    by_degree = enumerate_nondegenerate(alpha, degree_bound, allow_empty)
    return [profile_of(z, defect(z)) for level in by_degree for z in level if in_excess(z, alpha)]


_ORACLE_CHECKS = (
    "c_nondegenerate", "a_endpoints_and_isolated_gaps", "b_gap_moves",
    "d_excluded_faces_nondegenerate", "ii_excluded_faces_new", "iii_excluded_faces_distinct",
)


def oracle_to_json(v, canonical=None):
    """The plain JSON tree of a value, by the ``to_json`` bodies each value
    class wrote by hand before it stated its JSON once as a shallow form;
    ``canonical`` is ``MapString.to_json``'s argument."""
    if isinstance(v, FinMap):
        return {"src": v.src, "dst": v.dst, "img": list(v.img)}
    if isinstance(v, MapString):
        obj = {"card0": v.card0, "maps": [oracle_to_json(f) for f in v.maps]}
        if canonical is not None:
            obj["canonical"] = canonical
        return obj
    if isinstance(v, StringComplex):
        return [oracle_to_json(z, True) for z in sorted(v, key=MapString.sort_key)]
    if isinstance(v, GridDiagram):
        return {
            "r": v.r,
            "s": v.s,
            "cards": [list(col) for col in v.cards],
            "horiz": [[oracle_to_json(f) for f in col] for col in v.horiz],
            "vert": [[oracle_to_json(f) for f in col] for col in v.vert],
        }
    if isinstance(v, HornCertificate):
        return {"sigma": v.sigma, "kind": v.kind, "S": list(v.S), "facets": [list(t) for t in v.facets]}
    if isinstance(v, AttachmentCertificate):
        return {
            "sigma": v.sigma,
            "status": v.status,
            "kind": v.kind,
            "S": list(v.S),
            "excluded": [list(t) for t in v.excluded],
            "checks": dict.fromkeys(_ORACLE_CHECKS, True) if v.status == "attached" else {},
        }
    if isinstance(v, PresentationSkeleton):
        return {
            "alpha": v.alpha,
            "allow_empty": v.allow_empty,
            "cells": [
                {"r": g.r, "s": g.s, "corner": oracle_to_json(g.corner, True), "grid": oracle_to_json(g.grid)}
                for g in v.generators
            ],
            "attachment_order": list(range(len(v.generators))),
            "certificates": [
                {"cell": k, "records": [oracle_to_json(rec) for rec in g.records]}
                for k, g in enumerate(v.generators)
            ],
            "skeletal_dimension": v.complex.max_degree(),
            "counts": v.counts(),
            "complex": oracle_to_json(v.complex),
        }
    if isinstance(v, ExcessProfile):
        return {
            "string": oracle_to_json(v.string, True),
            "defect": v.excess_defect,
            "inj_run": v.inj_run,
            "surj_run": v.surj_run,
            "side": v.side,
        }
    if isinstance(v, Matching):
        return {
            "alpha": v.alpha,
            "degree_bound": v.degree_bound,
            "pairs": [
                {"upper": oracle_to_json(u, True), "lower": oracle_to_json(w, True), "face": j}
                for u, w, j in v.pairs
            ],
            "per_degree": [{"degree": d, "upper": nu, "lower": nl} for d, nu, nl in v.per_degree],
        }
    raise TypeError(f"no oracle JSON for {type(v).__name__}")


def expand_values(tree):
    """``tree`` with every value object replaced by its ``oracle_to_json``
    tree and every tuple by a list."""
    if isinstance(tree, dict):
        return {k: expand_values(v) for k, v in tree.items()}
    if type(tree) in (list, tuple):
        return [expand_values(v) for v in tree]
    if hasattr(tree, "json_form"):
        return oracle_to_json(tree)
    return tree
