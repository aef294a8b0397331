"""Shared test utilities: raw enumerations, an independent iso checker, the
permutation-sweep canonicalizer kept as an oracle for the canonical form,
and the uncached grid restriction kept as an oracle for the chain tables."""

import itertools
import random
from functools import lru_cache

from finsimp import FinMap, MapString, compose, core, identity
from finsimp.finmap import all_maps


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
    from finsimp.strings import relabel

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
    f = identity(grid.card(i2, j2))
    for i in range(i2 - 1, i1 - 1, -1):
        f = compose(grid.horiz_map(i, j2), f)
    for j in range(j2 - 1, j1 - 1, -1):
        f = compose(grid.vert_map(i1, j), f)
    return f


def oracle_chains(r, s):
    """Chains of the cell poset: lexicographically sorted cell subsets whose
    rows never decrease."""
    cells = sorted((i, j) for i in range(r + 1) for j in range(s + 1))
    for k in range(1, len(cells) + 1):
        for ch in itertools.combinations(cells, k):
            if all(a[1] <= b[1] for a, b in zip(ch, ch[1:])):
                yield ch


def oracle_chain_cores(grid) -> dict:
    """``core(restrict(grid, chain))`` per chain, with no cached state."""
    out = {}
    for ch in oracle_chains(grid.r, grid.s):
        maps = tuple(oracle_arrow(grid, b, a) for a, b in zip(ch, ch[1:]))
        out[ch] = core(MapString(grid.card(*ch[0]), maps))[0]
    return out
