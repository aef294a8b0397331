import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from finsimp import (
    FinMap,
    MapString,
    canonicalize,
    core,
    defect,
    degeneracy,
    face,
    saturate,
)
from finsimp.errors import InputError
from finsimp.finmap import MAX_CARD, identity
from finsimp.grids import defect_subcomplex, enumerate_corner_grids, path_cores
import finsimp.strings as strings_mod
from finsimp.strings import (
    StringComplex,
    _Tie,
    _census,
    _saturation_core,
    _start_frontier,
    _step,
    core_face_indices,
    enumerate_nondegenerate,
    face_closure,
    face_cores,
    interned_core,
    serialize,
    string_from_json,
    walk_members,
)

from helpers import (
    _top_runs,
    are_isomorphic,
    assert_rebuilds,
    are_isomorphic_exhaustive,
    census_corner_strings,
    clear_memos,
    cold_memos,
    compare_core_memos,
    contains,
    count_steps,
    fresh_memos,
    is_face_closed,
    list_canonicalize,
    is_canonical,
    oracle_canonicalize,
    oracle_core,
    oracle_enumerate_nondegenerate,
    oracle_face_cores,
    oracle_saturation_core,
    oracle_serialize,
    random_relabeling,
    random_string,
    raw_strings,
    relabel,
)


def test_face_inner_composes():
    z = MapString(2, (FinMap(1, 2, (1,)), FinMap(2, 1, (0, 0))))
    assert face(z, 1) == MapString(2, (FinMap(2, 2, (1, 1)),))


def test_face_zero_drops_bottom():
    for c0, c1 in [(1, 2), (3, 1)]:
        f = FinMap(c1, c0, tuple(0 for _ in range(c1)))
        z = MapString(c0, (f,))
        assert face(z, 0) == MapString(c1)
        assert face(z, 1) == MapString(c0)


def test_face_index_errors():
    z = MapString(2, (FinMap(1, 2, (0,)),))
    with pytest.raises(InputError):
        face(z, 2)
    with pytest.raises(InputError):
        face(MapString(3), 0)


def test_degeneracy_inserts_identity():
    z = MapString(3)
    assert degeneracy(z, 0) == MapString(3, (identity(3),))
    w = MapString(2, (FinMap(1, 2, (0,)),))
    assert degeneracy(w, 1).maps == (FinMap(1, 2, (0,)), identity(1))
    assert not degeneracy(w, 0).is_nondegenerate()


def _check_simplicial_identities(z):
    t = z.degree
    if t >= 2:
        for j in range(t + 1):
            for i in range(j):
                assert face(face(z, j), i) == face(face(z, i), j - 1)
    for j in range(t + 1):
        for i in range(t + 1):
            sz = degeneracy(z, j)
            if i < j:
                assert face(sz, i) == degeneracy(face(z, i), j - 1)
            elif i in (j, j + 1):
                assert face(sz, i) == z
            elif i > j + 1 and t >= 1:
                assert face(sz, i) == degeneracy(face(z, i - 1), j)
    for j in range(t + 1):
        for i in range(j + 1):
            assert degeneracy(degeneracy(z, j), i) == degeneracy(degeneracy(z, i), j + 1)


def test_simplicial_identities_exhaustive_small():
    for z in raw_strings(2, 3):
        _check_simplicial_identities(z)
    for z in raw_strings(3, 2):
        _check_simplicial_identities(z)


def test_simplicial_identities_random():
    rng = random.Random(2024)
    for _ in range(500):
        _check_simplicial_identities(random_string(rng, max_degree=6, max_card=4))


def test_canonicalize_idempotent_and_invariant():
    rng = random.Random(11)
    for _ in range(300):
        z = random_string(rng)
        zc = canonicalize(z)
        assert canonicalize(zc) == zc
        assert zc.cards() == z.cards()
        assert defect(zc) == defect(z)


def test_canonicalize_equal_on_relabelings():
    rng = random.Random(5)
    for _ in range(200):
        z = random_string(rng, max_degree=5, max_card=4)
        w = relabel(z, random_relabeling(rng, z))
        assert canonicalize(w) == canonicalize(z)


def test_canonicalize_separates_shapes():
    a = canonicalize(MapString(2, (FinMap(2, 2, (0, 0)),)))
    b = canonicalize(MapString(2, (FinMap(2, 2, (0, 1)),)))
    assert a != b
    assert not b.is_nondegenerate() and a.is_nondegenerate()


def test_canonical_form_is_in_the_class():
    # frontier checker is itself anchored against full brute force first
    rng = random.Random(3)
    for _ in range(60):
        z = random_string(rng, max_degree=3, max_card=2)
        w = relabel(z, random_relabeling(rng, z))
        assert are_isomorphic_exhaustive(z, w) == are_isomorphic(z, w)
    for z in raw_strings(2, 3):
        assert are_isomorphic(z, canonicalize(z))


def test_canonicalize_agrees_with_oracle_exhaustive():
    for z in raw_strings(3, 3, allow_empty=True):
        assert canonicalize(z) == oracle_canonicalize(z), z


def test_canonicalize_agrees_with_oracle_random():
    rng = random.Random(41)
    for _ in range(2000):
        z = random_string(rng, max_degree=7, max_card=5, allow_empty=True)
        w = relabel(z, random_relabeling(rng, z))
        zc = oracle_canonicalize(z)
        assert canonicalize(z) == zc, z
        assert canonicalize(w) == zc, (z, w)


def test_canonicalize_swaps_tied_subtrees_jointly():
    # both roots have two children, so they tie at level 1; the children of
    # root 0 have fibers (2, 0) and those of root 1 have (1, 1).  Sorting all
    # four level-1 elements by fiber size alone would give (0, 0, 1, 2),
    # which no relabeling reaches: tied subtrees move only as wholes.
    z = MapString(2, (FinMap(4, 2, (0, 0, 1, 1)), FinMap(4, 4, (2, 3, 0, 0))))
    expected = MapString(2, (FinMap(4, 2, (0, 0, 1, 1)), FinMap(4, 4, (0, 0, 2, 3))))
    assert canonicalize(z) == expected
    assert oracle_canonicalize(z) == expected


def test_canonicalize_large_star():
    # 12 leaves under one root, fibers (3, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0)
    # above them: 12! relabelings per level for a permutation sweep
    expected = MapString(
        1,
        (
            FinMap(12, 1, (0,) * 12),
            FinMap(12, 12, (0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7)),
        ),
    )
    rng = random.Random(12)
    z = relabel(expected, random_relabeling(rng, expected))
    assert z != expected
    assert canonicalize(z) == expected


def test_canonicalize_nested_symmetric_deep():
    # a full binary tree of depth 3, then 600 identity-shaped levels
    tree = (FinMap(2, 1, (0, 0)), FinMap(4, 2, (0, 0, 1, 1)), FinMap(8, 4, (0, 0, 1, 1, 2, 2, 3, 3)))
    expected = MapString(1, tree + (identity(8),) * 600)
    rng = random.Random(600)
    z = relabel(expected, random_relabeling(rng, expected))
    assert z != expected
    assert canonicalize(z) == expected


def test_canonicalize_degree_3000():
    rng = random.Random(3000)
    cards = [rng.randint(1, 6) for _ in range(3001)]
    maps = tuple(
        FinMap(cards[k + 1], cards[k], tuple(rng.randrange(cards[k]) for _ in range(cards[k + 1])))
        for k in range(3000)
    )
    z = MapString(cards[0], maps)
    zc = canonicalize(z)
    assert canonicalize(zc) == zc
    assert canonicalize(relabel(z, random_relabeling(rng, z))) == zc


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_canonicalize_commutes_with_face(seed):
    rng = random.Random(seed)
    z = random_string(rng, max_degree=4, max_card=3)
    if z.degree == 0:
        return
    i = rng.randrange(z.degree + 1)
    assert canonicalize(face(canonicalize(z), i)) == canonicalize(face(z, i))


def test_core_of_nondegenerate():
    z = canonicalize(MapString(2, (FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0)))))
    assert core(z) == (z, ())


def test_core_strips_degeneracies():
    rng = random.Random(23)
    for _ in range(200):
        z = random_string(rng, max_degree=4, max_card=3)
        base, _ = core(z)
        w = z
        for _ in range(rng.randint(1, 3)):
            w = degeneracy(w, rng.randrange(w.degree + 1))
        assert core(w)[0] == base


def test_core_matches_the_merging_oracle():
    # the step loop against merging one bijection at a time, then
    # canonicalizing: base and indices, on every small raw string and on
    # random larger ones, where bijections permute
    rng = random.Random(31)
    zs = list(raw_strings(3, 3, allow_empty=True))
    zs += [random_string(rng, max_degree=6, max_card=5, allow_empty=True) for _ in range(20_000)]
    for z in zs:
        assert core(z) == oracle_core(z)


def test_core_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        z = random_string(rng, max_degree=4, max_card=3)
        base, indices = core(z)
        w = base
        for i in reversed(indices):
            w = degeneracy(w, i)
        assert canonicalize(w) == canonicalize(z)
        assert base.is_nondegenerate()


def test_defect_degree_zero():
    assert defect(MapString(3)) == 3


def test_defect_injections_then_surjections_profile():
    # two maps, top injective, bottom surjective, middle set of size 4
    z = MapString(2, (FinMap(4, 2, (0, 0, 1, 1)), FinMap(3, 4, (0, 1, 2))))
    assert z.cards() == (2, 4, 3)
    assert defect(z) == 4  # the middle cardinality


def test_defect_never_increases_under_faces():
    for level in enumerate_nondegenerate(3, 4):
        for z in level:
            for i in range(z.degree + 1):
                if z.degree >= 1:
                    assert defect(face(z, i)) <= defect(z)
                assert defect(degeneracy(z, i)) == defect(z)


def test_defect_at_least_max_card():
    for level in enumerate_nondegenerate(4, 4):
        for z in level:
            assert defect(z) >= max(z.cards())


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("max_card", [0, 1, 2, 3])
def test_enumerate_nondegenerate_matches_oracle(max_card, allow_empty):
    # same lists in the same order, at every degree bound up to 5
    want = oracle_enumerate_nondegenerate(max_card, 5, allow_empty)
    for max_degree in range(6):
        assert enumerate_nondegenerate(max_card, max_degree, allow_empty) == want[: max_degree + 1]


@pytest.mark.parametrize("args", [(4, 8, False, 4), (3, 6, True, 3)])
def test_enumerate_nondegenerate_bounded_defect_matches_oracle(args):
    assert enumerate_nondegenerate(*args) == oracle_enumerate_nondegenerate(*args)


def test_enumerate_nondegenerate_e5_counts():
    # the direct half of E^5; both halves of defect_subcomplex agree on it
    levels = enumerate_nondegenerate(5, 36, max_defect=5)
    assert [len(level) for level in levels] == [5, 34, 223, 985, 2688, 4442, 4317, 2267, 496, 0]
    assert sum(map(len, levels)) == 15457


def test_census_levels_sorted_past_nine():
    # with cardinalities of 10 and more, string order ("10" before "2") is
    # not numeric order; the levels still come out sorted, though only
    # degree 0 is sorted (a defect bound of 2 would cap every cardinality
    # at 2: a string's defect is at least its largest cardinality)
    levels = enumerate_nondegenerate(10, 1, max_defect=10)
    assert any(max(z.cards()) >= 10 for z in levels[1])
    for level in levels:
        assert level == sorted(level, key=MapString.sort_key)
        assert len(set(level)) == len(level)
    numeric = sorted(levels[1], key=lambda z: (z.card0, [(f.dst, f.img, f.src) for f in z.maps]))
    assert numeric != levels[1]


def test_census_shares_equal_top_maps():
    # one extension table per top cardinality: equal top maps are one object
    censuses = [
        [z for level in enumerate_nondegenerate(3, 4, True) for z in level],
        [z for level in enumerate_nondegenerate(4, 8, max_defect=4) for z in level],
        [z for z, _ in census_corner_strings(4, True)],
    ]
    for census in censuses:
        tops: dict[FinMap, FinMap] = {}
        extended = [z for z in census if z.maps]
        for z in extended:
            f = z.maps[-1]
            assert tops.setdefault(f, f) is f
        assert len(tops) < len(extended)


def test_saturate_examples():
    z = MapString(2, (FinMap(2, 2, (1, 0)),))
    e = saturate(z)
    assert e.degree == 2
    assert core(e)[0].degree == 0
    z2 = MapString(1, (FinMap(3, 1, (0, 0, 0)),))
    e2 = saturate(z2)
    assert defect(e2) == defect(z2)
    assert e2.maps[0].is_bijective  # the mono factor of a surjection
    with pytest.raises(InputError):
        saturate(MapString(2))


def test_saturate_preserves_defect_exhaustive():
    for level in enumerate_nondegenerate(3, 3):
        for z in level:
            if z.degree >= 1:
                e = saturate(z)
                assert defect(e) == defect(z)
                for k, f in enumerate(z.maps):
                    # the face composing each factor pair restores the map
                    assert face(e, 2 * k + 1).maps[2 * k] == f


def test_string_complex_closure_and_contains():
    edge = MapString(2, (FinMap(2, 2, (0, 0)),))
    C = StringComplex.closure([edge])
    assert len(C) == 2
    assert contains(C, degeneracy(edge, 0))
    assert is_face_closed(C)
    assert not contains(C, MapString(1))


def test_string_from_json_diagnostics():
    with pytest.raises(InputError) as exc:
        string_from_json({"card0": 2, "maps": [{"src": 1, "dst": 3, "img": [0]}]})
    assert "maps[0]" in str(exc.value)


def test_string_from_json_bounds_card0():
    assert string_from_json({"card0": MAX_CARD}) == MapString(MAX_CARD)
    with pytest.raises(InputError, match=f"string.card0: {MAX_CARD + 1} exceeds the cardinality bound"):
        string_from_json({"card0": MAX_CARD + 1})


def test_is_canonical():
    z = MapString(2, (FinMap(1, 2, (1,)),))
    assert not is_canonical(z)
    assert is_canonical(canonicalize(z))


def test_complex_json_ordering_contract():
    from finsimp import defect_subcomplex
    from finsimp.strings import serialize, string_from_json

    C = defect_subcomplex(2)
    listed = C.to_json()
    keys = [
        (len(obj["maps"]), serialize(string_from_json({k: v for k, v in obj.items() if k != "canonical"})))
        for obj in listed
    ]
    assert keys == sorted(keys)


def test_core_face_indices_locate_face_cores():
    # degenerate strings included: runs of bijections collapse in the core
    rng = random.Random(11)
    sample = list(raw_strings(2, 3, allow_empty=True))
    sample += [random_string(rng, max_degree=6, max_card=3) for _ in range(300)]
    for z in sample:
        if z.degree == 0:
            continue
        base = interned_core(z)
        where = core_face_indices([f.is_bijective for f in z.maps])
        assert len(where) == z.degree + 1
        for x, i in enumerate(where):
            got = base if i is None else face_cores(base)[i]
            assert got == core(face(z, x))[0]


@pytest.mark.parametrize("allow_empty", [False, True])
def test_top_face_core_is_the_interned_prefix(allow_empty):
    # by the prefix lemma the top face of a canonical nondegenerate string
    # is its own core, so face_cores interns it without coring it
    tops = 0
    for z in defect_subcomplex(4, allow_empty):
        if z.degree == 0:
            continue
        top = face(z, z.degree)
        assert face_cores(z)[-1] is interned_core(top)
        assert face_cores(z)[-1] == core(top)[0]
        tops += 1
    assert tops > 500


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_member_walk_fills_memos_like_the_oracles(monkeypatch, alpha, allow_empty):
    # the walk lists the breadth-first census of E^alpha list for list, in
    # sort_key order; every member, and nothing else, gets the face cores
    # and the saturation core of the oracles, as the interned objects
    cold_memos(monkeypatch)
    walked, census, bad, seen = compare_core_memos(alpha, allow_empty)
    assert walked == census
    assert sum(map(len, census)) == len(strings_mod._face_cores) and bad == 0 and seen["extra"] == 0
    if alpha >= 3:
        # cores that lost a bijection, whose step only moved the frontier
        assert seen["face"] and seen["saturation"]


def test_strings_outside_the_member_walk_fall_back_to_core(monkeypatch):
    cold_memos(monkeypatch)
    walk_members(3, saturations=True)
    calls = []
    real = strings_mod.core
    monkeypatch.setattr(strings_mod, "core", lambda z: calls.append(z) or real(z))
    outside = [
        z
        for level in enumerate_nondegenerate(5, 3, max_defect=5)
        for z in level
        if z.degree >= 2 and z not in strings_mod._face_cores
    ]
    assert len(outside) > 1000
    for z in outside:
        assert face_cores(z) == oracle_face_cores(z)
        assert _saturation_core(z) == oracle_saturation_core(z)
    # the inner faces and the saturation, each cored once per string
    assert len(calls) == sum(z.degree + 1 for z in outside)


def test_face_closure_stops_at_a_closed_set():
    z = canonicalize(MapString(3, (FinMap(2, 3, (0, 2)), FinMap(2, 2, (1, 1)))))
    whole = face_closure([z])
    assert is_face_closed(StringComplex(whole))
    low = face_closure([face(z, 0)])
    assert face_closure([z], low) == whole - low


@st.composite
def map_strings(draw, max_card=12, max_degree=4):
    """Any string, not up to equivalence: degree 0, empty levels, empty
    images and cardinalities of 10 and more included."""
    card0 = draw(st.integers(0, max_card))
    maps = []
    last = card0
    for _ in range(draw(st.integers(0, max_degree))):
        src = draw(st.integers(0, max_card if last else 0))
        img = draw(st.lists(st.integers(0, max(last - 1, 0)), min_size=src, max_size=src))
        maps.append(FinMap(src, last, tuple(img)))
        last = src
    return MapString(card0, tuple(maps))


@settings(max_examples=300, deadline=None)
@given(map_strings())
@example(MapString(0))
@example(MapString(0, (FinMap(0, 0, ()),)))
@example(MapString(3, (FinMap(0, 3, ()), FinMap(0, 0, ()))))
@example(MapString(12, (FinMap(10, 12, tuple(range(10))), FinMap(11, 10, (9,) * 11))))
def test_serialize_matches_json_dumps(z):
    assert serialize(z) == oracle_serialize(z)


@settings(max_examples=50, deadline=None)
@given(st.lists(map_strings(), max_size=30))
def test_sort_key_orders_as_compact_json(zs):
    # the JSON text puts [0,1] before [0] and 10 before 2; a tuple key of
    # cards and images would put them the other way round
    zs += [
        MapString(2, (FinMap(2, 2, (0, 1)),)),
        MapString(2, (FinMap(1, 2, (0,)),)),
        MapString(10),
        MapString(2),
        MapString(10, (FinMap(1, 10, (9,)),)),
        MapString(2, (FinMap(1, 2, (1,)),)),
    ]
    by_oracle = sorted(zs, key=lambda z: (z.degree, oracle_serialize(z)))
    assert sorted(zs, key=MapString.sort_key) == by_oracle


def test_hash_and_equality_are_the_tuple_ones():
    # the hash of every string is that of its field tuple, whichever
    # constructor built it, so set and dict orders cannot move
    assert MapString.__hash__ is tuple.__hash__ and MapString.__eq__ is tuple.__eq__
    rng = random.Random(5)
    built = []
    for _ in range(100):
        z = random_string(rng, max_degree=5, max_card=4, allow_empty=True)
        built.append(canonicalize(z))
        if z.degree:
            built += [face(z, i) for i in range(z.degree + 1)]
    built += [z for level in _census(3, 4, True) for z, *_ in level]
    built += [z for z, _ in census_corner_strings(3, True)]
    built += [z for *_, grid, _ in enumerate_corner_grids(3) for z, _ in path_cores(grid)]
    for z in built:
        assert type(z) is MapString and hash(z) == hash((z.card0, z.maps))
    with pytest.raises(TypeError):
        MapString(2, (), _hash=0)


# Strings derived from valid strings are built without validation; each must
# equal what the validating constructors build from its fields.


def test_trusted_strings_rebuild_exhaustive_small():
    for args in ((2, 4), (3, 2)):
        for z in raw_strings(*args, allow_empty=True):
            assert_rebuilds(canonicalize(z))
            if z.degree >= 1:
                assert_rebuilds(saturate(z))
                for i in range(z.degree + 1):
                    assert_rebuilds(face(z, i))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_trusted_strings_rebuild_random(seed):
    z = random_string(random.Random(seed), max_degree=6, max_card=5, allow_empty=True)
    assert_rebuilds(canonicalize(z))
    if z.degree >= 1:
        assert_rebuilds(saturate(z))
        assert_rebuilds(core(z)[0])
        for i in range(z.degree + 1):
            assert_rebuilds(face(z, i))


@pytest.mark.parametrize("allow_empty", [False, True])
def test_census_strings_rebuild(allow_empty):
    # every string past degree 0 comes from canonical_extensions
    for level in _census(3, 5, allow_empty):
        for z, *_ in level:
            assert_rebuilds(z)
    for z, _ in census_corner_strings(3, allow_empty):
        assert_rebuilds(z)


# The census carries each string's defect and top runs; the oracle
# ``_top_runs`` classifies the maps again.


@pytest.mark.parametrize("args", [(2, 6), (3, 5)])
@pytest.mark.parametrize("allow_empty", [False, True])
def test_census_carries_defect_and_runs(args, allow_empty):
    seen = 0
    for level in _census(*args, allow_empty):
        for z, _, d, runs in level:
            assert d == defect(z), serialize(z)
            assert runs == _top_runs(z), serialize(z)
            seen += 1
    assert seen == sum(map(len, enumerate_nondegenerate(*args, allow_empty)))


# ``canonicalize`` and every census and walk take one memoised step per
# (frontier, map); the list-based canonicalizer computes every step afresh.


def test_canonicalize_matches_list_oracle_cold_and_prefilled(monkeypatch):
    inputs = list(raw_strings(3, 3, allow_empty=True))
    cold_memos(monkeypatch)
    want = [list_canonicalize(z) for z in inputs]
    for z, w in zip(inputs, want):
        clear_memos()
        assert canonicalize(z) == w, serialize(z)
    clear_memos()
    for z in reversed(inputs):
        canonicalize(z)
    assert [canonicalize(z) for z in inputs] == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(map_strings(max_card=6, max_degree=8), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
@example([MapString(0, (FinMap(0, 0, ()), FinMap(0, 0, ())))], random.Random(0))
@example(
    [MapString(3, (FinMap(0, 3, ()), FinMap(0, 0, ()))), MapString(6, (identity(6),) * 8)],
    random.Random(1),
)
def test_canonicalize_matches_list_oracle_on_relabellings(zs, rng):
    inputs = zs + [relabel(z, random_relabeling(rng, z)) for z in zs]
    want = [list_canonicalize(z) for z in zs] * 2
    with fresh_memos():
        for z, w in zip(inputs, want):
            clear_memos()
            assert canonicalize(z) == w, serialize(z)
        clear_memos()
        for z in reversed(inputs):
            canonicalize(z)
        assert [canonicalize(z) for z in inputs] == want


def test_step_memo_hits(monkeypatch):
    # keys that never repeat (say, the ids of fresh lists) would keep every
    # output right and grow the memo by one entry per step
    from finsimp.presentation import present

    cold_memos(monkeypatch)
    seen = count_steps(monkeypatch)
    for _ in _census(3, 5):
        pass
    assert seen["steps"] > 20_000 and len(strings_mod._steps) <= 100
    cold_memos(monkeypatch)
    seen.clear()
    present(4)
    # most steps hit the memo (9,291 steps on 165 entries), whatever the
    # number of steps the census takes
    assert len(strings_mod._steps) <= 300 and seen["steps"] > 25 * len(strings_mod._steps)


def test_frontiers_are_interned_tuples(monkeypatch):
    cold_memos(monkeypatch)
    # two roots with two children each tie: a tie-group of free tuples
    z = MapString(2, (FinMap(4, 2, (0, 0, 1, 1)), FinMap(4, 4, (0, 1, 2, 3))))
    assert canonicalize(z) == list_canonicalize(z)
    ties = 0
    for (frontier, f), (_, ahead, bijective) in strings_mod._steps.items():
        assert frontier is strings_mod._frontiers[frontier]
        assert ahead is strings_mod._frontiers[ahead]
        assert bijective == f.is_bijective
        for p in ahead:
            assert p.__class__ in (int, tuple, _Tie)
            ties += p.__class__ is _Tie
        hash(ahead)
    assert ties


@pytest.mark.parametrize("allow_empty", [False, True])
def test_one_spelling_of_the_start_frontier(allow_empty):
    # a root with c children leads to the frontier a bottom level of
    # cardinality c starts at, as the same object
    lo = 0 if allow_empty else 1
    for c in range(lo, 6):
        start = _start_frontier(c)
        assert _step(_start_frontier(1), FinMap(c, 1, (0,) * c))[1] is start
    assert _start_frontier(0) == () and _start_frontier(1) == (0,)
    assert _start_frontier(3) == ((0, 1, 2),)
    for z, frontier, *_ in next(_census(4, 0, allow_empty)):
        assert frontier is _start_frontier(z.card0)
    for z in raw_strings(2, 2, allow_empty):
        assert canonicalize(z) == list_canonicalize(z)
