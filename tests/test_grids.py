import itertools
import json
import math
import pathlib
import random
import time
from collections import Counter

import pytest

from finsimp import (
    CornerData,
    FinMap,
    MapString,
    canonicalize,
    complete_from_corner,
    complete_from_staircase,
    core,
    defect,
    defect_subcomplex,
    face,
    is_saturated,
)
from finsimp.errors import CertificateError, InputError, StaircaseDefectError
from finsimp.finmap import MAX_CARD, all_maps
from finsimp import grids, strings
from finsimp.grids import (
    GridDiagram,
    _boundary_positions,
    boundary_cores,
    boundary_image,
    enumerate_corner_grids,
    grid_from_json,
    path_cores,
)
from finsimp.shuffles import _shuffles
from finsimp.strings import StringComplex, enumerate_nondegenerate, interned_core, serialize

from helpers import (
    _path,
    all_corner_data,
    are_isomorphic,
    assert_rebuilds,
    census_corner_strings,
    chain_in_boundary,
    compare_completions,
    compare_path_cores,
    contains,
    corner_from_string,
    corner_of,
    identity_grid_json,
    image_subset,
    is_face_closed,
    iter_chains,
    oracle_boundary_facets,
    oracle_boundary_image,
    oracle_boundary_positions,
    oracle_chain_cores,
    oracle_complete_from_corner,
    oracle_complete_from_staircase,
    oracle_corner_grids,
    oracle_corner_strings,
    oracle_is_accessible,
    proper_grid,
    relabel_grid,
    restrict,
)


def small_grids(max_card=3, rs_bound=2, allow_empty=False):
    for z, s, r, grid, _ in enumerate_corner_grids(max_card, allow_empty):
        if r <= rs_bound and s <= rs_bound:
            yield z, s, r, grid


def test_complete_trivial_corner():
    g = complete_from_corner(CornerData(2))
    assert (g.r, g.s) == (0, 0) and g.cards[0][0] == 2


def test_complete_one_by_one():
    c = CornerData(2, top=(FinMap(1, 2, (0,)),), left=(FinMap(2, 1, (0, 0)),))
    g = complete_from_corner(c)
    g.validate()
    assert g.cards[1][0] == 1
    assert corner_of(g).to_string() == c.to_string()


def test_complete_invariants_exhaustive():
    # all corner data with cards <= 3 and r,s <= 2, including degenerate
    # arrows: each fill is a valid grid (injective rows, surjective columns,
    # commuting squares) with the oracle's cards and path cores, keeps the
    # corner's top row and left column, and is the oracle's grid when every
    # top map lists its image increasingly
    counts = compare_completions(all_corner_data(range(1, 4), 2, 2))
    assert counts == {
        "corners": 16899,
        "cards or cores differ": 0,
        "corner not kept": 0,
        "increasing tops": 4168,
        "increasing tops, grids differ": 0,
    }


def test_completion_unique_up_to_levelwise_bijection():
    # enumerate every valid filling of 1x1 corner data by brute force
    for corner_card in range(1, 4):
        for top in all_maps(1, corner_card):
            if not top.is_injective:
                continue
            for left_dst in range(1, corner_card + 1):
                for left in all_maps(corner_card, left_dst):
                    if not left.is_surjective:
                        continue
                    completions = []
                    for c10 in range(0, 4):
                        for h in all_maps(c10, left_dst):
                            if not h.is_injective:
                                continue
                            for v in all_maps(1, c10):
                                if not v.is_surjective:
                                    continue
                                from finsimp.finmap import compose

                                if compose(h, v) != compose(left, top):
                                    continue
                                completions.append(
                                    GridDiagram(
                                        1,
                                        1,
                                        ((left_dst, corner_card), (c10, 1)),
                                        ((h, top),),
                                        ((left,), (v,)),
                                    )
                                )
                    assert completions
                    reference = complete_from_corner(
                        CornerData(corner_card, (top,), (left,))
                    )
                    ref_image = image_subset(reference)
                    for g in completions:
                        g.validate()
                        assert g.cards == reference.cards
                        assert image_subset(g) == ref_image
                        # levelwise bijections relating the two completions
                        stair = [(0, 0), (1, 0), (1, 1)]
                        assert are_isomorphic(
                            restrict(g, stair), restrict(reference, stair)
                        )


def test_restrict_constant_path():
    c = CornerData(2, top=(FinMap(1, 2, (0,)),), left=(FinMap(2, 1, (0, 0)),))
    g = complete_from_corner(c)
    z = restrict(g, [(1, 0), (1, 0)])
    assert z.degree == 1 and z.maps[0].is_bijective


def test_restrict_maximal_chain_reads_grid():
    c = CornerData(2, top=(FinMap(1, 2, (0,)),), left=(FinMap(2, 1, (0, 0)),))
    g = complete_from_corner(c)
    z = restrict(g, [(0, 0), (1, 0), (1, 1)])
    assert z.maps[0].is_injective and z.maps[1].is_surjective


def test_restrict_rejects_non_monotone():
    g = complete_from_corner(CornerData(2, left=(FinMap(2, 1, (0, 0)),)))
    with pytest.raises(InputError):
        restrict(g, [(0, 1), (0, 0)])


def test_restrict_commutes_with_face():
    for z, s, r, g in small_grids():
        chains = [ch for ch in iter_chains(g.r, g.s) if len(ch) >= 2]
        for ch in chains[:40]:
            w = restrict(g, ch)
            for i in range(len(ch)):
                dropped = ch[:i] + ch[i + 1 :]
                assert core(face(w, i))[0] == core(restrict(g, dropped))[0]


def test_image_subset_trivial_grid():
    g = complete_from_corner(CornerData(1))
    img = image_subset(g)
    assert img == frozenset({MapString(1)})


def test_image_subset_face_closed_exhaustive():
    for z, s, r, g in small_grids():
        img = image_subset(g)
        assert is_face_closed(img)
        assert contains(img, z)  # the corner string realizes the full grid


def test_accessible_implies_saturated_exhaustive():
    for z, s, r, g in small_grids():
        assert is_saturated(image_subset(g))


def test_saturated_counterexample():
    edge = MapString(2, (FinMap(2, 2, (0, 0)),))
    C = StringComplex.closure([edge])
    assert not is_saturated(C)
    assert not oracle_is_accessible(C)


def test_saturated_trivial_cases():
    assert is_saturated(StringComplex())
    points = StringComplex({MapString(1), MapString(3)})
    assert is_saturated(points)
    assert oracle_is_accessible(points)


def test_single_image_is_accessible():
    for z, s, r, g in itertools.islice(small_grids(), 8):
        assert oracle_is_accessible(image_subset(g))


def test_defect_subcomplex_alpha_one():
    C = defect_subcomplex(1)
    assert C == frozenset({MapString(1)})
    Ce = defect_subcomplex(1, allow_empty=True)
    edge = canonicalize(MapString(1, (FinMap(0, 1, ()),)))
    assert Ce == frozenset({MapString(0), MapString(1), edge})


def test_defect_subcomplex_members_bounded():
    for alpha in (1, 2, 3):
        C = defect_subcomplex(alpha)
        for z in C:
            assert defect(z) <= alpha
            assert max(z.cards()) <= alpha
            assert z.degree <= alpha * (alpha + 2)


def test_defect_subcomplex_is_defect_level_set():
    # every enumerated nondegenerate string of small defect shows up
    C = defect_subcomplex(2)
    for level in enumerate_nondegenerate(2, 12):
        for z in level:
            assert (z in C) == (defect(z) <= 2)


def test_e_alpha_accessible():
    for alpha in (1, 2):
        for empty in (False, True):
            assert oracle_is_accessible(defect_subcomplex(alpha, empty))


def test_boundary_image_is_saturated():
    for z, s, r, g in small_grids():
        assert is_saturated(boundary_image(g))


def test_staircase_trivial():
    g = complete_from_staircase(MapString(3))
    assert (g.r, g.s) == (0, 0)


def test_staircase_feasible_example():
    st = MapString(2, (FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0))))
    g = complete_from_staircase(st)
    g.validate()
    assert g.cards[0][1] == defect(st)
    assert restrict(g, [(0, 0), (1, 0), (1, 1)]) == st


def test_staircase_rejects_bad_shape():
    with pytest.raises(InputError):
        complete_from_staircase(MapString(2, (FinMap(1, 2, (0,)),)))
    with pytest.raises(InputError):
        complete_from_staircase(
            MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,))))
        )


def test_staircase_obstructed_input_reports_shuffle():
    # forced bottom-right cardinality 1 makes the straight shuffle defect 3,
    # while the staircase has defect 4; no completion can equalize them
    st = MapString(
        2,
        (
            FinMap(1, 2, (0,)),
            FinMap(2, 1, (0, 0)),
            FinMap(1, 2, (0,)),
            FinMap(2, 1, (0, 0)),
        ),
    )
    with pytest.raises(StaircaseDefectError) as exc:
        complete_from_staircase(st)
    violations = exc.value.witness["violations"]
    assert {"shuffle": "HHVV", "defect": 3, "expected": 4} in violations


def test_grid_json_round_trip():
    for z, s, r, g in itertools.islice(small_grids(), 10):
        assert grid_from_json(g.to_json()) == g


def test_grid_json_bounds_cards():
    obj = {"r": 0, "s": 0, "cards": [[MAX_CARD]], "horiz": [], "vert": [[]]}
    assert grid_from_json(obj).cards == ((MAX_CARD,),)
    obj["cards"] = [[MAX_CARD + 1]]
    with pytest.raises(InputError, match=r"grid.cards\[0\]\[0\]: 65537 exceeds the cardinality bound 65536"):
        grid_from_json(obj)


def test_grid_json_diagnostics():
    c = CornerData(2, top=(FinMap(1, 2, (0,)),), left=(FinMap(2, 1, (0, 0)),))
    obj = complete_from_corner(c).to_json()
    obj["vert"][0][0]["img"] = [0, 9]
    with pytest.raises(InputError) as exc:
        grid_from_json(obj)
    assert "vert[0][0]" in str(exc.value)
    # a negative size is named before any array length is derived from it
    for name, value in (("r", -1), ("s", -2)):
        bad = dict(complete_from_corner(c).to_json(), **{name: value})
        with pytest.raises(InputError) as exc:
            grid_from_json(bad)
        assert str(exc.value) == f"grid.{name}: expected a nonnegative integer, got {value}"


def test_grid_json_bounds_shuffle_paths():
    # attach walks all C(r+s, s) shuffle paths of a grid: 12,870 at (8, 8)
    # are read, 48,620 at (9, 9) are refused before any array is read, and
    # a huge size is refused without its binomial
    assert math.comb(16, 8) <= grids.MAX_PATHS < math.comb(18, 9)
    assert grid_from_json(identity_grid_json(8)).r == 8
    for r, s in ((9, 9), (10**12, 10**12), (1, grids.MAX_PATHS)):
        bad = dict(identity_grid_json(1), r=r, s=s, cards="not an array")
        with pytest.raises(InputError) as exc:
            grid_from_json(bad)
        assert str(exc.value) == f"grid: r={r} and s={s} give more than MAX_PATHS={grids.MAX_PATHS} shuffle paths"
    # one path, however long, is no more than MAX_PATHS; MAX_WALK refuses it
    with pytest.raises(InputError, match=r"^grid: r=1000000000000 and s=0 give a path walk of \d+, over MAX_WALK="):
        grid_from_json(dict(identity_grid_json(0), r=10**12))


def test_grid_json_bounds_the_path_walk():
    # a long grid has few shuffle paths, but the walk of their prefixes holds
    # about s^3 / 2 moves at r = 1 and s^2 at r = 0.  It is refused before
    # any array is read, with the (8, 8) grid and its 777,904 moves admitted
    assert (math.comb(18, 9) - 1) * 16 <= grids.MAX_WALK
    for r, s in ((1, 126), (0, 1023)):
        assert grid_from_json(identity_grid_json(r, s)).s == s
    for r, s in ((1, 127), (0, 1024), (1, 2000), (1, grids.MAX_PATHS - 1), (10**6, 0)):
        bad = dict(identity_grid_json(1), r=r, s=s, cards="not an array")
        start = time.perf_counter()
        with pytest.raises(InputError) as exc:
            grid_from_json(bad)
        assert time.perf_counter() - start < 0.2
        walk = (math.comb(r + s + 2, r + 1) - 1) * (r + s)
        assert walk > grids.MAX_WALK
        assert str(exc.value) == f"grid: r={r} and s={s} give a path walk of {walk}, over MAX_WALK={grids.MAX_WALK}"


@pytest.mark.parametrize(
    "array,i,j,f,message",
    [
        ("horiz", 0, 1, FinMap(2, 4, (0, 1)), "horiz[0][1] has wrong endpoints"),
        ("horiz", 0, 1, FinMap(2, 3, (0, 0)), "horiz[0][1] is not injective"),
        ("vert", 1, 1, FinMap(3, 3, (0, 1, 2)), "vert[1][1] has wrong endpoints"),
        ("vert", 1, 1, FinMap(3, 2, (0, 0, 0)), "vert[1][1] is not surjective"),
        ("horiz", 0, 1, FinMap(2, 3, (1, 0)), "square at (0,1) does not commute"),
    ],
)
def test_grid_json_names_the_cell_validate_refuses(array, i, j, f, message):
    # one map of a valid grid doctored: the reader names its cell
    obj = proper_grid(1, 2).to_json()
    obj[array][i][j] = f.to_json()
    with pytest.raises(InputError) as exc:
        grid_from_json(obj)
    assert str(exc.value) == f"grid: {message}"


def test_validate_refuses_a_negative_size():
    # the JSON reader refuses a negative r or s itself
    with pytest.raises(InputError, match="^negative grid size$"):
        GridDiagram(-1, 0, (), (), ()).validate()


def test_grid_json_leaves_every_length_to_validate():
    # the reader checks only that the arrays are lists of lists; every
    # length mismatch, r = 0 and s = 0 included, reads as validate's message
    one = {"src": 1, "dst": 1, "img": [0]}
    for change, message in (
        ({"cards": [[1, 1]]}, "cards must be an (r+1) x (s+1) array"),
        ({"cards": [[1, 1], [1]]}, "cards must be an (r+1) x (s+1) array"),
        ({"horiz": []}, "horiz must be an r x (s+1) array"),
        ({"horiz": [[one]]}, "horiz must be an r x (s+1) array"),
        ({"vert": [[one]]}, "vert must be an (r+1) x s array"),
        ({"vert": [[one], []]}, "vert must be an (r+1) x s array"),
        ({"r": 0, "cards": [[1, 1]], "vert": [[one]]}, "horiz must be an r x (s+1) array"),
        ({"s": 0, "cards": [[1], [1]], "horiz": [[one]]}, "vert must be an (r+1) x s array"),
    ):
        with pytest.raises(InputError) as exc:
            grid_from_json(dict(identity_grid_json(1), **change))
        assert str(exc.value) == f"grid: {message}"
    for name, value in (("cards", [1, 1]), ("horiz", one), ("vert", [one, [one]])):
        with pytest.raises(InputError) as exc:
            grid_from_json(dict(identity_grid_json(1), **{name: value}))
        assert str(exc.value) == f"grid.{name}: expected a list of lists"
    assert grid_from_json(dict(identity_grid_json(0), vert=[[]])).s == 0


@pytest.mark.parametrize("allow_empty", [False, True])
def test_census_grids_pass_the_check_they_skip(allow_empty):
    # complete_from_corner validates its corner data and builds the grid
    # unchecked; every census grid must still pass the full check, and each
    # of its maps must rebuild through the validating constructor
    grids_seen = 0
    for z, s, r, g, _ in enumerate_corner_grids(4, allow_empty):
        g.validate()
        assert all(type(k) is int for col in g.cards for k in col)
        for col in g.horiz + g.vert:
            for f in col:
                assert_rebuilds(f)
        grids_seen += 1
    assert grids_seen > 300


def test_complete_from_corner_refuses_bad_corner_data():
    bad = [
        (CornerData(2, top=(FinMap(2, 2, (0, 0)),)), "top[0] is not injective"),
        (CornerData(2, left=(FinMap(2, 2, (0, 0)),)), "left[0] is not surjective"),
        (CornerData(2, top=(FinMap(1, 3, (0,)),)), "top[0]: dst=3, expected 2"),
        (CornerData(2, left=(FinMap(3, 1, (0, 0, 0)),)), "left[0]: src=3, expected 2"),
        # corner_from_string checks only the degree; these strings are not
        # surjections then injections for the split they are read with
        (
            corner_from_string(MapString(3, (FinMap(2, 3, (0, 1)),)), 1, 0),
            "left[0] is not surjective",
        ),
        (
            corner_from_string(MapString(1, (FinMap(2, 1, (0, 0)),)), 0, 1),
            "top[0] is not injective",
        ),
    ]
    for c, message in bad:
        with pytest.raises(InputError) as exc:
            complete_from_corner(c)
        assert str(exc.value) == message


def test_corner_round_trip():
    for z, s, r, g in small_grids():
        c = corner_of(g)
        assert c.to_string() == z
        assert corner_from_string(z, s, r).to_string() == z


def test_corner_string_has_maximal_defect_among_shuffles():
    # the corner path realizes the largest defect of any shuffle pullback,
    # and that defect is the corner cardinality
    from finsimp.shuffles import enumerate_shuffles

    for z, s, r, g in small_grids():
        corner_defect = defect(z)
        assert corner_defect == g.cards[0][g.s]
        for sh in enumerate_shuffles(r, s):
            assert defect(restrict(g, _path(sh))) <= corner_defect


def test_defect_subcomplex_rejects_bad_alpha():
    with pytest.raises(InputError):
        defect_subcomplex(0)


def _collapse(m):
    # [m+1] -> [m]: 0,1 -> 0 and x -> x-1; commutes with initial inclusions
    return FinMap(m + 1, m, (0,) + tuple(range(m)))


def _initial(m, n):
    return FinMap(m, n, tuple(range(m)))


def test_staircase_depth_three_feasible():
    # alternating initial inclusions and collapses: the cardinality matrix
    # of any equal-defect completion is modular, and this staircase attains
    # it, so the depth-3 fills must succeed and verify
    maps = []
    for _ in range(3):
        maps.append(_initial(3, 4))
        maps.append(_collapse(3))
    st = MapString(4, tuple(maps))
    g = complete_from_staircase(st)
    g.validate()
    assert g.cards[0][3] == defect(st) == 4 + 3
    path = [(0, 0)]
    for k in range(3):
        path += [(k + 1, k), (k + 1, k + 1)]
    assert restrict(g, path) == st


def test_staircase_depth_three_sweep_never_miscompletes():
    # every degree-6 input either completes and verifies or reports the
    # violating shuffles; construction errors would surface as InputError
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from test_acceptance import _staircases

    outcomes = {"ok": 0, "obstructed": 0}
    for st in _staircases(3, 6):
        if st.degree != 6:
            continue
        try:
            complete_from_staircase(st)
            outcomes["ok"] += 1
        except StaircaseDefectError:
            outcomes["obstructed"] += 1
    assert outcomes["obstructed"] == 65 and outcomes["ok"] == 0


def _staircase_outcome(complete, st):
    try:
        return "grid", complete(st)
    except (InputError, CertificateError) as exc:
        return type(exc), exc.args, getattr(exc, "witness", None)


def test_staircase_sweep_over_path_cores_matches_restricting_oracle():
    # the sweep reads each shuffle pullback's defect off the path cores and
    # the staircase off the diagonal maps; the oracle restricts every path.
    # Inputs: the 25 staircases of criterion 5, the degree-6 sweep above
    # and the inputs of the other staircase tests
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from test_acceptance import _staircases

    stairs = _staircases(3, 6)
    criterion_5 = [st for st in stairs if st.degree <= 4]
    assert criterion_5 == _staircases(3, 4) and len(criterion_5) == 25
    assert sum(st.degree == 6 for st in stairs) == 65
    collapses = []
    for _ in range(3):
        collapses += [_initial(3, 4), _collapse(3)]
    stairs += [
        MapString(3),
        MapString(2, (FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0)))),
        MapString(2, (FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0))) * 2),
        MapString(4, tuple(collapses)),
        MapString(2, (FinMap(1, 2, (0,)),)),
        MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,)))),
    ]
    seen = Counter()
    for st in stairs:
        got = _staircase_outcome(complete_from_staircase, st)
        assert got == _staircase_outcome(oracle_complete_from_staircase, st), serialize(st)
        seen[got[0] if got[0] == "grid" else got[0].__name__] += 1
    assert seen == {"grid": 12, "StaircaseDefectError": 82, "InputError": 2}


def test_defect_subcomplex_alpha_four():
    C = defect_subcomplex(4)
    assert len(C) == 561 and C.max_degree() == 6


def _oracle_grids():
    for allow_empty in (False, True):
        for z, s, r, g, _ in enumerate_corner_grids(3, allow_empty):
            yield g
    for z, s, r, g, _ in enumerate_corner_grids(4):
        if (r, s) == (3, 3):
            yield g


def test_chain_table_matches_uncached_oracle():
    # the images built from shuffle paths and face closure equal the cores
    # of every restricted chain, and of every chain missing a row or column
    shapes = set()
    for g in _oracle_grids():
        shapes.add((g.r, g.s))
        want = oracle_chain_cores(g)
        assert image_subset(g) == frozenset(want.values())
        assert boundary_image(g) == frozenset(
            v for ch, v in want.items() if chain_in_boundary(ch, g.r, g.s)
        )
    assert {(0, 0), (0, 2), (2, 0), (3, 1), (3, 3)} <= shapes


def test_boundary_cores_match_restricted_facets():
    # the facet cores read off the path cores equal the cores of the
    # restricted facets, and so does the boundary image built from them
    for g in _oracle_grids():
        paths = path_cores(g)
        assert [z for z, _ in paths] == [
            interned_core(restrict(g, _path(sh))) for sh in _shuffles(g.r, g.s)
        ]
        derived = boundary_cores(g, paths)
        assert derived == [interned_core(restrict(g, ch)) for ch in oracle_boundary_facets(g.r, g.s)]
        assert boundary_image(g) == oracle_boundary_image(g)


def test_boundary_positions_match_the_cell_oracle():
    # the positions read off the move words are those alone in their row or
    # column on the cells, in the same order, and no facet is named twice
    for r in range(7):
        for s in range(7):
            assert _boundary_positions(r, s) == oracle_boundary_positions(r, s)


def test_cached_tables_are_invisible():
    for z, s, r, g, _ in enumerate_corner_grids(3):
        image_subset(g)
        boundary_image(g)
        fresh = oracle_complete_from_corner(corner_from_string(z, s, r))
        assert fresh is not g and not hasattr(g, "__dict__") and not hasattr(fresh, "__dict__")
        assert g == fresh and hash(g) == hash(fresh)
        assert g.to_json() == fresh.to_json()
        assert repr(g) == repr(fresh)
        assert image_subset(fresh) == image_subset(g)
        assert boundary_image(fresh) == boundary_image(g)


@pytest.mark.parametrize("max_card,allow_empty", [(4, False), (3, True)])
def test_census_interns_the_maps_of_added_columns(max_card, allow_empty):
    # one dict per census call: within a call equal maps of the columns
    # grown from a parent are one object, and a second call builds its own
    def added_maps():
        for *_, g, _ in enumerate_corner_grids(max_card, allow_empty):
            if g.r:
                yield from g.horiz[-1] + g.vert[-1]

    first: dict = {}
    for f in added_maps():
        assert first.setdefault(f, f) is f
    assert all(first[f] is not f for f in added_maps())


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("max_card", [0, 1, 2, 3, 4])
def test_streamed_census_matches_eager_oracle(max_card, allow_empty):
    census = [e[:4] for e in enumerate_corner_grids(max_card, allow_empty)]
    assert census == oracle_corner_grids(max_card, allow_empty)


def test_streamed_census_completes_grids_when_taken(monkeypatch):
    # nothing is grown before it is taken: the points need no extension
    # table, and the first string of degree 1 only that of its parent
    tables = []
    real = grids.extension_table
    monkeypatch.setattr(grids, "extension_table", lambda *args: tables.append(args) or real(*args))
    census = enumerate_corner_grids(3)
    assert tables == []
    head = [next(census) for _ in range(3)]
    assert [z.degree for z, *_ in head] == [0, 0, 0] and tables == []
    head.append(next(census))
    assert head[-1][0].degree == 1 and tables == [(1, 1, 3, float("inf"))]
    # a second call builds its own grid objects, equal to the first call's
    again = list(enumerate_corner_grids(3))
    got = head + list(census)
    assert again == got and all(a[3] is not b[3] for a, b in zip(again, got))
    # one table per top cardinality and call
    assert sorted(tables) == [(last, 1, 3, float("inf")) for last in (1, 1, 2, 2, 3, 3)]


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("max_card", [0, 1, 2, 3, 4])
def test_grown_census_matches_completion_and_path_cores(max_card, allow_empty):
    # each grid grown from its parent is the grid the oracle fills from its
    # corner by ambient labels, field by field, and its path cores continued
    # from the parent's walk are those of a walk of the whole grid, face
    # indices included
    for z, s, r, g, paths in enumerate_corner_grids(max_card, allow_empty):
        want = oracle_complete_from_corner(corner_from_string(z, s, r))
        for name in GridDiagram._fields:
            assert getattr(g, name) == getattr(want, name), (serialize(z), name)
        assert paths == path_cores(g), serialize(z)
        assert all(w is interned_core(w) for w, _ in paths)


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_incremental_walk_is_the_union_of_images(alpha, allow_empty):
    union = set()
    for z, s, r, g, _ in enumerate_corner_grids(alpha, allow_empty):
        union |= image_subset(g)
    assert defect_subcomplex(alpha, allow_empty) == union


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("max_card", [0, 1, 2, 3, 4])
def test_corner_strings_match_oracle(max_card, allow_empty):
    got = census_corner_strings(max_card, allow_empty)
    assert set(got) == set(oracle_corner_strings(max_card, allow_empty))


def test_corner_strings_alpha_five_count():
    assert len(census_corner_strings(5, False)) == 5609


def test_censuses_call_no_canonicalize(monkeypatch):
    def refuse(z):
        raise AssertionError(f"canonicalize called on {z}")

    monkeypatch.setattr(strings, "canonicalize", refuse)
    monkeypatch.setattr(grids, "canonicalize", refuse)
    assert enumerate_nondegenerate(3, 4, True)[-1]
    assert enumerate_nondegenerate(4, 8, max_defect=4)[4]
    assert census_corner_strings(4, True)


def test_path_cores_match_restricting_oracle():
    # the walk of the shuffle-path trie gives the oracle's tuples, in
    # shuffle order and as the same interned objects, on every corner grid
    # with alpha <= 4, on the all-proper grids and on the attach fixtures;
    # a completed grid's bijections are identities, so every corner grid
    # is also checked with each cell relabelled at random
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    rng = random.Random(20)
    census = [
        g for alpha in range(5) for ae in (False, True) for *_, g, _ in enumerate_corner_grids(alpha, ae)
    ]
    grids_in = census + [relabel_grid(g, rng) for g in census]
    grids_in += [proper_grid(r, n - r) for n in range(7) for r in range(n + 1)]
    grids_in += [
        grid_from_json(json.loads(p.read_text())) for p in sorted(fixtures.glob("attach_grid_*.json"))
    ]
    checked, paths, bad, bijective = compare_path_cores(grids_in)
    assert (checked, bad) == (len(grids_in), 0)
    assert paths == 14125
    # a bijective step moves only the frontier: the walk met one at the
    # bottom, in the middle and at the top of a path, and bijections that
    # permute their cells
    assert bijective["bottom"] and bijective["middle"] and bijective["top"]
    assert bijective["relabelling"]


def test_path_cores_restrict_core_and_canonicalize_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"called on {args}")

    for name in ("core", "canonicalize"):
        for mod in (strings, grids):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    walked = [path_cores(g) for *_, g, _ in enumerate_corner_grids(3)]
    assert len(walked) == 29 and all(walked)


@pytest.mark.parametrize("alpha,allow_empty", [(3, False), (2, True)])
def test_restrictions_rebuild_through_the_public_constructors(alpha, allow_empty):
    # restrict builds its string without validation: every chain of every
    # corner grid must give what the validating constructors build
    for *_, g, _ in enumerate_corner_grids(alpha, allow_empty):
        for ch in iter_chains(g.r, g.s):
            assert_rebuilds(restrict(g, ch))
