import io
import json
import pathlib
import sys
import types
from collections import Counter
from contextlib import redirect_stdout

import pytest

from finsimp import (
    FinMap,
    GridDiagram,
    MapString,
    canonicalize,
    defect,
    defect_subcomplex,
    excess_strings,
    face,
    match_excess,
    order_excess,
    present,
    skeletal_dimension,
    verify_skeleton,
)
from finsimp.errors import (
    CertificateError,
    DualConstructionError,
    HypothesisError,
    MatchingError,
    OrderAuditError,
)
from finsimp.finmap import all_maps
from finsimp.cli import main
from finsimp.grids import (
    boundary_cores,
    boundary_image,
    check_against_enumeration,
    enumerate_corner_grids,
    is_saturated,
    path_cores,
)
import finsimp.presentation as presentation_mod
from finsimp.presentation import (
    ExcessProfile,
    _matching_faces,
    _Replay,
    in_excess,
    match_inverse,
    match_partner,
)
import finsimp.grids as grids_mod
import finsimp.strings as strings_mod
from finsimp.shuffles import _attachment_hypothesis
from finsimp.strings import StringComplex, _census, serialize
from helpers import (
    _top_runs,
    cold_memos,
    compare_attach_walks,
    image_subset,
    is_face_closed,
    oracle_excess_strings,
    oracle_match_excess,
    oracle_matching_faces,
    oracle_present,
    profile_of,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_generators_alpha_one():
    gens = present(1).generators
    assert len(gens) == 1
    g = gens[0]
    assert (g.r, g.s) == (0, 0) and g.corner == MapString(1)


def test_generators_alpha_one_empty():
    gens = present(1, allow_empty=True).generators
    assert len(gens) == 3
    assert sorted((g.r, g.s) for g in gens) == [(0, 0), (0, 0), (1, 0)]


def test_generator_flags_audited():
    for alpha in (1, 2, 3):
        gens = present(alpha).generators
        union = set()
        for g in gens:
            img = image_subset(g.grid)
            assert not img <= union
            assert boundary_image(g.grid) <= union
            union |= img
        assert union == defect_subcomplex(alpha)


def _raw_corner_count(alpha, allow_empty=False):
    """Independent census: raw corner data, deduplicated by canonical string."""
    lo = 0 if allow_empty else 1

    def proper_injections(dst):
        for src in range(lo, dst):
            for f in all_maps(src, dst):
                if f.is_injective:
                    yield f

    def proper_surjections(src):
        for dst in range(lo, src):
            for f in all_maps(src, dst):
                if f.is_surjective:
                    yield f

    def top_chains(card):
        yield ()
        for f in proper_injections(card):
            for rest in top_chains(f.src):
                yield (f,) + rest

    def left_chains(card):
        yield ()
        for f in proper_surjections(card):
            for rest in left_chains(f.dst):
                yield (f,) + rest

    seen = set()
    for corner_card in range(lo, alpha + 1):
        for top in top_chains(corner_card):
            for left in left_chains(corner_card):
                from finsimp.grids import CornerData

                z = CornerData(corner_card, top, left).to_string()
                seen.add((canonicalize(z), len(left)))
    return len(seen)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_generator_count_matches_raw_census(alpha):
    assert len(present(alpha).generators) == _raw_corner_count(alpha)


def test_present_alpha_one():
    skel = present(1)
    assert skel.counts()["total"] == 1
    assert skel.to_json()["skeletal_dimension"] == 0
    assert skel.complex == defect_subcomplex(1)


def test_present_alpha_two_matches_complex():
    skel = present(2)
    assert skel.complex == defect_subcomplex(2)
    assert verify_skeleton(skel)


def test_present_counts_golden():
    golden = json.loads((FIXTURES / "present_counts.json").read_text())
    for key, want in golden.items():
        alpha, empty = key.split(":")
        skel = present(int(alpha), allow_empty=empty == "empty")
        assert skel.counts() == want


def _count_grid_calls(monkeypatch, fns):
    """Wrap every module binding of ``fns``; count each one's calls per grid."""
    counts = {fn.__name__: Counter() for fn in fns}

    def counted(fn):
        def wrapper(*args, **kwargs):
            grid = next(a for a in args if isinstance(a, GridDiagram))
            counts[fn.__name__][grid] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {fn: counted(fn) for fn in fns}
    for name, mod in list(sys.modules.items()):
        if name != "finsimp" and not name.startswith("finsimp."):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[value])
    return counts


def test_present_one_pass_per_grid(monkeypatch):
    counts = _count_grid_calls(
        monkeypatch,
        [boundary_image, boundary_cores, _attachment_hypothesis, path_cores],
    )
    for alpha, allow_empty in ((3, False), (2, True)):
        for c in counts.values():
            c.clear()
        present(alpha, allow_empty)
        # the boundary facet cores are read off the shuffle path cores, and
        # the attachment images each grid from its own shuffle walk
        assert not counts["boundary_image"]
        assert not counts["_attachment_hypothesis"]
        # the census grows each grid's path cores from its parent's; the
        # excluded faces and the boundary facets are read off the path cores
        assert not counts["path_cores"]
    for c in counts.values():
        c.clear()
    argv = [
        "attach",
        "--subset",
        str(FIXTURES / "attach_subset_e1.json"),
        "--grid",
        str(FIXTURES / "attach_grid_1_1.json"),
    ]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    # one boundary image, read off the path cores that the attachment uses
    assert not counts["boundary_image"]
    assert sum(counts["boundary_cores"].values()) == 1


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_present_matches_whole_complex_replay(alpha, allow_empty):
    def dump(skel):
        return json.dumps(skel.to_json(), sort_keys=True, indent=2)

    assert dump(present(alpha, allow_empty)) == dump(oracle_present(alpha, allow_empty))


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("alpha", [2, 3])
def test_replay_state_face_closed_and_saturated(alpha, allow_empty):
    replay = _Replay()
    for z, s, r, grid, paths in enumerate_corner_grids(alpha, allow_empty):
        replay.attach(z, grid, paths)
        C = StringComplex(replay.members)
        assert is_face_closed(C)
        # the incremental verdict checks only the members added since the
        # last call; the whole-complex check sees every member
        assert replay.saturated() == is_saturated(C)


def test_incremental_saturation_sees_earlier_members(monkeypatch):
    import finsimp.presentation as presentation_mod

    # the corner string of the first generator of positive degree is added
    # by its own grid; from the next attaching grid on, its saturation is
    # made to lie outside the complex
    target = next(g.corner for g in present(2).generators if g.corner.degree >= 1)
    real = presentation_mod._saturation_core
    monkeypatch.setattr(
        presentation_mod, "_saturation_core", lambda z: MapString(3) if z == target else real(z)
    )
    with pytest.raises(HypothesisError, match="complex is not saturated"):
        present(2)


@pytest.mark.parametrize("run", ["present 3", "present 4", "e-alpha 4", "verify 3"])
def test_replays_core_nothing_after_the_member_walk(monkeypatch, run):
    # the member walk fills the face-core and saturation-core memos, so the
    # grid half reads every core off them
    name, alpha = run.split()
    skel = present(int(alpha)) if name == "verify" else None
    cold_memos(monkeypatch)
    calls = []
    real = strings_mod.core
    for mod in (strings_mod, grids_mod, presentation_mod):
        if hasattr(mod, "core"):
            monkeypatch.setattr(mod, "core", lambda z: calls.append(z) or real(z))
    if name == "present":
        present(int(alpha))
    elif name == "e-alpha":
        defect_subcomplex(int(alpha))
    else:
        assert verify_skeleton(skel)
    assert calls == []


def test_present_grid_already_attached_is_no_generator(monkeypatch):
    import finsimp.presentation as presentation_mod

    # every corner grid is new in the real census; repeat one to reach the
    # branch where an attachment adds nothing
    census = list(enumerate_corner_grids(2))
    monkeypatch.setattr(presentation_mod, "enumerate_corner_grids", lambda *args: census + census[:1])
    skel = present(2)
    assert [g.grid for g in skel.generators] == [grid for *_, grid, _ in census]
    doc = skel.to_json()
    assert doc["attachment_order"] == list(range(len(census)))
    assert [cert["cell"] for cert in doc["certificates"]] == list(range(len(census)))


def test_present_checks_boundary_of_each_grid(monkeypatch):
    import finsimp.presentation as presentation_mod

    census = list(enumerate_corner_grids(2))
    monkeypatch.setattr(presentation_mod, "enumerate_corner_grids", lambda *args: census[::-1])
    with pytest.raises(CertificateError, match="generator boundary not contained") as exc:
        present(2)
    z, s, r, *_ = census[-1]
    assert exc.value.witness == {"corner": serialize(z), "r": r, "s": s}


@pytest.mark.parametrize("alpha,allow_empty", [(2, False), (3, False), (2, True)])
def test_present_compares_with_direct_enumeration(monkeypatch, alpha, allow_empty):
    import finsimp.presentation as presentation_mod

    # without the last grid its corner string is missing from the replay
    census = list(enumerate_corner_grids(alpha, allow_empty))
    monkeypatch.setattr(presentation_mod, "enumerate_corner_grids", lambda *args: census[:-1])
    with pytest.raises(DualConstructionError) as exc:
        present(alpha, allow_empty)
    z = census[-1][0]
    assert exc.value.witness == {"only_direct": [serialize(z)], "only_union": []}


@pytest.mark.parametrize("build", [present, defect_subcomplex])
@pytest.mark.parametrize("alpha,allow_empty", [(2, False), (3, False), (2, True)])
def test_union_member_missing_from_the_member_walk_raises(monkeypatch, build, alpha, allow_empty):
    # the walk fills the memos for every member but lists one fewer; the
    # union of the grid images never reads those lists and still holds it
    dropped = []

    def walk_less_one(*args, **kwargs):
        levels = strings_mod.walk_members(*args, **kwargs)
        dropped.append(levels[-2].pop())  # levels[-1] is the first empty degree
        return levels

    monkeypatch.setattr(grids_mod, "walk_members", walk_less_one)
    monkeypatch.setattr(presentation_mod, "walk_members", walk_less_one)
    with pytest.raises(DualConstructionError) as exc:
        build(alpha, allow_empty)
    assert exc.value.witness == {"only_direct": [], "only_union": [serialize(dropped[0])]}


@pytest.mark.parametrize("build", [present, defect_subcomplex])
@pytest.mark.parametrize("alpha,allow_empty", [(2, False), (3, False), (2, True)])
def test_duplicate_in_place_of_a_union_member_raises(monkeypatch, build, alpha, allow_empty):
    # the lists are as long as the union and list only its members, but
    # one member is listed twice in place of another
    replaced = []

    def walk_with_duplicate(*args, **kwargs):
        levels = strings_mod.walk_members(*args, **kwargs)
        level = next(level for level in reversed(levels) if len(level) > 1)
        replaced.append(level[-1])
        level[-1] = level[0]
        return levels

    monkeypatch.setattr(grids_mod, "walk_members", walk_with_duplicate)
    monkeypatch.setattr(presentation_mod, "walk_members", walk_with_duplicate)
    with pytest.raises(DualConstructionError) as exc:
        build(alpha, allow_empty)
    assert exc.value.witness == {"only_direct": [], "only_union": [serialize(replaced[0])]}


def test_member_listed_at_another_degree_raises():
    # a member of degree 1 takes the place of one of degree 2: no level
    # repeats a member and the lengths add up, but the degrees do not
    C = defect_subcomplex(2)
    levels = strings_mod.walk_members(2)
    replaced = levels[2][-1]
    levels[2][-1] = levels[1][0]
    with pytest.raises(DualConstructionError) as exc:
        check_against_enumeration(C, 2, levels)
    assert exc.value.witness == {"only_direct": [], "only_union": [serialize(replaced)]}
    levels[2][-1] = replaced
    check_against_enumeration(C, 2, levels)


def test_present_and_defect_subcomplex_run_no_breadth_first_census(monkeypatch):
    # the walk of the member trie is their one census of E^alpha
    calls = Counter()
    for name, module in list(sys.modules.items()):
        if name != "finsimp" and not name.startswith("finsimp."):
            continue
        for attr in ("enumerate_nondegenerate", "_census"):
            real = vars(module).get(attr)
            if real is not None:
                counted = lambda *a, real=real, attr=attr, **k: calls.update([attr]) or real(*a, **k)
                monkeypatch.setattr(module, attr, counted)
    present(4)
    defect_subcomplex(4)
    assert calls == Counter()


@pytest.mark.parametrize(
    "alpha,allow_empty", [(1, False), (2, False), (3, False), (4, False), (1, True), (2, True), (3, True)]
)
def test_attach_walk_matches_restricting_oracle_on_census(alpha, allow_empty):
    # the census replayed through the walk that reads each excluded face
    # off the path cores and through the walk that restricts it once more
    grids = [grid for *_, grid, _ in enumerate_corner_grids(alpha, allow_empty)]
    attached, bad = compare_attach_walks(grids)
    assert attached == len(present(alpha, allow_empty).generators)
    assert bad == 0


def test_present_checks_the_union_with_the_image(monkeypatch):
    # a walk that adds one member fewer, or one outside the image, is caught
    real = presentation_mod.attach_walk
    outside = MapString(9)

    def fewer(current, *args):
        records, added = real(current, *args)
        current.discard(added[-1])
        return records, added[:-1]

    def more(current, *args):
        records, added = real(current, *args)
        current.add(outside)
        return records, added + [outside]

    for walk in (fewer, more):
        monkeypatch.setattr(presentation_mod, "attach_walk", walk)
        with pytest.raises(CertificateError) as info:
            present(2)
        assert str(info.value) == "attachment result is not the union with the image"


@pytest.mark.parametrize("alpha,allow_empty", [(3, False), (2, True)])
def test_equal_attachment_records_are_one_object(alpha, allow_empty):
    # each word's two records are built once per replay and shared by
    # every grid that attaches the word or finds it present
    shared = {}
    for g in present(alpha, allow_empty).generators:
        for rec in g.records:
            assert shared.setdefault(rec, rec) is rec
    assert {rec.status for rec in shared} == {"attached", "already-present"}


def test_a_word_plan_does_not_outlive_its_replay(monkeypatch):
    # a past doctored after one replay is read by the next one, which
    # certifies each word afresh
    import finsimp.shuffles as shuffles_mod

    present(2)
    monkeypatch.setattr(shuffles_mod, "_excluded_faces", lambda w: ())
    with pytest.raises(CertificateError) as info:
        present(2)
    assert str(info.value) == "new shuffle simplex lies in its own past"
    assert info.value.witness == {"sigma": "", "excluded": []}


def test_present_json_deterministic():
    a = json.dumps(present(2).to_json(), sort_keys=True)
    b = json.dumps(present(2).to_json(), sort_keys=True)
    assert a == b


def test_skeletal_dimension_values():
    assert skeletal_dimension(1) == 0
    dims = [skeletal_dimension(a) for a in (1, 2, 3)]
    assert dims == sorted(dims)
    for a, d in zip((1, 2, 3), dims):
        assert d <= a * (a + 2)


def test_excess_empty_at_alpha_one():
    assert excess_strings(1, 4) == []


def test_excess_alpha_two():
    profiles = excess_strings(2, 4)
    assert profiles
    for p in profiles:
        assert defect(p.string) > 2
        assert max(p.string.cards()) <= 2
        if p.side == "upper":
            assert p.surj_run >= 1


@pytest.mark.parametrize("args, kwargs", [((1, 6), {}), ((2, 6), {"allow_empty": True}), ((3, 5), {})])
def test_excess_strings_match_oracle(args, kwargs):
    got = excess_strings(*args, **kwargs)
    assert got == oracle_excess_strings(*args, **kwargs)
    assert all(p.excess_defect == defect(p.string) for p in got)


def test_profile_junction_classes():
    z = canonicalize(
        MapString(2, (FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,))))
    )
    p = profile_of(z, defect(z))
    assert (p.inj_run, p.surj_run) == (1, 1)
    assert p.side == "upper"
    w = canonicalize(MapString(2, (FinMap(2, 2, (0, 0)), FinMap(1, 2, (0,)))))
    q = profile_of(w, defect(w))
    assert (q.inj_run, q.surj_run) == (1, 0)
    assert q.side == "lower"


def test_match_alpha_two():
    profiles = excess_strings(2, 4)
    m = match_excess(profiles, 2, 4)
    assert m.pairs
    for upper, lower, j in m.pairs:
        assert 0 < j < upper.degree
        assert defect(upper) == defect(lower)
        assert canonicalize(face(upper, j)) == lower


def test_match_inverse_round_trip():
    profiles = excess_strings(2, 5)
    for p in profiles:
        if p.side != "lower":
            continue
        partner = match_inverse(p)
        pp = profile_of(partner, defect(partner))
        assert pp.side == "upper"
        assert match_partner(pp) == p.string
        assert partner.degree == p.degree + 1


def test_order_alpha_two_small_bound_passes():
    profiles = excess_strings(2, 2)
    ordered, report = order_excess(profiles, 2)
    assert [p.side for p in ordered] == ["upper"] * len(ordered)
    weights = [p.weight() for p in ordered]
    assert weights == sorted(weights)


def test_order_violation_is_caught_with_witness():
    # an upper string whose top face lands in the lower class while its
    # match partner sorts later; the precedence audit must surface it
    profiles = excess_strings(2, 3)
    with pytest.raises(OrderAuditError) as exc:
        order_excess(profiles, 2)
    w = exc.value.witness
    bad = MapString(2, (FinMap(2, 2, (0, 0)), FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0))))
    assert w["string"] == serialize(canonicalize(bad))
    assert w["face"] == 3


def test_order_audit_fails_loudly_on_a_census_gap():
    # the audit reads the profile of each face and of each partner off the
    # profiles it is handed; with one left out it names the host, the face
    # and the missing string, where a profile computed on the side let the
    # audit run on to "lower face at an unexpected index"
    profiles = excess_strings(2, 3)
    host = canonicalize(MapString(2, (FinMap(2, 2, (0, 0)), FinMap(1, 2, (0,)), FinMap(2, 1, (0, 0)))))
    lower = canonicalize(face(host, 3))
    assert [p.side for p in profiles if p.string == lower] == ["lower"]
    with pytest.raises(OrderAuditError, match="missing from the census profiles") as exc:
        order_excess([p for p in profiles if p.string != lower], 2)
    assert exc.value.witness == {"string": serialize(host), "face": 3, "missing": serialize(lower)}
    # dropping any one profile either raises the gap for the dropped string
    # (a face, or a partner of a face) or leaves the known violation
    gaps = []
    for p in profiles:
        outcome = _audit_outcome([q for q in profiles if q is not p], 2)
        if outcome[0] == "raised" and "missing" in outcome[2]:
            assert outcome[2]["missing"] == serialize(p.string)
            gaps.append(p.side)
        else:
            assert outcome[0] == "ordered" or outcome[1] == ("lower face at an unexpected index",)
    assert gaps == ["lower", "upper", "upper"]


def test_matching_error_has_witness_type():
    with pytest.raises(CertificateError):
        raise MatchingError("x", witness={"a": 1})


def test_verify_skeleton_detects_tampering():
    skel = present(2)
    gens = list(skel.generators)
    recs = gens[-1].records
    tampered = recs[:-1] + (recs[-1]._replace(sigma="VH" if recs[-1].sigma != "VH" else "HV"),)
    gens[-1] = gens[-1]._replace(records=tampered)
    broken = skel._replace(generators=tuple(gens))
    with pytest.raises(CertificateError):
        verify_skeleton(broken)


def test_verify_skeleton_refuses_an_alpha_present_refuses():
    from finsimp.errors import InputError

    skel = present(1)
    for alpha, bound in ((7, "alpha must be <= 6"), (0, "alpha must be >= 1")):
        with pytest.raises(InputError, match=bound):
            verify_skeleton(skel._replace(alpha=alpha))


def test_excess_strings_rejects_bad_bounds():
    from finsimp.errors import InputError

    with pytest.raises(InputError):
        excess_strings(0, 4)
    with pytest.raises(InputError):
        excess_strings(2, 1)


@pytest.mark.parametrize("alpha", [2, 3])
def test_matching_faces_match_oracle(alpha):
    uppers = [p for p in excess_strings(alpha, 5) if p.side == "upper"]
    assert uppers
    for p in uppers:
        w = match_partner(p)
        assert _matching_faces(p.string, w, p.junction) == oracle_matching_faces(p.string, w)


def test_matching_faces_match_oracle_on_every_inner_face():
    # every inner face taken as the distinguished one, so classes hit by
    # several faces are covered too
    several = 0
    for p in excess_strings(2, 5):
        z = p.string
        for j in range(1, z.degree):
            w = canonicalize(face(z, j))
            want = oracle_matching_faces(z, w)
            assert _matching_faces(z, w, j) == want
            several += len(want) > 1
    assert several


def _upper_and_lower(profiles):
    lowers = {q.string: q for q in profiles if q.side == "lower"}
    p = next(q for q in profiles if q.side == "upper")
    return p, lowers[match_partner(p)]


def test_match_excess_refuses_a_junction_that_is_not_inner():
    profiles = excess_strings(2, 4)
    p, _ = _upper_and_lower(profiles)
    bad = p._replace(inj_run=p.degree - p.surj_run)
    assert bad.junction == 0
    with pytest.raises(MatchingError, match="not inner") as exc:
        match_excess([bad if q is p else q for q in profiles], 2, 4)
    assert exc.value.witness == serialize(p.string)


def test_match_excess_refuses_an_empty_surjective_run():
    profiles = excess_strings(2, 4)
    p, _ = _upper_and_lower(profiles)
    bad = p._replace(inj_run=p.inj_run + p.surj_run, surj_run=0)
    assert bad.junction == p.junction
    with pytest.raises(MatchingError, match="empty surjective run") as exc:
        match_excess([bad if q is p else q for q in profiles], 2, 4)
    assert exc.value.witness == serialize(p.string)


def test_match_excess_refuses_a_face_that_changes_the_defect():
    profiles = excess_strings(2, 4)
    p, lower = _upper_and_lower(profiles)
    bad = p._replace(excess_defect=p.excess_defect + 1)
    with pytest.raises(MatchingError, match="changes the defect") as exc:
        match_excess([bad if q is p else q for q in profiles], 2, 4)
    assert exc.value.witness == {"upper": serialize(p.string), "lower": serialize(lower.string)}


def test_match_excess_refuses_a_face_outside_the_lower_class():
    profiles = excess_strings(2, 4)
    p, lower = _upper_and_lower(profiles)
    with pytest.raises(MatchingError, match="not an enumerated lower string") as exc:
        match_excess([q for q in profiles if q is not lower], 2, 4)
    assert exc.value.witness == {"upper": serialize(p.string), "lower": serialize(lower.string)}


def test_match_excess_refuses_a_lower_face_of_the_wrong_profile():
    profiles = excess_strings(2, 4)
    p, lower = _upper_and_lower(profiles)
    bad = lower._replace(surj_run=lower.surj_run + 1)
    with pytest.raises(MatchingError, match="wrong profile") as exc:
        match_excess([bad if q is lower else q for q in profiles], 2, 4)
    assert exc.value.witness == {"upper": serialize(p.string), "lower": serialize(lower.string)}


def test_match_excess_refuses_a_distinguished_face_that_is_not_unique():
    # faces 1 and 2 of this string are one class with equal cards, so the
    # cards prefilter must canonicalize face 2 and report the second hit
    c = FinMap(2, 2, (0, 0))
    z = MapString(2, (c, c, c))
    w = canonicalize(face(z, 1))
    assert canonicalize(face(z, 2)) == w and face(z, 2).cards() == w.cards()
    upper = ExcessProfile(z, defect(w), inj_run=1, surj_run=1, side="upper")
    lower = ExcessProfile(w, defect(w), inj_run=1, surj_run=0, side="lower")
    assert upper.junction == 1 and match_partner(upper) == w
    assert _matching_faces(z, w, 1) == oracle_matching_faces(z, w) == [1, 2]
    with pytest.raises(MatchingError, match="not unique") as exc:
        match_excess([upper, lower], 2, 3)
    assert exc.value.witness == {"upper": serialize(z), "indices": [1, 2]}


def test_match_excess_refuses_two_uppers_on_one_face():
    profiles = excess_strings(2, 4)
    p, lower = _upper_and_lower(profiles)
    with pytest.raises(MatchingError, match="share a matched face") as exc:
        match_excess(profiles + [p], 2, 4)
    assert exc.value.witness == serialize(lower.string)


def test_match_excess_refuses_a_matching_that_is_not_onto():
    profiles = excess_strings(2, 4)
    p, lower = _upper_and_lower(profiles)
    with pytest.raises(MatchingError, match="not onto") as exc:
        match_excess([q for q in profiles if q is not p], 2, 4)
    assert exc.value.witness == {"degree": lower.degree, "missing": [serialize(lower.string)]}


@pytest.mark.parametrize(
    "alpha,degree_bound,allow_empty", [(2, 6, False), (3, 5, False), (2, 6, True)]
)
def test_match_excess_matches_the_oracle_that_keys_every_lower(alpha, degree_bound, allow_empty):
    # the lower strings of the top degree are only counted, since no upper
    # string within the bound has them as a face
    profiles = excess_strings(alpha, degree_bound, allow_empty)
    got = match_excess(profiles, alpha, degree_bound)
    assert got == oracle_match_excess(profiles, alpha, degree_bound)
    top = sum(p.side == "lower" and p.degree == degree_bound for p in profiles)
    degree, _, lower = got.per_degree[-1]
    assert (degree, lower) == (degree_bound, top) and top


def test_excess_profiles_are_read_off_the_census():
    # 81, 12,251 and 69,261 profiles at (2, 6), (3, 5) and (3, 6); the last
    # is compared in CI
    for args, count in (((2, 6), 81), ((3, 5), 12251)):
        got = excess_strings(*args)
        assert len(got) == count
        assert got == [profile_of(p.string, defect(p.string)) for p in got]


def test_runs_that_reach_the_bottom_are_refused(monkeypatch):
    # a surjection at the bottom and an injection on top: the runs exhaust
    # the string, which no excess string allows
    z = MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (1,))))
    assert _top_runs(z) == (1, 1, None)
    with pytest.raises(CertificateError, match="runs exhaust an excess string") as exc:
        profile_of(z, 3)
    assert exc.value.witness == serialize(z)
    w = canonicalize(z)
    runs = next(r for level in _census(2, 2) for y, _, _, r in level if y == w)
    assert runs == (1, 1, None)
    # excess_strings takes the same branch on a census entry like it
    monkeypatch.setattr(presentation_mod, "_census", lambda *args: iter([[], [(w, None, 3, runs)]]))
    with pytest.raises(CertificateError, match="runs exhaust an excess string") as exc:
        excess_strings(2, 2)
    assert exc.value.witness == serialize(w)


def _audit_outcome(profiles, alpha):
    try:
        ordered, report = order_excess(profiles, alpha)
    except OrderAuditError as exc:
        return "raised", exc.args, exc.witness
    return "ordered", [p.string for p in ordered], report


@pytest.mark.parametrize("alpha,degree_bound", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 5)])
def test_excess_outputs_keep_census_order(alpha, degree_bound):
    # the profiles come sorted, so neither match_excess nor order_excess
    # re-sorts by serialization, and both give what a re-sort gives
    profiles = excess_strings(alpha, degree_bound)
    assert profiles == sorted(profiles, key=lambda p: p.string.sort_key())
    pairs = match_excess(profiles, alpha, degree_bound).pairs
    assert list(pairs) == sorted(pairs, key=lambda tr: tr[0].sort_key())
    resorted = sorted(profiles, key=lambda p: (p.weight(), p.string.sort_key()))
    assert _audit_outcome(profiles, alpha) == _audit_outcome(resorted, alpha)
