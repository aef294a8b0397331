import itertools
import math

import pytest

from finsimp import (
    FinMap,
    MapString,
    attach_diagram,
    defect_subcomplex,
    enumerate_shuffles,
    horn_certificate,
    is_inner_generalized_horn,
    is_saturated,
)
from finsimp.errors import CertificateError, HypothesisError, InputError
from finsimp.finmap import MapClass, all_maps
from finsimp.grids import (
    CornerData,
    boundary_image,
    complete_from_corner,
    enumerate_corner_grids,
    path_cores,
)
from finsimp.shuffles import (
    _attachment_hypothesis,
    _excluded_faces,
    _excluded_masks,
    _recover_gaps,
    _shuffles,
    attach_walk,
    hasse_edges,
    poset_dot,
)
from finsimp.strings import StringComplex, face

import helpers
from helpers import (
    _path,
    chain_in_boundary,
    contains,
    corner_from_string,
    corner_of,
    heights,
    image_subset,
    is_maximal,
    iter_chains,
    le,
    oracle_attach_walk,
    oracle_excluded_faces,
    oracle_horn_certificate,
    prior_subcomplex,
    proper_grid,
)


def test_census_one_one():
    shs = enumerate_shuffles(1, 1)
    assert shs == ["HV", "VH"]
    assert is_maximal(shs[-1]) and not is_maximal(shs[0])


def test_census_two_two():
    assert len(enumerate_shuffles(2, 2)) == 6


def test_shuffles_are_built_once_per_shape_and_handed_out_fresh():
    # present(4) asks for the shuffles of its 16 shapes once per grid, 305
    # times, and once per shape more for the cell paths, unless cached
    from finsimp.presentation import present

    _shuffles.cache_clear()
    present(4)
    info = _shuffles.cache_info()
    assert info.misses == info.currsize == 16 and info.hits + info.misses >= 305
    first = enumerate_shuffles(2, 2)
    first.append(None)
    second = enumerate_shuffles(2, 2)
    assert second is not first and len(second) == 6
    assert all(a is b for a, b in zip(second, _shuffles(2, 2)))


def test_census_binomial():
    for n in range(0, 11):
        for s in range(0, n + 1):
            r = n - s
            assert len(enumerate_shuffles(r, s)) == math.comb(n, s)


def test_order_is_linear_extension():
    for r, s in [(2, 2), (3, 2), (1, 4)]:
        shs = enumerate_shuffles(r, s)
        for i, a in enumerate(shs):
            for j, b in enumerate(shs):
                if a != b and le(a, b):
                    assert i < j


def test_unique_min_max():
    for r, s in [(1, 1), (2, 3), (4, 2)]:
        shs = enumerate_shuffles(r, s)
        mins = [a for a in shs if all(le(a, b) for b in shs)]
        maxs = [a for a in shs if all(le(b, a) for b in shs)]
        assert mins == [shs[0]] and maxs == [shs[-1]]


def test_prior_of_minimal_is_boundary():
    for r, s in [(1, 1), (2, 1), (2, 2)]:
        lo = enumerate_shuffles(r, s)[0]
        A = prior_subcomplex(lo)
        boundary = {ch for ch in iter_chains(r, s) if chain_in_boundary(ch, r, s)}
        assert A.chains == frozenset(boundary)


def test_prior_of_maximal_one_one():
    A = prior_subcomplex("VH")
    diag = ((0, 0), (1, 1))
    assert diag in A  # the lower path contributes its diagonal edge
    assert ((0, 0), (0, 1), (1, 1)) not in A


def test_prior_monotone():
    for r in range(1, 4):
        for s in range(1, 7 - r):
            shs = enumerate_shuffles(r, s)
            subs = {sh: prior_subcomplex(sh) for sh in shs}
            for a in shs:
                for b in shs:
                    if le(a, b):
                        assert subs[a].issubset(subs[b])


@pytest.mark.parametrize(
    "S,n,expected",
    [
        ({0, 2}, 2, True),
        ({0, 1}, 2, False),
        ({1}, 3, False),
        ({0, 3}, 3, True),
        (set(), 3, False),
    ],
)
def test_inner_generalized_horn(S, n, expected):
    assert is_inner_generalized_horn(S, n) is expected


def test_inner_generalized_horn_rejects_full():
    with pytest.raises(InputError):
        is_inner_generalized_horn({0, 1, 2}, 2)


def test_horn_certificate_one_one():
    lo = horn_certificate("HV")
    assert lo.kind == "inner" and lo.S == (0, 2)
    hi = horn_certificate("VH")
    assert hi.kind == "boundary"
    assert hi.facets == ((0, 1), (0, 2), (1, 2))


def test_horn_certificate_requires_positive_sides():
    with pytest.raises(InputError):
        horn_certificate("HH")


def test_horn_sweep_small():
    for r in range(1, 4):
        for s in range(1, 6 - r):
            for sh in enumerate_shuffles(r, s):
                cert = horn_certificate(sh)
                assert (cert.kind == "boundary") == is_maximal(sh)
                if cert.kind == "inner":
                    assert is_inner_generalized_horn(set(cert.S), r + s)
                    assert 0 in cert.S and r + s in cert.S


def test_hasse_edges_are_single_swaps():
    edges = hasse_edges(2, 2)
    assert ("HHVV", "HVHV") in edges
    for a, b in edges:
        diff = [k for k in range(len(a)) if a[k] != b[k]]
        assert len(diff) == 2 and a[diff[0]] == "H" and b[diff[0]] == "V"


def test_poset_dot_shape():
    dot = "".join(poset_dot(1, 1))
    assert dot.startswith("digraph") and '"HV" -> "VH"' in dot
    # a bad shape raises at the call, before any line is read
    with pytest.raises(InputError, match="r and s must be >= 0"):
        poset_dot(-1, 1)


def test_hasse_edges_come_sorted_and_poset_dot_streams_them():
    # the covers of each word come without a sort, in sorted order
    for r in range(5):
        for s in range(5):
            words = enumerate_shuffles(r, s)
            covers = [
                (a, b)
                for a in words
                for b in words
                if any(a[k : k + 2] == "HV" and b == a[:k] + "VH" + a[k + 2 :] for k in range(r + s - 1))
            ]
            assert hasse_edges(r, s) == sorted(covers)
            lines = ["digraph shuffles {"]
            lines += [f'  "{w}";' for w in enumerate_shuffles(r, s)]
            lines += [f'  "{a}" -> "{b}";' for a, b in hasse_edges(r, s)]
            lines.append("}")
            assert "".join(poset_dot(r, s)) == "\n".join(lines) + "\n"


def _grid_from_corner_string(z, s, r):
    return complete_from_corner(corner_from_string(z, s, r))


def test_attach_noop_when_contained():
    z = MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,))))
    grid = _grid_from_corner_string(z, 1, 1)
    E2 = defect_subcomplex(2)
    attachment = attach_diagram(E2, grid)
    assert attachment.subset == E2 and attachment.certificates == ()


def test_attach_exiting_grid_to_e1():
    z = MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,))))
    grid = _grid_from_corner_string(z, 1, 1)
    E1 = defect_subcomplex(1)
    attachment = attach_diagram(E1, grid)
    hyp, records = attachment.hypothesis, attachment.certificates
    assert hyp["saturated"] and not hyp["boundary_contained"]
    assert attachment.subset == E1 | image_subset(grid)
    assert [rec.status for rec in records] == ["already-present", "attached"]
    assert records[1].kind == "boundary"


def test_attach_requires_saturated():
    edge = MapString(2, (FinMap(2, 2, (0, 0)),))
    C = StringComplex.closure([edge])
    z = MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,))))
    grid = _grid_from_corner_string(z, 1, 1)
    with pytest.raises(HypothesisError):
        attach_diagram(C, grid)


def test_attach_sweep_from_boundary_closure():
    # every grid with r,s <= 2 and cards <= 3, attached over its own boundary
    for z, s, r, grid, _ in enumerate_corner_grids(3):
        C0 = boundary_image(grid)
        attachment = attach_diagram(C0, grid)
        result, records = attachment.subset, attachment.certificates
        assert result == C0 | image_subset(grid)
        assert any(rec.status == "attached" for rec in records)
        assert is_saturated(result)
        for rec in records:
            if rec.status != "attached":
                continue
            checks = rec.to_json()["checks"]
            assert all(checks.values())
            if rec.kind == "inner":
                assert is_inner_generalized_horn(set(rec.S), r + s)


def _oracle_attach(C0, grid, order):
    """The oracle walk from ``C0`` in ``order``: the resulting complex and
    the set of its records."""

    def anomaly(message, witness):
        raise CertificateError(message, witness)

    current = set(C0)
    cores = {sh: z for sh, (z, _) in zip(enumerate_shuffles(grid.r, grid.s), path_cores(grid))}
    records, _ = oracle_attach_walk(current, grid, cores, order, anomaly, set())
    return StringComplex(current), set(records)


def test_attach_independent_of_linear_extension():
    for z, s, r, grid, _ in enumerate_corner_grids(2):
        if r == 0 or s == 0:
            continue
        C0 = boundary_image(grid)
        # a second extension: stable sort by total height, then reversed word
        alt = sorted(enumerate_shuffles(r, s), key=lambda sh: (sum(heights(sh)), sh[::-1]))
        want = attach_diagram(C0, grid)
        assert _oracle_attach(C0, grid, alt) == (want.subset, set(want.certificates))


def test_oracle_walk_agrees_on_every_linear_extension():
    # every linear extension of the heights order, over every permutation
    for r, s in [(1, 2), (2, 1), (2, 2)]:
        grid = proper_grid(r, s)
        C0 = boundary_image(grid)
        want = attach_diagram(C0, grid)
        extensions = 0
        for order in itertools.permutations(enumerate_shuffles(r, s)):
            if all(not le(b, a) for a, b in itertools.combinations(order, 2)):
                extensions += 1
                assert _oracle_attach(C0, grid, order) == (want.subset, set(want.certificates))
        assert extensions == {(2, 2): 2}.get((r, s), 1)


def test_path_reads_heights():
    # position x of a path is the cell (x - height, height)
    for n in range(9):
        for r in range(n + 1):
            for w in enumerate_shuffles(r, n - r):
                assert _path(w) == tuple((x - h, h) for x, h in enumerate(heights(w)))


def test_horn_overlap_matches_materialized_prior():
    # double entry: the certificate's facet union must equal the set of
    # position subsets whose chains lie in the materialized prior subcomplex
    import itertools

    for r in range(1, 4):
        for s in range(1, 5 - r):
            for sh in enumerate_shuffles(r, s):
                cert = horn_certificate(sh)
                prior = prior_subcomplex(sh)
                path = _path(sh)
                n = r + s
                inside = {
                    idx
                    for k in range(1, n + 2)
                    for idx in itertools.combinations(range(n + 1), k)
                    if tuple(path[x] for x in idx) in prior
                }
                from_facets = set()
                for facet in cert.facets:
                    for k in range(1, len(facet) + 1):
                        from_facets.update(itertools.combinations(facet, k))
                assert inside == from_facets


def test_shuffle_rejects_bad_word():
    with pytest.raises(InputError, match="bad move word 'HX'"):
        horn_certificate("HX")
    with pytest.raises(InputError):
        enumerate_shuffles(-1, 2)


def test_horn_certificate_checks_every_letter():
    # "HVX" has one H and one V, so only the letter check catches it
    with pytest.raises(InputError, match="bad move word 'HVX'"):
        horn_certificate("HVX")


def test_attach_without_boundary_reports_hypothesis():
    # a degenerate shuffle restriction over an empty complex witnesses the
    # unmet boundary hypothesis rather than a falsified certificate
    z = MapString(1, (FinMap(2, 1, (0, 0)), FinMap(1, 2, (0,))))
    grid = _grid_from_corner_string(z, 1, 1)
    empty = StringComplex()
    with pytest.raises(HypothesisError):
        attach_diagram(empty, grid)


def test_attach_wide_grid():
    # a (3,1) grid needs cardinality 4; exercises horn records beyond r,s <= 2
    z = MapString(
        1,
        (
            FinMap(4, 1, (0, 0, 0, 0)),
            FinMap(3, 4, (0, 1, 2)),
            FinMap(2, 3, (0, 1)),
            FinMap(1, 2, (0,)),
        ),
    )
    grid = _grid_from_corner_string(z, 1, 3)
    C0 = boundary_image(grid)
    attachment = attach_diagram(C0, grid)
    assert attachment.subset == C0 | image_subset(grid)
    attached = [rec for rec in attachment.certificates if rec.status == "attached"]
    assert attached and attached[-1].kind == "boundary"
    assert all(rec.to_json()["checks"].get("iii_excluded_faces_distinct", True) for rec in attached)


def test_one_past_per_shuffle():
    # three views of the faces outside a shuffle's past must agree: what
    # attach_diagram certifies, what the materialized prior subcomplex
    # misses, and the complement of the horn certificate's overlap
    import itertools

    for n in range(2, 7):
        faces = {idx for k in range(1, n + 2) for idx in itertools.combinations(range(n + 1), k)}
        full = tuple(range(n + 1))
        for r in range(1, n):
            s = n - r
            grid = proper_grid(r, s)
            records = attach_diagram(boundary_image(grid), grid).certificates
            assert [rec.status for rec in records] == ["attached"] * len(records)
            certified = {rec.sigma: set(rec.excluded) | {full} for rec in records}
            for sh in enumerate_shuffles(r, s):
                path = _path(sh)
                prior = prior_subcomplex(sh)
                missing = {idx for idx in faces if tuple(path[x] for x in idx) not in prior}
                cert = horn_certificate(sh)
                assert cert == horn_certificate(sh)
                overlap = set()
                for facet in cert.facets:
                    for k in range(1, len(facet) + 1):
                        overlap.update(itertools.combinations(facet, k))
                assert faces - overlap == missing
                assert set(_excluded_faces(sh)) == missing
                assert certified[sh] == missing


def test_attach_walk_matches_restricting_oracle_on_proper_grids():
    # from the boundary image, as attach_diagram walks with stop=set():
    # reading the excluded faces off the path cores gives the records and
    # the members of the walk that restricts each excluded face
    def anomaly(message, witness):
        raise CertificateError(message, witness)

    for n in range(7):
        for r in range(n + 1):
            grid = proper_grid(r, n - r)
            shuffles = enumerate_shuffles(r, n - r)
            paths = path_cores(grid)
            cores = {sh: z for sh, (z, _) in zip(shuffles, paths)}
            new, old = set(boundary_image(grid)), set(boundary_image(grid))
            got = attach_walk(new, grid, paths, anomaly, set(), {})
            want = oracle_attach_walk(old, grid, cores, shuffles, anomaly, set())
            assert got[0] == want[0]
            assert [rec.status for rec in got[0]] == ["attached"] * len(shuffles)
            assert len(got[1]) == len(set(got[1])) and set(got[1]) == set(want[1])
            assert new == old


def _class_pattern(word, T):
    """The map classes along excluded face ``T``, bottom up: a single H move
    stays properly injective, a single V move properly surjective, and a
    composed gap is neither."""
    out = []
    for a, b in zip(T, T[1:]):
        if b - a == 1:
            out.append(MapClass.PROPER_INJECTIVE if word[a] == "H" else MapClass.PROPER_SURJECTIVE)
        else:
            out.append(MapClass.NEITHER)
    return tuple(out)


def _string_of_pattern(pattern):
    """A string whose maps have the given classes, bottom up."""
    c = 2 * len(pattern) + 2
    card0, maps = c, []
    for cls in pattern:
        if cls is MapClass.PROPER_INJECTIVE:
            maps.append(FinMap(c - 1, c, tuple(range(c - 1))))
            c -= 1
        elif cls is MapClass.PROPER_SURJECTIVE:
            maps.append(FinMap(c + 1, c, (0,) + tuple(range(c))))
            c += 1
        else:
            maps.append(FinMap(c, c, (0,) * c))
    return MapString(card0, tuple(maps))


def test_excluded_faces_of_one_size_have_distinct_class_patterns():
    # the lemma behind check iii: with position 0 in T (check a), the class
    # of each step fixes the next position, so the face strings of two
    # excluded faces of one size differ in class and so in core
    pairs = 0
    for n in range(2, 9):
        for r in range(1, n):
            for sh in enumerate_shuffles(r, n - r):
                full = tuple(range(n + 1))
                proper = [T for T in _excluded_faces(sh) if T != full]
                by_size = {}
                for T in proper:
                    by_size.setdefault(len(T), []).append(T)
                for faces in by_size.values():
                    patterns = [_class_pattern(sh, T) for T in faces]
                    assert len(set(patterns)) == len(faces)
                    for T1, pattern in zip(faces, patterns):
                        w = _string_of_pattern(pattern)
                        _recover_gaps(sh, w, T1)
                        for T2 in faces:
                            if T2 == T1:
                                continue
                            pairs += 1
                            with pytest.raises(CertificateError) as info:
                                _recover_gaps(sh, w, T2)
                            assert str(info.value) == (
                                "face string classes do not determine the excluded face"
                            )
    assert pairs


def _corner_chains(c, k, injective):
    """Every chain of ``k`` injections into, or surjections out of, a set
    of ``c`` elements, bijections included."""
    if k == 0:
        yield ()
        return
    for c2 in range(c + 1):
        for f in all_maps(c2, c) if injective else all_maps(c, c2):
            if f.is_injective if injective else f.is_surjective:
                for rest in _corner_chains(c2, k - 1, injective):
                    yield (f,) + rest


def test_corner_faces_are_read_off_the_maximal_path_core():
    # the corner string is the restriction of the maximal shuffle, so the
    # membership of its faces is read off that path core, also where a
    # bijection makes the core drop degree
    checked = 0
    for c, r, s in itertools.product(range(3), range(3), range(3)):
        for top in _corner_chains(c, r, True):
            for left in _corner_chains(c, s, False):
                grid = complete_from_corner(CornerData(c, top, left))
                y = corner_of(grid).to_string()
                image = sorted(image_subset(grid), key=MapString.sort_key)
                for C in (
                    StringComplex(),
                    boundary_image(grid),
                    StringComplex(image),
                    StringComplex(image[::2]),
                ):
                    want = [contains(C, face(y, i)) for i in range(y.degree + 1)] if y.degree else []
                    hypothesis = _attachment_hypothesis(C, grid, path_cores(grid))
                    assert hypothesis["corner_faces_in_complex"] == want
                    checked += 1
    assert checked == 1032


def test_attach_diagram_checks_the_union_with_the_image(monkeypatch):
    # a walk that adds one member fewer, or one outside the image, is caught
    import finsimp.shuffles as shuffles_mod

    real = shuffles_mod.attach_walk
    outside = MapString(9)

    def fewer(current, *args):
        records, added = real(current, *args)
        current.discard(added[-1])
        return records, added[:-1]

    def more(current, *args):
        records, added = real(current, *args)
        current.add(outside)
        return records, added + [outside]

    grid = proper_grid(2, 1)
    for walk in (fewer, more):
        monkeypatch.setattr(shuffles_mod, "attach_walk", walk)
        with pytest.raises(CertificateError) as info:
            attach_diagram(boundary_image(grid), grid)
        assert str(info.value) == "attachment result is not the union with the image"


def test_second_round_cores_no_face(monkeypatch):
    # face cores live in one memo that every grid shares: a second round
    # over an equal grid walks the same closures without coring any face
    import finsimp.strings as strings_mod

    written = []

    class Recording(dict):
        def __setitem__(self, z, faces):
            written.append(z)
            super().__setitem__(z, faces)

    monkeypatch.setattr(strings_mod, "_face_cores", Recording())
    C0 = boundary_image(proper_grid(2, 1))
    grid = proper_grid(2, 1)  # an equal grid, built anew

    def one_round():
        image_subset(grid)
        boundary_image(grid)
        return attach_diagram(C0, grid)

    first = one_round()
    assert written
    written.clear()
    assert one_round() == first
    assert written == []


def test_bitmask_past_matches_set_oracle():
    # same excluded tuples in the same order, and equal certificates
    for n in range(2, 8):
        for r in range(1, n):
            for sh in enumerate_shuffles(r, n - r):
                assert _excluded_faces(sh) == oracle_excluded_faces(sh)
                assert horn_certificate(sh) == oracle_horn_certificate(sh)
    for certify in (horn_certificate, oracle_horn_certificate):
        with pytest.raises(InputError):
            certify("HH")


def test_past_closed_form_at_hv_corners():
    # independent of both implementations: the excluded faces are the full
    # face less any set of HV corners, and S is everything but the corners
    import itertools

    for n in range(1, 9):
        full = set(range(n + 1))
        for r in range(n + 1):
            s = n - r
            for w in enumerate_shuffles(r, s):
                corners = [x for x in range(1, n) if w[x - 1] == "H" and w[x] == "V"]
                expected = {
                    tuple(sorted(full - set(drop)))
                    for k in range(len(corners) + 1)
                    for drop in itertools.combinations(corners, k)
                }
                assert set(_excluded_faces(w)) == expected
                assert set(oracle_excluded_faces(w)) == expected
                if r >= 1 and s >= 1 and not is_maximal(w):
                    S = tuple(sorted(full - set(corners)))
                    assert horn_certificate(w).S == S
                    assert oracle_horn_certificate(w).S == S


def test_mask_kernel_matches_oracle_and_closed_form():
    # the cached masks are the oracle's faces as bitmasks, each once, for
    # r+s <= 7, and the full face less any set of HV corners for r+s <= 8
    def mask(idx):
        return sum(1 << x for x in idx)

    for n in range(9):
        full = (1 << (n + 1)) - 1
        for r in range(n + 1):
            for w in enumerate_shuffles(r, n - r):
                masks = sorted(_excluded_masks(w))
                if n <= 7:
                    assert masks == sorted(map(mask, oracle_excluded_faces(w)))
                corners = [x for x in range(1, n) if w[x - 1] == "H" and w[x] == "V"]
                expected = {
                    full & ~mask(drop)
                    for k in range(len(corners) + 1)
                    for drop in itertools.combinations(corners, k)
                }
                assert len(masks) == len(expected) and set(masks) == expected


def test_lower_covers_bound_every_smaller_past():
    # independent of both implementations: each lower cover (one VH swapped
    # to HV) leaves sigma's path at one position, every strictly smaller
    # shuffle lies at or below a cover, and it leaves sigma's path wherever
    # each cover above it does
    def off_path(tau, sigma):
        return {x for x, (a, b) in enumerate(zip(heights(tau), heights(sigma))) if a != b}

    for n in range(1, 9):
        for r in range(n + 1):
            shs = enumerate_shuffles(r, n - r)
            for w in shs:
                covers = {}
                for k in range(n - 1):
                    if w[k : k + 2] == "VH":
                        tau = w[:k] + "HV" + w[k + 2 :]
                        assert le(tau, w) and off_path(tau, w) == {k + 1}
                        covers[k + 1] = tau
                for low in shs:
                    if low == w or not le(low, w):
                        continue
                    above = {x for x, tau in covers.items() if le(low, tau)}
                    assert above, (low, w)
                    assert above <= off_path(low, w)


@pytest.mark.parametrize(
    "word,past,message",
    [
        ("HV", (), "shuffle simplex lies in its own past"),
        ("VH", ((0, 1), (0, 1, 2)), "maximal shuffle overlap is not the boundary sphere"),
        (
            "HV",
            ((0, 1), (0, 2), (1, 2), (0, 1, 2)),
            "overlap has a maximal face of codimension > 1",
        ),
        ("HV", ((2,), (0, 1), (0, 1, 2)), "overlap is not the union of its codimension-one faces"),
        ("HV", ((0, 1), (0, 1, 2)), "facet index set is an interval"),
    ],
)
def test_every_certificate_check_can_fail(monkeypatch, word, past, message):
    # a doctored past reaches each raise, in the mask kernel and the oracle.
    # The bitmask code lists the facets from S without a search, so its
    # count-and-containment check refuses a past whose overlap has a
    # maximal face of codimension > 1; the oracle's search names it.
    import finsimp.shuffles as shuffles_mod

    masks = tuple(sum(1 << x for x in T) for T in past)
    monkeypatch.setattr(shuffles_mod, "_excluded_masks", lambda w: masks)
    monkeypatch.setattr(helpers, "oracle_excluded_faces", lambda w: past)
    bitmask_message = {
        "overlap has a maximal face of codimension > 1": (
            "overlap is not the union of its codimension-one faces"
        ),
    }.get(message, message)
    for certify, want in (
        (horn_certificate, bitmask_message),
        (oracle_horn_certificate, message),
    ):
        with pytest.raises(CertificateError) as info:
            certify(word)
        assert str(info.value) == want


def test_attach_refuses_simplex_in_own_past(monkeypatch):
    # after a clean attachment of the same grid: its word plans died with it
    import finsimp.shuffles as shuffles_mod

    grid = proper_grid(1, 1)
    attach_diagram(boundary_image(grid), grid)
    monkeypatch.setattr(shuffles_mod, "_excluded_faces", lambda w: ((0, 1),))
    with pytest.raises(CertificateError) as info:
        attach_diagram(boundary_image(grid), grid)
    assert str(info.value) == "new shuffle simplex lies in its own past"
    assert info.value.witness == {"sigma": "HV", "excluded": [[0, 1]]}


@pytest.mark.parametrize(
    "shape,faces,message,witness",
    [
        ((1, 1), ((1, 2), (0, 1, 2)), "excluded face does not contain both endpoints", {"sigma": "HV", "T": [1, 2]}),
        ((1, 2), ((0, 3), (0, 1, 2, 3)), "excluded face has a gap wider than one", {"sigma": "HVV", "T": [0, 3], "x": 1}),
        (
            (1, 2),
            ((0, 1, 3), (0, 1, 2, 3)),
            "excluded-face gap is not a horizontal-then-vertical corner",
            {"sigma": "HVV", "T": [0, 1, 3], "x": 2},
        ),
        ((0, 1), ((0,), (0, 1)), "maximal shuffle has excluded proper faces", {"sigma": "V"}),
    ],
)
def test_every_word_check_of_the_attachment_can_fail(monkeypatch, shape, faces, message, witness):
    # a doctored excluded family reaches each raise of _certify_word at the
    # grid's first new word; no gap of a one-letter word passes the gap
    # checks, so they are switched off to reach the last one
    import finsimp.shuffles as shuffles_mod

    grid = proper_grid(*shape)
    monkeypatch.setattr(shuffles_mod, "_excluded_faces", lambda w: faces)
    if not shape[0]:
        monkeypatch.setattr(shuffles_mod, "_gap_pattern_checks", lambda w, T: None)
    with pytest.raises(CertificateError) as info:
        attach_diagram(boundary_image(grid), grid)
    assert type(info.value) is CertificateError and str(info.value) == message
    assert info.value.witness == witness


@pytest.mark.parametrize(
    "degree,message",
    [(0, "excluded proper face is degenerate"), (1, "excluded face already lies in the complex")],
)
def test_every_face_check_of_the_attachment_can_fail(monkeypatch, degree, message):
    # every face core read as one member of the boundary image: a vertex is
    # degenerate as the excluded edge of HV, and an edge is already present,
    # which with the boundary inside the complex is a certificate failure
    import finsimp.shuffles as shuffles_mod

    grid = proper_grid(1, 1)
    C = boundary_image(grid)
    member = min((z for z in C if z.degree == degree), key=MapString.sort_key)
    monkeypatch.setattr(shuffles_mod, "face_cores", lambda z: (member,) * (z.degree + 1))
    with pytest.raises(CertificateError) as info:
        attach_diagram(C, grid)
    assert type(info.value) is CertificateError and str(info.value) == message
    assert info.value.witness == {"sigma": "HV", "T": [0, 2]}
