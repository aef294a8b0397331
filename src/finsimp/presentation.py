"""Presentation skeletons for defect-bounded complexes.

The corner grids with cardinalities at most ``alpha`` are replayed in
degree order through the certified attachment, in one pass; the grids
whose image is new when attached are the generators.  The replay keeps one
growing member set, face-closed by construction, so each grid costs work in
proportion to its own size: its path cores come with it from the census,
grown from its parent's; its boundary is checked through the cores of
its boundary facets, read off its path cores; its image is walked only
where it is new; only the members added since the last check are checked
for saturation; and the union with the image is checked on that new part
and the added members.  What the attachment certifies about a shuffle word
alone (its past, the gap patterns of its excluded faces, its horn
certificate and its two records) is certified once per word and replay,
in a plan the replay owns, so per grid only the work on its strings is
left: the excluded faces read off the face cores and checked, and the
closures walked.  ``present`` first walks the member trie of
``E^alpha`` once (``strings.walk_members``), which fills the face cores
and the saturation cores of every member, so the replay cores nothing,
and compares the replayed complex, the grid-image half of the dual
construction of ``E^alpha``, with the members that walk lists.  It
re-derives every claim as it runs, so ``verify_skeleton`` runs it again
and compares: one replay, and nothing a skeleton stores is read back.
The excess strings (cardinalities bounded, defect above ``alpha``) carry a
run-length profile that splits them into an upper and a lower class, with
an inner-face matching between adjacent degrees and a precedence order
whose audit checks that every non-distinguished face of an upper string
sorts strictly earlier.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict, namedtuple

from .errors import CertificateError, HypothesisError, InputError, MatchingError, OrderAuditError
from .finmap import MapClass, _plain_json, epi_mono_factor
from .grids import GridDiagram, _check_alpha, _first_outside, boundary_cores
from .grids import check_against_enumeration, defect_subcomplex, enumerate_corner_grids
from .shuffles import AttachmentCertificate, attach_walk
from .strings import (
    MapString,
    StringComplex,
    _census,
    _saturation_core,
    canonicalize,
    defect,
    face,
    face_closure,
    serialize,
    walk_members,
)


class Generator(namedtuple("Generator", "corner grid records")):
    """One attachment cell: a corner grid whose image was new when attached,
    with the records of its attachment; its ``r`` and ``s`` are the grid's."""

    __slots__ = ()

    r = property(lambda self: self.grid.r)
    s = property(lambda self: self.grid.s)


class PresentationSkeleton(namedtuple("PresentationSkeleton", "alpha allow_empty complex generators")):
    """The generators in attachment order and the complex they attach."""

    __slots__ = ()

    def counts(self) -> dict:
        by_rs = Counter((g.r, g.s) for g in self.generators)
        return {
            "by_rs": {f"{r},{s}": n for (r, s), n in sorted(by_rs.items())},
            "diagonal": sum(n for (r, s), n in by_rs.items() if r == s),
            "total": len(self.generators),
        }

    def json_form(self) -> dict:
        return {
            "alpha": self.alpha,
            "allow_empty": self.allow_empty,
            "cells": [
                {"r": g.r, "s": g.s, "corner": g.corner.json_form(True), "grid": g.grid}
                for g in self.generators
            ],
            "attachment_order": list(range(len(self.generators))),
            "certificates": [{"cell": k, "records": g.records} for k, g in enumerate(self.generators)],
            "skeletal_dimension": self.complex.max_degree(),
            "counts": self.counts(),
            "complex": self.complex,
        }

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


class _Replay:
    """The complex attached so far, as one member set that only grows.

    The set starts empty and grows only by face closures, so it is
    face-closed by construction; the final comparison with the direct
    enumeration vouches for the result.  Each grid therefore costs work in
    proportion to the grid: membership of a few cores decides its boundary,
    the walk of its image stops at the members, so it visits only the new
    part that the attachment must add, and only the members added since
    the last saturation check are checked.  The plans of the shuffle
    words (``shuffles.attach_walk``) live as long as the replay, so each
    word is certified once and its records are shared by every grid.
    ``present`` is its one user and reads the complex off ``members``.
    """

    def __init__(self):
        self.members: set[MapString] = set()
        self.unchecked: list[MapString] = []
        self.plans: dict = {}

    def saturated(self) -> bool:
        """``is_saturated`` of the members: the saturations of the members
        checked before are still members, since the set only grows."""
        if any(_saturation_core(z) not in self.members for z in self.unchecked if z.degree >= 1):
            return False
        self.unchecked = []
        return True

    def attach(self, z: MapString, grid: GridDiagram, paths) -> list[AttachmentCertificate]:
        """Certify and attach one corner grid, given ``paths =
        path_cores(grid)``; returns its records, empty when its image is
        already present."""
        # the members are face-closed, so the boundary image lies in them
        # exactly when the core of every boundary facet does
        if any(w not in self.members for w in boundary_cores(grid, paths)):
            raise CertificateError(
                "generator boundary not contained in earlier images",
                witness={"corner": serialize(z), "r": grid.r, "s": grid.s},
            )
        # the members are face-closed: this is the image less the members
        image = face_closure((w for w, _ in paths), self.members)
        if not image:
            return []
        if not self.saturated():
            raise HypothesisError("complex is not saturated")

        def anomaly(message, witness):
            # the boundary lies in the complex, so these are forced facts
            raise CertificateError(message, witness)

        records, added = attach_walk(self.members, grid, paths, anomaly, self.members, self.plans)
        # with the members grown by exactly ``added``, this is the check
        # that the result is the union of the complex before and the image
        if set(added) != image:
            raise CertificateError("attachment result is not the union with the image")
        self.unchecked += added
        return records


def present(alpha: int, allow_empty: bool = False) -> PresentationSkeleton:
    """Replay the corner grids through certified attachment.

    Grids come in order of total degree r+s, then canonical corner
    serialization.  Under this order the boundary image of every grid lies
    in the complex attached so far (deleting a grid row or column yields a
    smaller grid); this is checked per grid rather than trusted.  A grid
    whose attachment adds a simplex becomes a generator; the others are
    images already present.  Each attachment certifies that it adds exactly
    the grid's image, so the final complex is the grid-image half of the
    dual construction of ``E^alpha``; it is compared with the members the
    walk of the member trie lists, and any discrepancy raises.
    """
    _check_alpha(alpha)
    members = walk_members(alpha, allow_empty, saturations=True)
    replay = _Replay()
    gens = []
    for z, _, _, grid, paths in enumerate_corner_grids(alpha, allow_empty):
        recs = replay.attach(z, grid, paths)
        if recs:
            gens.append(Generator(z, grid, tuple(recs)))
    C = StringComplex(replay.members)
    check_against_enumeration(C, alpha, members)
    return PresentationSkeleton(alpha, allow_empty, C, tuple(gens))


def verify_skeleton(skel: PresentationSkeleton) -> bool:
    """Recompute the skeleton with ``present`` and compare, the generators
    cell by cell and then the complex.  The first difference raises, naming
    the cell and its first differing field (``missing`` or ``extra`` for a
    cell on one side only); counts, dimension and order derive from these."""
    fresh = present(skel.alpha, skel.allow_empty)
    for k, (want, got) in enumerate(itertools.zip_longest(fresh.generators, skel.generators)):
        if want != got:
            diff = (f for f in Generator._fields if getattr(want, f) != getattr(got, f))
            field = "missing" if got is None else "extra" if want is None else next(diff)
            raise CertificateError("skeleton differs from its recomputation", {"cell": k, "field": field})
    C, D = fresh.complex, skel.complex
    if C != D:
        raise CertificateError(
            "stored complex differs from its recomputation",
            witness={"only_fresh": _first_outside(C, D), "only_stored": _first_outside(D, C)},
        )
    return True


def skeletal_dimension(alpha: int, allow_empty: bool = False) -> int:
    """Largest degree of a nondegenerate string of defect <= alpha."""
    return defect_subcomplex(alpha, allow_empty).max_degree()


class ExcessProfile(namedtuple("ExcessProfile", "string excess_defect inj_run surj_run side")):
    """Run-length profile of a string with bounded cards but excess defect.

    ``inj_run`` counts the properly injective maps at the top of the
    string, ``surj_run`` the properly surjective maps directly below them.
    The junction map below both runs is properly injective exactly for the
    upper class (``side`` is ``"upper"``); it is neither injective nor
    surjective for the lower one (``"lower"``).
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.string.degree

    @property
    def junction(self) -> int:
        """The distinguished inner face index; drops the level below the runs."""
        return self.degree - self.inj_run - self.surj_run

    def weight(self) -> tuple[int, int, int]:
        """Lexicographic sort key (degree, inj_run, -surj_run)."""
        return (self.degree, self.inj_run, -self.surj_run)

    def json_form(self) -> dict:
        return {
            "string": self.string.json_form(True),
            "defect": self.excess_defect,
            "inj_run": self.inj_run,
            "surj_run": self.surj_run,
            "side": self.side,
        }

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


def _profile(z: MapString, d: int, runs: tuple[int, int, MapClass | None]) -> ExcessProfile:
    """The profile of ``z``, of defect ``d`` and top runs ``runs``;
    requires the runs to stop inside."""
    r, s, junction = runs
    if junction is None:
        # A pure surjections-then-injections string has defect equal to the
        # cardinality at the meeting point, hence no excess defect.
        raise CertificateError(
            "runs exhaust an excess string", witness=serialize(z)
        )
    side = "upper" if junction is MapClass.PROPER_INJECTIVE else "lower"
    return ExcessProfile(z, d, r, s, side)


def in_excess(z: MapString, alpha: int) -> bool:
    return (
        z.degree >= 1
        and z.is_nondegenerate()
        and max(z.cards()) <= alpha
        and defect(z) > alpha
    )


def excess_strings(alpha: int, degree_bound: int, allow_empty: bool = False) -> list[ExcessProfile]:
    """Profiles of all canonical excess strings up to the degree bound, in
    census order: by degree, then by ``serialize``.

    The census holds only nondegenerate strings with cardinalities at most
    ``alpha``, so of ``in_excess`` only the degree and the defect are left
    to check.  Each profile is read off the defect and the top runs the
    census carries, with no map classified again."""
    if alpha < 1:
        raise InputError("alpha must be >= 1")
    if degree_bound < 2:
        raise InputError("degree_bound must be >= 2")
    out = []
    for level in itertools.islice(_census(alpha, degree_bound, allow_empty), 1, None):
        for z, _, d, runs in level:
            if d > alpha:
                out.append(_profile(z, d, runs))
    return out


def match_partner(p: ExcessProfile) -> MapString:
    """The distinguished inner face, composing the junction with the
    surjection above it."""
    return canonicalize(face(p.string, p.junction))


def match_inverse(p: ExcessProfile) -> MapString:
    """Split the junction of a lower profile into its epi-mono factors."""
    if p.side != "lower":
        raise InputError("inverse is defined on the lower class")
    j = p.junction
    g = p.string.maps[j - 1]
    epi, mono = epi_mono_factor(g)
    maps = p.string.maps[: j - 1] + (mono, epi) + p.string.maps[j:]
    return canonicalize(MapString(p.string.card0, maps))


class Matching(namedtuple("Matching", "alpha degree_bound pairs per_degree")):
    """Verified inner-face matching from the upper to the lower class:
    ``pairs`` holds ``(upper, lower, face)`` triples and ``per_degree``
    ``(degree, upper count, lower count)`` triples."""

    __slots__ = ()

    def json_form(self) -> dict:
        return {
            "alpha": self.alpha,
            "degree_bound": self.degree_bound,
            "pairs": [
                {"upper": u.json_form(True), "lower": l.json_form(True), "face": j}
                for u, l, j in self.pairs
            ],
            "per_degree": [
                {"degree": d, "upper": nu, "lower": nl} for d, nu, nl in self.per_degree
            ],
        }

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


def _matching_faces(z: MapString, w: MapString, j: int) -> list[int]:
    """The inner face indices ``i`` of ``z`` with
    ``canonicalize(face(z, i)) == w``, given that ``w`` is the canonical
    face ``j``.  Cardinalities are a class invariant and face ``i`` has the
    cards of ``z`` with entry ``i`` dropped, so only faces with the cards
    of ``w`` are canonicalized, and face ``j`` is not canonicalized again."""
    cards, want = z.cards(), w.cards()
    return [
        i
        for i in range(1, z.degree)
        if cards[:i] + cards[i + 1 :] == want and (i == j or canonicalize(face(z, i)) == w)
    ]


def match_excess(profiles: list[ExcessProfile], alpha: int, degree_bound: int) -> Matching:
    """Verify the matching invariants over the enumerated range.

    ``profiles`` arrive in ``excess_strings`` order, by degree and then by
    serialization, and the pairs keep the order of their upper strings.
    For every upper string the distinguished face index is strictly inner
    and unique, the face preserves defect, lands in the lower class with
    the surjective run shortened by one, and the assignment is a bijection
    from upper strings of each degree to lower strings one degree down.
    A lower string of degree ``degree_bound`` or more is the face of no
    upper string within the bound, so it is only counted.
    """
    uppers = [p for p in profiles if p.side == "upper"]
    lowers = {}
    unmatched: Counter = Counter()
    for p in profiles:
        if p.side == "lower":
            deg = len(p.string.maps)  # p.degree, less two property calls
            if deg < degree_bound:
                lowers[p.string] = p
            else:
                unmatched[deg] += 1
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
    lower_count = {m: len(zs) for m, zs in lower_by_degree.items()} | unmatched
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


def order_excess(profiles: list[ExcessProfile], alpha: int):
    """Sort the upper class by weight and audit the precedence property.

    ``profiles`` arrive in ``excess_strings`` order, so a stable sort by
    weight breaks ties by ``MapString.sort_key``.
    For every upper string ``z`` and every face other than the
    distinguished one, the face must either be an upper string of lower
    degree, leave the excess family altogether, or be a lower string whose
    match-partner sorts strictly before ``z``; in the last case the face
    index is pinned to one of the two junction-adjacent positions.  A
    violation raises with the witnessing string and face index.
    """
    uppers = sorted((p for p in profiles if p.side == "upper"), key=ExcessProfile.weight)
    # lookups reach faces, of lower degree, and partners, which are uppers
    top = uppers[-1].degree if uppers else 0
    by_string = {p.string: p for p in profiles if p.side == "upper" or p.degree < top}

    def census_profile(z: MapString, i: int, w: MapString) -> ExcessProfile:
        # the census holds every excess string of degree at most z's, so a
        # miss means the profiles handed in are not a whole census
        wp = by_string.get(w)
        if wp is None:
            raise OrderAuditError(
                "excess string missing from the census profiles",
                witness={"string": serialize(z), "face": i, "missing": serialize(w)},
            )
        return wp

    report = {
        "cases": Counter(),
        "fibers": Counter(p.weight() for p in uppers),
    }
    for p in uppers:
        z, n, j = p.string, p.degree, p.junction
        for i in range(n + 1):
            if i == j:
                continue
            w = canonicalize(face(z, i))
            if not in_excess(w, alpha):
                report["cases"]["c_leaves_family"] += 1
                continue
            wp = census_profile(z, i, w)
            if wp.side == "upper":
                report["cases"]["b_upper_degree_drop"] += 1
                if not (wp.weight(), w.sort_key()) < (p.weight(), z.sort_key()):
                    raise OrderAuditError(
                        "upper face does not sort earlier",
                        witness={"string": serialize(z), "face": i},
                    )
                continue
            # lower face: must sit at one of the two junction-adjacent indices
            partner = match_inverse(wp)
            pp = census_profile(z, i, partner)
            if match_partner(pp) != w:
                raise OrderAuditError(
                    "inverse matching failed to recover the face",
                    witness={"string": serialize(z), "face": i},
                )
            if i == j - 1:
                report["cases"]["e_surj_run_grows"] += 1
                ok = pp.degree == n and pp.inj_run == p.inj_run and pp.surj_run > p.surj_run
            elif i == n - p.inj_run and p.inj_run > 0:
                report["cases"]["e_inj_run_shrinks"] += 1
                ok = pp.degree == n and pp.inj_run < p.inj_run
            else:
                raise OrderAuditError(
                    "lower face at an unexpected index",
                    witness={
                        "string": serialize(z),
                        "face": i,
                        "junction": j,
                        "inj_run": p.inj_run,
                        "surj_run": p.surj_run,
                        "partner": serialize(partner),
                        "partner_weight": list(pp.weight()),
                        "weight": list(p.weight()),
                    },
                )
            if not ok or not pp.weight() < p.weight():
                raise OrderAuditError(
                    "matched partner of a face does not sort earlier",
                    witness={
                        "string": serialize(z),
                        "face": i,
                        "partner": serialize(partner),
                        "partner_weight": list(pp.weight()),
                        "weight": list(p.weight()),
                    },
                )
    report["cases"] = dict(report["cases"])
    report["fibers"] = {str(list(k)): v for k, v in sorted(report["fibers"].items())}
    return uppers, report
