"""Shuffles of a cell prism, horn certificates, and diagram attachment.

An ``(r,s)``-shuffle is a monotone lattice path from ``(0,0)`` to ``(r,s)``,
and a shuffle is its move word, a ``str`` over ``H`` (step right) and ``V``
(step up), with ``r`` and ``s`` the counts of the two letters; the words
index the top-dimensional simplices of the prism of two standard simplices.
The poset order is read off its covers (``hasse_edges``): a cover swaps one
``HV`` to ``VH``.  Attaching a grid image to a string complex walks the
shuffles in the one linear extension of this order that
``enumerate_shuffles`` lists and certifies, for each one, that the fresh
part glues along an inner generalized horn (or a boundary sphere for the
last shuffle).

The past of a shuffle (the faces of its simplex that lie in the prism
boundary or under a smaller shuffle) depends only on the move word.  A face
is a set of positions ``0..n`` on the shuffle's path, held as an integer
bitmask.  ``_excluded_faces`` derives the faces outside the past from its
definition once per word, memoized by the word: an excluded face must hit
one mask per row value, one per column value and one per smaller shuffle
(the positions off that shuffle's path), so only the supersets of the
positions forced by single-position masks are listed and tested.  The
smaller shuffles are read off the word itself, by the cover lemma: every
strictly smaller shuffle lies at or below a lower cover (one ``VH``
swapped to ``HV``), whose off-path mask is the single position between
the two swapped moves and is contained in the smaller shuffle's mask.  So
the covers alone give the same excluded faces, with no scan of the shape.
The excluded family stays small while the faces double with each move, so
``horn_certificate`` checks the horn shape on it alone, and the attachment
walk certifies each excluded face.

``attach_walk`` walks the path cores of one grid: it adds the face closure
of each new path core to a member set the caller owns, reads the core of
each excluded face off the face cores, and returns the records and the
members it added, so a caller that replays many grids pays for each grid,
not for the complex.  What depends on the move word alone, the checks of
its past and its horn and its two records, sits in a per-word plan in a
dict the caller also owns, so a replay certifies each word once and every
grid shares its records.  ``attach_diagram`` is the attachment of one grid
to an arbitrary complex, with plans of its own.  It returns an
``Attachment``: the hypothesis report, computed once, which refuses an
unsaturated complex and tells a falsified certificate from an unmet
boundary hypothesis, with the resulting complex, checked to be the union
of the complex and the grid image, and the records.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import CertificateError, HypothesisError, InputError
from .finmap import MapClass, _plain_json, classify
from .grids import GridDiagram, boundary_cores, is_saturated, path_cores
from .strings import MapString, StringComplex, face_closure, face_cores


def _path(word: str) -> tuple[tuple[int, int], ...]:
    """The cells of a move word's lattice path: position ``x`` is the cell
    of the counts of ``H`` and ``V`` in the first ``x`` moves."""
    return tuple((word.count("H", 0, x), word.count("V", 0, x)) for x in range(len(word) + 1))


def enumerate_shuffles(r: int, s: int) -> list[str]:
    """All C(r+s, s) shuffles in a linear extension of the poset order.

    Ascending lexicographic order on move words with ``H < V`` refines the
    poset: at the first differing position the poset-smaller word shows the
    ``H``.  The minimal shuffle comes first, the maximal one last.  Each
    call returns a fresh list of the words ``_shuffles`` keeps.
    """
    if r < 0 or s < 0:
        raise InputError("r and s must be >= 0")
    return list(_shuffles(r, s))


@lru_cache(maxsize=None)
def _shuffles(r: int, s: int) -> tuple[str, ...]:
    """The shuffles of ``enumerate_shuffles(r, s)``, for ``r, s >= 0``,
    built once per shape and shared by the grid walks and attachments."""
    words = []
    for v_positions in itertools.combinations(range(r + s), s):
        letters = ["H"] * (r + s)
        for p in v_positions:
            letters[p] = "V"
        words.append("".join(letters))
    words.sort()
    return tuple(words)


def _covers(words):
    """The covering pairs of the shuffle poset from each of ``words`` in turn.
    The covers of one word come by the swapped position descending, which is
    ascending order of the cover, so ascending words give the pairs sorted."""
    for w in words:
        for k in range(len(w) - 2, -1, -1):
            if w[k] == "H" and w[k + 1] == "V":
                yield w, f"{w[:k]}VH{w[k + 2:]}"


def hasse_edges(r: int, s: int) -> list[tuple[str, str]]:
    """Covering pairs of the shuffle poset (one ``HV`` swapped to ``VH``), sorted."""
    return list(_covers(enumerate_shuffles(r, s)))


def poset_dot(r: int, s: int):
    """DOT rendering of the shuffle poset's Hasse diagram, as an iterator of
    its lines: the words, then the covers in ``hasse_edges`` order.  A
    negative ``r`` or ``s`` raises here, before any line is read."""
    words = enumerate_shuffles(r, s)
    covers = (f'  "{a}" -> "{b}";\n' for a, b in _covers(words))
    return itertools.chain(["digraph shuffles {\n"], (f'  "{w}";\n' for w in words), covers, ["}\n"])


def is_inner_generalized_horn(S, n: int) -> bool:
    """True when the proper face-index set S of [n] is not an interval."""
    S = set(S)
    if not S <= set(range(n + 1)):
        raise InputError("S must be a subset of [n]")
    if S == set(range(n + 1)):
        raise InputError("S must be a proper subset of [n]")
    if not S:
        return False
    lo, hi = min(S), max(S)
    return any(t not in S for t in range(lo, hi))


class HornCertificate(namedtuple("HornCertificate", "sigma kind S facets")):
    """Checked shape of the overlap between a shuffle simplex and its past.

    ``kind`` is ``"inner"`` or ``"boundary"``.  ``facets`` lists the
    maximal overlap faces as sorted position subsets.  For a non-maximal
    shuffle the overlap is a union of codimension-one faces whose index set
    ``S`` is not an interval; for the maximal shuffle it is the full
    boundary sphere.
    """

    __slots__ = ()

    def json_form(self) -> dict:
        return {"sigma": self.sigma, "kind": self.kind, "S": self.S, "facets": self.facets}

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


def _positions(mask: int) -> tuple[int, ...]:
    """The positions set in a face mask, ascending."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


@lru_cache(maxsize=None)
def _excluded_faces(word: str) -> tuple[tuple[int, ...], ...]:
    """The faces of the simplex of the shuffle ``sigma = word`` outside its
    past, by size then lexicographically.

    A face is a nonempty set of positions ``0..n`` on the path, handled as a
    bitmask.  It lies in the past when its chain lies in the prism boundary,
    that is when it misses every position of some row value or column
    value, or when it lies on the path of a strictly smaller shuffle ``tau``.
    Both paths have one cell per antidiagonal, so they share the cell at
    position ``x`` exactly when their heights (the counts of ``V`` in the
    first ``x`` moves) agree there, and the face lies on ``tau``'s path
    exactly when it avoids every other position.  An excluded face
    therefore hits each of these masks: the row masks, the column masks
    and, per ``tau``, the positions off ``tau``'s path.

    Only the lower covers of ``sigma`` need a mask.  A cover swaps a ``VH``
    at moves ``k, k+1`` to ``HV``, which lowers the height at position
    ``k+1`` alone, so its mask is ``1 << (k+1)``.  Any other ``tau`` lies at
    or below some cover, with heights at most the cover's and so at most
    ``sigma``'s; where ``tau`` meets ``sigma`` the cover does too, so
    ``tau``'s mask contains the cover's and a face hitting the cover's mask
    hits ``tau``'s.  A single-position mask forces its position, so only
    the supersets of the forced positions are tested against the other
    masks; the list is exact.
    """
    r, s = word.count("H"), word.count("V")
    n = r + s
    full = (1 << (n + 1)) - 1
    path = _path(word)
    hit = {sum(1 << x for x in range(n + 1) if path[x][0] == i) for i in range(r + 1)}
    hit |= {sum(1 << x for x in range(n + 1) if path[x][1] == j) for j in range(s + 1)}
    hit |= {1 << (k + 1) for k in range(n - 1) if word[k] == "V" and word[k + 1] == "H"}
    forced = 0
    for m in hit:
        if m and not m & (m - 1):
            forced |= m
    rest = [m for m in hit if not m & forced]
    free = full & ~forced
    excluded = []
    sub = free
    while True:
        face = forced | sub
        if face and all(face & m for m in rest):
            excluded.append(_positions(face))
        if not sub:
            break
        sub = (sub - 1) & free
    excluded.sort(key=lambda idx: (len(idx), idx))
    return tuple(excluded)


def horn_certificate(word: str) -> HornCertificate:
    """Certify the attachment shape of the simplex of one move word.

    Works on the excluded family ``E`` from ``_excluded_faces`` as bitmasks;
    every face outside ``E`` lies in the overlap with the past, and ``S``
    holds the positions ``i`` whose facet ``full - {i}`` lies there.
    Verifies: the full face is excluded; for a non-maximal shuffle ``E`` is
    the set of nonempty supersets of ``S`` (by count and containment) and
    ``S`` is not an interval; for the maximal shuffle the overlap is the
    entire boundary, ``E == {full}``.  Either way the overlap is the faces
    missing some position of ``S``, so its facets are ``full - {i}`` for
    ``i`` in ``S``, listed without a search.  The cost is about ``|E| * n``
    per shuffle.  Any failure raises, since each of these facts is forced.
    A letter other than ``H`` or ``V`` raises :class:`InputError`.
    """
    if set(word) - {"H", "V"}:
        raise InputError(f"bad move word {word!r}")
    r, s = word.count("H"), word.count("V")
    if r < 1 or s < 1:
        raise InputError("horn certificates need r >= 1 and s >= 1")
    n = r + s
    full = (1 << (n + 1)) - 1
    excluded = {sum(1 << x for x in idx) for idx in _excluded_faces(word)}
    if full not in excluded:
        raise CertificateError("shuffle simplex lies in its own past", witness=word)
    S = tuple(i for i in range(n + 1) if full & ~(1 << i) not in excluded)
    if word == "V" * s + "H" * r:
        if excluded != {full}:
            raise CertificateError(
                "maximal shuffle overlap is not the boundary sphere", witness=word
            )
        kind = "boundary"
    else:
        S_mask = sum(1 << i for i in S)
        supersets = (1 << (n + 1 - len(S))) - (0 if S else 1)
        if len(excluded) != supersets or any(e & S_mask != S_mask for e in excluded):
            raise CertificateError(
                "overlap is not the union of its codimension-one faces", witness=word
            )
        if not is_inner_generalized_horn(set(S), n):
            raise CertificateError(
                "facet index set is an interval", witness={"sigma": word, "S": sorted(S)}
            )
        kind = "inner"
    # ascending tuple order drops the positions of S in descending order
    facets = tuple(tuple(x for x in range(n + 1) if x != i) for i in reversed(S))
    return HornCertificate(word, kind, S, facets)


# The facts ``attach_diagram`` verifies for each shuffle it attaches;
# ``iii`` follows from ``a`` and the class check of ``_recover_gaps``.
_ATTACHED_CHECKS = (
    "c_nondegenerate", "a_endpoints_and_isolated_gaps", "b_gap_moves",
    "d_excluded_faces_nondegenerate", "ii_excluded_faces_new", "iii_excluded_faces_distinct",
)


class AttachmentCertificate(
    namedtuple("AttachmentCertificate", "sigma status kind S excluded", defaults=(None, (), ()))
):
    """Per-shuffle record of the facts verified while attaching a grid image.

    ``status`` is ``"attached"`` or ``"already-present"``; ``kind`` is
    ``"inner"`` or ``"boundary"``, or ``None`` when the shuffle was
    skipped.  ``excluded`` lists the faces of the shuffle simplex missing
    from the prior subcomplex (position subsets).  Each fact in
    ``_ATTACHED_CHECKS`` raises when it fails, so an attached record holds
    all of them; a record is re-checkable from the grid, the shuffle and
    the complex as it stood when the shuffle was processed.
    """

    __slots__ = ()

    def json_form(self) -> dict:
        return {
            "sigma": self.sigma,
            "status": self.status,
            "kind": self.kind,
            "S": self.S,
            "excluded": self.excluded,
            "checks": dict.fromkeys(_ATTACHED_CHECKS, True) if self.status == "attached" else {},
        }

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


def _gap_pattern_checks(word: str, T: tuple[int, ...]) -> None:
    """Endpoint and gap-move conditions (checks ``a`` and ``b``) on T."""
    n = len(word)
    ts = set(T)
    if 0 not in ts or n not in ts:
        raise CertificateError(
            "excluded face does not contain both endpoints",
            witness={"sigma": word, "T": sorted(ts)},
        )
    for x in range(n + 1):
        if x in ts:
            continue
        if x - 1 not in ts or x + 1 not in ts:
            raise CertificateError(
                "excluded face has a gap wider than one",
                witness={"sigma": word, "T": sorted(ts), "x": x},
            )
        # moves x and x+1 are word[x-1], word[x]
        if word[x - 1] != "H" or word[x] != "V":
            raise CertificateError(
                "excluded-face gap is not a horizontal-then-vertical corner",
                witness={"sigma": word, "T": sorted(ts), "x": x},
            )


def _recover_gaps(word: str, face_string: MapString, T: tuple[int, ...]) -> None:
    """Check that the map classes of the face string determine T.

    Along an excluded face, single moves stay properly injective (H) or
    properly surjective (V) while each composed gap becomes neither; the
    class pattern of the face string therefore pins down T exactly.  The
    face string has ``len(T) - 1`` maps (``attach_walk`` checks its
    degree), so a class check per step covers every position of T, and,
    with 0 in T, two excluded faces of one size never share a core.
    """
    for k, f in enumerate(face_string.maps):
        cls = classify(f)
        step = T[k + 1] - T[k]
        if step == 1:
            want = MapClass.PROPER_INJECTIVE if word[T[k]] == "H" else MapClass.PROPER_SURJECTIVE
            ok = cls is want
        else:
            ok = step == 2 and cls is MapClass.NEITHER
        if not ok:
            raise CertificateError(
                "face string classes do not determine the excluded face",
                witness={"sigma": word, "T": list(T), "position": k, "class": cls.value},
            )


def _attachment_hypothesis(C: StringComplex, grid: GridDiagram, paths) -> dict:
    """Report how far C satisfies the attachment hypotheses for a grid,
    given ``paths = path_cores(grid)``.

    ``corner_faces_in_complex`` records membership for every proper face of
    the grid's corner string; faces that are missing get added while the
    shuffles are walked, so the report, not a hard failure, is the honest
    answer when only some of them are present.
    """
    # the corner string is the restriction of the maximal shuffle path
    z, where = paths[-1]
    faces = []
    if grid.r + grid.s >= 1:
        faces = [(z if i is None else face_cores(z)[i]) in C for i in where]
    return {
        "saturated": is_saturated(C),
        "boundary_contained": StringComplex.closure(boundary_cores(grid, paths)) <= C,
        "corner_faces_in_complex": faces,
    }


class _Plan(namedtuple("_Plan", "present attached proper reads")):
    """What attaching one shuffle word certifies for every grid.

    ``present`` is the word's ``"already-present"`` record.  ``attached``
    is its ``"attached"`` record, ``proper`` its proper excluded faces in
    ``_excluded_faces`` order and ``reads`` their read order, as
    ``(T, T + {x}, x)`` triples with face ``x`` of the core read for
    ``T + {x}`` giving the core of ``T``; all three are ``None`` until the
    word's simplex is first new, since only then is the word certified.
    """

    __slots__ = ()


def _certify_word(word: str) -> tuple[AttachmentCertificate, tuple, tuple]:
    """The checks of ``attach_walk`` that read the word alone: the simplex
    lies outside its own past, checks ``a`` and ``b`` on each proper
    excluded face, and the horn certificate, or the sphere of a
    single-row/column grid.  Returns the ``attached``, ``proper`` and
    ``reads`` fields of the word's plan."""
    n = len(word)
    full = tuple(range(n + 1))
    excluded = _excluded_faces(word)
    if full not in excluded:
        raise CertificateError(
            "new shuffle simplex lies in its own past",
            witness={"sigma": word, "excluded": [list(T) for T in excluded]},
        )
    proper = tuple(idx for idx in excluded if idx != full)
    for T in proper:
        _gap_pattern_checks(word, T)
    if word.count("H") and word.count("V"):
        cert = horn_certificate(word)
        kind, S = cert.kind, cert.S
    else:
        # a single-row/column grid: sphere attachment
        if proper:
            raise CertificateError(
                "maximal shuffle has excluded proper faces",
                witness={"sigma": word},
            )
        kind, S = "boundary", full if n else ()
    # with x the first position missing from T, the larger superset
    # T + {x} of S is excluded and read first; x is also its index there
    reads = []
    for T in reversed(proper):
        x = next(k for k, t in enumerate(T) if k != t)
        reads.append((T, T[:x] + (x,) + T[x:], x))
    record = AttachmentCertificate(word, "attached", kind, S, tuple(sorted(proper)))
    return record, proper, tuple(reads)


def attach_walk(
    current: set[MapString], grid: GridDiagram, paths, anomaly, stop: set[MapString], plans: dict[str, _Plan]
) -> tuple[list[AttachmentCertificate], list[MapString]]:
    """Attach the shuffle simplices of a grid to the member set ``current``
    in place, in ``enumerate_shuffles`` order, certifying every one that is
    new.

    ``paths = path_cores(grid)`` holds the interned core of each path's
    restriction in that order.  ``anomaly(message, witness)`` raises for a
    condition that the attachment hypotheses force.  The face closure of
    each new path core stops at the members of ``stop``, a face-closed set
    that grows with each closure; ``stop`` is ``current`` itself when
    ``current`` is face-closed.  Returns the records and the members added.

    What depends on the word alone is done once per word in ``plans``, a
    dict the caller owns for one call and shares across its grids: the
    past, the gap patterns and the horn certificate are checked by
    ``_certify_word`` when the word's simplex is first new, and each
    word's two records are built once and shared by every grid.  Per
    grid, only what depends on its strings is left: the excluded faces
    are read off the face cores top-down in the plan's read order (a
    nondegenerate string has the faces of its core up to relabeling) and
    checked nondegenerate, new and distinguishable, and the closures are
    walked.
    """
    records = []
    added: list[MapString] = []
    for word, (z, _) in zip(_shuffles(grid.r, grid.s), paths):
        plan = plans.get(word)
        if plan is None:
            present = AttachmentCertificate(word, "already-present")
            plan = plans[word] = _Plan(present, None, None, None)
        if z in current:
            records.append(plan.present)
            continue
        n = len(word)
        # a string is nondegenerate exactly when its core keeps its degree
        if z.degree != n:
            anomaly(
                "new shuffle simplex is degenerate but its core is missing",
                {"sigma": word},
            )
        if plan.attached is None:
            plan = plans[word] = _Plan(plan.present, *_certify_word(word))
        read = {tuple(range(n + 1)): z}
        for T, above, x in plan.reads:
            w = read[T] = face_cores(read[above])[x]
            if w.degree != len(T) - 1:
                raise CertificateError(
                    "excluded proper face is degenerate",
                    witness={"sigma": word, "T": list(T)},
                )
        for T in plan.proper:
            if read[T] in current:
                anomaly(
                    "excluded face already lies in the complex",
                    {"sigma": word, "T": list(T)},
                )
        # map classes survive relabeling, so the canonical core of a
        # nondegenerate face string carries the same class pattern
        for T in plan.proper:
            _recover_gaps(word, read[T], T)
        closure = face_closure([z], stop)
        fresh = [w for w in closure if w not in current]
        stop |= closure
        current.update(fresh)
        added += fresh
        records.append(plan.attached)
    return records, added


class Attachment(namedtuple("Attachment", "hypothesis subset certificates")):
    """The attachment of one grid image: the hypothesis report of
    ``_attachment_hypothesis``, the resulting complex and the per-shuffle
    records.  The report is a dict, so an attachment is not hashable."""

    __slots__ = ()

    def json_form(self) -> dict:
        return {"hypothesis": self.hypothesis, "subset": self.subset, "certificates": self.certificates}

    def to_json(self) -> dict:
        return _plain_json(self.json_form())


def attach_diagram(C: StringComplex, grid: GridDiagram) -> Attachment:
    """Attach the image of a grid to a complex, certifying every shuffle step.

    Returns the hypothesis report with the result.  When the image is
    already contained in ``C`` the complex is returned unchanged with no
    certificates.  Otherwise ``C`` must be saturated (raises
    :class:`HypothesisError` otherwise), and the shuffles are processed in
    ``enumerate_shuffles`` order, a linear extension of the poset order.
    For each shuffle whose simplex is new, the certificate records that the
    excluded faces are endpoint-containing with isolated horizontal-vertical
    gaps, nondegenerate, not yet present, and pairwise distinguishable by
    class fingerprints, hence by canonical forms.  The result is exactly
    ``C`` united with the grid image.  One ``path_cores`` walk serves the
    report and the attachment; the excluded faces are read off the face
    cores of the path cores and the image is their face closure.  ``C``
    need not be face-closed, so the closure walks stop only at faces they
    visit.  Every call, a no-op one too, builds the report: it checks all
    of ``C`` for saturation and closes the boundary image, at ``O(|C|)``.
    """
    paths = path_cores(grid)
    hypothesis = _attachment_hypothesis(C, grid, paths)
    D = StringComplex.closure(z for z, _ in paths)
    if D <= C:
        return Attachment(hypothesis, C, ())
    if not hypothesis["saturated"]:
        raise HypothesisError("complex is not saturated")

    def anomaly(message, witness):
        # with the boundary inside C these conditions are forced facts;
        # without it they just witness the unmet hypothesis
        if hypothesis["boundary_contained"]:
            raise CertificateError(message, witness)
        raise HypothesisError(f"{message} (the grid boundary image is not contained in the complex)")

    current = set(C)
    records, _ = attach_walk(current, grid, paths, anomaly, set(), {})
    result = StringComplex(current)
    if result != C | D:
        raise CertificateError("attachment result is not the union with the image")
    return Attachment(hypothesis, result, tuple(records))
