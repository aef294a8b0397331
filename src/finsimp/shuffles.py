"""Shuffles of a cell prism, horn certificates, and diagram attachment.

An ``(r,s)``-shuffle is a monotone lattice path from ``(0,0)`` to ``(r,s)``,
stored as a move word over ``H`` (step right) and ``V`` (step up); these
index the top-dimensional simplices of the prism of two standard simplices.
The poset order compares the running count of ``V`` moves prefix by prefix.
Attaching a grid image to a string complex walks the shuffles in a linear
extension of this order and certifies, for each one, that the fresh part
glues along an inner generalized horn (or a boundary sphere for the last
shuffle).

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

``attach_walk`` is the attachment of one grid: it adds the face closure of
each new path core to a member set the caller owns, reads the core of each
excluded face off the face cores, and returns the records and the members
it added, so a caller that replays many grids pays for each grid, not for
the complex.  What depends on the move word alone, the checks of its past
and its horn and its two records, sits in a per-word plan in a dict the
caller also owns, so a replay certifies each word once and every grid
shares its records.  ``attach_diagram`` wraps it for one grid and an
arbitrary complex, with plans of its own: it checks the saturation of
every member, lets each closure stop only at faces it has visited itself
(the complex need not be face-closed), and checks that the result is the
union of the complex and the grid image.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import CertificateError, HypothesisError, InputError
from .finmap import MapClass, _plain_json, classify
from .grids import GridDiagram, boundary_cores, is_saturated, path_cores
from .strings import MapString, StringComplex, face_closure, face_cores


class Shuffle(namedtuple("Shuffle", "word")):
    """A lattice path encoded by its move word, e.g. ``"HVH"``."""

    __slots__ = ()

    def __new__(cls, word: str):
        if any(ch not in "HV" for ch in word):
            raise InputError(f"bad move word {word!r}")
        return tuple.__new__(cls, (word,))

    @property
    def r(self) -> int:
        return self.word.count("H")

    @property
    def s(self) -> int:
        return self.word.count("V")

    def path(self) -> tuple[tuple[int, int], ...]:
        out = [(0, 0)]
        i = j = 0
        for ch in self.word:
            if ch == "H":
                i += 1
            else:
                j += 1
            out.append((i, j))
        return tuple(out)

    def heights(self) -> tuple[int, ...]:
        """Running V-count per prefix; the coordinates of the poset order."""
        out = [0]
        for ch in self.word:
            out.append(out[-1] + (ch == "V"))
        return tuple(out)

    def le(self, other: "Shuffle") -> bool:
        if (self.r, self.s) != (other.r, other.s):
            raise InputError("shuffles of different shapes are incomparable")
        return all(a <= b for a, b in zip(self.heights(), other.heights()))

    def is_minimal(self) -> bool:
        return self.word == "H" * self.r + "V" * self.s

    def is_maximal(self) -> bool:
        return self.word == "V" * self.s + "H" * self.r


def enumerate_shuffles(r: int, s: int) -> list[Shuffle]:
    """All C(r+s, s) shuffles in a linear extension of the poset order.

    Ascending lexicographic order on move words with ``H < V`` refines the
    poset: at the first differing position the poset-smaller word shows the
    ``H``.  The minimal shuffle comes first, the maximal one last.  Each
    call returns a fresh list of the shuffles ``_shuffles`` keeps.
    """
    if r < 0 or s < 0:
        raise InputError("r and s must be >= 0")
    return list(_shuffles(r, s))


@lru_cache(maxsize=None)
def _shuffles(r: int, s: int) -> tuple[Shuffle, ...]:
    """The shuffles of ``enumerate_shuffles(r, s)``, for ``r, s >= 0``,
    built once per shape and shared by the grid walks and attachments."""
    words = []
    for v_positions in itertools.combinations(range(r + s), s):
        letters = ["H"] * (r + s)
        for p in v_positions:
            letters[p] = "V"
        words.append("".join(letters))
    words.sort()
    return tuple(Shuffle(w) for w in words)


def hasse_edges(r: int, s: int) -> list[tuple[str, str]]:
    """Covering pairs of the shuffle poset (one ``HV`` swapped to ``VH``)."""
    out = []
    for sh in enumerate_shuffles(r, s):
        w = sh.word
        for k in range(len(w) - 1):
            if w[k] == "H" and w[k + 1] == "V":
                out.append((w, w[:k] + "VH" + w[k + 2 :]))
    return sorted(out)


def poset_dot(r: int, s: int) -> str:
    """DOT rendering of the shuffle poset's Hasse diagram."""
    lines = ["digraph shuffles {"]
    for sh in enumerate_shuffles(r, s):
        lines.append(f'  "{sh.word}";')
    for a, b in hasse_edges(r, s):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    """The faces of a shuffle simplex outside its past, by size then
    lexicographically.

    A face is a nonempty set of positions ``0..n`` on the path, handled as a
    bitmask.  It lies in the past when its chain lies in the prism boundary,
    that is when it misses every position of some row value or column
    value, or when it lies on the path of a strictly smaller shuffle ``tau``.
    Both paths have one cell per antidiagonal, so they share the cell at
    position ``x`` exactly when their heights agree there, and the face lies
    on ``tau``'s path exactly when it avoids every other position.  An
    excluded face therefore hits each of these masks: the row masks, the
    column masks and, per ``tau``, the positions off ``tau``'s path.

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
    sigma = Shuffle(word)
    r, s = sigma.r, sigma.s
    n = r + s
    full = (1 << (n + 1)) - 1
    path = sigma.path()
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


def horn_certificate(sigma: Shuffle) -> HornCertificate:
    """Certify the attachment shape of one shuffle simplex.

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
    """
    r, s = sigma.r, sigma.s
    if r < 1 or s < 1:
        raise InputError("horn certificates need r >= 1 and s >= 1")
    n = r + s
    full = (1 << (n + 1)) - 1
    excluded = {sum(1 << x for x in idx) for idx in _excluded_faces(sigma.word)}
    if full not in excluded:
        raise CertificateError("shuffle simplex lies in its own past", witness=sigma.word)
    S = tuple(i for i in range(n + 1) if full & ~(1 << i) not in excluded)
    if sigma.is_maximal():
        if excluded != {full}:
            raise CertificateError(
                "maximal shuffle overlap is not the boundary sphere", witness=sigma.word
            )
        kind = "boundary"
    else:
        S_mask = sum(1 << i for i in S)
        supersets = (1 << (n + 1 - len(S))) - (0 if S else 1)
        if len(excluded) != supersets or any(e & S_mask != S_mask for e in excluded):
            raise CertificateError(
                "overlap is not the union of its codimension-one faces", witness=sigma.word
            )
        if not is_inner_generalized_horn(set(S), n):
            raise CertificateError(
                "facet index set is an interval", witness={"sigma": sigma.word, "S": sorted(S)}
            )
        kind = "inner"
    # ascending tuple order drops the positions of S in descending order
    facets = tuple(tuple(x for x in range(n + 1) if x != i) for i in reversed(S))
    return HornCertificate(sigma.word, kind, S, facets)


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


def _gap_pattern_checks(sigma: Shuffle, T: tuple[int, ...]) -> None:
    """Endpoint and gap-move conditions (checks ``a`` and ``b``) on T."""
    n = sigma.r + sigma.s
    word = sigma.word
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


def _recover_gaps(sigma: Shuffle, face_string: MapString, T: tuple[int, ...]) -> None:
    """Check that the map classes of the face string determine T.

    Along an excluded face, single moves stay properly injective (H) or
    properly surjective (V) while each composed gap becomes neither; the
    class pattern of the face string therefore pins down T exactly.  The
    face string has ``len(T) - 1`` maps (``attach_walk`` checks its
    degree), so a class check per step covers every position of T, and,
    with 0 in T, two excluded faces of one size never share a core.
    """
    word = sigma.word
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


def attachment_hypothesis(C: StringComplex, grid: GridDiagram) -> dict:
    """Report how far C satisfies the attachment hypotheses for a grid.

    ``corner_faces_in_complex`` records membership for every proper face of
    the grid's corner string; faces that are missing get added while the
    shuffles are walked, so the report, not a hard failure, is the honest
    answer when only some of them are present.
    """
    return _attachment_hypothesis(C, grid, path_cores(grid))


def _attachment_hypothesis(C: StringComplex, grid: GridDiagram, paths) -> dict:
    """``attachment_hypothesis`` with ``paths = path_cores(grid)`` given."""
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


def _certify_word(sigma: Shuffle) -> tuple[AttachmentCertificate, tuple, tuple]:
    """The checks of ``attach_walk`` that read the word alone: the simplex
    lies outside its own past, checks ``a`` and ``b`` on each proper
    excluded face, and the horn certificate, or the sphere of a
    single-row/column grid.  Returns the ``attached``, ``proper`` and
    ``reads`` fields of the word's plan."""
    n = len(sigma.word)
    full = tuple(range(n + 1))
    excluded = _excluded_faces(sigma.word)
    if full not in excluded:
        raise CertificateError(
            "new shuffle simplex lies in its own past",
            witness={"sigma": sigma.word, "excluded": [list(T) for T in excluded]},
        )
    proper = tuple(idx for idx in excluded if idx != full)
    for T in proper:
        _gap_pattern_checks(sigma, T)
    if sigma.r and sigma.s:
        cert = horn_certificate(sigma)
        kind, S = cert.kind, cert.S
    else:
        # a single-row/column grid: sphere attachment
        if proper:
            raise CertificateError(
                "maximal shuffle has excluded proper faces",
                witness={"sigma": sigma.word},
            )
        kind, S = "boundary", full if n else ()
    # with x the first position missing from T, the larger superset
    # T + {x} of S is excluded and read first; x is also its index there
    reads = []
    for T in reversed(proper):
        x = next(k for k, t in enumerate(T) if k != t)
        reads.append((T, T[:x] + (x,) + T[x:], x))
    record = AttachmentCertificate(sigma.word, "attached", kind, S, tuple(sorted(proper)))
    return record, proper, tuple(reads)


def attach_walk(
    current: set[MapString],
    cores: dict[str, MapString],
    order: tuple[Shuffle, ...] | list[Shuffle],
    anomaly,
    stop: set[MapString],
    plans: dict[str, _Plan],
) -> tuple[list[AttachmentCertificate], list[MapString]]:
    """Attach the shuffle simplices of a grid to the member set ``current``
    in place, in ``order``, certifying every one that is new.

    ``cores`` maps each move word to the interned core of its path's
    restriction.  ``anomaly(message, witness)`` raises for a condition
    that the attachment hypotheses force.  The face closure of each new
    path core stops at the members of ``stop``, a face-closed set that
    grows with each closure; ``stop`` is ``current`` itself when
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
    for sigma in order:
        plan = plans.get(sigma.word)
        if plan is None:
            present = AttachmentCertificate(sigma.word, "already-present")
            plan = plans[sigma.word] = _Plan(present, None, None, None)
        z = cores[sigma.word]
        if z in current:
            records.append(plan.present)
            continue
        n = len(sigma.word)
        # a string is nondegenerate exactly when its core keeps its degree
        if z.degree != n:
            anomaly(
                "new shuffle simplex is degenerate but its core is missing",
                {"sigma": sigma.word},
            )
        if plan.attached is None:
            plan = plans[sigma.word] = _Plan(plan.present, *_certify_word(sigma))
        read = {tuple(range(n + 1)): z}
        for T, above, x in plan.reads:
            w = read[T] = face_cores(read[above])[x]
            if w.degree != len(T) - 1:
                raise CertificateError(
                    "excluded proper face is degenerate",
                    witness={"sigma": sigma.word, "T": list(T)},
                )
        for T in plan.proper:
            if read[T] in current:
                anomaly(
                    "excluded face already lies in the complex",
                    {"sigma": sigma.word, "T": list(T)},
                )
        # map classes survive relabeling, so the canonical core of a
        # nondegenerate face string carries the same class pattern
        for T in plan.proper:
            _recover_gaps(sigma, read[T], T)
        closure = face_closure([z], stop)
        fresh = [w for w in closure if w not in current]
        stop |= closure
        current.update(fresh)
        added += fresh
        records.append(plan.attached)
    return records, added


def attach_diagram(
    C: StringComplex,
    grid: GridDiagram,
    order: list[Shuffle] | None = None,
) -> tuple[StringComplex, list[AttachmentCertificate]]:
    """Attach the image of a grid to a complex, certifying every shuffle step.

    Requires ``C`` saturated (raises :class:`HypothesisError` otherwise).
    When the image is already contained in ``C`` the complex is returned
    unchanged with no certificates.  Otherwise shuffles are processed in a
    linear extension of the poset order; for each shuffle whose simplex is
    new, the certificate records that the excluded faces are endpoint-
    containing with isolated horizontal-vertical gaps, nondegenerate, not
    yet present, and pairwise distinguishable by class fingerprints, hence
    by canonical forms.  The result is exactly ``C`` united with the grid
    image, independent of the chosen linear extension.  Each shuffle path
    is restricted and cored once; the excluded faces are read off the face
    cores of those cores and the image is their face closure.  ``C`` need
    not be face-closed, so the closure walks stop only at faces they visit.
    """
    return _attach_diagram(C, grid, order, path_cores(grid))


def _attach_diagram(
    C: StringComplex,
    grid: GridDiagram,
    order: list[Shuffle] | None,
    paths,
) -> tuple[StringComplex, list[AttachmentCertificate]]:
    """``attach_diagram`` with ``paths = path_cores(grid)`` given."""
    shuffles = _shuffles(grid.r, grid.s)
    cores = {sh.word: z for sh, (z, _) in zip(shuffles, paths)}
    D = StringComplex.closure(cores.values())
    if D <= C:
        return C, []
    if not is_saturated(C):
        raise HypothesisError("complex is not saturated")

    def anomaly(message, witness):
        # with the boundary inside C these conditions are forced facts;
        # without it they just witness the unmet hypothesis
        if StringComplex.closure(boundary_cores(grid, paths)) <= C:
            raise CertificateError(message, witness)
        raise HypothesisError(
            f"{message} (the grid boundary image is not contained in the complex)"
        )

    if order is None:
        order = shuffles
    else:
        seen: list[Shuffle] = []
        for sh in order:
            if any(sh.le(prev) and sh != prev for prev in seen):
                raise InputError("order is not a linear extension of the shuffle poset")
            seen.append(sh)
        if sorted(sh.word for sh in seen) != [sh.word for sh in shuffles]:
            raise InputError("order must list every shuffle exactly once")
    current = set(C)
    records, _ = attach_walk(current, cores, order, anomaly, set(), {})
    result = StringComplex(current)
    if result != C | D:
        raise CertificateError("attachment result is not the union with the image")
    return result, records
