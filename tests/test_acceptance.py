"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Two
criteria (5 and the precedence half of 7) fail on mathematically forced
counterexamples; the failures print their witnesses.  See the README's
"known failing checks" section.
"""

import json
import math
import pathlib
import random
import time

import pytest

from finsimp import (
    FinMap,
    MapString,
    canonicalize,
    complete_from_staircase,
    defect,
    defect_subcomplex,
    degeneracy,
    enumerate_shuffles,
    excess_strings,
    face,
    horn_certificate,
    match_excess,
    order_excess,
    present,
    saturate,
    verify_skeleton,
)
from finsimp.errors import CertificateError, StaircaseDefectError
from finsimp.finmap import all_maps
from finsimp.strings import enumerate_nondegenerate, serialize

from helpers import are_isomorphic, is_maximal, le, random_relabeling, random_string, raw_strings, relabel
from test_presentation import _raw_corner_count

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _report(num, ok, desc, extra=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if extra:
        line += f" ({extra})"
    print(line)


def test_criterion_1_shuffle_census():
    t0 = time.monotonic()
    checked = 0
    for r in range(1, 8):
        for s in range(1, 9 - r):
            shs = enumerate_shuffles(r, s)
            assert len(shs) == math.comb(r + s, s)
            mins = [a for a in shs if all(le(a, b) for b in shs)]
            maxs = [a for a in shs if all(le(b, a) for b in shs)]
            assert mins == [shs[0]] and maxs == [shs[-1]]
            assert shs[0] == "H" * r + "V" * s and shs[-1] == "V" * s + "H" * r
            checked += len(shs)
    elapsed = time.monotonic() - t0
    ok = elapsed < 10
    _report(1, ok, f"shuffle census, {checked} shuffles over r+s <= 8", f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_horn_certificate_sweep():
    t0 = time.monotonic()
    failures = []
    total = 0
    for r in range(1, 7):
        for s in range(1, 8 - r):
            for sh in enumerate_shuffles(r, s):
                total += 1
                try:
                    cert = horn_certificate(sh)
                except CertificateError as exc:  # pragma: no cover
                    failures.append((sh, str(exc)))
                    continue
                if (cert.kind == "boundary") != is_maximal(sh):
                    failures.append((sh, "wrong kind"))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120
    _report(2, ok, f"horn certificates for {total} shuffles, r+s <= 7", f"{elapsed:.1f}s")
    assert ok, failures


def test_criterion_3_defect_monotonicity():
    t0 = time.monotonic()
    checked = 0
    for level in enumerate_nondegenerate(3, 4):
        for z in level:
            d = defect(z)
            assert d >= max(z.cards())
            for i in range(z.degree + 1):
                if z.degree >= 1:
                    assert defect(face(z, i)) <= d
                assert defect(degeneracy(z, i)) == d
            if z.degree >= 1:
                assert defect(saturate(z)) == d
            checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _report(3, ok, f"defect monotonicity and bounds on {checked} strings, cards <= 3, degree <= 4", f"{elapsed:.1f}s")
    assert ok


def test_criterion_4_dual_construction():
    t0 = time.monotonic()
    sizes = {}
    for alpha in (1, 2, 3):
        for empty in (False, True):
            # raises DualConstructionError on any disagreement
            C = defect_subcomplex(alpha, allow_empty=empty)
            sizes[(alpha, empty)] = len(C)
    assert sizes[(1, False)] == 1 and sizes[(1, True)] == 3
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    _report(4, ok, "defect enumeration equals grid-image union, alpha in 1..3, both conventions", f"{elapsed:.1f}s")
    assert ok


def _staircases(max_card, max_degree):
    """Canonical alternating proper strings of even degree."""
    seen = set()

    def extend(z):
        if z.degree % 2 == 0:
            seen.add(canonicalize(z))
        if z.degree >= max_degree:
            return
        last = z.cards()[-1]
        if z.degree % 2 == 0:
            for src in range(1, last):
                for f in all_maps(src, last):
                    if f.is_injective:
                        extend(MapString(z.card0, z.maps + (f,)))
        else:
            for src in range(last + 1, max_card + 1):
                for f in all_maps(src, last):
                    if f.is_surjective:
                        extend(MapString(z.card0, z.maps + (f,)))

    for c in range(1, max_card + 1):
        extend(MapString(c))
    return sorted(seen, key=MapString.sort_key)


def test_criterion_5_staircase_completion():
    t0 = time.monotonic()
    failures = []
    stairs = _staircases(3, 4)
    for st in stairs:
        try:
            complete_from_staircase(st)
        except StaircaseDefectError as exc:
            failures.append(exc.witness)
    elapsed = time.monotonic() - t0
    ok = not failures
    _report(
        5,
        ok,
        f"equal-defect completion for {len(stairs)} staircases, cards <= 3, degree <= 4",
        f"{len(failures)} failures, {elapsed:.1f}s",
    )
    for w in failures:
        print(f"    obstructed staircase {w['staircase']}: {w['violations']}")
    assert ok, (
        f"{len(failures)} staircases admit no equal-defect completion; "
        "the all-shuffles condition is unattainable for them "
        "(see the ledger and README)"
    )


def test_criterion_6_presentation_replay():
    t0 = time.monotonic()
    golden = json.loads((FIXTURES / "present_counts.json").read_text())
    for alpha in (1, 2):
        skel = present(alpha)
        assert skel.complex == defect_subcomplex(alpha)
        assert verify_skeleton(skel)
        assert skel.counts() == golden[f"{alpha}:noempty"]
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    _report(6, ok, "presentation replay reproduces the complex, certificates re-verify", f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_matching():
    t0 = time.monotonic()
    for alpha in (2, 3):
        profiles = excess_strings(alpha, 5)
        matching = match_excess(profiles, alpha, 5)  # raises on any invariant failure
        assert matching.pairs
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    _report(
        7,
        ok,
        "matching bijective per degree with unique inner face indices, alpha in {2,3}, bound 5",
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_ordering():
    t0 = time.monotonic()
    violations = {}
    for alpha in (2, 3):
        profiles = excess_strings(alpha, 5)
        try:
            order_excess(profiles, alpha)
        except CertificateError as exc:
            violations[alpha] = exc.witness
    elapsed = time.monotonic() - t0
    ok = not violations
    _report(7, ok, "precedence audit of the lexicographic weight order", f"{elapsed:.1f}s")
    for alpha, w in violations.items():
        print(f"    alpha={alpha}: face {w['face']} of {w['string']}")
        print(f"      partner {w.get('partner')} has weight {w.get('partner_weight')} >= {w.get('weight')}")
    assert ok, (
        "the weight order fails its precedence property on the printed "
        "witnesses (see the ledger and README)"
    )


def test_criterion_8_canonicalization():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    for _ in range(1000):
        z = random_string(rng, max_degree=5, max_card=4)
        w = relabel(z, random_relabeling(rng, z))
        assert canonicalize(w) == canonicalize(z), serialize(z)
    checked = 0
    for z in raw_strings(3, 3):
        zc = canonicalize(z)
        assert are_isomorphic(z, zc), serialize(z)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    _report(
        8,
        ok,
        f"1000 relabeling trials plus class membership on {checked} exhaustive strings",
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_generator_finiteness():
    t0 = time.monotonic()
    counts = {}
    for alpha in (1, 2, 3):
        counts[alpha] = len(present(alpha).generators)
        assert counts[alpha] == _raw_corner_count(alpha)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    _report(9, ok, f"generator census matches raw corner census: {counts}", f"{elapsed:.1f}s")
    assert ok
