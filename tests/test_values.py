"""The value classes keep the equality, hash, repr and read-only fields they
had as frozen dataclasses, and the later ``Attachment`` has them too (it is
unhashable, as the tuple of its fields is), ``StringComplex`` is a plain
frozenset of its members, and the package imports none of ``dataclasses``,
``inspect`` and ``typing``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import finsimp
from finsimp import FinMap, MapString, StringComplex
from finsimp.grids import CornerData, GridDiagram, boundary_image, enumerate_corner_grids
from finsimp.presentation import ExcessProfile, Generator, Matching, PresentationSkeleton
from finsimp.presentation import excess_strings, match_excess, present
from finsimp.shuffles import Attachment, AttachmentCertificate, HornCertificate, _shuffles
from finsimp.shuffles import attach_diagram, horn_certificate

# Each former dataclass with its fields, in order, and the Attachment that
# attach_diagram returns.  A Generator reads its r and s off its grid.
FIELDS = {
    MapString: ("card0", "maps"),
    GridDiagram: ("r", "s", "cards", "horiz", "vert"),
    CornerData: ("corner_card", "top", "left"),
    HornCertificate: ("sigma", "kind", "S", "facets"),
    AttachmentCertificate: ("sigma", "status", "kind", "S", "excluded"),
    Generator: ("corner", "grid", "records"),
    PresentationSkeleton: ("alpha", "allow_empty", "complex", "generators"),
    ExcessProfile: ("string", "excess_defect", "inj_run", "surj_run", "side"),
    Matching: ("alpha", "degree_bound", "pairs", "per_degree"),
    Attachment: ("hypothesis", "subset", "certificates"),
}


def _samples():
    skel = present(2)
    gen = skel.generators[-1]
    profiles = excess_strings(2, 4)
    z, s, r, grid, _ = next(e for e in enumerate_corner_grids(2) if e[1] and e[2])
    return [
        gen.corner,
        MapString(1),
        grid,
        CornerData(2, (FinMap(1, 2, (1,)),), (FinMap(2, 1, (0, 0)),)),
        CornerData(1),
        horn_certificate("HVHV"),
        gen.records[0],
        AttachmentCertificate("HV", "already-present"),
        gen,
        skel,
        profiles[0],
        match_excess(profiles, 2, 4),
        attach_diagram(boundary_image(grid), grid),
    ]


SAMPLES = _samples()
HASHABLE = [v for v in SAMPLES if type(v) is not Attachment]


def _fields(v) -> tuple:
    return tuple(getattr(v, name) for name in FIELDS[type(v)])


def test_every_former_dataclass_is_sampled():
    assert {type(v) for v in SAMPLES} == set(FIELDS)
    for cls, names in FIELDS.items():
        assert cls.__match_args__ == names
    # a shuffle is its move word, with no value class of its own
    words = _shuffles(2, 2)
    assert type(words) is tuple and all(type(w) is str for w in words)
    # a generator's shape is its grid's, not a field of its own
    gen = next(v for v in SAMPLES if type(v) is Generator)
    assert (gen.r, gen.s) == (gen.grid.r, gen.grid.s)


@pytest.mark.parametrize("v", HASHABLE, ids=lambda v: type(v).__name__)
def test_hash_is_the_hash_of_the_field_tuple(v):
    # the generated dataclass hash, so set and dict orders cannot move
    assert hash(v) == hash(_fields(v))


def test_an_attachment_is_unhashable():
    # its hypothesis report is a dict
    v = next(v for v in SAMPLES if type(v) is Attachment)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(v)


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_equality_compares_the_fields(v):
    cls = type(v)
    twin = cls(*_fields(v))
    assert twin is not v and twin == v and not twin != v
    if cls is not Attachment:
        assert hash(twin) == hash(v)
    assert v != object() and v != None  # noqa: E711


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_repr_is_the_dataclass_repr(v):
    names = FIELDS[type(v)]
    body = ", ".join(f"{name}={getattr(v, name)!r}" for name in names)
    assert repr(v) == f"{type(v).__qualname__}({body})"


def test_repr_examples():
    assert repr(AttachmentCertificate("HV", "already-present")) == (
        "AttachmentCertificate(sigma='HV', status='already-present', kind=None, S=(), excluded=())"
    )
    assert repr(MapString(2, (FinMap(1, 2, (1,)),))) == (
        "MapString(card0=2, maps=(FinMap(src=1, dst=2, img=(1,)),))"
    )
    assert repr(CornerData(1)) == "CornerData(corner_card=1, top=(), left=())"


@pytest.mark.parametrize("v", SAMPLES, ids=lambda v: type(v).__name__)
def test_fields_are_read_only(v):
    before = _fields(v)
    for name in FIELDS[type(v)]:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert not hasattr(v, "__dict__")
    assert _fields(v) == before


def test_constructors_keep_their_checks_and_conversions():
    from finsimp.errors import InputError

    with pytest.raises(InputError, match="bad move word 'HX'"):
        horn_certificate("HX")
    with pytest.raises(InputError, match="negative card0: -1"):
        MapString(-1)
    with pytest.raises(InputError, match=r"maps\[0\]: dst=2 does not match previous cardinality 1"):
        MapString(1, [FinMap(1, 2, (0,))])
    z = MapString(2, [FinMap(1, 2, (1,))])
    assert type(z.maps) is tuple and z == MapString(2, (FinMap(1, 2, (1,)),))
    assert StringComplex({z}) == StringComplex([z])
    assert AttachmentCertificate("HV", "attached") == AttachmentCertificate("HV", "attached", None, (), ())


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(finsimp.__file__).resolve().parent.parent
    code = (
        "import sys; before = set(sys.modules); import finsimp.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    # -S: a .pth file that site runs may import typing before the check
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_string_complex_is_a_frozenset():
    C = present(2).complex
    assert isinstance(C, frozenset) and C
    assert StringComplex.__slots__ == () and not hasattr(C, "__dict__")
    assert C == frozenset(C) and hash(C) == hash(frozenset(C))
    closed = StringComplex.closure([max(C, key=MapString.sort_key)])
    assert type(closed) is StringComplex and closed <= C
    assert repr(StringComplex()) == "StringComplex()"
