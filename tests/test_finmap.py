import itertools
import random

import pytest
from hypothesis import given, strategies as st

from finsimp import FinMap, MapClass, classify, compose, epi_mono_factor, identity
from finsimp.errors import InputError
from finsimp.finmap import MAX_CARD, all_maps, from_json
from helpers import assert_rebuilds


def maps_up_to(n):
    for src in range(n + 1):
        for dst in range(n + 1):
            yield from all_maps(src, dst)


def test_compose_identity_post():
    g = FinMap(2, 2, (0, 1))
    f = FinMap(3, 2, (0, 0, 1))
    assert compose(g, f) == f


def test_compose_collapse():
    g = FinMap(2, 1, (0, 0))
    f = FinMap(1, 2, (1,))
    assert compose(g, f) == FinMap(1, 1, (0,))


def test_compose_dimension_mismatch():
    with pytest.raises(InputError):
        compose(FinMap(2, 2, (0, 1)), FinMap(1, 3, (2,)))


@given(st.data())
def test_compose_elementwise_oracle(data):
    mid = data.draw(st.integers(0, 4))
    src = data.draw(st.integers(0, 4))
    dst = data.draw(st.integers(1, 4))
    if mid == 0:
        src = 0
    f = FinMap(src, mid, tuple(data.draw(st.integers(0, mid - 1)) for _ in range(src)))
    g = FinMap(mid, dst, tuple(data.draw(st.integers(0, dst - 1)) for _ in range(mid)))
    h = compose(g, f)
    for x in range(src):
        assert h(x) == g(f(x))


@pytest.mark.parametrize(
    "f,expected",
    [
        (FinMap(2, 2, (1, 0)), MapClass.BIJECTIVE),
        (FinMap(1, 2, (1,)), MapClass.PROPER_INJECTIVE),
        (FinMap(3, 2, (0, 0, 1)), MapClass.PROPER_SURJECTIVE),
        (FinMap(2, 2, (0, 0)), MapClass.NEITHER),
        (FinMap(0, 0, ()), MapClass.BIJECTIVE),
        (FinMap(0, 2, ()), MapClass.PROPER_INJECTIVE),
    ],
)
def test_classify(f, expected):
    assert classify(f) is expected


def test_classify_agrees_with_properties_exhaustive():
    # classify counts the image once; the properties each count it again
    by_properties = {
        (True, True): MapClass.BIJECTIVE,
        (True, False): MapClass.PROPER_INJECTIVE,
        (False, True): MapClass.PROPER_SURJECTIVE,
        (False, False): MapClass.NEITHER,
    }
    for f in maps_up_to(4):
        assert classify(f) is by_properties[f.is_injective, f.is_surjective], f


def test_epi_mono_examples():
    epi, mono = epi_mono_factor(FinMap(3, 3, (0, 0, 2)))
    assert epi == FinMap(3, 2, (0, 0, 1))
    assert mono == FinMap(2, 3, (0, 2))
    for n in range(4):
        assert epi_mono_factor(identity(n)) == (identity(n), identity(n))


def test_epi_mono_recompose_exhaustive():
    for f in maps_up_to(4):
        epi, mono = epi_mono_factor(f)
        assert compose(mono, epi) == f
        assert mono.is_injective and epi.is_surjective
        assert mono.img == tuple(sorted(mono.img))


def test_epi_mono_unique_with_ordered_mono():
    # sizes <= 3 exhaustively: only one (epi, ordered mono) pair recomposes
    for f in maps_up_to(3):
        count = 0
        for k in range(f.dst + 1):
            for img in itertools.combinations(range(f.dst), k):
                mono = FinMap(k, f.dst, img)
                for epi in all_maps(f.src, k):
                    if epi.is_surjective and compose(mono, epi) == f:
                        count += 1
        assert count == 1, f


def test_compose_associative_exhaustive_small():
    # sizes <= 3 exhaustively; size 4 is covered by the randomized check
    maps3 = list(maps_up_to(3))
    by_src = {}
    for m in maps3:
        by_src.setdefault(m.src, []).append(m)
    for f in maps3:
        for g in by_src.get(f.dst, []):
            for h in by_src.get(g.dst, []):
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@given(st.data())
def test_compose_associative_random_size4(data):
    dims = [data.draw(st.integers(1, 4)) for _ in range(4)]
    f = FinMap(dims[0], dims[1], tuple(data.draw(st.integers(0, dims[1] - 1)) for _ in range(dims[0])))
    g = FinMap(dims[1], dims[2], tuple(data.draw(st.integers(0, dims[2] - 1)) for _ in range(dims[1])))
    h = FinMap(dims[2], dims[3], tuple(data.draw(st.integers(0, dims[3] - 1)) for _ in range(dims[2])))
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_class_composition_closure():
    for f in maps_up_to(3):
        for g in maps_up_to(3):
            if f.dst != g.src:
                continue
            h = compose(g, f)
            if f.is_injective and g.is_injective:
                assert h.is_injective
            if f.is_surjective and g.is_surjective:
                assert h.is_surjective


def test_invalid_maps_rejected():
    with pytest.raises(InputError):
        FinMap(2, 2, (0, 2))
    with pytest.raises(InputError):
        FinMap(2, 0, (0, 0))
    with pytest.raises(InputError):
        FinMap(3, 2, (0, 1))


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        src, dst = rng.randint(0, 4), rng.randint(1, 4)
        f = FinMap(src, dst, tuple(rng.randrange(dst) for _ in range(src)))
        assert from_json(f.to_json()) == f


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({"src": 2, "dst": 2}, "img"),
        ({"src": 2, "dst": 2, "img": [0, "x"]}, "img"),
        ({"src": "a", "dst": 2, "img": []}, "src"),
        ({"src": 2, "dst": 2, "img": [0, 5]}, "img[1]"),
    ],
)
def test_json_diagnostics_name_fields(obj, fragment):
    with pytest.raises(InputError, match=None) as exc:
        from_json(obj)
    assert fragment in str(exc.value)


def test_json_cardinalities_are_bounded():
    assert from_json({"src": 0, "dst": MAX_CARD, "img": []}) == FinMap(0, MAX_CARD, ())
    for field in ("src", "dst"):
        # refused before the image is read, so nothing of that size is built
        obj = {"src": 0, "dst": 1, "img": []} | {field: MAX_CARD + 1}
        with pytest.raises(InputError, match=f"map.{field}: {MAX_CARD + 1} exceeds the cardinality bound {MAX_CARD}"):
            from_json(obj)


# Maps derived from valid maps are built without validation; each must equal
# what the validating constructor builds from its fields.


def test_trusted_maps_rebuild_through_the_public_constructor():
    for n in range(6):
        assert_rebuilds(identity(n))
    for f in maps_up_to(3):
        for part in epi_mono_factor(f):
            assert_rebuilds(part)
        for g in maps_up_to(3):
            if f.dst == g.src:
                assert_rebuilds(compose(g, f))


@given(st.data())
def test_trusted_maps_rebuild_random(data):
    dims = [data.draw(st.integers(1, 6)) for _ in range(3)]
    f = FinMap(dims[0], dims[1], tuple(data.draw(st.integers(0, dims[1] - 1)) for _ in range(dims[0])))
    g = FinMap(dims[1], dims[2], tuple(data.draw(st.integers(0, dims[2] - 1)) for _ in range(dims[1])))
    assert_rebuilds(compose(g, f))
    for part in epi_mono_factor(compose(g, f)):
        assert_rebuilds(part)


def test_finmap_is_its_field_tuple():
    f = FinMap(2, 3, (0, 2))
    assert hash(f) == hash((f.src, f.dst, f.img)) == hash((2, 3, (0, 2)))
    assert repr(f) == "FinMap(src=2, dst=3, img=(0, 2))"
    assert FinMap.__match_args__ == ("src", "dst", "img")
    assert FinMap(src=2, dst=3, img=(0, 2)) == f
    match f:
        case FinMap(src, dst, img):
            assert (src, dst, img) == (2, 3, (0, 2))
    with pytest.raises(AttributeError):
        f.src = 3
    assert not hasattr(f, "__dict__")


def test_public_constructor_converts_a_list_image():
    f = FinMap(3, 2, [1, 0, 1])
    assert type(f.img) is tuple and f == FinMap(3, 2, (1, 0, 1))


@pytest.mark.parametrize(
    "args,message",
    [
        ((-1, 2, ()), "negative cardinality: src=-1, dst=2"),
        ((2, -1, (0, 0)), "negative cardinality: src=2, dst=-1"),
        ((2, 2, (0,)), "img has length 1, expected src=2"),
        ((2, 2, [0, 1, 1]), "img has length 3, expected src=2"),
        ((3, 2, (0, -1, 5)), "img[1]=-1 out of range [0, 2)"),
        ((3, 2, (1, 0, 2)), "img[2]=2 out of range [0, 2)"),
        ((2, 0, (0, 0)), "img[0]=0 out of range [0, 0)"),
        ((2, 2, [1, 2]), "img[1]=2 out of range [0, 2)"),
    ],
)
def test_public_constructor_keeps_its_messages(args, message):
    with pytest.raises(InputError) as exc:
        FinMap(*args)
    assert str(exc.value) == message


def test_identity_refuses_a_negative_cardinality():
    with pytest.raises(InputError, match="negative cardinality: src=-1, dst=-1"):
        identity(-1)
