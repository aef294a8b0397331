"""Seeded inputs for the ``attach-wide`` workload.

Each input is a grid completed from nondegenerate corner data with corner
cardinality 6, written next to its own boundary image as the subset.  The
boundary image of such a grid is saturated and holds the grid's boundary,
so ``finsimp attach`` accepts every input by construction (the same
pattern as ``test_attach_sweep_from_boundary_closure``).

One pass attaches one grid of each shape ``(r, s)`` with ``r + s <= 4``.
The isomorphism class of each corner is fixed below; the seed draws a
random labelling of every set of the corner.  Equivalent inputs cost the
same canonicalization work and give byte-identical output, so the pass
time does not depend on the seed and every seed is checked against the
same pinned stdout.  The classes were drawn at random once, keeping per
shape one whose attachment takes about 0.4 s in-process on a 2-core
Xeon.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from finsimp.finmap import FinMap
from finsimp.grids import CornerData, boundary_image, complete_from_corner

CORNER_CARD = 6

# (top row images, left column images): top[k] is an injection into the
# previous top set, left[k] a surjection from the previous left set.
CORNERS = (
    (((2,),), ((3, 0, 4, 1, 2, 2),)),
    (((3, 5, 2, 1), (3, 1, 0)), ((3, 0, 1, 2, 0, 2),)),
    (((5, 2, 3, 1, 4),), ((3, 2, 0, 1, 1, 2), (0, 1, 2, 2))),
    (((2, 4, 0, 1), (0, 1, 3), (2, 0)), ((0, 1, 0, 0, 1, 1),)),
    (((1, 0, 5, 2), (0,)), ((3, 2, 0, 1, 2, 2), (0, 1, 1, 0))),
    (((5, 3, 1, 2),), ((0, 2, 2, 0, 1, 2), (0, 1, 0), (0, 0))),
)


def _relabel(f: FinMap, src_perm: list[int], dst_perm: list[int]) -> FinMap:
    img = [0] * f.src
    for x, y in enumerate(f.img):
        img[src_perm[x]] = dst_perm[y]
    return FinMap(f.src, f.dst, tuple(img))


def corner_data(top_imgs, left_imgs) -> CornerData:
    top, left = [], []
    card = CORNER_CARD
    for img in top_imgs:
        top.append(FinMap(len(img), card, img))
        card = len(img)
    card = CORNER_CARD
    for img in left_imgs:
        left.append(FinMap(card, max(img) + 1, img))
        card = max(img) + 1
    return CornerData(CORNER_CARD, tuple(top), tuple(left))


def relabel_corner(c: CornerData, rng: random.Random) -> CornerData:
    """The same corner with every set relabelled by a random bijection."""

    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p

    corner = perm(c.corner_card)
    top, left = [], []
    dst = corner
    for f in c.top:
        src = perm(f.src)
        top.append(_relabel(f, src, dst))
        dst = src
    src = corner
    for f in c.left:
        dst = perm(f.dst)
        left.append(_relabel(f, src, dst))
        src = dst
    return CornerData(c.corner_card, tuple(top), tuple(left))


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def generate(seed: int, out_dir: Path) -> list[tuple[Path, Path]]:
    """Write one subset and grid file per corner; return the ``(subset, grid)`` paths.

    Identical seeds give identical bytes.
    """
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for k, (top_imgs, left_imgs) in enumerate(CORNERS):
        grid = complete_from_corner(relabel_corner(corner_data(top_imgs, left_imgs), rng))
        subset_path, grid_path = out_dir / f"subset_{k}.json", out_dir / f"grid_{k}.json"
        subset_path.write_bytes(_dump(boundary_image(grid).to_json()))
        grid_path.write_bytes(_dump(grid.to_json()))
        files.append((subset_path, grid_path))
    return files
