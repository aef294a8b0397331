import errno
import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import finsimp.cli as cli_mod
from finsimp import FinMap, MapString
from finsimp.cli import _complex_from_json, _write_json, main
from finsimp.grids import defect_subcomplex, grid_from_json
from finsimp.presentation import present
from finsimp.shuffles import AttachmentCertificate, attach_diagram
from finsimp.shuffles import enumerate_shuffles, horn_certificate
from helpers import expand_values, oracle_to_json

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# Parametrized in this order, so a new fixture goes last and the existing
# test ids keep their index.
GOLDEN = {
    "cli_e_alpha_2.json": ["e-alpha", "--alpha", "2"],
    "cli_f_enumerate_2_3.json": ["f-enumerate", "--alpha", "2", "--degree-bound", "3"],
    "cli_horns_1_1.json": ["horns", "--r", "1", "--s", "1"],
    "cli_present_1.json": ["present", "--alpha", "1"],
    "cli_shuffles_1_1.dot": ["shuffles", "--r", "1", "--s", "1", "--dot"],
    "cli_shuffles_2_2.json": ["shuffles", "--r", "2", "--s", "2"],
    "cli_skeleton_dim_3.json": ["skeleton-dim", "--alpha", "3"],
    "cli_t_match_2_2.json": ["t-match", "--alpha", "2", "--degree-bound", "2"],
    "cli_horns_3_2.json": ["horns", "--r", "3", "--s", "2"],
    "cli_present_2_empty.json": ["present", "--alpha", "2", "--allow-empty"],
}


@pytest.mark.parametrize("name,argv", list(GOLDEN.items()))
def test_golden_outputs(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out == (FIXTURES / name).read_text()


def test_present_alpha_three_empty_digest():
    # recorded at commit a53124d; no golden fixture covers alpha 3 with empty
    # sets, where the grids with r == 0 or s == 0 attach as boundary spheres
    code, out, err = run_cli(["present", "--alpha", "3", "--allow-empty"])
    assert code == 0, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5b33e9dfdfbb597ac072906156890b8a41f797bd8b431c72dae34bd5476ef023"


@pytest.mark.parametrize("argv", [GOLDEN["cli_present_1.json"], GOLDEN["cli_horns_1_1.json"]])
def test_byte_stable_across_runs(argv):
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_attach_golden():
    code, out, err = run_cli(
        [
            "attach",
            "--subset",
            str(FIXTURES / "attach_subset_e1.json"),
            "--grid",
            str(FIXTURES / "attach_grid_1_1.json"),
        ]
    )
    assert code == 0, err
    assert out == (FIXTURES / "cli_attach_e1.json").read_text()


def test_attach_large_star_names_unmet_hypothesis(tmp_path):
    # a cardinality-10 string used to take 10! relabelings per canonical form
    star = [{"card0": 1, "maps": [{"src": 10, "dst": 1, "img": [0] * 10}]}]
    subset = tmp_path / "star.json"
    subset.write_text(json.dumps(star))
    code, out, err = run_cli(
        ["attach", "--subset", str(subset), "--grid", str(FIXTURES / "attach_grid_1_1.json")]
    )
    assert code == 1 and out == ""
    assert "boundary image is not contained" in err


# a subset that is not face-closed, for attach_grid_1_1.json
_UNCLOSED_SUBSET = [
    {"card0": 1, "maps": []},
    {"card0": 1, "maps": [{"src": 2, "dst": 1, "img": [0, 0]}]},
    {"card0": 2, "maps": [{"src": 1, "dst": 2, "img": [0]}]},
]


def test_attach_subset_not_face_closed(tmp_path):
    # the boundary image of the grid less its two-element vertex: the closure
    # of each attached simplex must not stop at members of this subset
    subset = tmp_path / "unclosed.json"
    subset.write_text(json.dumps(_UNCLOSED_SUBSET))
    code, out, err = run_cli(
        ["attach", "--subset", str(subset), "--grid", str(FIXTURES / "attach_grid_1_1.json")]
    )
    assert code == 0, err
    assert out == (FIXTURES / "cli_attach_unclosed_subset.json").read_text()


def test_attach_oversized_identity_grid(tmp_path):
    # a (6,6) grid of singletons has 1.15M chains but only 924 shuffle paths
    n = 6
    one = {"src": 1, "dst": 1, "img": [0]}
    grid = {
        "r": n,
        "s": n,
        "cards": [[1] * (n + 1) for _ in range(n + 1)],
        "horiz": [[one] * (n + 1) for _ in range(n)],
        "vert": [[one] * n for _ in range(n + 1)],
    }
    grid_path, subset = tmp_path / "grid.json", tmp_path / "point.json"
    grid_path.write_text(json.dumps(grid))
    subset.write_text(json.dumps([{"card0": 1, "maps": []}]))
    code, out, err = run_cli(["attach", "--subset", str(subset), "--grid", str(grid_path)])
    assert code == 0, err


def _count_attach_calls(monkeypatch, tmp_path, fn_names):
    """Run ``attach`` on the fixture subset and on a star subset whose
    unmet boundary hypothesis reaches ``anomaly``, with every module binding
    of the ``grids`` functions ``fn_names`` counted; yields the counts of
    each run."""
    import finsimp.grids as grids_mod

    calls = {fn_name: [] for fn_name in fn_names}
    for fn_name in calls:
        real = getattr(grids_mod, fn_name)

        def counted(*args, _real=real, _calls=calls[fn_name]):
            _calls.append(args)
            return _real(*args)

        for name, mod in list(sys.modules.items()):
            if (name == "finsimp" or name.startswith("finsimp.")) and getattr(mod, fn_name, None) is real:
                monkeypatch.setattr(mod, fn_name, counted)
    star = tmp_path / "star.json"
    star.write_text(json.dumps([{"card0": 1, "maps": [{"src": 3, "dst": 1, "img": [0, 0, 0]}]}]))
    grid = str(FIXTURES / "attach_grid_1_1.json")
    for subset, want in ((str(FIXTURES / "attach_subset_e1.json"), 0), (str(star), 1)):
        for c in calls.values():
            c.clear()
        code, out, err = run_cli(["attach", "--subset", subset, "--grid", grid])
        assert code == want, err
        assert want == 0 or "boundary image is not contained" in err
        yield {fn_name: len(c) for fn_name, c in calls.items()}


def test_attach_restricts_each_path_once(monkeypatch, tmp_path):
    # the hypothesis report and the attachment share one path_cores(grid),
    # also when an unmet hypothesis sends the walk to the boundary image,
    # and the excluded faces are read off it; path_cores walks the trie of
    # the shuffle paths, so no path is restricted at all
    for counts in _count_attach_calls(monkeypatch, tmp_path, ["path_cores"]):
        assert counts == {"path_cores": 1}


def test_attach_computes_its_hypothesis_once(monkeypatch, tmp_path):
    # the attachment reads saturation and the boundary off its own report,
    # also when an unmet boundary hypothesis reaches the anomaly check
    for counts in _count_attach_calls(monkeypatch, tmp_path, ["is_saturated", "boundary_cores"]):
        assert counts == {"is_saturated": 1, "boundary_cores": 1}


def test_attach_refuses_stdin_for_both_inputs():
    # one stdin cannot carry both documents; nothing is read before refusing
    subset = (FIXTURES / "attach_subset_e1.json").read_text()
    stdin = io.StringIO(subset)
    old_stdin, sys.stdin = sys.stdin, stdin
    try:
        code, out, err = run_cli(["attach", "--subset", "-", "--grid", "-"])
    finally:
        sys.stdin = old_stdin
    assert code == 1 and out == ""
    assert "--subset" in err and "--grid" in err
    assert stdin.read() == subset


def test_own_past_in_attach_exits_two(monkeypatch):
    # a past that swallows the whole simplex is a falsified fact, also under -O
    import finsimp.shuffles as shuffles_mod

    monkeypatch.setattr(shuffles_mod, "_excluded_faces", lambda word: ())
    code, out, err = run_cli(
        [
            "attach",
            "--subset",
            str(FIXTURES / "attach_subset_e1.json"),
            "--grid",
            str(FIXTURES / "attach_grid_1_1.json"),
        ]
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "new shuffle simplex lies in its own past"
    assert report["witness"] == {"excluded": [], "sigma": "VH"}


def test_degree_cap_exits_two(monkeypatch):
    import finsimp.grids as grids_mod
    from finsimp import MapString

    # alpha 1 caps the degree at 4; a fourth level that is still nonempty
    # means the walk of the member trie did not terminate under the cap
    monkeypatch.setattr(grids_mod, "walk_members", lambda *args, **kwargs: [[MapString(1)]] * 4)
    code, out, err = run_cli(["e-alpha", "--alpha", "1"])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "degree cap reached"
    assert report["witness"] == {"alpha": 1, "cap": 4, "top_degree_members": 1}


def test_defect_from_stdin():
    payload = {
        "card0": 2,
        "maps": [
            {"src": 1, "dst": 2, "img": [1]},
            {"src": 2, "dst": 1, "img": [0, 0]},
        ],
    }
    code, out, _ = run_cli(["defect"], stdin_text=json.dumps(payload))
    assert code == 0
    assert json.loads(out) == {"defect": 3, "degree": 2}


def test_malformed_input_names_field():
    payload = {"card0": 2, "maps": [{"src": 1, "dst": 2}]}
    code, out, err = run_cli(["defect"], stdin_text=json.dumps(payload))
    assert code == 1
    assert "maps[0].img" in err


def test_invalid_json_is_exit_one():
    code, _, err = run_cli(["defect"], stdin_text="{not json")
    assert code == 1 and "invalid JSON" in err


def test_bad_flag_values_exit_one():
    code, _, err = run_cli(["e-alpha", "--alpha", "0"])
    assert code == 1 and "alpha" in err
    code, _, err = run_cli(["horns", "--r", "0", "--s", "2"])
    assert code == 1


@pytest.mark.parametrize("command", ["e-alpha", "present", "skeleton-dim"])
def test_alpha_above_the_bound_refused_before_the_census(monkeypatch, command):
    import finsimp.grids as grids_mod
    import finsimp.presentation as presentation_mod

    def never(*args, **kwargs):
        raise AssertionError("a census ran")

    for mod in (grids_mod, presentation_mod):
        monkeypatch.setattr(mod, "walk_members", never)
        monkeypatch.setattr(mod, "enumerate_corner_grids", never)
    code, out, err = run_cli([command, "--alpha", str(grids_mod.MAX_ALPHA + 1)])
    _assert_clean_exit_one(code, out, err)
    assert f"alpha must be <= {grids_mod.MAX_ALPHA}" in err


def test_unknown_command_exit_one():
    code, _, err = run_cli(["frobnicate"])
    assert code == 1


def test_certificate_failure_exit_two():
    # the precedence audit has known violating instances at this bound
    code, out, err = run_cli(["t-match", "--alpha", "2", "--degree-bound", "3"])
    assert code == 2
    payload = json.loads(err)
    assert "witness" in payload and payload["witness"]["face"] == 3


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(["skeleton-dim", "--alpha", "2", "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["skeletal_dimension"] >= 1


def _assert_clean_exit_one(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_subset_not_utf8_exits_one(tmp_path):
    subset = tmp_path / "latin1.json"
    subset.write_bytes(b'["\xe9"]')
    argv = ["attach", "--subset", str(subset), "--grid", str(FIXTURES / "attach_grid_1_1.json")]
    _assert_clean_exit_one(*run_cli(argv))


def test_attach_negative_grid_size_exits_one(tmp_path):
    grid = json.loads((FIXTURES / "attach_grid_1_1.json").read_text())
    grid["r"] = -1
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    argv = ["attach", "--subset", str(FIXTURES / "attach_subset_e1.json"), "--grid", str(grid_path)]
    code, out, err = run_cli(argv)
    _assert_clean_exit_one(code, out, err)
    assert "grid.r: expected a nonnegative integer" in err


def test_deeply_nested_input_exits_one(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    _assert_clean_exit_one(*run_cli(["defect", "--input", str(deep)]))


def test_unwritable_output_exits_one(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["skeleton-dim", "--alpha", "1", "--output", str(target)])
    _assert_clean_exit_one(code, out, err)
    assert err.startswith("error: output: ")


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "finsimp.cli", "shuffles", "--r", "1", "--s", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_unwritable_output_refused_before_the_work(monkeypatch, tmp_path):
    import finsimp.cli as cli_mod

    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli_mod, "present", never)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["present", "--alpha", "4", "--output", str(target)])
    _assert_clean_exit_one(code, out, err)
    assert err.startswith("error: output: ")


def test_output_probe_leaves_files_alone(tmp_path):
    # t-match exits 2 at this bound: an existing file keeps its bytes and a
    # missing one is not created
    existing = tmp_path / "existing.json"
    existing.write_text("keep me\n")
    before = existing.stat()
    argv = ["t-match", "--alpha", "2", "--degree-bound", "3", "--output"]
    code, out, _ = run_cli(argv + [str(existing)])
    assert code == 2 and out == ""
    after = existing.stat()
    assert existing.read_text() == "keep me\n"
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    missing = tmp_path / "missing.json"
    code, out, _ = run_cli(argv + [str(missing)])
    assert code == 2 and not missing.exists()


def test_bad_shape_refused_before_the_dot_output_is_opened(tmp_path):
    # r and s are checked before --output is opened, so it keeps its bytes
    existing = tmp_path / "existing.dot"
    existing.write_text("keep me\n")
    before = existing.stat()
    argv = ["shuffles", "--r", "-1", "--s", "1", "--dot", "--output"]
    code, out, err = run_cli(argv + [str(existing)])
    _assert_clean_exit_one(code, out, err)
    assert err == "error: --r must be >= 0\n"
    after = existing.stat()
    assert existing.read_text() == "keep me\n"
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    missing = tmp_path / "missing.dot"
    code, out, err = run_cli(argv + [str(missing)])
    _assert_clean_exit_one(code, out, err)
    assert not missing.exists()


def test_partial_output_file_is_removed(monkeypatch, tmp_path):
    # the disk fills after the first chunk: no truncated document is left
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            if self.writes:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.writes += 1
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(cli_mod, "open", lambda *a, **k: FullDisk(real_open(*a, **k)), raising=False)
    target = tmp_path / "p4.json"
    code, out, err = run_cli(["present", "--alpha", "4", "--output", str(target)])
    _assert_clean_exit_one(code, out, err)
    assert err.startswith("error: output: ") and "No space left" in err
    assert not target.exists()


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _write_to_string(value) -> str:
    pieces = []
    _write_json(value, pieces.append)
    return "".join(pieces)


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\xe9\U0001f600'))
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | _TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert _write_to_string(value) == _dumps(value)


def test_writer_flushes_a_large_document_in_pieces():
    doc = present(4).to_json()
    pieces = []
    _write_json(doc, pieces.append)
    assert len(pieces) > 2
    assert "".join(pieces) == _dumps(doc)


def test_writer_refuses_non_json_keys_and_values():
    with pytest.raises(TypeError):
        _write_to_string({1: "one"})
    with pytest.raises(TypeError):
        _write_to_string([object()])
    # a float is no value a command writes, so it is refused like any
    # other non-JSON object
    for x in (0.5, math.nan, math.inf):
        with pytest.raises(TypeError):
            _write_to_string([x])


def test_cli_encodes_no_whole_document(monkeypatch):
    argvs = [
        ["present", "--alpha", "2"],
        ["horns", "--r", "3", "--s", "2"],
        ["t-match", "--alpha", "2", "--degree-bound", "3"],
    ]
    usual = [run_cli(argv) for argv in argvs]
    assert [result[0] for result in usual] == [0, 0, 2]
    assert usual[1][1] == (FIXTURES / "cli_horns_3_2.json").read_text()
    assert usual[2][2] == _dumps(json.loads(usual[2][2]))

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI encoded a whole document")

    monkeypatch.setattr(cli_mod, "json", types.SimpleNamespace(**{**vars(json), "dumps": refuse}))
    assert [run_cli(argv) for argv in argvs] == usual


# The oracle of the writer is ``json.dumps`` of the plain tree that the
# hand-written ``to_json`` bodies built (``helpers.oracle_to_json``).


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
@pytest.mark.parametrize("allow_empty", [False, True])
def test_present_streams_the_oracle_bytes(alpha, allow_empty):
    argv = ["present", "--alpha", str(alpha)] + ["--allow-empty"] * allow_empty
    code, out, err = run_cli(argv)
    assert code == 0, err
    skel = present(alpha, allow_empty)
    assert skel.to_json() == oracle_to_json(skel)
    assert out == _dumps(oracle_to_json(skel))


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_e_alpha_streams_the_oracle_bytes(alpha):
    code, out, err = run_cli(["e-alpha", "--alpha", str(alpha)])
    assert code == 0, err
    C = defect_subcomplex(alpha)
    assert C.to_json() == oracle_to_json(C)
    want = {"alpha": alpha, "allow_empty": False, "count": len(C), "simplices": oracle_to_json(C)}
    assert out == _dumps(want)


def test_horns_streams_the_oracle_bytes():
    code, out, err = run_cli(["horns", "--r", "3", "--s", "3"])
    assert code == 0, err
    certs = [horn_certificate(sh) for sh in enumerate_shuffles(3, 3)]
    assert [c.to_json() for c in certs] == [oracle_to_json(c) for c in certs]
    assert out == _dumps({"r": 3, "s": 3, "certificates": [oracle_to_json(c) for c in certs]})


@pytest.mark.parametrize("subset", ["attach_subset_e1.json", "unclosed"])
def test_attach_streams_the_oracle_bytes(tmp_path, subset):
    if subset == "unclosed":
        subset_path = tmp_path / "unclosed.json"
        subset_path.write_text(json.dumps(_UNCLOSED_SUBSET))
    else:
        subset_path = FIXTURES / subset
    grid_path = FIXTURES / "attach_grid_1_1.json"
    code, out, err = run_cli(["attach", "--subset", str(subset_path), "--grid", str(grid_path)])
    assert code == 0, err
    C = _complex_from_json(json.loads(subset_path.read_text()), "subset")
    grid = grid_from_json(json.loads(grid_path.read_text()))
    hypothesis, result, records = attach_diagram(C, grid)
    assert records and grid.to_json() == oracle_to_json(grid)
    want = {
        "hypothesis": hypothesis,
        "subset": oracle_to_json(result),
        "certificates": [oracle_to_json(rec) for rec in records],
    }
    assert out == _dumps(want)


# A few maps that repeat, so the memo is hit at several depths, and maps
# drawn afresh.
_POOL = [FinMap(0, 2, ()), FinMap(1, 1, (0,)), FinMap(3, 2, (1, 0, 1)), FinMap(2, 3, (0, 2))]


@st.composite
def _maps(draw):
    src = draw(st.integers(0, 4))
    dst = draw(st.integers(1, 4))
    return FinMap(src, dst, draw(st.lists(st.integers(0, dst - 1), min_size=src, max_size=src)))


@st.composite
def _strings(draw):
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    maps = []
    for dst, src in zip(cards, cards[1:]):
        fresh = st.lists(st.integers(0, dst - 1), min_size=src, max_size=src).map(
            lambda img, src=src, dst=dst: FinMap(src, dst, img)
        )
        pooled = [f for f in _POOL if (f.src, f.dst) == (src, dst)]
        maps.append(draw(st.sampled_from(pooled) | fresh if pooled else fresh))
    return MapString(cards[0], maps)


# the scalars and keys are kept simple: test_writer_matches_json_dumps
# covers them
_VALUES = st.sampled_from(_POOL) | _maps() | _strings()
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | _VALUES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps_on_trees_with_values(tree):
    assert _write_to_string(tree) == _dumps(expand_values(tree))


def _module_state():
    return {
        name: len(value)
        for name, value in vars(cli_mod).items()
        if isinstance(value, (dict, list, set)) and name != "__builtins__"
    }


def test_writer_keeps_no_memo_between_calls():
    skel = present(3)
    before = _module_state()
    first = _write_to_string(skel)
    assert _module_state() == before
    assert _write_to_string(skel) == first == _dumps(oracle_to_json(skel))
    assert _module_state() == before


def test_writer_flushes_by_accumulated_size():
    # one memoised record repeated is few pieces of much text, a long array
    # of short strings many pieces of little text; both go out in pieces of
    # about _FLUSH_SIZE characters
    rec = AttachmentCertificate("HVHV", "attached", "inner", (1, 3), ((0, 2, 4), (0, 1, 2, 4)))
    for doc in ({"records": [rec] * 3000}, ["ab"] * 60000):
        pieces = []
        _write_json(doc, pieces.append)
        assert "".join(pieces) == _dumps(expand_values(doc))
        assert len(pieces) > 2
        assert all(len(p) >= cli_mod._FLUSH_SIZE for p in pieces[:-1])
