"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import attach_inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_emits_identical_bytes_for_one_seed(tmp_path):
    attach_inputs.generate(7, tmp_path / "a")
    attach_inputs.generate(7, tmp_path / "b")
    attach_inputs.generate(8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert len(a) == 2 * len(attach_inputs.CORNERS)
    # another seed relabels every grid; the subsets are canonical and do not change
    for name in a:
        assert (a[name] == c[name]) == name.startswith("subset_")


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "finsimp" or name.startswith("finsimp.")
        for attr, value in vars(mod).items()
        if isinstance(value, types.FunctionType)
    }


def test_tracer_wraps_every_binding_and_restores_it(tmp_path, capsys):
    import finsimp.cli
    from finsimp import grids, strings

    before = _bindings()
    canonicalize = strings.canonicalize
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {key for key, value in _bindings().items() if value is not before[key]}
        # the copies made by ``from .strings import canonicalize`` are wrapped too
        for module in ("finsimp.strings", "finsimp.grids", "finsimp.presentation", "finsimp"):
            assert (module, "canonicalize") in wrapped
        assert grids.canonicalize.__wrapped__ is canonicalize
        assert finsimp.cli.main(["horns", "--r", "1", "--s", "1"]) == 0
    finally:
        t.restore()
    assert _bindings() == before
    assert all(_bindings()[key] is before[key] for key in before)
    capsys.readouterr()

    path = tmp_path / "spans.bin"
    t.write(str(path))
    summary = tracer.summarize(str(path))["functions"]
    assert summary["cli.main"]["calls"] == 1
    assert summary["shuffles.horn_certificate"]["calls"] == 2
    assert summary["strings.canonicalize"]["calls"] == 0
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-9
    assert summary["cli.main"]["s"] >= summary["shuffles.horn_certificate"]["s"]


def test_reference_check_flags_corrupted_stdout():
    result = run.run_child([sys.executable, "-m", "finsimp.cli", "horns", "--r", "1", "--s", "1"], 60)
    ref = {
        "exit": 0,
        "stdout_sha256": run.sha256(result["stdout"]),
        "stderr_sha256": run.sha256(b""),
    }
    assert run.check(result, ref) == []
    corrupted = dict(result, stdout=result["stdout"].replace(b"inner", b"INNER", 1))
    assert corrupted["stdout"] != result["stdout"]
    assert run.check(corrupted, ref)
    assert run.check(dict(result, exit=2), ref)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
