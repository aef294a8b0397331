"""Record ``references.json``: exit code and output hashes of every pinned case.

    python3 perfbench/pin_references.py

Runs each workload's invocations once at the default seed.  The outputs of
finsimp are certified and byte-stable, so the pins hold for every later
commit; a change that alters them is a change of output, not of speed,
and re-pinning to make the benchmark pass hides exactly that.
"""

from __future__ import annotations

import json

import run

DEFAULT_SEED = 1


def main() -> None:
    references = {}
    for workload in run.WORKLOADS:
        refs = []
        for cli_args in run.make_cases(workload, DEFAULT_SEED):
            result = run.run_child([run.sys.executable, "-m", "finsimp.cli", *cli_args], run.DEADLINE_S)
            ref = {
                "args": cli_args,
                "exit": result["exit"],
                "stdout_sha256": run.sha256(result["stdout"]),
                "stderr_sha256": run.sha256(result["stderr"]),
            }
            if workload == "present-a4":
                skel = json.loads(result["stdout"])
                ref["members"] = len(skel["complex"])
                ref["top_degree"] = skel["skeletal_dimension"]
            refs.append(ref)
            print(workload, ref)
        references[workload] = refs
    (run.BENCH_DIR / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
