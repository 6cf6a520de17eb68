"""Record the output digests that benchmark runs compare against.

    python3 perfbench/record_digests.py [--workload NAME] SEED...

For each seed and workload, runs ops 0 .. record_ops-1 untimed and stores
each op's output digest in perfbench/digests.json, keeping entries for other
seeds. Re-record only at a commit whose outputs are known to be right: a
later run reports every difference from these digests as a failed op.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import HERE, SRC, WORK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, OpFailure

    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    status = 0
    WORK.mkdir(exist_ok=True)
    for name in args.workload or WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                wl = WORKLOADS[name](seed, Path(tmp))
                wl.setup()
                digests = {}
                for i in range(wl.record_ops):
                    try:
                        key, dig = wl.check(i, wl.op(i))
                    except OpFailure as exc:
                        print(f"{name} seed {seed} op {i}: {exc}; not recorded", file=sys.stderr)
                        status = 1
                        continue
                    digests[key] = dig
                for problem in wl.self_checks():
                    print(f"{name} seed {seed}: self-check failed: {problem}", file=sys.stderr)
                    status = 1
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
            write_table(path, table)
    return status


def write_table(path: Path, table: dict) -> None:
    """JSON with one line per workload and seed."""
    lines = []
    for name in sorted(table):
        seeds = [f'  "{seed}": {json.dumps(table[name][seed], sort_keys=True, separators=(",", ":"))}'
                 for seed in sorted(table[name], key=int)]
        lines.append(f' "{name}": {{\n' + ",\n".join(seeds) + "\n }")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
