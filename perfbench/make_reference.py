"""Record the per-op reference transcript digests for the default workload seed.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json.  Run it only when the transcripts are meant
to change (a new transcript format), never to make a failing benchmark pass.
"""

import json
import sys
from itertools import islice

import run
import workloads

REFERENCE_OPS = {"sweep": 1024, "replay": 1024, "guess": 512, "cli": 256}


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    ops = {}
    for name, count in REFERENCE_OPS.items():
        workdir = workloads.ROOT / ".perfbench_tmp" / f"reference-{name}"
        workload = workloads.WORKLOADS[name](workloads.load_program(), run.DEFAULT_SEED, "", workdir)
        digests = []
        try:
            for op in islice(workload.ops(), count):
                reason, d = workload.check(op, workload.run(op))
                if reason is not None:
                    print(f"{name} op {op.index}: {reason}", file=sys.stderr)
                    return 1
                digests.append(d)
        finally:
            workload.close()
        ops[name] = "".join(digests)
        print(f"{name}: {count} ops")
    data = {"seed": run.DEFAULT_SEED, "digest_hex_chars": workloads.DIGEST_CHARS, "ops": ops}
    (workloads.BENCH_DIR / "reference.json").write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
