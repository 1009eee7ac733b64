"""Child process of a traced `cli` op: times the CLI's import and main(), then traces main().

Usage: python3 cli_child.py RESULT_JSON CLI_ARG...

main() runs twice with the same arguments: once untraced, which gives the
import and main() times, and once under the profile-hook tracer, which gives
the per-module counts.  Both runs write the same transcript.  The exit code is
that of the untraced run.
"""

import json
import sys
import time

from tracehook import Totals, Tracer, watched_codes


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import triauth.cli
    t1 = time.perf_counter_ns()
    rc = triauth.cli.main(argv)
    t2 = time.perf_counter_ns()
    totals = Totals()
    tracer = Tracer(watched_codes())
    with tracer:
        t3 = time.perf_counter_ns()
        triauth.cli.main(argv)
        traced_ns = time.perf_counter_ns() - t3
    tracer.fold_into(totals, traced_ns)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": t1 - t0, "main_ns": t2 - t1, "traced_ns": traced_ns,
                   "totals": totals.to_dict()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
