"""Time the claims of one ``verify-paper`` member, one claim at a time.

    python3 tools/claimtime.py --m 120
    python3 tools/claimtime.py --m 200 --claims der_dim,der_equals_zl1

In this one process, with the package imported from this checkout's
``src``, it builds ``_Member(m)`` and evaluates the claims of the
``verify-paper`` table in table order: every claim but the ``--deep``
one by default, or only the ids given to ``--claims``. Claims share the
member's cached values, so a claim's cost depends on the claims before
it. After each claim it prints one JSON line: the claim id, its status,
the CPU seconds (user plus system) its expected and computed values
took, and this process's peak RSS so far (``ru_maxrss``) in MB. The
member's construction is timed apart, as ``setup_cpu_s`` on the first
line. The exit code is 2 for an unknown claim id, else
0, whatever the claims' statuses. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leibcohom.claims import _DEEP_ONLY, _SKIPPED, CLAIMS, _Member  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--m", type=int, required=True, help="the family member sl2 + V_m")
    parser.add_argument("--claims", help="comma-separated claim ids (default: the table"
                                         " but the --deep claim)")
    args = parser.parse_args(argv)
    ids = {cid for cid, *_ in CLAIMS}
    if args.claims is None:
        chosen = ids - {_DEEP_ONLY}
    else:
        chosen = set(args.claims.split(","))
        if not chosen <= ids:
            parser.error(f"unknown claim id(s): {', '.join(sorted(chosen - ids))}")
    if args.m < 2:
        parser.error("--m must be at least 2")

    start = time.process_time()
    member = _Member(args.m)
    first = {"setup_cpu_s": round(time.process_time() - start, 4)}
    for cid, _, _, expected, computed in CLAIMS:
        if cid not in chosen:
            continue
        # in verify-paper's order: the expected value, then the computed one
        start = time.process_time()
        want, got = expected(member), computed(member)
        cpu = time.process_time() - start
        status = "skipped" if got is _SKIPPED else "pass" if got == want else "fail"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line = {"id": cid, "status": status, "cpu_s": round(cpu, 4), "maxrss_mb": round(rss, 1)}
        print(json.dumps({**line, **first}), flush=True)
        first = {}
    return 0


if __name__ == "__main__":
    sys.exit(main())
