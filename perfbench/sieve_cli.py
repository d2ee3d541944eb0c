"""Command-line entry for the sieve functions the galcount CLI does not expose.

    python3 perfbench/sieve_cli.py divisor-bound LIMIT EPSILON
    python3 perfbench/sieve_cli.py powerful X K [K ...]

Prints one ``name: value`` line per result and exits 0.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from galcount import sieves


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) == 3 and args[0] == "divisor-bound":
        report = sieves.divisor_bound_check(int(args[1]), float(args[2]))
        print(f"max_ratio: {report.max_ratio!r}")
        print(f"holds: {report.holds}")
        return 0
    if len(args) >= 3 and args[0] == "powerful":
        x = int(args[1])
        for k in args[2:]:
            print(f"powerful_{k}: {sieves.powerful_count(int(k), x)}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
