"""Entry point of the benchmark's child processes.

``python3 perfbench/child.py <role> '<json payload>'`` runs one role in
a fresh interpreter and prints one JSON object as its last line.  Each
role does its imports first and stamps ``ready``, so the parent can
time interpreter start plus imports as set-up.
"""

from __future__ import annotations

import json
import sys


def main(argv: list) -> int:
    role, payload = argv[1], json.loads(argv[2])
    if role in ("figures-first", "figures-restart"):
        import figures

        result = figures.child(role, payload)
    elif role == "sizing":
        import sizing

        result = sizing.child(payload)
    else:
        raise SystemExit(f"unknown role {role!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
