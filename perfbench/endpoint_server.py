"""Serve one dump through the repository's SPARQL test double.

    python3 perfbench/endpoint_server.py DUMP TASK_CFG

Loads the dump, registers the sparql-http workload's pattern query with
``tests/sparql_double.SparqlDouble`` (imported unmodified), evaluates
every branch once so pages are served from memory, then prints one JSON
line with the URL and stays up until its standard input is closed. It
runs in its own process so that server work does not compete with the
client for the client's interpreter lock.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from kgslice.graph import load_ntriples  # noqa: E402
from kgslice.patterns import get_bgp  # noqa: E402
from kgslice.tasks import read_config  # noqa: E402
from sparql_double import SparqlDouble  # noqa: E402
from workloads import HTTP_D, HTTP_H, http_pattern_task  # noqa: E402


def main(argv) -> int:
    dump, cfg_path = argv
    kg, errors = load_ntriples(dump)
    bgp = get_bgp(http_pattern_task(read_config(cfg_path)), HTTP_D, HTTP_H)
    double = SparqlDouble(kg)
    double.register(bgp)
    for i in range(len(bgp.branches)):
        double.backend.branch_count(bgp, i)
    try:
        print(json.dumps({"url": double.url, "parse_errors": len(errors)}), flush=True)
        sys.stdin.read()
    finally:
        double.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
