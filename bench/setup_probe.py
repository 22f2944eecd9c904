"""Set-up probe, run in a fresh interpreter: import the CLI, parse spec files.

    python3 bench/setup_probe.py bench/specs/light_frechet.json ...

A file holds one spec or a list of specs; a spec with a "c" field is a
path triplet.  This is the start-up cost a CLI invocation pays.
"""

import json
import sys

import maxstable.cli as cli

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        specs = json.load(fh)
    for spec in specs if isinstance(specs, list) else [specs]:
        parse = cli.parse_triplet if "c" in spec else cli.parse_model
        parse(json.dumps(spec))
