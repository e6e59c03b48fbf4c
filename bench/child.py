"""Run one `mfmkit` command with the layer spans of bench/tracer.py recorded.

Usage: python3 bench/child.py SPANS.json <mfmkit arguments...>

The traced run of the cli-small workload starts this instead of
`python3 -m mfmkit`. It writes the spans below its `cli.main` call and the
per-layer counts to SPANS.json and exits with the command's exit code.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import tracer as tr
    from mfmkit import cli

    spans = tr.Tracer()
    tr.install(spans)
    root = spans.begin_op(None, perf_counter())
    try:
        code = cli.main(argv)
    except SystemExit as error:
        code = error.code if isinstance(error.code, int) else 2
    finally:
        spans.close(root, perf_counter())
        sys.stdout.flush()
        rows = [[spans.names[spans.name[i]], spans.start[i], spans.end[i], spans.parent[i] - 1]
                for i in range(1, len(spans.name))]
        counts = {key: value for (_root, key), value in spans.counts.items()}
        Path(out).write_text(json.dumps({"spans": rows, "counts": counts}), "utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
