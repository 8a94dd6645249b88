"""Traced CLI child: `cli_child.py SPAWN_NS SPANS_FILE <distpoly arguments>`.

Records interpreter start (parent's spawn to this line) and `import distpoly`
as startup spans, installs the same span wrappers as the in-process runs,
calls `distpoly.cli.main(argv)` and writes its spans to SPANS_FILE as JSON for
the parent to graft under the op's span. Stdout is the CLI's own output.
"""

import time

SCRIPT_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn_ns, spans_file, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import_start = time.monotonic_ns()
    import distpoly.cli
    import_end = time.monotonic_ns()

    import spans

    tracer = spans.Tracer()
    tracer.spans.append([spans.STARTUP, "startup", spawn_ns, import_end, -1, False, None])
    tracer.spans.append([spans.STARTUP, "interp", spawn_ns, SCRIPT_NS, 0, False, None])
    tracer.spans.append([spans.STARTUP, "import", import_start, import_end, 0, False, None])
    spans.install(tracer)
    code = distpoly.cli.main(argv)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
