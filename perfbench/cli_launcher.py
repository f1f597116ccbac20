"""Run the methodagree CLI, optionally traced.

Usage: ``python3 cli_launcher.py [--trace-out FILE] <methodagree arguments>``

Untraced, this is ``python -m methodagree.cli``. With ``--trace-out`` it
times the import of ``methodagree.cli``, installs the span wrappers, runs
``main`` inside a ``cli.main`` span and writes spans and counters to FILE
as JSON when ``main`` returns.
"""

import json
import sys
from time import perf_counter


def launch(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    start = perf_counter()
    import methodagree.cli as cli

    import_ms = (perf_counter() - start) * 1e3
    if trace_out is None:
        return cli.main(argv)

    import spans

    recorder = spans.Recorder()
    recorder.op = 0
    recorder.count("cli.import_ms", import_ms)
    spans.install(recorder)
    code = 1
    try:
        code = recorder.wrap(cli.main, "cli.main", None, None)(argv)
        return code
    finally:
        recorder.count("cli.exit_nonzero", int(code != 0))
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
