"""Run one `spincalc` command with the layer tracer installed.

    python3 perfbench/cli_probe.py SPANS_FILE ARG...

behaves like `python3 -m spincalc.cli ARG...` (same stdout, stderr and exit
code) and writes the spans of the process to SPANS_FILE: the import of
spincalc.cli, argument parsing, serialisation (json.dumps and print inside
the CLI module), the library calls, and the CLI's CPU time.
"""

from __future__ import annotations

import json
import sys
import time

from layertrace import Tracer


class _JsonProxy:
    """The json module as the CLI sees it, with dumps traced."""

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.span("cli.serialise", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


def main(argv: list[str]) -> int:
    spans_file, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.op = 0
    start = time.perf_counter()
    import spincalc.cli as cli

    tracer.add_span("cli.import", start, time.perf_counter())
    tracer.install()
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.span("cli.parse", build_parser)()
        parser.parse_args = tracer.span("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser
    cli.print = tracer.span("cli.serialise", print)
    cli.json = _JsonProxy(tracer)
    cpu = time.process_time()
    main_span = tracer.span("cli.main", cli.main)
    try:
        return main_span(args)
    finally:
        sys.stdout.flush()
        tracer.count("cli.cpu_s", time.process_time() - cpu)
        tracer.write(spans_file, {})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
