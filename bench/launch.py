"""Run one ``thermo`` command in this process and report its timings.

    python3 bench/launch.py --report FILE [--trace FILE] [--setup-only] \\
        -- THERMO-ARGS...

Imports ``artifact.cli`` (with numpy and scipy) and calls ``cli.main`` on
THERMO-ARGS, as the ``thermo`` script does.  Set-up ends when the
subcommand's function is entered, that is once the arguments are parsed and
before the first point is computed; the monotonic clock at that moment
goes to the report together with the clock at the end and the peak
resident memory.  ``--setup-only`` stops at that point.  ``--trace``
records spans (see ``spans.py``) and writes them to FILE at the end;
without it the process samples the machine's pace from start to end (see
``pace.py``) and the samples go to the report as well.
The benchmark (``run.py``) sets ``PYTHONPATH`` to the program's sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

SUBCOMMANDS = ("_cmd_sheet", "_cmd_slab", "_cmd_scan", "_cmd_verify")


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv[:split])
    sampler = None
    if not opts.trace:
        import pace
        sampler = pace.Sampler()
        sampler.start()

    from artifact import cli

    ready = []

    def timed(subcommand):
        def enter(args, parser):
            ready.append(time.monotonic())
            return 0 if opts.setup_only else subcommand(args, parser)
        return enter

    for name in SUBCOMMANDS:
        setattr(cli, name, timed(getattr(cli, name)))
    recorder = None
    if opts.trace:
        import spans
        recorder = spans.install()

    rc = cli.main(argv[split + 1:])
    done = time.monotonic()
    if recorder is not None:
        recorder.dump(opts.trace)
    report = {"ready": ready[0], "done": done, "rc": rc,
              "maxrss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if sampler is not None:
        report["pace"] = sampler.stop()
    with open(opts.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
