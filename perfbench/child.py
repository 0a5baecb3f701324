"""One benchmark child process: import octoverify.cli, then call its main.

    python3 child.py STATUS_PATH [--probe | --trace SPANS_PATH RUN_ID] -- CLI_ARGS...

The child writes to STATUS_PATH a JSON object holding the CLOCK_MONOTONIC
time (ns) at which ``import octoverify.cli`` returned, so the parent can
compute set-up time from its own launch timestamp on the same clock.  With
``--probe`` it stops there; with ``--trace`` it installs the layer tracer
before calling main and writes the spans to SPANS_PATH after main returns.
The exit code is main's.
"""

import json
import sys
import time

import octoverify.cli as cli

imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv: list) -> int:
    status_path, opts = argv[0], argv[1 : argv.index("--")]
    cli_args = argv[argv.index("--") + 1 :]
    status = {"imported_ns": imported_ns, "cli_file": cli.__file__}
    tracer = None
    if opts[:1] == ["--trace"]:
        from tracer import Tracer

        tracer = Tracer(run_id=int(opts[2]))
        tracer.install()
    code = 0
    if opts[:1] != ["--probe"]:
        code = cli.main(cli_args)
    if tracer is not None:
        tracer.dump(opts[1])
    with open(status_path, "w", encoding="utf-8") as fh:
        json.dump(status, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
