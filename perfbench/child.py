"""Run the cat0lab CLI as a benchmark child process.

    python3 child.py STAMP_FILE TRACE_FILE|- CLI_ARGS...

Writes the monotonic clock reading at which `import cat0lab.cli` completed to
STAMP_FILE (the parent subtracts its own reading taken just before spawn),
then runs `cat0lab CLI_ARGS...` exactly as the `cat0lab` entry point does.
With a TRACE_FILE other than `-`, public functions are traced (see
tracer.py) and the reduced spans are written there when the CLI returns.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, *cli_args = sys.argv[1:]
    import cat0lab.cli as cli

    done = time.monotonic()
    with open(stamp_path, "w") as fh:
        fh.write(repr(done))
    if trace_path == "-":
        return cli.main(cli_args)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
