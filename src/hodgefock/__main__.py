"""The process entry: `python -m hodgefock` and the `hodgefock` script.

run() calls cli.main(), flushes stdout and stderr, and leaves through
os._exit with main's exit code.  The report is complete by then: main
returns only after _write_report has, so an --out file has been closed
by its `with` and a pool has been shut down with its workers joined.
Interpreter teardown, which would only free objects and run the atexit
hooks of a pool that is gone, is skipped.

An exception, or argparse's SystemExit, takes the normal exit.  A closed
stdout (the reader of a pipe went away) is the one exception caught
here: stdout is pointed at os.devnull, so the normal exit's flush finds
nowhere to fail, and the process exits 1 without a traceback.
cli.main(argv) itself returns its code, for library callers and tests.
"""

import os
import sys

from .cli import main


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
