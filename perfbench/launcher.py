"""Run the ``repro`` command line with the span wrappers installed.

Usage: ``python perfbench/launcher.py SPANS.json <repro arguments...>``

The traced serve-edit run starts the daemon through this file so that
its spans are recorded inside the daemon process, with the same process
topology as the untraced run.  The spans are written to ``SPANS.json``
when the command returns (for ``serve``, after the ``shutdown`` op).
"""

import sys

from common import import_repro
from tracing import Recorder, install


def main(argv):
    spans_path, rest = argv[0], argv[1:]
    import_repro()
    from repro.cli import main as repro_main

    recorder = Recorder()
    install(recorder)
    try:
        return repro_main(rest)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
