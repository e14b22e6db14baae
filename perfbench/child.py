"""One hcplab CLI process, as the benchmark harness launches it.

    python child.py STAMP TRACE [hcplab arguments...]

Imports ``hcplab.cli``, writes the CLOCK_MONOTONIC reading taken right after
the import to STAMP (the harness subtracts its own reading from just before
the spawn, which gives the set-up time), then runs ``hcplab.cli.main`` on
the remaining arguments and exits with its code.  With no hcplab arguments
the process only sets up.  When TRACE is not ``-``, layer spans are recorded
(see tracing.py) and written to TRACE after the command returns.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import hcplab.cli
    imported = time.monotonic()
    import json
    with open(stamp_path, "w") as fh:
        json.dump({"imported": imported, "hcplab": hcplab.cli.__file__}, fh)
    if not argv:
        return 0
    if trace_path == "-":
        return hcplab.cli.main(argv)
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return hcplab.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
