"""Run the psdperm CLI under the benchmark's tracer.

    python bench/traced_cli.py SPANS_FILE REQUEST_ID CLI_ARG...

behaves like ``python -m psdperm CLI_ARG...`` (same report, same exit
code) and also writes the spans of the calls it made to SPANS_FILE.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_file, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import psdperm.cli

    tracer = Tracer()
    try:
        with tracer.active(request):
            return psdperm.cli.main(argv)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
