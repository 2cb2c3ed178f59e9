"""Run one hylo command line under the span tracer.

    python3 perfbench/clitrace.py OUT.json ARGS...

behaves like ``hylo ARGS...`` (same output and exit code) and writes the
span aggregate of the process to OUT.json when it ends.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hylo.cli  # noqa: E402

import spans  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return hylo.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        doc = tracer.dump()
        del doc["spans"]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
