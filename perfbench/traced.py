"""Run one vortexlab command, or a script using vortexlab, with spans recorded.

    python3 traced.py SPANS_JSON cli ARGS...        # like vortexlab ARGS...
    python3 traced.py SPANS_JSON script PATH ARGS...

The spans go to SPANS_JSON when the command ends, whatever its outcome.
"""

import runpy
import sys

import tracer


def main(argv) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    import vortexlab.cli  # noqa: F401  (loads every module before patching)
    t = tracer.Tracer()
    t.install()
    t.propagate_to_threads()
    try:
        if kind == "cli":
            from vortexlab import cli
            return cli.main(rest)
        sys.argv = rest
        try:
            runpy.run_path(rest[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code or 0
        return 0
    finally:
        t.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
