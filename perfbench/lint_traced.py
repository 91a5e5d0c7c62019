"""``repro lint`` with the analyzer's layers wrapped in spans.

Run in a fresh process by the ``lint_corpus`` workload's traced run::

    python perfbench/lint_traced.py SPANS.jsonl <repro lint arguments>

The linter builds its rule and pass objects itself, so the wrappers go
on their classes and on the runner module's ``build_graph`` and
``FileContext`` names, for this process only. The lint report goes to
standard output as usual; the spans go to ``SPANS.jsonl``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    import repro.analysis.static.runner as runner
    from repro.analysis.static.contracts import all_passes
    from repro.analysis.static.core import all_rules
    from repro.cli import main as cli_main

    from perfbench.spans import SpanRecorder

    spans_path, lint_args = argv[0], argv[1:]
    rec = SpanRecorder()
    rec.wrap(runner, "build_graph", "lint.graph_build")
    rec.wrap(runner, "FileContext", "lint.parse")
    for cls in all_rules().values():
        rec.wrap(cls, "check", "lint.rules")
    for pass_id, cls in all_passes().items():
        rec.wrap(cls, "check_project", f"lint.pass.{pass_id}")
    try:
        code = rec.call("bench.lint", cli_main, ["lint", *lint_args])
    finally:
        rec.restore()
        rec.write_jsonl(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
