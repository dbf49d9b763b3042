"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series, so running ``pytest benchmarks/ --benchmark-only -s``
produces a textual version of the whole evaluation section.  The printed
blocks are also appended to ``benchmarks/results/latest.txt`` for inspection
after a captured (non ``-s``) run, and key experiments are mirrored as JSON
(``benchmarks/results/latest.json``) so the perf trajectory is
machine-checkable across PRs.  Both recorders live in
:mod:`repro.bench.jsonlog` and resolve the directory the same way
(``REPRO_RESULTS_DIR`` overrides it for both).

Both files are *generated*: the results directory is gitignored apart from
its checked-in ``SUMMARY.md`` inventory (validated by
``repro.bench.doccheck``); CI uploads the generated files as artifacts.
"""

from repro.bench.jsonlog import report, report_json  # noqa: F401  (test modules import these from here)
