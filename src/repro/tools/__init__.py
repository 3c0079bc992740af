"""Command-line utilities.

* ``python -m repro.tools.tracegen`` — generate a workload trace file
  (any Table I combination, or custom pairs) as JSON-lines.
* ``python -m repro.tools.traceinfo`` — summarise a trace file: request
  counts, per-source breakdown, overwrite profile.
* ``python -m repro.tools.detect`` — replay a trace file through the
  detector and print the score timeline; exits non-zero on alarm, so it
  composes into shell pipelines.
* ``python -m repro.tools.defend`` — run a full attack/detect/recover
  cycle against a simulated device and report the outcome + SMART data
  (``--trace-out``/``--metrics`` record the run with the observability
  layer).
* ``python -m repro.tools.observe`` — replay any Table I catalog scenario
  through a fully instrumented device; export a Perfetto-compatible
  Chrome trace and a metrics summary.
* ``python -m repro.tools.profile`` — replay a scenario under the
  layer-attributed profiler and report where device-path wall time goes.

Speed is measured by the repo's one benchmark, ``python -m perfbench``
(run from the repository root).  The naive-reference equivalence oracles
live in ``tests/oracles/`` and run with the test suite.
"""
