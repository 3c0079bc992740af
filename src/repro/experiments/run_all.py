"""Regenerate every table, figure, ablation and study in one command.

Run:  python -m repro.experiments.run_all [results_dir]

Writes one text file per experiment under ``results/``: the same files
the benchmark suite writes, without pytest, because both take their
parameters from :data:`EXPERIMENTS`.  Three results only ``benchmarks/``
writes: ``hybrid_entropy``, ``throughput`` and ``table2_journaled``.
Takes several minutes.

Per-experiment wall-clock timings are recorded through the observability
layer (:mod:`repro.obs`): a span per experiment, exported as
``_timings.txt`` (metrics text) and ``_run_all_trace.json`` (Chrome
trace, openable in Perfetto) next to the result files.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import (
    ablation_classifier,
    ablation_features,
    ablation_gc,
    ablation_window,
    claims,
    evasion,
    fig1,
    fig2,
    fig4,
    fig7,
    fig8,
    fig9,
    latency_profile,
    table1,
    table2,
    table3,
)

#: (output name, callable) in presentation order; the benchmark suite
#: runs these same callables.
EXPERIMENTS = (
    ("table1_catalog", lambda: table1.run()),
    ("fig1_overwriting", lambda: fig1.run(seed=1, duration=45.0)),
    ("fig2_features", lambda: fig2.run(seed=1, duration=45.0)),
    ("fig4_score", lambda: fig4.run(seed=2, duration=40.0)),
    ("fig7_accuracy", lambda: fig7.run(repetitions=5, seed=11, duration=60.0)),
    ("table2_consistency", lambda: table2.run(cycles=6, seed=3, num_files=250)),
    ("fig8_latency", lambda: fig8.run(seed=4, duration=40.0)),
    ("fig9_gc_90", lambda: fig9.run(utilization=0.9, seed=5, duration=45.0)),
    ("fig9_gc_70", lambda: fig9.run(utilization=0.7, seed=5, duration=45.0)),
    ("table3_dram", lambda: table3.run(seed=6, duration=30.0)),
    ("claims_headline", lambda: claims.run(seed=7, repetitions=2,
                                           duration=60.0)),
    ("ablation_features", lambda: ablation_features.run(seed=2)),
    ("ablation_classifier", lambda: ablation_classifier.run(seed=2)),
    ("ablation_window", lambda: ablation_window.run(windows=(5, 10),
                                                    seed=2, repetitions=1)),
    ("ablation_gc", lambda: ablation_gc.run(seed=2, duration=35.0)),
    ("evasion_sweep", lambda: evasion.run(rates=(5, 25, 100, 400, 1600),
                                          seed=2, repetitions=2)),
    ("latency_profile", lambda: latency_profile.run(repetitions=5, seed=11)),
)


def main(results_dir: str = "results") -> int:
    """Regenerate every experiment into ``results_dir``."""
    from repro.obs import Observability

    target = Path(results_dir)
    target.mkdir(exist_ok=True)
    obs = Observability.on()
    timings = obs.metrics.gauge(
        "experiment_wall_seconds",
        "Wall-clock time regenerating one experiment.",
        labelnames=("experiment",),
    )
    for name, runner in EXPERIMENTS:
        print(f"[{name}] running ...", flush=True)
        with obs.tracer.span(name, category="experiment"):
            text = runner().render()
        (target / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        elapsed = obs.tracer.find(name)[-1].wall_duration_s
        timings.set(elapsed, experiment=name)
        print(f"[{name}] done in {elapsed:.1f}s "
              f"-> {target / f'{name}.txt'}")
    (target / "_timings.txt").write_text(
        obs.metrics.render_text() + "\n", encoding="utf-8"
    )
    obs.tracer.write_chrome_trace(str(target / "_run_all_trace.json"))
    print(f"\nall {len(EXPERIMENTS)} experiments regenerated under {target}/ "
          f"(timings in _timings.txt, trace in _run_all_trace.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else "results"))
