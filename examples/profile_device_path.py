#!/usr/bin/env python
"""Find the device-path bottleneck with the layer-attributed profiler.

The simulated SSD spends its wall time somewhere — FTL mapping updates,
GC victim selection, recovery-queue bookkeeping, NAND timing, detector
slices — and guessing wrong about *where* wastes optimisation effort.
This example arms the :class:`~repro.obs.prof.LayerProfiler` on a golden
attack replay, prints the per-layer breakdown and the profiler's measured
overhead, then compares host wall time with *simulated* NAND busy time.

Run:  python examples/profile_device_path.py
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.tools.profile import (
    GOLDEN_SEED,
    golden_scenario,
    profile_device_replay,
)
from repro.workloads.scenario import Scenario


def main() -> None:
    # 1. Build the golden attack mix and replay it twice: once plain, once
    #    with the profiler armed.  Arming wraps every function in the
    #    boundary table (repro.obs.prof.LAYERS) for the duration of the
    #    replay; the whole armed replay sits in a root "replay" section
    #    (so exclusive times partition the wall clock), and the result is
    #    the ssd-insider.profile/v2 report.
    run = golden_scenario(duration=20.0).build(seed=GOLDEN_SEED,
                                               duration=20.0)
    report = profile_device_replay(run)

    # 2. Where did the wall time go?  Exclusive time is the honest
    #    number: time spent in a layer itself, not in its callees.
    print("top layers by exclusive time:")
    rows = [
        (row["layer"], row["calls"], f"{row['exclusive_s'] * 1e3:.1f}",
         f"{row['exclusive_pct_of_wall']:.1f}%")
        for row in report["layers"][:8]
    ]
    print(render_table(("layer", "calls", "excl ms", "% wall"), rows))

    # 3. The device path (ssd.*, ftl.*, nand.*, queue.*) vs everything
    #    else — the fraction the paper's firmware would actually run.
    device = report["device_path"]
    print(f"\ndevice path: {device['fraction_of_wall']:.1%} of wall, "
          f"hottest layers: {', '.join(device['top_layers'])}")

    # 4. The profiler's cost is measured, not estimated: the same stream
    #    replayed unarmed gives the baseline wall time.
    overhead = report["overhead"]
    print(f"profiler overhead: armed {report['wall_time_s'] * 1e3:.0f} ms "
          f"vs unarmed {overhead['unarmed_wall_s'] * 1e3:.0f} ms "
          f"({overhead['fraction_of_wall']:+.1%})")

    # 5. Host wall time measures the *simulator*; the simulated NAND busy
    #    clock measures the *modelled hardware*.  Comparing the two tells
    #    you whether an optimisation target is simulator code or model
    #    behaviour (more page programs, more GC copies).
    busy = report["context"]["nand_busy"]
    print(f"\nsimulated NAND busy time: {busy['total_s']:.2f}s "
          f"(program {busy['page_program_s']:.2f}s, "
          f"read {busy['page_read_s']:.2f}s, "
          f"erase {busy['block_erase_s']:.2f}s, "
          f"retries {busy['read_retry_s']:.2f}s)")

    # 6. A benign control: the same background app with no ransomware.
    #    Diffing the two breakdowns shows what the *attack* costs the
    #    firmware (GC pressure, queue churn) vs the baseline workload.
    benign = Scenario("benign-cloudstorage", app="cloudstorage",
                      category="benign", duration=20.0).build(
        seed=GOLDEN_SEED, duration=20.0, include_ransomware=False
    )
    benign_report = profile_device_replay(benign)
    attack_gc = next((r for r in report["layers"]
                      if r["layer"] == "ftl.gc.select_victim"), None)
    benign_gc = next((r for r in benign_report["layers"]
                      if r["layer"] == "ftl.gc.select_victim"), None)
    attack_pct = attack_gc["exclusive_pct_of_wall"] if attack_gc else 0.0
    benign_pct = benign_gc["exclusive_pct_of_wall"] if benign_gc else 0.0
    print(f"\nGC victim selection: {attack_pct:.1f}% of wall under attack "
          f"vs {benign_pct:.1f}% benign — overwrite-heavy ransomware "
          f"invalidates pages faster, so GC hunts victims more often")


if __name__ == "__main__":
    main()
