"""The benchmark's workloads and its check of simulated outputs.

Every workload drives the paper's closed loop of display stations
(zero think time, warm preload).  Why each was chosen, which layer it
stresses, and why ``full-simple-uniform`` is defined here but left out
of ``BENCHMARK.json`` is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List

#: Full-scale (Table 3, D=1000) closed-loop population.
FULL_STATIONS = 800
#: Access-distribution means at full scale (Figure 8's labels).
HIGHLY_SKEWED = 10.0
UNIFORM = 43.5
#: Run seeds each fig8-scaled-seeds repetition derives from its seed.
SWEEP_SEEDS = 4
SWEEP_SCALE = 10
#: A seed used by no tuning run of this benchmark: later performance
#: claims are re-checked on it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    #: "single" runs one configuration; "sweep" runs the Figure 8 grid.
    kind: str
    technique: str = ""
    access_mean: float = 0.0

    def config(self, seed: int):
        """The full-scale configuration of a single-run workload."""
        from repro.simulation.config import PaperConfig

        return PaperConfig(
            technique=self.technique,
            num_stations=FULL_STATIONS,
            access_mean=self.access_mean,
            seed=seed,
        )

    def sweep_configs(self, seed: int):
        """The Figure 8 grid (techniques × means × stations) at
        :data:`SWEEP_SCALE`, once per derived run seed."""
        from repro.experiments.figure8 import (
            base_config,
            point_config,
            scaled_means,
            scaled_stations,
        )

        base = base_config(SWEEP_SCALE)
        return [
            point_config(base.with_(seed=run_seed), technique, mean, count)
            for run_seed in self.run_seeds(seed)
            for mean in scaled_means(SWEEP_SCALE)
            for technique in ("simple", "vdr")
            for count in scaled_stations(SWEEP_SCALE)
        ]

    @property
    def runs(self) -> int:
        """Simulation runs in one repetition (the sweep's grid is
        2 techniques × 3 means × 5 station counts per run seed)."""
        return 1 if self.kind == "single" else 30 * SWEEP_SEEDS

    def run_seeds(self, seed: int) -> List[int]:
        if self.kind == "single":
            return [seed]
        from repro.exec import derive_seed

        return [derive_seed(seed, index) for index in range(SWEEP_SEEDS)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("full-staggered-skewed", "single", "staggered", HIGHLY_SKEWED),
        Workload("full-vdr-skewed", "single", "vdr", HIGHLY_SKEWED),
        Workload("full-simple-uniform", "single", "simple", UNIFORM),
        Workload("fig8-scaled-seeds", "sweep"),
    )
}


def check_run(config, summary: Dict) -> List[str]:
    """Bounds every run must meet, checked from outside the program.

    At most ``⌊D/M⌋`` displays run at once and each lasts the display
    time, so throughput cannot exceed ``⌊D/M⌋ · 3600 / display
    seconds`` per hour; the hit rate is a fraction.
    """
    problems = []
    ceiling = (config.num_disks // config.degree) * 3600.0 / config.display_time
    throughput = summary["throughput_per_hour"]
    if not 0.0 <= throughput <= ceiling * (1 + 1e-9):
        problems.append(
            f"throughput {throughput}/h outside [0, {ceiling:.2f}] "
            f"({config.describe()})"
        )
    hit_rate = summary.get("hit_rate")
    if hit_rate is None or not 0.0 <= hit_rate <= 1.0:
        problems.append(f"hit rate {hit_rate} outside [0, 1] ({config.describe()})")
    return problems


def digest_rows(rows: List[Dict]) -> str:
    """SHA-256 of the simulated summary rows, in run order."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Simulated statistics reported per workload: summary key -> how a
#: sweep folds its runs (single runs report their one value).
SIM_STATS = {
    "completed": sum,
    "throughput_per_hour": fmean,
    "mean_latency_s": fmean,
    "mean_concurrent": fmean,
    "mean_queue_length": fmean,
    "hit_rate": fmean,
    "evictions": sum,
    "tertiary_utilization": fmean,
    "fragmented_admissions": sum,
    "peak_staging_memory_mbit": max,
}


def sim_stats(rows: List[Dict]) -> Dict[str, float]:
    """The modelled components' statistics, folded over ``rows``."""
    return {
        key: fold([float(row.get(key, 0.0)) for row in rows])
        for key, fold in SIM_STATS.items()
    }
