"""The three bench suites: ``core``, ``sweep``, ``batched``.

Every case is seeded and fully deterministic — the harness digests
each repetition's payload and refuses nondeterminism — and runs once
through the batched admission pass and once through the scalar pass,
on policies built the same way; the two must be byte-identical.

* ``core`` — the per-interval simulation loop at the paper's scale
  (D = 1000): staggered striping near saturation, staggered at
  moderate load, and simple striping (contiguous admission).  This is
  the suite the batched-kernel acceptance numbers and the CI
  regression guard are measured on.
* ``sweep`` — a small grid of end-to-end runs at scale 50 (D = 20),
  catching whole-stack regressions at a size where the per-pass numpy
  overhead is not amortised (the batched pass can lose here).
* ``batched`` — the batched kernel beyond paper scale: a first
  D = 10,000 staggered case (2,500 stations) plus a D = 2,000 simple
  striping case; the quick variant runs D = 2,000 staggered.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.benchmarks.harness import BenchCase
from repro.errors import ReproError

SUITES = ("core", "sweep", "batched")


# ----------------------------------------------------------------------
# core: the per-interval engine loop
# ----------------------------------------------------------------------
def _build(params: Dict[str, Any]):
    """``(engine, config)`` for ``ScaledConfig(**params)``; the thunk
    runs the warmup and measurement window the config declares."""
    from repro.simulation.config import ScaledConfig
    from repro.simulation.runner import build_engine

    config = ScaledConfig(**params)
    return build_engine(config), config


def _engine_case(name: str, **params: Any) -> BenchCase:
    def prepare():
        engine, config = _build(params)

        def thunk():
            result = engine.run(
                config.warmup_intervals, config.measure_intervals
            )
            return result.to_dict()

        return thunk, [engine.policy]

    return BenchCase(name=name, prepare=prepare, params=dict(params))


def _core_cases(quick: bool) -> List[BenchCase]:
    if quick:
        common = dict(scale=10, warmup_intervals=30, measure_intervals=70)
        return [
            _engine_case(
                "staggered_saturated",
                technique="staggered", num_stations=80, access_mean=1.0,
                **common,
            ),
            _engine_case(
                "staggered_moderate",
                technique="staggered", num_stations=40, access_mean=1.0,
                **common,
            ),
            _engine_case(
                "simple_contiguous",
                technique="simple", num_stations=40, access_mean=1.0,
                **common,
            ),
        ]
    common = dict(scale=1, warmup_intervals=50, measure_intervals=150)
    return [
        _engine_case(
            "staggered_saturated",
            technique="staggered", num_stations=800, access_mean=1.0,
            **common,
        ),
        _engine_case(
            "staggered_moderate",
            technique="staggered", num_stations=400, access_mean=1.0,
            **common,
        ),
        _engine_case(
            "simple_contiguous",
            technique="simple", num_stations=400, access_mean=1.0,
            **common,
        ),
    ]


# ----------------------------------------------------------------------
# batched: the batched kernel beyond paper scale
# ----------------------------------------------------------------------
def _batched_cases(quick: bool) -> List[BenchCase]:
    # Few, hot objects: with placement alignment 1 an object's layout
    # spans ~num_subobjects drives, so at D >> num_subobjects the
    # clustered starts would overflow per-drive cylinders if the whole
    # scaled catalog were preloaded.
    if quick:
        return [
            _engine_case(
                "batched_staggered_d2000",
                scale=10, num_disks=2000, num_objects=40,
                technique="staggered", num_stations=600, access_mean=1.0,
                warmup_intervals=30, measure_intervals=70,
            ),
        ]
    return [
        _engine_case(
            "batched_staggered_d10000",
            scale=10, num_disks=10000, num_objects=40,
            technique="staggered", num_stations=2500, access_mean=1.0,
            warmup_intervals=30, measure_intervals=90,
        ),
        _engine_case(
            "batched_simple_d2000",
            scale=10, num_disks=2000, num_objects=40,
            technique="simple", num_stations=600, access_mean=1.0,
            warmup_intervals=30, measure_intervals=70,
        ),
    ]


# ----------------------------------------------------------------------
# sweep: end-to-end small runs
# ----------------------------------------------------------------------
def _sweep_case(quick: bool) -> BenchCase:
    grid = [
        {"technique": "simple", "num_stations": 8},
        {"technique": "staggered", "num_stations": 16},
    ]
    if not quick:
        grid += [
            {"technique": "simple", "num_stations": 16},
            {"technique": "staggered", "num_stations": 8},
        ]

    def prepare():
        built = [
            _build(dict(scale=50, access_mean=0.2, **point)) for point in grid
        ]

        def thunk():
            return [
                engine.run(
                    config.warmup_intervals, config.measure_intervals
                ).to_dict()
                for engine, config in built
            ]

        return thunk, [engine.policy for engine, _ in built]

    return BenchCase(
        name="small_grid",
        prepare=prepare,
        params={"scale": 50, "points": len(grid)},
    )


def suite_cases(suite: str, quick: bool = False) -> List[BenchCase]:
    """The cases of one named suite."""
    if suite == "core":
        return _core_cases(quick)
    if suite == "sweep":
        return [_sweep_case(quick)]
    if suite == "batched":
        return _batched_cases(quick)
    raise ReproError(
        f"unknown bench suite {suite!r}; expected one of {', '.join(SUITES)}"
    )
