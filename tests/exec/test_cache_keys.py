"""Property-based tests (hypothesis) for cache keys.

The contract: equal specs hash equal; any single-field perturbation
changes the key; keys do not depend on dict ordering, process
identity, or ``PYTHONHASHSEED``; and the code-version salt feeds the
key (so editing the simulator invalidates the cache).
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.exec import RunSpec, experiment_spec, spec_digest  # noqa: E402
from repro.exec.hashing import CODE_SALT_ENV, canonical_json  # noqa: E402
from repro.media.tape_layout import TapeOrder  # noqa: E402
from repro.simulation.config import ScaledConfig  # noqa: E402

#: Single-field perturbations of the base config, each yielding a
#: valid configuration (base: ScaledConfig(50) — D=20, M=5).
PERTURBATIONS = [
    ("num_disks", 40),
    ("num_objects", 41),
    ("num_subobjects", 61),
    ("num_stations", 17),
    ("access_mean", 0.3),
    ("access_mean", None),
    ("seed", 43),
    ("technique", "staggered"),
    ("stride", 1),
    ("warmup_intervals", 121),
    ("measure_intervals", 601),
    ("think_intervals", 1),
    ("preload", False),
    ("fill_factor", 0.9),
    ("replacement", "lru"),
    ("queue_discipline", "sjf"),
    ("replication_threshold", 2),
    ("replication_source", "tertiary"),
    ("tape_order", TapeOrder.SEQUENTIAL),
    ("fragment_cylinders", 2),
    ("tertiary_bandwidth", 41.0),
    ("tertiary_reposition", 6.0),
    # Fault tolerance: a cached fault-free run must never be served
    # for a faulty one (see also tests/faults/test_fault_determinism).
    ("mttf", 500.0),
    ("mttr", 50.0),
    ("redundancy", "mirror"),
    ("redundancy", "parity"),
    ("parity_group", 5),
    ("rebuild_rate", 2),
    ("on_fault", "abort"),
    ("fail_at", ((3, 100),)),
    # Title popularity acts on closed runs too.  The arrival-shaping
    # knobs only fork open keys: see OPEN_ONLY_PERTURBATIONS.
    ("zipf_s", 0.8),
]

#: Open-workload knobs a closed run never reads.  Each is normalised
#: away on the closed base above and must fork an open base's key.
OPEN_ONLY_PERTURBATIONS = [
    ("arrival_rate", 0.07),
    ("deadline_intervals", 10),
    ("mmpp_rates", (0.02, 0.08)),
    ("mmpp_sojourn", (120.0, 120.0)),
    ("diurnal_period", 900.0),
    ("diurnal_amplitude", 0.4),
    ("burst_at", 100),
    ("burst_duration", 5),
    ("burst_factor", 2.0),
    ("burst_hotspot", 0.25),
]

#: Workload overrides safe to combine in any subset.
FREE_OVERRIDES = {
    "num_stations": st.integers(min_value=1, max_value=64),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "access_mean": st.one_of(
        st.none(), st.floats(min_value=0.05, max_value=5.0,
                             allow_nan=False, allow_infinity=False)
    ),
    "warmup_intervals": st.integers(min_value=0, max_value=500),
    "measure_intervals": st.integers(min_value=1, max_value=2000),
    "preload": st.booleans(),
    "replacement": st.sampled_from(["lfu", "lru"]),
}


def base_config():
    return ScaledConfig(scale=50)


overrides_strategy = st.fixed_dictionaries(
    {}, optional=FREE_OVERRIDES
)


class TestEqualSpecsHashEqual:
    @given(overrides=overrides_strategy)
    @settings(max_examples=50, deadline=None)
    def test_identical_configs_identical_keys(self, overrides):
        first = experiment_spec(base_config().with_(**overrides))
        second = experiment_spec(base_config().with_(**overrides))
        assert first.config is not second.config
        assert spec_digest(first) == spec_digest(second)

    def test_label_is_not_part_of_the_key(self):
        config = base_config()
        assert spec_digest(experiment_spec(config, label="a")) == spec_digest(
            experiment_spec(config, label="b")
        )

    @given(
        params=st.dictionaries(
            st.sampled_from(["alpha", "beta", "gamma", "delta"]),
            st.integers(min_value=0, max_value=9),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_params_dict_order_irrelevant(self, params):
        reversed_params = dict(reversed(list(params.items())))
        first = RunSpec(kind="mixed_media", params=params)
        second = RunSpec(kind="mixed_media", params=reversed_params)
        assert spec_digest(first) == spec_digest(second)


class TestPerturbationsChangeKey:
    @given(perturbation=st.sampled_from(PERTURBATIONS))
    @settings(max_examples=len(PERTURBATIONS), deadline=None)
    def test_single_field_perturbation_changes_key(self, perturbation):
        field, value = perturbation
        config = base_config()
        assert getattr(config, field) != value
        perturbed = config.with_(**{field: value})
        assert spec_digest(experiment_spec(config)) != spec_digest(
            experiment_spec(perturbed)
        )

    def test_every_config_field_is_hashed(self):
        """No config field may be invisible to the cache key, except
        the explicitly declared exclusions (fields that cannot change
        a run's payload)."""
        from repro.exec.hashing import canonical
        from repro.exec.spec import DIGEST_EXCLUDED_CONFIG_FIELDS

        hashed = set(canonical(base_config()))
        declared = {f.name for f in dataclasses.fields(base_config())}
        assert hashed == declared
        assert set(DIGEST_EXCLUDED_CONFIG_FIELDS) == {"sanitize"}

    def test_arrival_model_forks_the_key(self):
        """The arrival mode itself cannot be perturbed alone (an open
        mode requires its rate fields), so check the valid
        combinations: closed, poisson, and mmpp specs must all hash
        apart."""
        closed = base_config()
        poisson = closed.with_(arrival="poisson", arrival_rate=0.05)
        mmpp = closed.with_(
            arrival="mmpp",
            mmpp_rates=(0.02, 0.08),
            mmpp_sojourn=(100.0, 100.0),
        )
        digests = {
            spec_digest(experiment_spec(config))
            for config in (closed, poisson, mmpp)
        }
        assert len(digests) == 3

    def test_settings_without_effect_do_not_fork_the_key(self):
        """VDR has no stride and a closed loop reads no open-workload
        knob, so none of them may change a closed key (or the sweep
        id); each still forks the key of an open source that reads it.
        PERTURBATIONS covers the stride of striping."""
        config = base_config()
        vdr = config.with_(technique="vdr")
        assert spec_digest(experiment_spec(vdr)) == spec_digest(
            experiment_spec(vdr.with_(stride=3))
        )
        # A burst needs a duration; the diurnal amplitude needs a period.
        companions = {"burst_at": {"burst_duration": 5},
                      "diurnal_amplitude": {"diurnal_period": 900.0}}
        poisson = config.with_(arrival="poisson", arrival_rate=0.05)
        for field, value in OPEN_ONLY_PERTURBATIONS:
            changes = {field: value, **companions.get(field, {})}
            assert spec_digest(experiment_spec(config)) == spec_digest(
                experiment_spec(config.with_(**changes))
            ), field
            assert spec_digest(experiment_spec(vdr)) == spec_digest(
                experiment_spec(vdr.with_(**changes))
            ), field
            if field.startswith("mmpp_"):
                continue  # a poisson source reads no MMPP knob
            assert spec_digest(experiment_spec(poisson)) != spec_digest(
                experiment_spec(poisson.with_(**changes))
            ), field
        # An open source reads only its own rate knobs: the other
        # source's leave its key (striping and VDR alike) unchanged,
        # and fork the key of the source that reads them.
        mmpp = config.with_(
            arrival="mmpp", mmpp_rates=(0.02, 0.08),
            mmpp_sojourn=(100.0, 100.0),
        )
        reader = {"poisson": mmpp, "mmpp": poisson}
        unread = [
            (poisson, "mmpp_rates", (0.5, 0.9)),
            (poisson, "mmpp_sojourn", (7.0, 9.0)),
            (mmpp, "arrival_rate", 0.3),
        ]
        for source, field, value in unread:
            for cell in (source, source.with_(technique="vdr")):
                assert spec_digest(experiment_spec(cell)) == spec_digest(
                    experiment_spec(cell.with_(**{field: value}))
                ), (cell.arrival, field)
            other = reader[source.arrival]
            assert spec_digest(experiment_spec(other)) != spec_digest(
                experiment_spec(other.with_(**{field: value}))
            ), (other.arrival, field)

    def test_sanitize_mode_is_excluded_from_the_key(self):
        """Sanitize only adds checks — all three modes must share one
        cache entry (a strict CI pass warms the cache for plain runs)."""
        config = base_config()
        digests = {
            spec_digest(experiment_spec(config.with_(sanitize=mode)))
            for mode in ("off", "check", "strict")
        }
        assert len(digests) == 1

    def test_kind_is_part_of_the_key(self):
        params = {"value": 1}
        assert spec_digest(RunSpec(kind="mixed_media", params=params)) != (
            spec_digest(RunSpec(kind="fairness", params=params))
        )

    @given(
        field=st.sampled_from(sorted(FREE_OVERRIDES)),
        perturbation=st.sampled_from(PERTURBATIONS),
    )
    @settings(max_examples=40, deadline=None)
    def test_perturbations_compose(self, field, perturbation):
        """Perturbing a second field never collides back."""
        pfield, pvalue = perturbation
        if pfield == field:
            return
        config = base_config()
        perturbed = config.with_(**{pfield: pvalue})
        assert spec_digest(experiment_spec(config)) != spec_digest(
            experiment_spec(perturbed)
        )


class TestStability:
    def test_code_salt_changes_key(self, monkeypatch):
        config = base_config()
        before = spec_digest(experiment_spec(config))
        monkeypatch.setenv(CODE_SALT_ENV, "pretend-the-code-changed")
        after = spec_digest(experiment_spec(config))
        assert before != after

    def test_stable_across_process_restarts(self, monkeypatch):
        """A fresh interpreter — under a different PYTHONHASHSEED —
        computes the same digest for the same spec."""
        monkeypatch.setenv(CODE_SALT_ENV, "fixed-salt-for-restart-test")
        here = spec_digest(experiment_spec(base_config()))
        src = str(Path(__file__).resolve().parents[2] / "src")
        program = (
            "from repro.exec import experiment_spec, spec_digest\n"
            "from repro.simulation.config import ScaledConfig\n"
            "print(spec_digest(experiment_spec(ScaledConfig(scale=50))))\n"
        )
        for hashseed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True,
                env={
                    "PYTHONPATH": src,
                    "PYTHONHASHSEED": hashseed,
                    CODE_SALT_ENV: "fixed-salt-for-restart-test",
                    "PATH": "/usr/bin:/bin",
                },
            )
            assert out.stdout.strip() == here

    @given(overrides=overrides_strategy)
    @settings(max_examples=25, deadline=None)
    def test_canonical_json_round_trips_via_json(self, overrides):
        """The canonical form is genuine JSON (cache files stay
        readable) and re-canonicalising is a fixed point."""
        import json

        spec = experiment_spec(base_config().with_(**overrides))
        from repro.exec.hashing import canonical

        document = canonical(spec.config)
        assert json.loads(canonical_json(document)) == document
