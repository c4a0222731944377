"""Seeded process-chaos: the parallel build must survive sabotage.

The contract under test (the PR's acceptance bar): for a fixed
``(random_seed, n_jobs)``, a sharded fit under injected worker kill /
hang / typed-error faults either completes **byte-identical** to the
failure-free run, or raises a typed error with
``parallel_incidents`` populated.  Never a hang, never a leaked
segment (the autouse leak fixture), never a silently different result.
"""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.datagen.presets import ds1
from repro.errors import PermanentIOError, TransientIOError, WorkerCrashError
from repro.parallel.chaos import ChaosDirective, ChaosInjector
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import SharedPool

pytestmark = [pytest.mark.parallel, pytest.mark.chaos]


# -- injector unit behaviour (no processes) -----------------------------------


class TestChaosInjector:
    def test_every_k_schedule_is_deterministic(self):
        a = ChaosInjector(mode="kill", fail_every=3)
        b = ChaosInjector(mode="kill", fail_every=3)
        plan_a = [a.plan("build", i, 0) is not None for i in range(9)]
        plan_b = [b.plan("build", i, 0) is not None for i in range(9)]
        assert plan_a == plan_b
        assert plan_a == [False, False, True] * 3

    def test_probability_schedule_replays_for_a_seed(self):
        a = ChaosInjector(mode="kill", fail_probability=0.5, seed=42)
        b = ChaosInjector(mode="kill", fail_probability=0.5, seed=42)
        hits_a = [a.plan("build", i, 0) is not None for i in range(50)]
        hits_b = [b.plan("build", i, 0) is not None for i in range(50)]
        assert hits_a == hits_b
        assert any(hits_a) and not all(hits_a)

    def test_one_shot_fires_once_then_disarms(self):
        inj = ChaosInjector(mode="kill", fail_on_task=2)
        hits = [inj.plan("build", i, 0) is not None for i in range(6)]
        assert hits == [False, False, True, False, False, False]
        assert inj.faults_injected == 1

    def test_retries_run_clean_by_default(self):
        inj = ChaosInjector(mode="kill", fail_every=1)
        assert inj.plan("build", 0, 0) is not None
        assert inj.plan("build", 0, 1) is None  # the retry heals
        assert inj.plan("build", 0, 2) is None

    def test_poison_mode_fires_on_every_attempt(self):
        inj = ChaosInjector(
            mode="kill", fail_on_task=0, first_attempt_only=False
        )
        assert inj.plan("build", 0, 0) is not None
        assert inj.plan("build", 0, 1) is not None
        assert inj.plan("build", 0, 2) is not None

    def test_max_faults_bounds_the_blast_radius(self):
        inj = ChaosInjector(mode="kill", fail_every=1, max_faults=2)
        hits = [inj.plan("build", i, 0) is not None for i in range(5)]
        assert hits == [True, True, False, False, False]

    def test_non_matching_op_advances_no_schedule(self):
        inj = ChaosInjector(mode="kill", ops=("merge",), fail_every=1)
        assert inj.plan("build", 0, 0) is None
        assert inj.plan_count == 0
        assert inj.plan("merge", 0, 0) is not None

    def test_reset_rewinds_every_schedule(self):
        inj = ChaosInjector(mode="kill", fail_probability=0.5, seed=7)
        first = [inj.plan("build", i, 0) is not None for i in range(20)]
        inj.reset()
        again = [inj.plan("build", i, 0) is not None for i in range(20)]
        assert first == again
        assert inj.faults_injected == sum(again)

    def test_directive_shapes(self):
        assert ChaosInjector(mode="kill").plan("build", 0, 0) is None or True
        kill = ChaosInjector(mode="kill", fail_every=1).plan("build", 0, 0)
        assert kill == ChaosDirective("kill")
        hang = ChaosInjector(
            mode="hang", fail_every=1, hang_seconds=9.0
        ).plan("build", 0, 0)
        assert hang.kind == "hang" and hang.seconds == 9.0
        raise_ = ChaosInjector(mode="raise", fail_every=1).plan("build", 0, 0)
        assert isinstance(raise_.error, TransientIOError)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosInjector(mode="explode")
        with pytest.raises(ValueError):
            ChaosInjector(fail_every=0)
        with pytest.raises(ValueError):
            ChaosInjector(fail_probability=1.5)


# -- pool-level ladder under chaos --------------------------------------------


def _square(x):
    return x * x


LADDER = ParallelConfig(retry_backoff_seconds=0.0, supervise_interval_seconds=0.02)


class TestPoolChaos:
    def test_killed_workers_retry_to_the_same_results(self):
        chaos = ChaosInjector(mode="kill", fail_every=2)
        with SharedPool(2, chaos=chaos, parallel=LADDER) as pool:
            assert pool.map(_square, range(8), op="build") == [
                i * i for i in range(8)
            ]
            kinds = {i.kind for i in pool.incidents}
        assert chaos.faults_injected == 4
        assert {"worker.death", "pool.respawn", "task.retry"} <= kinds

    def test_hung_worker_is_terminated_and_task_retried(self):
        chaos = ChaosInjector(mode="hang", fail_on_task=1, hang_seconds=60.0)
        with SharedPool(2, chaos=chaos, parallel=LADDER) as pool:
            results = pool.map(
                _square, range(4), op="build", task_deadline=0.4
            )
            assert results == [0, 1, 4, 9]
            kinds = {i.kind for i in pool.incidents}
        assert "worker.hang" in kinds

    def test_injected_transient_error_is_retried(self):
        chaos = ChaosInjector(mode="raise", fail_on_task=0)
        with SharedPool(2, chaos=chaos, parallel=LADDER) as pool:
            assert pool.map(_square, range(3), op="build") == [0, 1, 4]
            assert [i.kind for i in pool.incidents] == ["task.retry"]

    def test_injected_permanent_error_propagates_typed(self):
        chaos = ChaosInjector(
            mode="raise",
            fail_on_task=0,
            error=PermanentIOError("injected permanent fault"),
        )
        with SharedPool(2, chaos=chaos, parallel=LADDER) as pool:
            with pytest.raises(PermanentIOError):
                pool.map(_square, range(3), op="build")
            assert any(i.kind == "task.error" for i in pool.incidents)

    def test_delay_mode_changes_nothing_but_wall_clock(self):
        chaos = ChaosInjector(mode="delay", fail_every=1, delay_seconds=0.01)
        with SharedPool(2, chaos=chaos, parallel=LADDER) as pool:
            assert pool.map(_square, range(4), op="build") == [0, 1, 4, 9]
            assert pool.incidents == []

    def test_poison_task_escalates_to_serial_in_process(self):
        chaos = ChaosInjector(
            mode="kill", fail_on_task=0, first_attempt_only=False
        )
        config = ParallelConfig(
            poison_threshold=2,
            max_task_retries=5,
            retry_backoff_seconds=0.0,
            supervise_interval_seconds=0.02,
        )
        with SharedPool(1, chaos=chaos, parallel=config) as pool:
            assert pool.map(_square, [6], op="build") == [36]
            escalations = [
                i for i in pool.incidents if i.kind == "task.escalated"
            ]
        assert len(escalations) == 1
        assert escalations[0].detail["reason"] == "poison"

    def test_escalation_raise_surfaces_worker_crash_error(self):
        chaos = ChaosInjector(
            mode="kill", fail_on_task=0, first_attempt_only=False
        )
        config = ParallelConfig(
            poison_threshold=1,
            escalation="raise",
            retry_backoff_seconds=0.0,
            supervise_interval_seconds=0.02,
        )
        with SharedPool(1, chaos=chaos, parallel=config) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map(_square, [6], op="build")
            assert excinfo.value.op == "build"
            assert excinfo.value.task_index == 0
            assert pool.incidents  # the story survives the raise


# -- fit-level byte-identity matrix -------------------------------------------


@pytest.fixture(scope="module")
def grid_points():
    return ds1(scale=0.02, seed=0).points


def _config() -> BirchConfig:
    return BirchConfig(
        n_clusters=100,
        memory_bytes=256 * 1024,
        phase4_passes=1,
        random_seed=7,
        parallel=ParallelConfig(
            retry_backoff_seconds=0.0,
            supervise_interval_seconds=0.02,
            task_deadline_seconds=5.0,
        ),
    )


def _fingerprint(result) -> tuple:
    return (
        result.centroids.tobytes(),
        None if result.labels is None else result.labels.tobytes(),
        result.final_threshold,
        len(result.clusters),
        result.accounting(),
    )


@pytest.mark.parametrize("cf_backend", ["stable"])  # keeps the case ids
@pytest.mark.parametrize("jobs", [2, 4])
class TestFitUnderChaos:
    def test_recovered_fit_is_byte_identical(
        self, grid_points, cf_backend, jobs
    ):
        with Birch(_config()) as clean:
            baseline = _fingerprint(clean.fit(grid_points, n_jobs=jobs))
            assert clean.parallel_incidents == []
        for mode in ("kill", "hang", "raise"):
            chaos = ChaosInjector(
                mode=mode, fail_every=3, hang_seconds=30.0
            )
            with Birch(
                _config(), chaos_injector=chaos
            ) as estimator:
                result = estimator.fit(grid_points, n_jobs=jobs)
            assert _fingerprint(result) == baseline, (
                f"{mode} chaos changed the result at jobs={jobs}"
            )
            if chaos.faults_injected:
                assert result.parallel_incidents
                assert result.parallel_incidents == estimator.parallel_incidents

    def test_fatal_injection_raises_typed_with_incidents(
        self, grid_points, cf_backend, jobs
    ):
        chaos = ChaosInjector(
            mode="raise",
            fail_on_task=0,
            error=PermanentIOError("injected permanent fault"),
        )
        with Birch(_config(), chaos_injector=chaos) as estimator:
            with pytest.raises(PermanentIOError):
                estimator.fit(grid_points, n_jobs=jobs)
            # The failed fit still reports what the supervisor saw.
            assert any(
                i["kind"] == "task.error"
                for i in estimator.parallel_incidents
            )


@pytest.mark.parametrize("cf_backend", ["stable"])  # keeps the case ids
class TestSeedSweep:
    """CI sweeps ``--chaos-seed``: random kill schedules, same bytes."""

    def test_probability_kill_schedule_is_byte_identical(
        self, grid_points, cf_backend, chaos_seed
    ):
        with Birch(_config()) as clean:
            baseline = _fingerprint(clean.fit(grid_points, n_jobs=2))
        chaos = ChaosInjector(
            mode="kill", fail_probability=0.4, seed=chaos_seed, max_faults=4
        )
        with Birch(_config(), chaos_injector=chaos) as estimator:
            result = estimator.fit(grid_points, n_jobs=2)
        assert _fingerprint(result) == baseline
        assert len(result.parallel_incidents) >= chaos.faults_injected


class TestFitResultSurface:
    def test_incidents_reset_between_fits(self, grid_points):
        chaos = ChaosInjector(mode="kill", fail_on_task=0)
        with Birch(_config(), chaos_injector=chaos) as estimator:
            first = estimator.fit(grid_points, n_jobs=2)
            assert first.parallel_incidents
            # The injector is spent (one-shot): the second fit is clean
            # and must not inherit the first fit's incident log.
            second = estimator.fit(grid_points, n_jobs=2)
            assert second.parallel_incidents == []

    def test_improve_carries_incidents_forward(self, grid_points):
        chaos = ChaosInjector(mode="kill", fail_on_task=0)
        with Birch(_config(), chaos_injector=chaos) as estimator:
            fitted = estimator.fit(grid_points, n_jobs=2)
            improved = estimator.improve(grid_points, passes=1)
            assert improved.parallel_incidents == fitted.parallel_incidents

    def test_single_process_fit_reports_no_incidents(self, grid_points):
        with Birch(_config()) as estimator:
            result = estimator.fit(grid_points)
            assert result.parallel_incidents == []
