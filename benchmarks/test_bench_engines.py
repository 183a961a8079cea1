"""Benchmark E9 — boundary vs naive engine ablation, plus raw engine throughput.

The throughput cases track the array-native boundary engine across scales:
the n=200 clique case is the historical baseline (its runtime is the number
guarded by the CSR refactor's ≥3× speedup acceptance), and the large-n cases
(n=2000 clique, n=5000 Erdős–Rényi) exercise the CSR-native constructors so
the whole path — generation, snapshotting, rate updates, weighted selection —
runs without ever materialising a networkx graph.
"""

import math

from conftest import run_experiment_benchmark

from repro.api._exec import execute_trials
from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.batched import BatchedRumorSpreading
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.experiments import engine_validation
from repro.graphs.generators import clique_csr, erdos_renyi_csr


def test_bench_engine_agreement(benchmark):
    result = run_experiment_benchmark(benchmark, engine_validation.run, scale="small", rng=2027)
    assert result.passed, "boundary and naive engines disagree in distribution"


def test_bench_boundary_engine_throughput(benchmark):
    """Raw speed of the boundary engine on a 200-node clique."""
    network = StaticDynamicNetwork(clique_csr(range(200)))
    process = AsynchronousRumorSpreading()
    result = benchmark(lambda: process.run(network, rng=0))
    assert result.completed


def test_bench_naive_engine_throughput(benchmark):
    """Raw speed of the naive engine on a 60-node clique (reference point)."""
    network = StaticDynamicNetwork(clique_csr(range(60)))
    process = AsynchronousRumorSpreading(engine="naive")
    result = benchmark(lambda: process.run(network, rng=0))
    assert result.completed


def test_bench_boundary_engine_throughput_n2000_clique(benchmark):
    """Large-n boundary engine throughput on a CSR-native 2000-node clique."""
    network = StaticDynamicNetwork(clique_csr(range(2000)))
    process = AsynchronousRumorSpreading()
    result = benchmark.pedantic(lambda: process.run(network, rng=0), rounds=3, iterations=1)
    assert result.completed


def test_bench_boundary_engine_throughput_n5000_er(benchmark):
    """Large-n boundary engine throughput on a CSR-native G(5000, p) graph.

    ``p = 0.0035 ≈ 2.05 ln(n)/n`` keeps the sample connected w.h.p.; the
    fixed seed below was checked to produce a connected instance.
    """
    network = StaticDynamicNetwork(erdos_renyi_csr(5000, 0.0035, rng=7))
    process = AsynchronousRumorSpreading()
    result = benchmark.pedantic(lambda: process.run(network, rng=0), rounds=3, iterations=1)
    assert result.completed


def test_bench_batched_100_trials_n2000_clique(benchmark):
    """100 batched clique trials in one vectorised sweep.

    The headline number for the trial-batched engine: this whole batch should
    run *faster than a single* ``test_bench_boundary_engine_throughput_n2000_clique``
    trial (measured ≳200× per-trial throughput), because the clique closed
    form reduces the batch to a handful of ``(trials, n)`` array operations.
    """
    network = StaticDynamicNetwork(clique_csr(range(2000)))
    process = BatchedRumorSpreading()
    results = benchmark.pedantic(
        lambda: process.run_batch(network, 100, rng=0), rounds=3, iterations=1
    )
    assert len(results) == 100 and all(r.completed for r in results)


def test_bench_boundary_engine_throughput_n10000_er(benchmark):
    """Boundary engine on G(10⁴, p); p ≈ 2.0 ln(n)/n keeps it connected."""
    network = StaticDynamicNetwork(erdos_renyi_csr(10_000, 0.00184, rng=7))
    process = AsynchronousRumorSpreading()
    result = benchmark.pedantic(lambda: process.run(network, rng=0), rounds=3, iterations=1)
    assert result.completed


def test_bench_batched_10_trials_n10000_er(benchmark):
    """Batched general (non-clique) path: 10 trials on the same G(10⁴, p)."""
    network = StaticDynamicNetwork(erdos_renyi_csr(10_000, 0.00184, rng=7))
    process = BatchedRumorSpreading()
    results = benchmark.pedantic(
        lambda: process.run_batch(network, 10, rng=0), rounds=2, iterations=1
    )
    assert all(r.completed for r in results)


def test_bench_batched_10_trials_n10000_er_workers2(benchmark):
    """The same 10×G(10⁴, p) batch sharded over 2 workers.

    Exercises ``execute_batched``'s trial-axis sharding (contiguous spans of
    the spawned generator list over the fork pool); results are bit-identical
    to the unsharded batch, so the only interesting number is the wall-clock
    ratio to ``test_bench_batched_10_trials_n10000_er``.
    """
    from repro.api._exec import execute_batched

    network = StaticDynamicNetwork(erdos_renyi_csr(10_000, 0.00184, rng=7))
    process = BatchedRumorSpreading()
    spread_times, _, _ = benchmark.pedantic(
        lambda: execute_batched(process, network, 10, rng=0, workers=2),
        rounds=2,
        iterations=1,
    )
    assert len(spread_times) == 10 and all(t < float("inf") for t in spread_times)


def test_bench_batched_single_run_n100000_er(benchmark):
    """Mega-scale gate: one full spread on G(10⁵, p) must stay tractable.

    ``p = 0.00023 ≈ 2.0 ln(n)/n``; the fixed seed yields a connected sample
    with ~1.15M edges (generated by the geometric-skip sampler).  The
    acceptance bar is completion well under 30 s — measured ~8 s.
    """
    network = StaticDynamicNetwork(erdos_renyi_csr(100_000, 0.00023, rng=7))
    process = BatchedRumorSpreading()
    result = benchmark.pedantic(
        lambda: process.run_batch(network, 1, rng=0)[0], rounds=1, iterations=1
    )
    assert result.completed


def test_bench_parallel_trial_runner(benchmark):
    """Trial-runner fan-out: 8 trials on an n=300 clique across 2 workers.

    Calls the executor directly, so it is the builder-free twin of
    ``test_bench_api_parallel_trial_runner``.
    """
    process = AsynchronousRumorSpreading()
    factory = lambda: StaticDynamicNetwork(clique_csr(range(300)))
    spread_times, _, _ = benchmark.pedantic(
        lambda: execute_trials(process.run, factory, trials=8, rng=0, workers=2),
        rounds=1,
        iterations=1,
    )
    assert len(spread_times) == 8 and all(math.isfinite(t) for t in spread_times)


def test_bench_api_single_run_n2000_clique(benchmark):
    """Facade overhead check: the n=2000 clique run through ``repro.api``.

    Should track ``test_bench_boundary_engine_throughput_n2000_clique`` to
    within noise — the builder resolves the process and network factory once
    and then hands off to the same engine code.
    """
    from repro import api

    network = StaticDynamicNetwork(clique_csr(range(2000)))
    builder = api.run(network=network, seed=0)
    result = benchmark.pedantic(lambda: builder.once(rng=0), rounds=3, iterations=1)
    assert result.completed


def test_bench_api_parallel_trial_runner(benchmark):
    """The 8×n=300, workers=2 trial workload through ``repro.api``."""
    from repro import api

    factory = lambda: StaticDynamicNetwork(clique_csr(range(300)))
    builder = api.run(network=factory, seed=0).trials(8).workers(2)
    trial_set = benchmark.pedantic(builder.collect, rounds=1, iterations=1)
    assert trial_set.completion_rate == 1.0
