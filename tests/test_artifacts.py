"""Tests for the persistent design-time artifact store (PR 3).

Covers the acceptance criteria: cold/warm round-trip through the disk
tier, key stability across construction paths, concurrent-writer safety,
corrupted-entry recovery, and the design-time mobility engine's
equivalence with the literal Fig. 6 reference on the multimedia set,
every registered scenario and a random catalog.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.artifacts.store import KINDS, ArtifactStoreError
from repro.artifacts import (
    ArtifactStore,
    default_store_root,
    graphs_content_key,
    mobility_key,
    workload_content_key,
)
from repro.artifacts.schema import (
    ArtifactDecodeError,
    decode_mobility_tables,
    encode_mobility_tables,
)
from repro.core.mobility import MobilityCalculator
from repro.core.policy_spec import local_lfd_spec, lru_spec
from repro.exceptions import DeviceError, ExperimentError
from repro.graphs.multimedia import benchmark_suite
from repro.session import ArtifactCache, Session
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.simulator import ideal_makespan
from repro.sim.simtime import ms
from repro.workloads.arrival import periodic_arrivals
from repro.workloads.scenarios import (
    available_scenarios,
    make_scenario,
    paper_evaluation_workload,
    quick_workload,
)
from repro.hw.model import DeviceModel


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture(scope="module")
def workload():
    return quick_workload(length=20)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_workload_key_stable_across_construction(self):
        assert workload_content_key(quick_workload(length=15)) == workload_content_key(
            paper_evaluation_workload(length=15)
        )

    def test_graphs_key_order_insensitive(self):
        suite = benchmark_suite()
        assert graphs_content_key(suite) == graphs_content_key(list(reversed(suite)))

    def test_mobility_key_depends_on_device(self, workload):
        content = graphs_content_key(workload.distinct_graphs())
        base = mobility_key(content, DeviceModel.homogeneous(4, 4000))
        assert base != mobility_key(content, DeviceModel.homogeneous(5, 4000))
        assert base != mobility_key(content, DeviceModel.homogeneous(4, 2000))

    def test_default_store_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-store"))
        assert default_store_root() == tmp_path / "env-store"


def test_zero_latency_ideal_semantics_invariant(workload):
    """No semantics knob moves the zero-latency makespan (only arrivals
    do) — why ideal cache keys and plan nodes leave semantics out."""
    apps = list(workload.apps)
    arrivals = periodic_arrivals(workload.n_apps, 30_000)
    variants = [
        ManagerSemantics(),
        ManagerSemantics(lookahead_apps=0),
        ManagerSemantics(lookahead_apps=4),
        ManagerSemantics(provide_oracle=True),
        ManagerSemantics(cross_app_prefetch=CrossAppPrefetch.FREE_RU_ONLY),
        ManagerSemantics(cross_app_prefetch=CrossAppPrefetch.FULL),
        ManagerSemantics(
            cross_app_prefetch=CrossAppPrefetch.FULL, stall_on_loaded_future=False
        ),
    ]
    for arrival_times in (None, arrivals):
        values = {
            ideal_makespan(
                apps,
                arrival_times=arrival_times,
                semantics=sem,
                device=DeviceModel.homogeneous(4),
            )
            for sem in variants
        }
        assert len(values) == 1


# ----------------------------------------------------------------------
# Store mechanics
# ----------------------------------------------------------------------
class TestStoreMechanics:
    def test_round_trip_mobility(self, store):
        tables = {"JPEG": {1: 0, 2: 1}, "MPEG-1": {1: 0}}
        key = mobility_key("content", DeviceModel.homogeneous(4, 4000))
        store.put("mobility", key, encode_mobility_tables(key, tables))
        loaded = store.load("mobility", key, decode_mobility_tables)
        assert loaded == tables
        assert store.stats.hits == 1 and store.stats.writes == 1
        # Node ids survive the JSON string round trip as ints.
        assert all(isinstance(n, int) for t in loaded.values() for n in t)

    def test_miss_returns_none(self, store):
        key = mobility_key("nothing", DeviceModel.homogeneous(4, 4000))
        assert store.load("mobility", key, decode_mobility_tables) is None
        assert store.stats.misses == 1

    def test_corrupted_entry_is_miss_and_evicted(self, store):
        key = mobility_key("content", DeviceModel.homogeneous(4, 4000))
        tables = {"G": {1: 0}}
        path = store.put("mobility", key, encode_mobility_tables(key, tables))
        path.write_text("{ truncated", encoding="utf-8")
        assert store.load("mobility", key, decode_mobility_tables) is None
        assert not path.exists()
        assert store.stats.corrupt_evicted == 1
        # The next write repairs the entry.
        store.put("mobility", key, encode_mobility_tables(key, tables))
        assert store.load("mobility", key, decode_mobility_tables) == tables

    def test_schema_mismatch_is_miss_and_evicted(self, store):
        key = mobility_key("content", DeviceModel.homogeneous(4, 4000))
        path = store.put("mobility", key, encode_mobility_tables(key, {}))
        entry = json.loads(path.read_text())
        entry["schema"] = 999
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.load("mobility", key, decode_mobility_tables) is None
        assert not path.exists()

    def test_kind_and_key_mismatch_rejected(self):
        key = mobility_key("content", DeviceModel.homogeneous(4, 4000))
        foreign = {**encode_mobility_tables(key, {}), "kind": "compiled"}
        with pytest.raises(ArtifactDecodeError):
            decode_mobility_tables(key, foreign)
        with pytest.raises(ArtifactDecodeError):
            decode_mobility_tables("other-key", encode_mobility_tables(key, {}))

    def test_ideal_is_no_store_kind(self, store):
        assert "ideal" not in KINDS
        with pytest.raises(ArtifactStoreError, match="unknown artifact kind"):
            store.put("ideal", "k", {})

    def test_clear_and_describe(self, store):
        k1 = mobility_key("a", DeviceModel.homogeneous(4, 4000))
        k2 = mobility_key("a", DeviceModel.homogeneous(5, 4000))
        store.put("mobility", k1, encode_mobility_tables(k1, {"G": {1: 0}}))
        store.put("mobility", k2, encode_mobility_tables(k2, {"G": {1: 0}}))
        info = store.describe()
        empty = {kind: 0 for kind in KINDS}
        assert info["entries"] == {**empty, "mobility": 2}
        assert info["total_entries"] == 2 and info["size_bytes"] > 0
        assert store.clear() == 2
        assert store.entry_counts() == empty


# ----------------------------------------------------------------------
# Two-tier cache / Session integration
# ----------------------------------------------------------------------
class TestTwoTierCache:
    def test_cold_then_warm_sweep_skips_all_recomputation(self, workload, tmp_path):
        specs = [lru_spec(), local_lfd_spec(1, skip_events=True)]
        root = tmp_path / "store"

        cold = Session(workload=workload, store=ArtifactStore(root))
        cold_sweep = cold.sweep(specs, ru_counts=(4, 6))
        # One per-graph ideal per effective device: a graph alone never
        # uses more RUs than it has tasks.
        n_ideals = len(
            {(g, min(r, len(g))) for g in workload.distinct_graphs() for r in (4, 6)}
        )
        assert n_ideals < 2 * len(workload.distinct_graphs())
        assert cold.cache.mobility_stats.computations == 2
        assert cold.cache.ideal_stats.computations == n_ideals
        assert cold.cache.mobility_stats.disk_hits == 0

        # Fresh session + fresh cache over the same directory: the
        # new-process model.  Mobility tables come from disk; per-graph
        # ideals are memory-only and cheaper to recompute than to load.
        warm = Session(workload=workload, store=ArtifactStore(root))
        warm_sweep = warm.sweep(specs, ru_counts=(4, 6))
        assert warm.cache.mobility_stats.computations == 0
        assert warm.cache.mobility_stats.disk_hits == 2
        assert warm.cache.ideal_stats.computations == n_ideals
        assert warm.cache.ideal_stats.disk_hits == 0
        assert cold_sweep.records == warm_sweep.records

    def test_store_accepts_path_like(self, workload, tmp_path):
        session = Session(workload=workload, store=tmp_path / "s")
        session.run(lru_spec())
        assert (tmp_path / "s").is_dir()

    def test_store_and_cache_mutually_exclusive(self, workload, tmp_path):
        with pytest.raises(ExperimentError):
            Session(workload=workload, cache=ArtifactCache(), store=tmp_path)

    def test_staggered_and_saturated_share_per_graph_ideals(self, workload, tmp_path):
        session = Session(workload=workload, store=ArtifactStore(tmp_path / "s"))
        arrivals = periodic_arrivals(workload.n_apps, 200_000)
        spaced = session.run(local_lfd_spec(1), arrival_times=arrivals)
        saturated = session.run(local_lfd_spec(1))
        assert spaced.ideal_makespan_us > saturated.ideal_makespan_us
        apps = list(workload.apps)
        assert spaced.ideal_makespan_us == ideal_makespan(
            apps,
            arrival_times=arrivals,
            device=DeviceModel.homogeneous(workload.n_rus),
        )
        assert saturated.ideal_makespan_us == ideal_makespan(
            apps, device=DeviceModel.homogeneous(workload.n_rus)
        )
        # One computation per distinct graph serves both arrival patterns,
        # and nothing ideal-shaped is written to disk.
        assert session.cache.ideal_stats.computations == len(
            workload.distinct_graphs()
        )
        assert not (session.cache.store.layout_dir / "ideal").exists()

    def test_ideals_shared_across_sequences_of_same_catalog(self):
        cache = ArtifactCache()
        Session(workload=quick_workload(length=10), cache=cache).run(lru_spec())
        first = cache.ideal_stats.computations
        Session(workload=quick_workload(length=30), cache=cache).run(lru_spec())
        assert cache.ideal_stats.computations == first

    def test_mobility_shared_across_sequences_of_same_catalog(self, tmp_path):
        """Disk mobility entries key on the graph catalog, not the sequence."""
        root = tmp_path / "s"
        a = Session(workload=quick_workload(length=10), store=ArtifactStore(root))
        a.run(local_lfd_spec(1, skip_events=True))
        b = Session(workload=quick_workload(length=30), store=ArtifactStore(root))
        b.run(local_lfd_spec(1, skip_events=True))
        assert b.cache.mobility_stats.computations == 0
        assert b.cache.mobility_stats.disk_hits == 1


    def test_warm_covers_the_workloads_own_device(self, tmp_path):
        """A warmed store serves the mobility tables a device scenario's
        run reads (its floorplan, not a homogeneous stand-in)."""
        root = tmp_path / "s"
        workload = make_scenario("big-little", length=40)
        ArtifactCache(store=ArtifactStore(root)).warm(
            workload, ru_counts=(workload.n_rus,)
        )
        session = Session(workload=workload, store=ArtifactStore(root))
        session.run(local_lfd_spec(1, skip_events=True))
        stats = session.cache.mobility_stats
        assert (stats.disk_hits, stats.computations) == (1, 0)
        # A heterogeneous floorplan has no other RU count to warm.
        with pytest.raises(DeviceError):
            ArtifactCache().warm(workload, ru_counts=(6,))


def _warm_store_worker(args):
    """Worker for the concurrency test: whole design-time phase, one store."""
    root, length, n_rus = args
    session = Session(
        workload=quick_workload(length=length), store=ArtifactStore(root)
    )
    session.cache.warm(session.workload, ru_counts=(n_rus,))
    return session.ideal_makespan_us(n_rus)


class TestConcurrentWriters:
    def test_parallel_workers_race_safely_on_one_store(self, tmp_path):
        """Several processes warming the same keys concurrently: every
        worker succeeds, the store ends up consistent and readable."""
        root = str(tmp_path / "shared")
        jobs = [(root, 20, 4)] * 4 + [(root, 20, 5)] * 2
        with ProcessPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
            results = list(pool.map(_warm_store_worker, jobs))
        assert len(set(results[:4])) == 1  # same key -> same value everywhere
        store = ArtifactStore(root)
        counts = store.entry_counts()
        assert counts["mobility"] == 2 and counts["compiled"] == 1
        for kind, path in store.entries():
            json.loads(path.read_text())  # every entry is complete JSON

    def test_parallel_sweep_with_store(self, workload, tmp_path):
        session = Session(workload=workload, store=ArtifactStore(tmp_path / "s"))
        specs = [lru_spec(), local_lfd_spec(1, skip_events=True)]
        a = session.sweep(specs, ru_counts=(4, 6), parallel=2)
        b = Session(workload=workload).sweep(specs, ru_counts=(4, 6))
        assert a.records == b.records


# ----------------------------------------------------------------------
# Design-time mobility engine vs the literal reference
# ----------------------------------------------------------------------
def _literal(device):
    """The comparator's configuration: a fresh manager per probe, no
    memo, the full device — the paper's Fig. 6 cost, unoptimised."""
    return MobilityCalculator(memoize=False, device=device)


class TestLiteralMobilityEngine:
    @pytest.mark.parametrize("n_rus", [4, 5, 8])
    def test_matches_literal_reference_on_multimedia_set(self, n_rus):
        graphs = benchmark_suite()
        device = DeviceModel.homogeneous(n_rus, ms(4))
        fast = MobilityCalculator(device=device)
        assert fast.compute_tables(graphs) == _literal(device).compute_tables(graphs)

    def test_matches_literal_reference_on_every_registered_scenario(self):
        """Identical tables on every scenario's catalog, at the
        scenario's own device."""
        for name in available_scenarios():
            workload = make_scenario(name, length=12)
            graphs = workload.distinct_graphs()
            fast = MobilityCalculator(device=workload.device)
            literal = _literal(workload.device)
            assert fast.compute_tables(graphs) == literal.compute_tables(graphs), name

    def test_matches_literal_reference_on_random_catalog(self):
        """One shared memo over twelve devices (the ArtifactCache's use)
        against a literal calculator per device."""
        from repro.graphs.random_graphs import random_layered_graph

        catalog = [
            random_layered_graph(f"R{i}", 3 + i, seed=100 + i) for i in range(6)
        ]
        root = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        for n_rus in (4, 6, 8):
            for latency in (ms(2), ms(4), ms(8), ms(16)):
                device = DeviceModel.homogeneous(n_rus, latency)
                fast = root.for_device(device).compute_tables(catalog)
                assert fast == _literal(device).compute_tables(catalog)

    @pytest.mark.parametrize("mobility", [0, 1, 2, 3, 7, 19, 50, 99, 100])
    def test_literal_scan_stops_at_first_harmful_delay(self, mobility, monkeypatch):
        """The scan contract on a synthetic monotone delay curve: it
        probes 1, 2, ... up to the first harmful delay (or the cap) and
        returns the last harmless one."""
        from repro.core import mobility as mobility_mod
        from repro.graphs.builders import chain_graph

        probes = []

        def makespan(runs, forced_delays=None):
            if not forced_delays:
                return 100
            (delay,) = forced_delays.values()
            probes.append(delay)
            return 100 if delay <= mobility else 101

        monkeypatch.setattr(mobility_mod._IsolatedRuns, "makespan", makespan)
        graph = chain_graph("SYN", [ms(1), ms(1)])
        calc = MobilityCalculator(max_mobility=100, device=DeviceModel.homogeneous(4, ms(4)))
        first, second = graph.reconfiguration_order()
        assert calc.compute(graph).mobilities == {first: 0, second: min(mobility, 100)}
        assert probes == list(range(1, min(mobility + 1, 100) + 1))

    def test_search_knob_is_gone(self):
        device = DeviceModel.homogeneous(4, ms(4))
        for option in ({"search": "linear"}, {"verify": True}, {"memoize_reference": False}):
            with pytest.raises(TypeError):
                MobilityCalculator(device=device, **option)

    def test_one_manager_per_graph_and_effective_device(self, monkeypatch):
        """The production calculator builds one manager per computed
        table and re-arms it per probe; devices wider than a graph share
        its table instead of recomputing it."""
        from repro.core import mobility as mobility_mod

        built = []
        real = mobility_mod.ExecutionManager

        def counting(*args, **kwargs):
            built.append(kwargs["device"].n_rus)
            return real(*args, **kwargs)

        monkeypatch.setattr(mobility_mod, "ExecutionManager", counting)
        graphs = benchmark_suite()
        root = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        sims = 0
        for n_rus in (4, 5, 8, 16, 32):
            calc = root.for_device(DeviceModel.homogeneous(n_rus, ms(4)))
            calc.compute_tables(graphs)
            sims += calc.simulations
        effective = {(g.name, min(r, len(g))) for g in graphs for r in (4, 5, 8, 16, 32)}
        assert len(built) == len(effective) < 5 * len(graphs)
        assert max(built) == max(len(g) for g in graphs)
        assert sims > len(built)  # every other probe re-armed a manager


# ----------------------------------------------------------------------
# CLI cache subcommands
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_warm_stats_clear_cycle(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "cli-store")
        assert main(
            ["cache", "warm", "--store", root, "--scenario", "quick",
             "--length", "10", "--rus", "4"]
        ) == 0
        assert "1 mobility computations" in capsys.readouterr().out
        assert main(["cache", "stats", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "mobility: 1 entries" in out and "compiled: 1 entries" in out
        # A sweep over the warmed store computes no mobility tables.
        assert main(
            ["sweep", "--panel", "fig9b", "--scenario", "quick", "--length", "10",
             "--rus", "4", "--store", root]
        ) == 0
        out = capsys.readouterr().out
        assert "0 mobility computations" in out and "disk tier hits: 1" in out
        assert main(["cache", "clear", "--store", root]) == 0
        # mobility + the compiled workload entry
        assert "removed 2 entries" in capsys.readouterr().out

    def test_unknown_action_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "defrost", "--store", str(tmp_path)]) == 2

    def test_stray_positional_rejected_for_non_cache_commands(self, capsys):
        from repro.cli import main

        assert main(["sweep", "clear", "--scenario", "quick", "--length", "10"]) == 2
        assert "unexpected argument" in capsys.readouterr().err

    def test_store_rejected_on_commands_that_ignore_it(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fig2", "--store", str(tmp_path)]) == 2
        assert "--store is not supported" in capsys.readouterr().err


class TestStoreWriteFailureDegradesGracefully:
    def test_unwritable_store_warns_and_continues_memory_only(self, tmp_path, workload):
        """A write failure must not abort a sweep: the value is already
        computed, so the cache warns once and degrades to memory-only."""
        root = tmp_path / "broken"
        root.parent.mkdir(parents=True, exist_ok=True)
        # Make the layout dir a plain file so every put fails with OSError.
        store = ArtifactStore(root)
        root.mkdir()
        store.layout_dir.write_text("not a directory")
        session = Session(workload=workload, store=store)
        with pytest.warns(RuntimeWarning, match="artifact store disabled"):
            sweep = session.sweep([lru_spec()], ru_counts=(4,))
        assert len(sweep.records) == 1
        assert session.cache.store is None  # degraded to memory-only
        # Subsequent runs reuse the memory tier without touching disk.
        session.run(lru_spec())
        assert session.cache.ideal_stats.hits >= 1
