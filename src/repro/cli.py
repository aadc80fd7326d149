"""Command-line entry point: run the paper's experiments from a shell.

::

    python -m repro.cli table1            # op-amp specification table
    python -m repro.cli table3 --train 500
    python -m repro.cli fig5 --tolerance 0.02
    python -m repro.cli fig5 --jobs 4     # speculative parallel compaction
    python -m repro.cli fig5 --sim-jobs 4 # parallel Monte-Carlo generation
    python -m repro.cli cost --sim-jobs -1
    python -m repro.cli batch --lots 4 --jobs 4 --sim-jobs 4
    python -m repro.cli deploy --device opamp --out opamp.rtp
    python -m repro.cli floor --artifact opamp.rtp --lots 3 --devices 500
    python -m repro.cli serve --artifact opamp=opamp.rtp --port 8731
    python -m repro.cli serve --artifact opamp=opamp.rtp --workers 4
    python -m repro.cli loadgen --url http://127.0.0.1:8731 \
        --artifact opamp.rtp --device opamp --devices 200
    python -m repro.cli floor --artifact opamp.rtp --telemetry t.jsonl
    python -m repro.cli telemetry-report t.jsonl

The long-running commands accept ``--telemetry [PATH]``: spans and
metrics from every layer the command touches are recorded into a
process-local registry (JSONL trace to PATH, ``-`` = stderr) and
summarized by ``telemetry-report``.  Telemetry is an observer only --
datasets, decisions and artifacts are bit-identical with it on or
off.

Each subcommand simulates its Monte-Carlo populations on the fly (no
cache) at a CLI-chosen scale, runs the corresponding experiment and
prints the same rows the paper reports.  For the cached, asserted
variants use ``pytest benchmarks/ --benchmark-only``.

On the simulating commands (``fig5``, ``table3``, ``cost``,
``batch``), ``--sim-jobs N`` fans the Monte-Carlo device simulations
out across worker processes through
:mod:`repro.runtime.simulation` -- per-instance seeding makes the
populations bit-identical at any worker count.  Both benches
implement ``measure_batch``, which is used when present: whole
instance populations are stacked into single LAPACK solves through
the batched MNA kernel (:mod:`repro.circuit.batch`); ``batch``
simulates its lots one population after another.
On the greedy-loop commands
(``fig5``, ``batch``, ``deploy``), ``--jobs N`` evaluates upcoming
compaction candidates speculatively in N worker processes (identical
results at any worker count, less wall clock); ``batch`` compacts the
lots through one
:meth:`~repro.core.compaction.TestCompactor.run_many` scheduler.

``deploy`` trains a compacted program and saves it as a versioned
:class:`~repro.floor.artifact.TestProgramArtifact` file; ``floor``
loads such an artifact in a fresh process and streams simulated
production lots through the :class:`~repro.floor.engine.TestFloor`,
reporting per-lot yield loss, defect escape, cost, throughput and
drift alarms.  The round trip is deterministic: the same artifact and
seeds disposition identically at any
``--batch-size``/``--sim-jobs``.

``serve`` hosts a registry of deployed artifacts behind the asyncio
HTTP/JSON floor service of :mod:`repro.service` (micro-batching,
hot-swap, backpressure, ``/metrics``); with ``--workers N`` it scales
out to N worker processes behind the device-hash sharding router of
:mod:`repro.service.cluster` (atomic control-plane fan-out, crash
respawn, per-worker metrics -- decisions bit-identical at any worker
count); ``loadgen`` replays deterministic seed-tree traffic against a
running service and exits non-zero unless every served decision is
bit-identical to an offline :class:`~repro.floor.engine.TestFloor`
pass over the same devices.
"""

import argparse
import math
import sys

from repro import compact_specification_tests


def _print_rows(header, rows):
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                cells.append("{:.3f}".format(value).ljust(w))
            else:
                cells.append(str(value).ljust(w))
        print("  ".join(cells))


def cmd_table1(args):
    """Measure the nominal op-amp and print Table 1."""
    from repro.opamp import OPAMP_SPECIFICATIONS, measure_opamp

    values = measure_opamp()
    _print_rows(["specification", "unit", "nominal", "range"],
                [(s.name, s.unit, values[s.name],
                  "{:g} .. {:g}".format(s.low, s.high))
                 for s in OPAMP_SPECIFICATIONS])
    return 0


def cmd_table2(args):
    """Measure the nominal accelerometer and print Table 2."""
    from repro.mems import MEMS_SPECIFICATIONS, measure_accelerometer

    values = measure_accelerometer()
    _print_rows(["test", "unit", "nominal", "range"],
                [(s.name, s.unit, values[s.name],
                  "{:g} .. {:g}".format(s.low, s.high))
                 for s in MEMS_SPECIFICATIONS])
    return 0


def _populations(bench, requests, args):
    """Populations for ``(n, seed)`` requests: simulate or replay.

    Without ``--dataset`` every request is simulated on the fly, one
    :func:`~repro.process.montecarlo.generate_dataset` call each.
    With ``--dataset DIR`` each population comes from a manifested
    shard store under ``DIR``
    (:func:`repro.data.ensure_dataset`): rows already on disk are
    memory-mapped and only the shortfall is simulated -- and the rows
    are bit-identical to the direct simulation, so results match
    either way.
    """
    root = getattr(args, "dataset", None)
    if root is not None:
        from repro.data import ensure_dataset

        return [ensure_dataset(root, bench, n, seed,
                               n_jobs=args.sim_jobs).head(n)
                for n, seed in requests]
    from repro.process.montecarlo import generate_dataset

    return [generate_dataset(bench, n, seed, n_jobs=args.sim_jobs)
            for n, seed in requests]


def _simulate_pair(bench, args):
    """Train/test populations through the parallel generation engine."""
    return _populations(
        bench,
        [(args.train, args.seed), (args.test, args.seed + 1)], args)


def _bench(device):
    """Device-under-test bench for a CLI ``--device`` choice."""
    if device == "opamp":
        from repro.opamp import OpAmpBench

        return OpAmpBench()
    from repro.mems import AccelerometerBench

    return AccelerometerBench()


def _known_device(explicit, recorded, source):
    """The bench for ``--device``, else for the device ``source`` records.

    ``source`` names the artifact or store in the error message.
    Returns ``(device, None)``, or ``(None, exit code)`` after a
    :func:`_fail` line when neither names a known bench.
    """
    device = explicit or {"mems-accelerometer": "mems"}.get(recorded,
                                                            recorded)
    if device in ("opamp", "mems"):
        return device, None
    return None, _fail("{} names unknown device {!r}; pass --device".format(
        source, recorded))


def _default_cost_model(device):
    """Uniform costs (op-amp) or per-insertion fixture costs (MEMS,
    :func:`repro.mems.soak_cost_model`)."""
    if device == "opamp":
        from repro.core.costmodel import TestCostModel
        from repro.opamp import OPAMP_SPECIFICATIONS

        return TestCostModel.uniform(OPAMP_SPECIFICATIONS.names)
    from repro.mems import soak_cost_model

    return soak_cost_model()


def cmd_fig5(args):
    """Greedy op-amp compaction trend (Fig. 5)."""
    from repro.opamp import OpAmpBench

    bench = OpAmpBench()
    print("Simulating {} + {} op-amp instances...".format(
        args.train, args.test), file=sys.stderr)
    train, test = _simulate_pair(bench, args)
    result = compact_specification_tests(
        train, test, tolerance=args.tolerance, guard_band=args.guard,
        n_jobs=args.jobs)
    _print_rows(["test", "decision", "YL %", "DE %", "guard %"],
                [(r["test"],
                  "eliminated" if r["eliminated"] else "kept",
                  r["yield_loss_pct"], r["defect_escape_pct"],
                  r["guard_pct"])
                 for r in result.history_table()])
    print()
    print(result.summary())
    return 0


def cmd_table3(args):
    """MEMS temperature-test elimination (Table 3)."""
    from repro.core.compaction import TestCompactor
    from repro.mems import AccelerometerBench, tests_at_temperature

    bench = AccelerometerBench()
    print("Simulating {} + {} accelerometer instances...".format(
        args.train, args.test), file=sys.stderr)
    train, test = _simulate_pair(bench, args)
    compactor = TestCompactor(guard_band=args.guard)
    cold = tests_at_temperature(-40)
    hot = tests_at_temperature(80)
    rows = []
    for label, eliminated in (("-40", cold), ("80", hot),
                              ("both", cold + hot)):
        _, report = compactor.evaluate_subset(train, test, eliminated)
        rows.append((label, 100 * report.defect_escape_rate,
                     100 * report.yield_loss_rate,
                     100 * report.guard_rate))
    _print_rows(["eliminated", "DE %", "YL %", "guard %"], rows)
    return 0


def cmd_cost(args):
    """Accelerometer cost-reduction headline."""
    from repro.core.compaction import TestCompactor
    from repro.floor import TestFloor, TestProgramArtifact
    from repro.mems import AccelerometerBench, tests_at_temperature
    from repro.tester import LookupTable

    bench = AccelerometerBench()
    train, test = _simulate_pair(bench, args)
    eliminated = tests_at_temperature(-40) + tests_at_temperature(80)
    model, _ = TestCompactor(guard_band=args.guard).evaluate_subset(
        train, test, eliminated)

    artifact = TestProgramArtifact(
        model, test.specifications,
        cost_model=_default_cost_model("mems"),
        lookup=LookupTable(model))
    print(TestFloor(artifact).run_dataset(test, lot="cost").summary())
    return 0


def cmd_batch(args):
    """Compact several Monte-Carlo lots through one batch scheduler."""
    from repro.core.compaction import TestCompactor

    bench = _bench(args.device)
    print("Simulating {} lots of {} + {} {} instances...".format(
        args.lots, args.train, args.test, args.device), file=sys.stderr)
    requests = []
    for lot in range(args.lots):
        seed = args.seed + 2 * lot
        requests.append((args.train, seed))
        requests.append((args.test, seed + 1))
    # Each lot's train and test populations are simulated in turn,
    # each fanned out over --sim-jobs workers; the per-instance seed
    # tree keeps every dataset identical at any --sim-jobs.
    populations = _populations(bench, requests, args)
    pairs = list(zip(populations[0::2], populations[1::2]))

    results = TestCompactor(
        tolerance=args.tolerance, guard_band=args.guard,
        n_jobs=args.jobs).run_many(pairs)

    _print_rows(
        ["lot", "kept", "eliminated", "YL %", "DE %", "guard %"],
        [(lot, len(r.kept), len(r.eliminated),
          100 * r.final_report.yield_loss_rate,
          100 * r.final_report.defect_escape_rate,
          100 * r.final_report.guard_rate)
         for lot, r in enumerate(results)])
    always = set.intersection(*(set(r.eliminated) for r in results)) \
        if results else set()
    print()
    print("eliminated in every lot ({}): {}".format(
        len(always), ", ".join(sorted(always)) or "-"))
    return 0


def _fail(message):
    """One-line error on stderr + the conventional failure exit code.

    The CLI contract for operator errors (missing file, corrupt
    artifact, unreachable service) is a clean single-line message, not
    a traceback.
    """
    print("error: {}".format(message), file=sys.stderr)
    return 2


def cmd_deploy(args):
    """Train a compacted test program and save a deployable artifact."""
    import os

    from repro.core.pipeline import CompactionPipeline

    out = args.out or "{}.rtp".format(args.device)
    # Fail on an unwritable destination *before* minutes of simulation
    # and training, not at the final save.
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir):
        return _fail("output directory does not exist: {}".format(out_dir))
    if not os.access(out_dir, os.W_OK):
        return _fail("output directory is not writable: {}".format(out_dir))

    profile = None
    if args.profile is not None:
        from repro.errors import RuleError
        from repro.rules import ToleranceProfile

        try:
            profile = ToleranceProfile.load(args.profile)
        except RuleError as exc:
            return _fail(exc)

    bench = _bench(args.device)
    print("Simulating {} + {} {} instances...".format(
        args.train, args.test, args.device), file=sys.stderr)
    train, test = _simulate_pair(bench, args)
    pipeline = CompactionPipeline(
        tolerance=args.tolerance, guard_band=args.guard,
        n_jobs=args.jobs)
    result, artifact = pipeline.deploy(
        train, test, cost_model=_default_cost_model(args.device),
        device=bench.name, train_seed=args.seed,
        lookup_resolution=args.lookup_resolution)
    if profile is not None:
        from repro.errors import RuleError

        try:
            artifact = artifact.with_profile(profile, train=train)
        except RuleError as exc:
            # e.g. rule bounds that contradict the bench's spec ranges.
            return _fail(exc)
    try:
        artifact.save(out)
    except OSError as exc:
        return _fail("cannot write artifact {}: {}".format(out, exc))
    print(result.summary())
    print()
    print(artifact.describe())
    print("saved: {}".format(out))
    return 0


def cmd_floor(args):
    """Load an artifact and stream simulated production lots through it."""
    from repro.errors import ArtifactError
    from repro.floor import TestFloor, TestProgramArtifact

    try:
        artifact = TestProgramArtifact.load(args.artifact)
    except ArtifactError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail("cannot read artifact {}: {}".format(
            args.artifact, exc))
    device, failed = _known_device(
        args.device, artifact.provenance.get("device"), "artifact")
    if failed:
        return failed
    from repro.errors import ReproError

    bench = _bench(device)
    floor = TestFloor(artifact, retest_policy=args.policy,
                      batch_size=args.batch_size)
    lots = [(args.devices, args.seed + index)
            for index in range(args.lots)]
    print("Streaming {} lot(s) of {} simulated {} devices...".format(
        args.lots, args.devices, device), file=sys.stderr)
    try:
        report = floor.run_lots(bench, lots, n_jobs=args.sim_jobs,
                                dataset_root=args.dataset)
    except ReproError as exc:
        # e.g. an artifact trained on a different bench's ranges, or
        # an exhausted simulation failure budget.
        return _fail(exc)
    _print_rows(
        ["lot", "devices", "YL %", "DE %", "guard %", "cost/dev",
         "dev/min", "alarms"],
        report.rows())
    bin_counts = report.bin_counts
    if bin_counts:
        names = (report.lots[0].bin_names if report.lots
                 else tuple(bin_counts))
        print()
        print("bins: " + "  ".join(
            "{}={}".format(name, bin_counts.get(name, 0))
            for name in names))
        if report.n_bin_retested:
            print("grade retests: {}".format(report.n_bin_retested))
    print()
    for alarm in report.alarms:
        print(alarm)
        print("  -> {}".format(alarm.recommendation))
    print(report.summary().splitlines()[-1])
    return 0


def _default_shard_rows():
    from repro.data import DEFAULT_SHARD_ROWS

    return DEFAULT_SHARD_ROWS


def _print_dataset(store):
    """One summary block per store: identity line, shards, last event."""
    print(repr(store))
    print("root: {}".format(store.root))
    print("seed: {}  dtype: {}".format(store.seed, store.manifest.dtype))
    events = store.manifest.events
    if events:
        last = events[-1]
        rate = last.get("instances_per_minute")
        print("last {}: rows {} -> {} in {:.2f}s{}".format(
            last.get("op", "?"), last.get("start", "?"),
            last.get("stop", "?"), last.get("elapsed_s", 0.0),
            "" if rate is None else
            " ({:.0f} instances/min)".format(rate)))


def cmd_dataset_generate(args):
    """Generate a manifested shard store for a device population."""
    from repro.data import generate_shards
    from repro.errors import ReproError

    bench = _bench(args.device)
    print("Generating {} {} instances into {}...".format(
        args.rows, args.device, args.root), file=sys.stderr)
    try:
        store = generate_shards(
            args.root, bench, args.rows, args.seed,
            shard_rows=args.shard_rows, n_jobs=args.sim_jobs)
    except ReproError as exc:
        return _fail(exc)
    _print_dataset(store)
    return 0


def cmd_dataset_extend(args):
    """Grow an existing shard store without re-simulating its prefix."""
    from repro.data import ShardedSpecDataset, extend_shards
    from repro.errors import ReproError

    try:
        existing = ShardedSpecDataset(args.root)
    except ReproError as exc:
        return _fail(exc)
    device, failed = _known_device(args.device, existing.device, "store")
    if failed:
        return failed
    bench = _bench(device)
    print("Extending {} from {} to {} rows...".format(
        args.root, existing.n_rows, args.rows), file=sys.stderr)
    try:
        store = extend_shards(args.root, bench, args.rows,
                              n_jobs=args.sim_jobs)
    except ReproError as exc:
        return _fail(exc)
    _print_dataset(store)
    return 0


def cmd_dataset_info(args):
    """Print a shard store's manifest summary."""
    from repro.data import ShardedSpecDataset
    from repro.errors import ReproError

    try:
        store = ShardedSpecDataset(args.root)
    except ReproError as exc:
        return _fail(exc)
    _print_dataset(store)
    print()
    _print_rows(
        ["shard", "rows", "failed", "simulated", "sha256"],
        [(entry["file"], "{}:{}".format(entry["start"], entry["stop"]),
          entry["n_failed"], entry["n_simulated"],
          entry["sha256"][:12])
         for entry in store.manifest.shards])
    return 0


def cmd_dataset_verify(args):
    """Re-hash every shard against the manifest; fail on any mismatch.

    With ``--repair``, corrupted shards are regenerated from the
    per-instance seed tree (any shard in isolation) and re-verified
    hash-identical to the manifest before the command reports ok.
    """
    from repro.data import ShardedSpecDataset, repair_shards
    from repro.errors import ReproError

    try:
        store = ShardedSpecDataset(args.root)
    except ReproError as exc:
        return _fail(exc)
    if getattr(args, "repair", False):
        device, failed = _known_device(args.device, store.device, "store")
        if failed:
            return failed
        try:
            repaired = repair_shards(args.root, _bench(device),
                                     n_jobs=args.sim_jobs)
        except ReproError as exc:
            return _fail(exc)
        if repaired:
            print("repaired shard(s) {} from the seed tree".format(
                ", ".join(str(i) for i in repaired)), file=sys.stderr)
        store = ShardedSpecDataset(args.root)
    try:
        checked = store.verify()
    except ReproError as exc:
        return _fail(exc)
    print("ok: {} shard(s), {} rows verified".format(
        checked, store.n_rows))
    return 0


def _artifact_spec(value):
    """argparse type for serve --artifact: name=path or name=version=path."""
    parts = value.split("=")
    if len(parts) == 2:
        name, version, path = parts[0], "1", parts[1]
    elif len(parts) == 3:
        name, version, path = parts
    else:
        raise argparse.ArgumentTypeError(
            "must be name=path or name=version=path, not {!r}".format(value))
    if not name or not path:
        raise argparse.ArgumentTypeError(
            "must be name=path or name=version=path, not {!r}".format(value))
    return name, version, path


def _serve_cluster(args):
    """Serve through the multi-worker sharding cluster router."""
    import asyncio
    import os

    from repro.errors import ReproError
    from repro.service import ClusterService

    # Fail on a missing artifact file before spawning N processes that
    # would each discover it independently.
    artifacts = args.artifact or []
    for name, version, path in artifacts:
        if not os.path.isfile(path):
            return _fail("artifact file does not exist: {}".format(path))
    try:
        cluster = ClusterService(
            registrations=artifacts,
            n_workers=args.workers,
            retest_policy=args.policy,
            max_batch_size=args.max_batch,
            max_latency=args.max_latency_ms / 1000.0,
            max_pending=args.max_pending,
            max_resident=args.max_resident,
            admin_token=args.admin_token,
            health_interval=args.health_interval,
            state_dir=args.state_dir)
    except ReproError as exc:
        # e.g. a corrupt journal in --state-dir: refuse to serve from
        # a manifest reconstructed past corruption.
        return _fail(exc)

    async def _serve():
        await cluster.start(args.host, args.port)
        print("serving {} artifact(s) on http://{}:{} across {} "
              "worker(s)".format(len(cluster._manifest), args.host,
                                 cluster.port, args.workers),
              file=sys.stderr, flush=True)
        try:
            await cluster.serve_forever()
        finally:
            await cluster.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except ReproError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail("cannot bind {}:{}: {}".format(
            args.host, args.port, exc))
    return 0


def cmd_serve(args):
    """Serve deployed artifacts over the asyncio HTTP floor service.

    With ``--workers N`` (N >= 2) the artifacts are served by N worker
    processes behind a device-hash sharding router instead of one
    in-process service; decisions are bit-identical either way.
    """
    import asyncio

    from repro.errors import ReproError
    from repro.service import ArtifactRegistry, FloorService

    if args.workers < 1:
        return _fail("--workers must be at least 1")
    if not args.artifact and args.state_dir is None:
        return _fail("pass at least one --artifact, or --state-dir to "
                     "serve journaled registrations")
    if args.workers > 1:
        return _serve_cluster(args)
    registry = ArtifactRegistry(max_resident=args.max_resident)
    try:
        service = FloorService(
            registry, retest_policy=args.policy,
            max_batch_size=args.max_batch,
            max_latency=args.max_latency_ms / 1000.0,
            max_pending=args.max_pending,
            admin_token=args.admin_token,
            state_dir=args.state_dir)
    except ReproError as exc:
        # e.g. a corrupt journal in --state-dir.
        return _fail(exc)
    for name, version, path in args.artifact or []:
        if (name, version) in registry:
            # The journal already saw this key (and every later
            # hot-swap of it); the restart command line must not
            # reorder that history.
            print("skipping {}@{} (replayed from --state-dir)".format(
                name, version), file=sys.stderr)
            continue
        try:
            service.register_artifact(name, version, path)
        except (ReproError, OSError) as exc:
            return _fail(exc)
        print("registered {}@{} from {}".format(name, version, path),
              file=sys.stderr)

    async def _serve():
        await service.start(args.host, args.port)
        print("serving {} artifact(s) on http://{}:{}".format(
            len(registry), args.host, service.port), file=sys.stderr,
            flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except OSError as exc:
        return _fail("cannot bind {}:{}: {}".format(
            args.host, args.port, exc))
    return 0


def cmd_loadgen(args):
    """Replay deterministic traffic against a service; verify decisions."""
    import asyncio

    from repro.errors import ArtifactError, ReproError, ServiceError
    from repro.floor import TestProgramArtifact
    from repro.service import (TrafficPlan, offline_reference, run_load,
                               split_url, wait_healthy)

    try:
        host, port = split_url(args.url)
    except ServiceError as exc:
        return _fail(exc)
    try:
        artifact = TestProgramArtifact.load(args.artifact)
    except ArtifactError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail("cannot read artifact {}: {}".format(
            args.artifact, exc))
    plan = TrafficPlan(
        device=args.name or args.device,
        dut=_bench(args.device),
        n_devices=args.devices,
        seed=args.seed,
        version=args.version,
        reference=offline_reference(artifact, retest_policy=args.policy))

    async def _run():
        await wait_healthy(host, port, timeout=args.timeout)
        return await run_load(host, port, [plan],
                              n_clients=args.clients,
                              max_chunk=args.max_chunk, seed=args.seed)

    print("Replaying {} simulated {} devices against http://{}:{}..."
          .format(args.devices, args.device, host, port), file=sys.stderr)
    try:
        report = asyncio.run(_run())
    except (ReproError, OSError) as exc:
        return _fail(exc)
    print(report.summary())
    if not report.equivalent:
        return _fail("served decisions differ from the offline floor")
    return 0


def cmd_telemetry_report(args):
    """Summarize a JSONL telemetry trace (per-stage time and counters)."""
    from repro.telemetry import render_report

    try:
        rows = render_report(args.path)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early -- not an
        # error with the trace.
        return 0
    except OSError as exc:
        return _fail("cannot read trace {}: {}".format(args.path, exc))
    except ValueError as exc:
        return _fail("malformed trace {}: {}".format(args.path, exc))
    if not rows:
        print("no spans in {}".format(args.path), file=sys.stderr)
    return 0


def _lookup_resolution(value):
    """argparse type for --lookup-resolution: an int or 'auto'.

    Validating at parse time fails fast -- the deploy command only
    builds the table after minutes of simulation and training.
    """
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be an integer or 'auto', not {!r}".format(value))


def _n_jobs(value):
    """argparse type for --jobs/--sim-jobs: a non-zero worker count.

    ``-1`` means one worker per CPU.  Zero is refused at parse time,
    before any population is simulated.
    """
    try:
        n_jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be an integer, not {!r}".format(value))
    if n_jobs == 0:
        raise argparse.ArgumentTypeError(
            "must not be 0 (1 = serial, -1 = all CPUs)")
    return n_jobs


def _non_negative(value):
    """argparse type for --tolerance: a finite float >= 0.

    Checked at parse time, before any population is simulated; NaN
    would otherwise accept every candidate.
    """
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a number, not {!r}".format(value))
    if not 0.0 <= number < math.inf:
        raise argparse.ArgumentTypeError(
            "must be finite and >= 0, not {!r}".format(value))
    return number


def _guard_band(value):
    """argparse type for --guard: a fraction in [0, 0.5).

    A shift of half the span or more collapses every specification's
    strict range.
    """
    number = _non_negative(value)
    if number >= 0.5:
        raise argparse.ArgumentTypeError(
            "must be below 0.5, not {!r}".format(value))
    return number


def _positive_int(value):
    """argparse type for counts and sizes: an integer >= 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be an integer, not {!r}".format(value))
    if number < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 1, not {!r}".format(value))
    return number


def build_parser():
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **defaults):
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--train", type=_positive_int,
                       default=defaults.get("train", 600))
        p.add_argument("--test", type=_positive_int,
                       default=defaults.get("test", 400))
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tolerance", type=_non_negative, default=0.01)
        p.add_argument("--guard", type=_guard_band,
                       default=defaults.get("guard", 0.05))
        p.set_defaults(func=fn)
        return p

    def add_jobs(p):
        # Only the greedy-loop commands consume workers; advertising
        # --jobs on the table printers would be a silent no-op.
        p.add_argument("--jobs", type=_n_jobs, default=1,
                       help="worker processes for compaction "
                            "(-1 = all CPUs; default serial)")
        return p

    def add_sim_jobs(p):
        # Only the commands that simulate Monte-Carlo populations;
        # table1/table2 measure a single nominal instance.
        p.add_argument("--sim-jobs", type=_n_jobs, default=1,
                       help="worker processes for Monte-Carlo "
                            "generation (-1 = all CPUs; default "
                            "serial; identical datasets at any count)")
        p.add_argument("--dataset", default=None, metavar="DIR",
                       help="source populations from manifested shard "
                            "stores cached under DIR (rows already on "
                            "disk are memory-mapped, only the "
                            "shortfall is simulated; results are "
                            "bit-identical to direct simulation)")
        return p

    def add_telemetry(p):
        # Long-running commands only; results are bit-identical with
        # telemetry on or off (the observer never feeds back).
        p.add_argument("--telemetry", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="enable tracing/metrics; write the JSONL "
                            "trace to PATH ('-' or no value = stderr); "
                            "summarize with `repro telemetry-report`")
        return p

    add("table1", cmd_table1)
    add("table2", cmd_table2)
    add_telemetry(add_jobs(add_sim_jobs(add("fig5", cmd_fig5))))
    add_telemetry(add_sim_jobs(add("table3", cmd_table3, guard=0.03,
                                   train=1000, test=1000)))
    add_telemetry(add_sim_jobs(add("cost", cmd_cost, guard=0.03,
                                   train=1000, test=1000)))
    batch = add_telemetry(
        add_sim_jobs(add("batch", cmd_batch, train=300, test=200)))
    add_jobs(batch)
    batch.add_argument("--lots", type=_positive_int, default=4,
                       help="number of independent Monte-Carlo lots")
    batch.add_argument("--device", choices=("opamp", "mems"),
                       default="opamp")

    deploy = add_telemetry(add_sim_jobs(add("deploy", cmd_deploy)))
    add_jobs(deploy)
    deploy.add_argument("--device", choices=("opamp", "mems"),
                        default="opamp")
    deploy.add_argument("--out", default=None,
                        help="artifact path (default <device>.rtp)")
    deploy.add_argument("--lookup-resolution", default=None,
                        type=_lookup_resolution,
                        help="attach a grid lookup table: an integer "
                             "cells-per-dimension, or 'auto' (default: "
                             "no table, live-model floor)")
    deploy.add_argument("--profile", default=None, metavar="PATH",
                        help="attach a tolerance-profile JSON file "
                             "(multi-bin disposition; trains a "
                             "one-vs-rest grade bank when the profile "
                             "has two or more grade bins)")

    # `floor` serves an existing artifact: no train/test/tolerance.
    floor = sub.add_parser("floor", help=cmd_floor.__doc__)
    floor.add_argument("--artifact", required=True,
                       help="path saved by `repro deploy`")
    floor.add_argument("--devices", type=_positive_int, default=2000,
                       help="simulated devices per lot")
    floor.add_argument("--lots", type=_positive_int, default=1,
                       help="lots in the schedule (seeds are "
                            "--seed, --seed+1, ...)")
    floor.add_argument("--seed", type=int, default=1)
    floor.add_argument("--policy", default="full_retest",
                       choices=("full_retest", "accept", "reject"),
                       help="guard-band retest policy")
    floor.add_argument("--batch-size", type=_positive_int, default=8192,
                       help="devices per vectorized disposition batch "
                            "(never changes any decision)")
    floor.add_argument("--device", choices=("opamp", "mems"),
                       default=None,
                       help="override the artifact's provenance device")
    add_sim_jobs(floor)
    add_telemetry(floor)
    floor.set_defaults(func=cmd_floor)

    # `serve` hosts existing artifacts; `loadgen` drives a running
    # service -- neither trains, so neither takes train/test options.
    serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    serve.add_argument("--artifact", action="append", default=None,
                       type=_artifact_spec, metavar="NAME[=VERSION]=PATH",
                       help="artifact to register (repeatable); e.g. "
                            "opamp=opamp.rtp or opamp=2=opamp-v2.rtp; "
                            "optional when --state-dir replays a journal")
    serve.add_argument("--state-dir", default=None,
                       help="directory for the control-plane write-ahead "
                            "journal: register/hot-swap/retire are "
                            "fsync'd before they are acknowledged and "
                            "replayed on restart, so a killed service "
                            "restarts with the exact pre-crash "
                            "registration state")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731)
    serve.add_argument("--policy", default="full_retest",
                       choices=("full_retest", "accept", "reject"),
                       help="guard-band retest policy for every floor")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="rows per coalesced floor batch (size flush)")
    serve.add_argument("--max-latency-ms", type=float, default=5.0,
                       help="max milliseconds a queued request waits "
                            "before a latency flush")
    serve.add_argument("--max-pending", type=int, default=65536,
                       help="queued-row bound; beyond it requests are "
                            "rejected with 429 backpressure")
    serve.add_argument("--admin-token", default=None,
                       help="shared secret (X-Admin-Token header) required "
                            "for remote POST /artifacts[/retire]; without "
                            "it the control plane is loopback-only")
    serve.add_argument("--max-resident", type=int, default=8,
                       help="LRU bound on in-memory artifacts")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes behind the device-hash "
                            "sharding router (default 1 = single "
                            "in-process service; N>=2 spawns N "
                            "FloorService workers, fans the control "
                            "plane out atomically, and respawns "
                            "crashed workers; decisions are "
                            "bit-identical at any worker count)")
    serve.add_argument("--health-interval", type=float, default=0.5,
                       help="seconds between cluster worker health "
                            "probes (--workers >= 2 only)")
    add_telemetry(serve)
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser("loadgen", help=cmd_loadgen.__doc__)
    loadgen.add_argument("--url", required=True,
                         help="service base URL, e.g. http://127.0.0.1:8731")
    loadgen.add_argument("--artifact", required=True,
                         help="artifact path for the offline reference "
                              "floor the served decisions are checked "
                              "against")
    loadgen.add_argument("--device", choices=("opamp", "mems"),
                         default="opamp",
                         help="device bench that simulates the traffic")
    loadgen.add_argument("--name", default=None,
                         help="registry device key to address (default: "
                              "--device)")
    loadgen.add_argument("--version", default=None,
                         help="pin an artifact version (default: newest)")
    loadgen.add_argument("--devices", type=int, default=200,
                         help="simulated devices to replay")
    loadgen.add_argument("--seed", type=int, default=1,
                         help="population + request-schedule seed")
    loadgen.add_argument("--clients", type=int, default=4,
                         help="concurrent keep-alive connections")
    loadgen.add_argument("--max-chunk", type=int, default=16,
                         help="largest devices-per-request chunk")
    loadgen.add_argument("--policy", default="full_retest",
                         choices=("full_retest", "accept", "reject"),
                         help="retest policy of the offline reference "
                              "(must match the server's)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="seconds to wait for the service to become "
                              "healthy")
    add_telemetry(loadgen)
    loadgen.set_defaults(func=cmd_loadgen)

    # `dataset` manages on-disk shard stores directly.
    dataset = sub.add_parser(
        "dataset",
        help="generate, grow, inspect and verify shard-store datasets")
    dsub = dataset.add_subparsers(dest="dataset_command", required=True)

    gen = dsub.add_parser("generate", help=cmd_dataset_generate.__doc__)
    gen.add_argument("root", help="store directory to create")
    gen.add_argument("--device", choices=("opamp", "mems"),
                     default="opamp")
    gen.add_argument("--rows", type=_positive_int, required=True,
                     help="population size to simulate")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--shard-rows", type=_positive_int,
                     default=_default_shard_rows(),
                     help="rows per shard (default %(default)s; fixed "
                          "for the store's lifetime)")
    gen.add_argument("--sim-jobs", type=_n_jobs, default=1,
                     help="worker processes (-1 = all CPUs; identical "
                          "shards at any count)")
    add_telemetry(gen)
    gen.set_defaults(func=cmd_dataset_generate)

    ext = dsub.add_parser("extend", help=cmd_dataset_extend.__doc__)
    ext.add_argument("root", help="existing store directory")
    ext.add_argument("--rows", type=_positive_int, required=True,
                     help="target population size (prefix rows are "
                          "never re-simulated)")
    ext.add_argument("--device", choices=("opamp", "mems"), default=None,
                     help="override the manifest's device label")
    ext.add_argument("--sim-jobs", type=_n_jobs, default=1,
                     help="worker processes (-1 = all CPUs)")
    add_telemetry(ext)
    ext.set_defaults(func=cmd_dataset_extend)

    info = dsub.add_parser("info", help=cmd_dataset_info.__doc__)
    info.add_argument("root", help="store directory")
    info.set_defaults(func=cmd_dataset_info)

    verify = dsub.add_parser("verify", help=cmd_dataset_verify.__doc__)
    verify.add_argument("root", help="store directory")
    verify.add_argument("--repair", action="store_true",
                        help="regenerate corrupted shards from the "
                             "per-instance seed tree and re-verify them "
                             "hash-identical to the manifest")
    verify.add_argument("--device", choices=("opamp", "mems"),
                        default=None,
                        help="override the manifest's device label "
                             "(--repair only)")
    verify.add_argument("--sim-jobs", type=_n_jobs, default=1,
                        help="worker processes for --repair "
                             "(-1 = all CPUs)")
    verify.set_defaults(func=cmd_dataset_verify)

    report = sub.add_parser("telemetry-report",
                            help=cmd_telemetry_report.__doc__)
    report.add_argument("path", help="JSONL trace written by --telemetry")
    report.set_defaults(func=cmd_telemetry_report)
    return parser


def main(argv=None):
    """CLI entry point."""
    from repro.errors import DatasetError

    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "telemetry", None)
    if trace_path is not None:
        # Activate the process-wide registry before dispatch so every
        # instrumented layer the command touches records into it; the
        # final snapshot is flushed even when the command fails.
        from repro.telemetry import configure, disable

        configure(path=trace_path)
    try:
        return args.func(args)
    except DatasetError as exc:
        # e.g. a corrupt shard store behind --dataset; same one-line
        # contract as every other operator error.
        return _fail(exc)
    finally:
        if trace_path is not None:
            disable()


if __name__ == "__main__":
    sys.exit(main())
