"""Command-line interface: run the paper's experiments from a shell.

Installed as ``repro-rftc`` (see pyproject), or run via
``python -m repro.cli``.  Subcommands:

* ``info``     — library and flagship-configuration summary
* ``plan``     — run the frequency planner, print overlap statistics
* ``attack``   — collect a campaign and run the attack battery
* ``tvla``     — fixed-vs-random leakage assessment
* ``table1``   — regenerate the comparison table
* ``fig3``     — completion-time histogram statistics
* ``campaign`` — streaming chunked campaign (bounded memory, worker pool,
  checkpoint/resume, fault injection, ``--metrics-out``/``--trace-out``)
* ``matrix``   — declarative scenario sweep: acquisition × drift ×
  adversary cells with matrix-granularity resume (``repro.scenarios``)
* ``search``   — frequency-set search over MMCM-realizable plans,
  scored by traces-to-disclosure and TVLA
* ``serve``    — multi-tenant campaign service daemon (``repro.service``)
* ``store``    — inspect or integrity-check a ChunkedTraceStore
* ``obs``      — render a saved metrics snapshot for the terminal
* ``verify``   — differential verification suites (``repro.verify``)
* ``report``   — full markdown report of the paper's experiments

Every subcommand prints plain text and exits with an explicit code: 0 on
success, 1 on a failed check or run, 2 on bad invocation, 130 on Ctrl-C.
:func:`main` is the one place that turns an exception into that code; a
handler raises :class:`~repro.errors.ConfigurationError` for a bad input,
before any work starts.  Budgets are deliberately small so each command
finishes in seconds to a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    StorageExhaustedError,
)

#: ``(flag, path)`` pairs for :func:`_check_outputs`; ``None`` paths skip.
Outputs = Sequence[Tuple[str, Optional[str]]]


@contextlib.contextmanager
def _input_error(context: str, errors: Type[Exception] = ConfigurationError) -> Iterator[None]:
    """Re-raise ``errors`` as a :class:`ConfigurationError` (exit 2) that
    starts with ``context``: the flag at fault, or the store or checkpoint
    that a command refuses before it starts work."""
    try:
        yield
    except errors as exc:
        raise ConfigurationError(f"{context}: {exc}") from exc


@contextlib.contextmanager
def _flag_errors(**flags: str) -> Iterator[None]:
    """Prefix the user's flag to a :class:`ConfigurationError` whose
    message starts with the library parameter that flag sets."""
    try:
        yield
    except ConfigurationError as exc:
        flag = flags.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        raise ConfigurationError(f"{flag}: {exc}") from exc


def _check_outputs(files: Outputs = (), dirs: Outputs = ()) -> None:
    """Refuse output paths that could not be written, before any work.

    A file path that is a directory, or a regular file where a directory
    (or a file's parent) should be, raises :class:`ConfigurationError`.
    Then the missing parent directories of ``files`` are created, as the
    writers would do; the commands that own ``dirs`` create those.
    """
    wanted = [(flag, path, os.path.dirname(os.path.abspath(path)))
              for flag, path in files if path is not None]
    for flag, path, _ in wanted:
        if os.path.isdir(path):
            raise ConfigurationError(f"{flag} {path} is a directory")
    parents = [parent for _, _, parent in wanted]
    wanted += [(flag, path, os.path.abspath(path))
               for flag, path in dirs if path is not None]
    for flag, path, directory in wanted:
        existing = directory
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigurationError(
                f"{flag} {path}: {existing} is not a directory"
            )
    for parent in parents:
        os.makedirs(parent, exist_ok=True)


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.rftc import RFTCParams, distinct_completion_time_count

    params = RFTCParams(m_outputs=args.m, p_configs=args.p)
    print(f"repro {repro.__version__} — RFTC (DAC 2019) reproduction")
    print(f"configuration   : {params.label()}, N = {params.n_mmcms} MMCMs")
    print(f"frequency window: {params.f_lo_mhz}-{params.f_hi_mhz} MHz "
          f"(input {params.f_in_mhz} MHz)")
    print(f"stored clocks   : {params.total_frequencies}")
    print(
        "completion times: "
        f"{distinct_completion_time_count(params.m_outputs, params.p_configs, params.rounds)}"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.rftc import RFTCParams
    from repro.rftc.planner import plan_frequencies

    params = RFTCParams(m_outputs=args.m, p_configs=args.p)
    if args.out:
        _check_outputs([("--out", f"{args.out}{ext}")
                        for ext in (".json", ".coe", ".vh")])
    method = "naive-grid" if args.naive else "overlap-free"
    kwargs = {} if args.naive else {
        "rng": np.random.default_rng(args.seed),
        "hardware": not args.grid,
    }
    plan = plan_frequencies(params, method=method, **kwargs)
    times = plan.all_completion_times_ns()
    print(f"{params.label()} {method} plan")
    print(f"  frequencies : {plan.sets_mhz.min():.3f}-{plan.sets_mhz.max():.3f} MHz")
    print(f"  completion  : {times.min():.2f}-{times.max():.2f} ns "
          f"({times.size} enumerated)")
    print(f"  duplicates  : {plan.duplicate_count()}")
    if plan.hardware_settings:
        hs = plan.hardware_settings[0]
        print(f"  MMCM-exact  : yes (e.g. set 0: mult={hs.mult}, "
              f"divclk={hs.divclk}, odivs={hs.odivs})")
    if args.out:
        from repro.rftc.export import (
            save_plan,
            write_coe,
            write_verilog_header,
        )

        stem = args.out
        save_plan(plan, f"{stem}.json")
        n_words = write_coe(plan, f"{stem}.coe")
        write_verilog_header(plan, f"{stem}.vh")
        print(
            f"  exported    : {stem}.json, {stem}.coe ({n_words} ROM words), "
            f"{stem}.vh"
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.experiments.attack_suite import (
        EXTENDED_ATTACK_NAMES,
        run_attack_suite,
    )
    from repro.experiments.reporting import render_attack_suite
    from repro.experiments.scenarios import build_rftc, build_unprotected
    from repro.power.acquisition import AcquisitionCampaign

    attacks = tuple(args.attacks.split(","))
    unknown = set(attacks) - set(EXTENDED_ATTACK_NAMES)
    if unknown:
        raise ConfigurationError(f"unknown attacks: {sorted(unknown)}; "
                                 f"available: {EXTENDED_ATTACK_NAMES}")
    if args.target == "unprotected":
        scenario = build_unprotected()
    else:
        scenario = build_rftc(args.m, args.p, seed=args.seed)
    print(f"collecting {args.traces} traces from {scenario.name} ...")
    trace_set = AcquisitionCampaign(scenario.device, seed=args.seed).collect(
        args.traces
    )
    counts = [c for c in (args.traces // 4, args.traces // 2, args.traces) if c >= 8]
    result = run_attack_suite(
        trace_set,
        scenario.name,
        attacks=attacks,
        trace_counts=counts,
        n_repeats=args.repeats,
        byte_indices=(0,),
        rng=np.random.default_rng(args.seed + 1),
    )
    print(render_attack_suite(result))
    return 0


def _cmd_tvla(args: argparse.Namespace) -> int:
    from repro.experiments.figures import TVLA_FIXED_PLAINTEXT
    from repro.experiments.scenarios import build_rftc, build_unprotected
    from repro.leakage_assessment import TVLA_THRESHOLD, tvla_fixed_vs_random
    from repro.power.acquisition import AcquisitionCampaign

    if args.target == "unprotected":
        scenario = build_unprotected()
    else:
        scenario = build_rftc(args.m, args.p, seed=args.seed)
    campaign = AcquisitionCampaign(scenario.device, seed=args.seed)
    fixed, random_ = campaign.collect_fixed_vs_random(
        args.traces, TVLA_FIXED_PLAINTEXT
    )
    result = tvla_fixed_vs_random(fixed.traces, random_.traces)
    verdict = "PASS" if result.max_abs_t < TVLA_THRESHOLD else "LEAK"
    print(f"{scenario.name}: max |t| = {result.max_abs_t:.2f} over "
          f"{args.traces} traces/group -> {verdict} "
          f"(threshold {TVLA_THRESHOLD})")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import render_table1
    from repro.experiments.tables import block_ram_count, table1_rows

    print(render_table1(table1_rows(seed=args.seed)))
    print(f"Block RAMs for RFTC(3, 1024): {block_ram_count(seed=args.seed)} "
          "(paper: 20)")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure3_data

    data = figure3_data(n_encryptions=args.encryptions, seed=args.seed)
    for panel in data.values():
        print(f"{panel.label}: {panel.times_ns.min():.2f}-"
              f"{panel.times_ns.max():.2f} ns, "
              f"{panel.occupied_buckets} distinct times, "
              f"max identical {panel.max_identical}")
    return 0


def _write_metrics(obs, path: str) -> None:
    """Write ``obs``' metrics to ``path``: JSON for ``.json``, else Prometheus."""
    snapshot = obs.metrics.snapshot()
    text = (snapshot.to_json() if path.endswith(".json")
            else snapshot.to_prometheus())
    with open(path, "w") as handle:
        handle.write(text)
    print(f"metrics written to {path}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.attacks.models import expand_last_round_key
    from repro.errors import AcquisitionError
    from repro.experiments.figures import TVLA_FIXED_PLAINTEXT
    from repro.leakage_assessment import TVLA_THRESHOLD
    from repro.pipeline import CampaignSpec, StreamingCampaign
    from repro.pipeline.checkpoint import CampaignCheckpoint
    from repro.service.execution import job_consumers
    from repro.store import ChunkedTraceStore
    from repro.testing.faults import FaultPlan

    faults = None
    if args.inject_fault:
        with _input_error("bad --inject-fault spec"):
            faults = FaultPlan.parse(args.inject_fault)
    outputs = [("--metrics-out", args.metrics_out),
               ("--trace-out", args.trace_out)]
    obs = None
    if args.metrics_out or args.trace_out:
        from repro.obs import Observability

        obs = Observability.create()
        obs.tracer.enabled = bool(args.trace_out)  # buffer only to export

    def show_progress(p) -> None:
        print(
            f"  chunk {p.chunk_index + 1}/{p.n_chunks}: "
            f"{p.done_traces}/{p.total_traces} traces "
            f"({p.traces_per_second:.0f}/s)"
        )

    progress = None if args.quiet else show_progress

    if args.resume:
        if not args.checkpoint:
            raise ConfigurationError("--resume needs --checkpoint <file>")
        _check_outputs(outputs)
        with _input_error("cannot resume", AcquisitionError):
            ckpt = CampaignCheckpoint.load(args.checkpoint)
            ckpt_spec = ckpt.spec()
            store = None
            if args.out is not None:
                store = ChunkedTraceStore.open(args.out)
                if args.store_budget_bytes is not None:
                    store.disk_budget_bytes = args.store_budget_bytes
        mode = "tvla" if ckpt_spec.fixed_plaintext is not None else "cpa"
        # The checkpoint defines the campaign; flags the user *explicitly*
        # passed must agree with it (unset flags inherit the checkpoint).
        requested = {
            "target": args.target, "mode": args.mode, "m": args.m,
            "p": args.p, "seed": args.seed, "traces": args.traces,
            "chunk-size": args.chunk_size, "dtype": args.dtype,
        }
        checkpointed = {
            "target": ckpt_spec.target, "mode": mode,
            "m": ckpt_spec.m_outputs, "p": ckpt_spec.p_configs,
            "seed": ckpt.seed, "traces": ckpt.n_traces,
            "chunk-size": ckpt.chunk_size, "dtype": ckpt_spec.dtype,
        }
        mismatched = [
            f"--{flag} {requested[flag]} != {checkpointed[flag]}"
            for flag in requested
            if requested[flag] is not None
            and requested[flag] != checkpointed[flag]
        ]
        if mismatched:
            raise ConfigurationError(
                f"cannot resume from {args.checkpoint}: flags contradict "
                f"the checkpointed campaign: {', '.join(mismatched)} "
                "(drop them, or rerun with the original flags)"
            )
        print(f"resuming campaign from {args.checkpoint} ...")
        with _flag_errors(chunk_timeout_s="--chunk-timeout"):
            report = StreamingCampaign.resume(
                store,
                ckpt,
                consumers=job_consumers(ckpt_spec),
                workers=args.workers,
                progress=progress,
                checkpoint_path=args.checkpoint,
                chunk_timeout_s=args.chunk_timeout,
                faults=faults,
                obs=obs,
            )
        spec = report.spec
    else:
        mode = args.mode if args.mode is not None else "cpa"
        seed = args.seed if args.seed is not None else 2019
        spec = CampaignSpec(
            target=args.target if args.target is not None else "rftc",
            m_outputs=args.m if args.m is not None else 1,
            p_configs=args.p if args.p is not None else 16,
            plan_seed=seed,
            fixed_plaintext=TVLA_FIXED_PLAINTEXT if mode == "tvla" else None,
            dtype=args.dtype if args.dtype is not None else "float64",
        )
        n_traces = args.traces if args.traces is not None else 8000
        chunk_size = args.chunk_size if args.chunk_size is not None else 2000
        with _flag_errors(chunk_timeout_s="--chunk-timeout"):
            engine = StreamingCampaign(
                spec,
                chunk_size=chunk_size,
                workers=args.workers,
                seed=seed,
                chunk_timeout_s=args.chunk_timeout,
                faults=faults,
                obs=obs,
                store_budget_bytes=args.store_budget_bytes,
            )
        with _input_error("--traces"):
            engine.chunk_layout(n_traces)
        _check_outputs(outputs + [("--checkpoint", args.checkpoint)],
                       dirs=[("--out", args.out)])
        if args.out is not None:
            with _input_error("cannot start campaign", AcquisitionError):
                ChunkedTraceStore.prepare(args.out)
        print(f"streaming {n_traces} traces from {spec.label()} "
              f"({args.workers} workers, chunks of {chunk_size}) ...")
        report = engine.run(
            n_traces,
            consumers=job_consumers(spec),
            store=args.out,
            progress=progress,
            checkpoint=args.checkpoint,
        )
    print(report.summary())
    times = report.results["completion"]
    print(f"completion times: {times.min_ns:.2f}-{times.max_ns:.2f} ns, "
          f"{times.distinct_times} distinct, max identical {times.max_identical}")
    if mode == "cpa":
        cpa = report.results["cpa[0]"]
        true_byte = int(expand_last_round_key(spec.key)[0])
        print(f"CPA byte 0: best guess 0x{cpa.best_guess:02x}, "
              f"true-key rank {cpa.rank_of(true_byte)}")
    else:
        tvla = report.results["tvla"]
        verdict = "PASS" if tvla.max_abs_t < TVLA_THRESHOLD else "LEAK"
        print(f"TVLA: max |t| = {tvla.max_abs_t:.2f} -> {verdict} "
              f"(threshold {TVLA_THRESHOLD})")
    if obs is not None:
        if args.metrics_out:
            _write_metrics(obs, args.metrics_out)
        if args.trace_out:
            from repro.obs import write_trace_jsonl

            lines = write_trace_jsonl(obs.tracer.events, args.trace_out)
            print(f"trace written to {args.trace_out} ({lines - 1} events)")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.scenarios import MatrixRunner, load_matrix, render_markdown, render_report
    from repro.scenarios.report import report_json

    matrix = load_matrix(args.spec)
    _check_outputs([("--metrics-out", args.metrics_out)],
                   dirs=[("--out", args.out)])
    obs = None
    if args.metrics_out:
        from repro.obs import Observability

        obs = Observability.create()
        obs.tracer.enabled = False  # spans feed the histograms; no trace
    runner = MatrixRunner(
        matrix,
        args.out,
        workers=args.workers,
        obs=obs,
    )
    print(f"matrix {matrix.name}: {matrix.n_cells} cells "
          f"(digest {matrix.matrix_digest()[:12]}) -> {args.out}")

    def on_cell(cell, status) -> None:
        if not args.quiet:
            print(f"  [{status:>6}] {cell.name} ({cell.cell_digest()[:12]})")

    payloads = runner.run(resume=args.resume, on_cell=on_cell)
    report = render_report(matrix, payloads)
    out_dir = args.out
    json_path = os.path.join(out_dir, "report.json")
    md_path = os.path.join(out_dir, "report.md")
    with open(json_path, "w") as handle:
        handle.write(report_json(report))
    with open(md_path, "w") as handle:
        handle.write(render_markdown(report))
    summary = report["summary"]
    print(f"report: {json_path} (+ report.md)")
    n_recovery = (summary['n_cpa_cells'] + summary['n_mlp_cells']
                  + summary['n_lattice_cells'])
    print(f"  key recovery disclosed {summary['disclosed_cells']}/{n_recovery}, "
          f"TVLA leaking {summary['leaking_cells']}/{summary['n_tvla_cells']}")
    if obs is not None:
        _write_metrics(obs, args.metrics_out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.scenarios import SearchConfig, run_search

    config = SearchConfig(
        m_outputs=args.m,
        p_configs=args.p,
        n_traces=args.traces,
        chunk_size=args.chunk_size,
        noise_std=args.noise_std,
        acquisition=args.acquisition,
        seed=args.seed,
        seed_base=args.seed_base,
        grid=args.grid,
        elites=args.elites,
        children=args.children,
    )
    _check_outputs([("--out", args.out)])
    print(f"searching {args.budget} RFTC({args.m}, {args.p}) plan seeds "
          f"(grid {args.grid}, then {args.children} children/generation) ...")

    def progress(entry) -> None:
        if not args.quiet:
            fd = entry["first_disclosure"]
            print(f"  seed {entry['plan_seed']:>10} [{entry['phase']}] "
                  f"score {entry['score']:.3f} "
                  f"disclosure {fd if fd is not None else 'never'} "
                  f"max|t| {entry['max_abs_t']:.2f}")

    ranking = run_search(
        config, args.budget, workers=args.workers, progress=progress
    )
    best = ranking["best"]
    print(f"best: plan seed {best['plan_seed']} score {best['score']:.3f} "
          f"({best['freq_min_mhz']:.1f}-{best['freq_max_mhz']:.1f} MHz, "
          f"{best['n_sets']} sets)")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(
                json_module.dumps(ranking, sort_keys=True, indent=1) + "\n"
            )
        print(f"ranking written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import CampaignService, TenantPolicy
    from repro.service.server import CampaignServer
    from repro.service.tenancy import validate_tenant

    policies = {}
    for text in args.tenant or ():
        with _input_error(f"bad --tenant spec {text!r}"):
            name, policy = TenantPolicy.parse(text)
        if name in policies:
            raise ConfigurationError(f"--tenant {name!r} given twice")
        policies[name] = policy
    tokens = {}
    for text in args.auth or ():
        name, sep, token = text.partition(":")
        with _input_error(f"bad --auth spec {text!r}"):
            validate_tenant(name)
            if not sep or not token:
                raise ConfigurationError("expected TENANT:TOKEN")
        if name in tokens:
            raise ConfigurationError(f"--auth {name!r} given twice")
        tokens[name] = token
    _check_outputs(dirs=[("--data-dir", args.data_dir)])
    if args.host not in ("127.0.0.1", "localhost", "::1") and not tokens:
        print(
            f"warning: binding {args.host} without --auth tokens — every "
            "client can see and cancel every tenant's jobs",
            file=sys.stderr,
        )
    service = CampaignService(
        args.data_dir,
        worker_budget=args.worker_budget,
        policies=policies,
        cache_entries=args.cache_entries,
        shed_queue_depth=args.shed_queue_depth,
        shed_journal_records=args.shed_journal_records,
        compact_journal=args.compact_journal,
    )
    server_kwargs = {}
    if args.max_body_bytes is not None:
        server_kwargs["max_body_bytes"] = args.max_body_bytes
    if args.read_timeout is not None:
        server_kwargs["read_timeout_s"] = args.read_timeout
    server = CampaignServer(
        service, host=args.host, port=args.port, tokens=tokens,
        **server_kwargs,
    )
    service.start()
    try:
        host, port = server.start()
        print(
            f"campaign service listening on http://{host}:{port} "
            f"(data: {args.data_dir}, workers: {args.worker_budget})",
            flush=True,
        )
        stop = threading.Event()

        def request_stop(signum, frame) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)
        stop.wait()
    finally:
        server.stop()
        service.shutdown()
    print("campaign service shut down cleanly", flush=True)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ChunkedTraceStore

    if not os.path.isdir(args.path):
        # A path that was never a store is a usage error (exit 2), distinct
        # from a store that exists but fails to open or verify (exit 1).
        problem = (
            "not a store directory" if os.path.exists(args.path)
            else "store path does not exist"
        )
        raise ConfigurationError(f"{problem}: {args.path}")
    store = ChunkedTraceStore.open(args.path, quarantine=False)
    if args.action == "info":
        sizes = store.chunk_sizes()
        print(f"store    : {store.path} (format v{store.version})")
        print(f"traces   : {store.n_traces} in {store.n_chunks} chunks "
              f"({min(sizes) if sizes else 0}-{max(sizes) if sizes else 0} per chunk)")
        print(f"samples  : {store.n_samples} @ {store.sample_period_ns} ns")
        print(f"dtype    : {store.dtype if store.dtype else 'unrecorded'}")
        stored = store.byte_counts()[1]
        print(f"stored   : {stored} bytes" if stored else "stored   : unrecorded")
        for k, v in store.metadata.items():
            print(f"meta     : {k} = {v}")
        return 0
    verification = store.verify()
    print(verification.summary())
    return 0 if verification.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import MetricsSnapshot, render_metrics

    try:
        with open(args.path) as handle:
            snapshot = MetricsSnapshot.from_json(handle.read())
    except (OSError, ValueError) as exc:
        # Missing, a directory, undecodable, or not JSON (say, the
        # Prometheus text --metrics-out writes by default): tell the user
        # which file format this command reads.
        raise ConfigurationError(
            f"cannot render {args.path}: {exc} (obs render reads the JSON "
            "snapshot format — save metrics with --metrics-out <file>.json)"
        ) from exc
    print(render_metrics(snapshot, width=args.width))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import run_suites

    _check_outputs([("--drift-out", args.drift_out)])
    with _flag_errors(schedules="--schedules", plan_sets="--plan-sets"):
        report = run_suites(
            names=args.suite or None,
            seed=args.seed,
            schedules=args.schedules,
            plan_sets=args.plan_sets,
            drift_out=args.drift_out,
        )
    print(report.summary(verbose=args.verbose))
    if args.drift_out and any(s.name == "drift" for s in report.suites):
        print(f"drift manifest written to {args.drift_out}")
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    _check_outputs([("--out", args.out)])
    text = generate_report(profile=args.profile, seed=args.seed)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rftc",
        description="RFTC (DAC 2019) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, m=3, pc=1024, traces=None):
        p.add_argument("--m", type=int, default=m, help="MMCM outputs used (M)")
        p.add_argument("--p", type=int, default=pc, help="stored sets (P)")
        p.add_argument("--seed", type=int, default=2019)
        if traces is not None:
            p.add_argument("--traces", type=int, default=traces)

    p = sub.add_parser("info", help="configuration summary")
    common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("plan", help="run the frequency planner")
    common(p, pc=64)
    p.add_argument("--naive", action="store_true", help="Fig. 3-b naive grid")
    p.add_argument("--grid", action="store_true",
                   help="idealized grid instead of the MMCM lattice")
    p.add_argument("--out", default=None,
                   help="export stem: writes <out>.json/.coe/.vh design artifacts")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("attack", help="run the attack battery")
    common(p, m=1, pc=16, traces=4000)
    p.add_argument("--target", choices=("unprotected", "rftc"), default="rftc")
    p.add_argument("--attacks", default="cpa,dtw-cpa,fft-cpa",
                   help="comma-separated attack names")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("tvla", help="fixed-vs-random leakage assessment")
    common(p, m=3, pc=8, traces=6000)
    p.add_argument("--target", choices=("unprotected", "rftc"), default="rftc")
    p.set_defaults(func=_cmd_tvla)

    p = sub.add_parser("table1", help="regenerate the comparison table")
    p.add_argument("--seed", type=int, default=23)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig3", help="completion-time histogram statistics")
    p.add_argument("--encryptions", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=33)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser(
        "campaign",
        help="streaming chunked campaign through repro.pipeline",
    )
    # Sentinel defaults (None) so --resume can tell "flag omitted" from
    # "flag passed": omitted flags inherit the checkpointed campaign,
    # contradicting flags are a usage error (exit 2).
    p.add_argument("--m", type=int, default=None,
                   help="MMCM outputs used (M; default 1)")
    p.add_argument("--p", type=int, default=None,
                   help="stored sets (P; default 16)")
    p.add_argument("--seed", type=int, default=None, help="default 2019")
    p.add_argument("--traces", type=int, default=None, help="default 8000")
    p.add_argument("--target", default=None,
                   help="unprotected, rftc, or a baseline name (default rftc)")
    p.add_argument("--mode", choices=("cpa", "tvla"), default=None,
                   help="default cpa")
    p.add_argument("--dtype", choices=("float64", "float32"), default=None,
                   help="trace sample dtype (default float64; float32 "
                        "halves bytes and speeds the CPA fold, bounded by "
                        "the drift budgets)")
    p.add_argument("--workers", type=int, default=1,
                   help="acquisition worker processes")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="traces per chunk (memory granularity; default 2000)")
    p.add_argument("--out", default=None,
                   help="directory for a ChunkedTraceStore (default: no store)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-chunk progress lines")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file rewritten after every chunk "
                        "(enables --resume after a crash)")
    p.add_argument("--resume", action="store_true",
                   help="continue the campaign recorded in --checkpoint "
                        "(reuses --out as the store; --mode must match)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   help="seconds to wait for a pooled chunk before degrading "
                        "to inline execution")
    p.add_argument("--store-budget-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="fail the campaign (typed StorageExhaustedError) "
                        "before a store append would push stored bytes "
                        "past BYTES")
    p.add_argument("--inject-fault", default=None, metavar="PLAN",
                   help="deterministic fault plan for testing, e.g. "
                        "'worker@1,crash@3,enospc@5' "
                        "(see repro.testing.faults)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write a metrics snapshot after the run "
                        "(.json -> JSON, anything else -> Prometheus text)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write the span trace as JSON Lines")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "matrix",
        help="run a declarative scenario matrix (repro.scenarios)",
    )
    p.add_argument("spec", help="matrix file (JSON, schema "
                                "rftc-scenario-matrix/1; see docs/scenarios.md)")
    p.add_argument("--out", required=True,
                   help="working directory: resume state, per-cell "
                        "checkpoints, report.json and report.md")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per cell")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed cells recorded in --out "
                        "(matrix-granularity resume; half-finished cells "
                        "continue from their engine checkpoint)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write a metrics snapshot after the run "
                        "(.json -> JSON, anything else -> Prometheus text)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser(
        "search",
        help="search MMCM-realizable frequency sets (grid + evolutionary)",
    )
    p.add_argument("--budget", type=int, default=8,
                   help="candidate plan seeds to evaluate")
    p.add_argument("--m", type=int, default=2, help="MMCM outputs used (M)")
    p.add_argument("--p", type=int, default=16, help="stored sets (P)")
    p.add_argument("--traces", type=int, default=1200,
                   help="traces per evaluation cell")
    p.add_argument("--chunk-size", type=int, default=400)
    p.add_argument("--noise-std", type=float, default=1.0)
    p.add_argument("--acquisition", choices=("scope", "cloud"),
                   default="scope")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed of the cells and the child draws")
    p.add_argument("--seed-base", type=int, default=100,
                   help="first plan seed of the grid phase")
    p.add_argument("--grid", type=int, default=4,
                   help="consecutive plan seeds evaluated exhaustively first")
    p.add_argument("--elites", type=int, default=2,
                   help="top candidates retained across generations")
    p.add_argument("--children", type=int, default=4,
                   help="seeded draws per evolutionary generation")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per evaluation cell")
    p.add_argument("--out", default=None,
                   help="write the ranking as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-candidate progress lines")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant campaign service daemon (repro.service)",
    )
    p.add_argument("--data-dir", required=True,
                   help="durable state root: job journal, checkpoints, stores")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--worker-budget", type=int, default=2,
                   help="job processes, each running one campaign at a time")
    p.add_argument("--cache-entries", type=int, default=1024,
                   help="result-cache capacity (FIFO eviction)")
    p.add_argument("--tenant", action="append", metavar="SPEC",
                   help="tenant policy, e.g. 'alice:share=2,max_queued=8,"
                        "store_quota_mb=64' (repeatable)")
    p.add_argument("--auth", action="append", metavar="TENANT:TOKEN",
                   help="require per-tenant bearer tokens and scope job "
                        "routes to the caller's tenant (repeatable); "
                        "without it all clients are mutually trusted")
    p.add_argument("--compact-journal", action="store_true",
                   help="rewrite the job journal to one record per job "
                        "after recovery, before serving")
    p.add_argument("--shed-queue-depth", type=int, default=None,
                   metavar="N",
                   help="shed new submissions (503 + Retry-After) while "
                        "N or more jobs are queued globally")
    p.add_argument("--shed-journal-records", type=int, default=None,
                   metavar="N",
                   help="shed new submissions while the journal holds "
                        "N or more records (compact to recover)")
    p.add_argument("--max-body-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="reject request bodies over BYTES with 413 "
                        "(default 1 MiB)")
    p.add_argument("--read-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="close connections whose request is not fully "
                        "read in SECONDS with 408 (default 10)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("store", help="inspect or verify a ChunkedTraceStore")
    p.add_argument("action", choices=("info", "verify"))
    p.add_argument("path", help="store directory")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser("obs", help="render a saved metrics snapshot")
    p.add_argument("action", choices=("render",))
    p.add_argument("path", help="JSON metrics snapshot (--metrics-out x.json)")
    p.add_argument("--width", type=int, default=40,
                   help="histogram bar width in characters")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "verify",
        help="run the differential verification suites (repro.verify)",
    )
    p.add_argument(
        "--suite",
        action="append",
        choices=("aes", "accumulators", "drp", "planner", "drift", "lint"),
        help="suite to run (repeatable; default: all six)",
    )
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--schedules", type=int, default=50,
                   help="randomized accumulator schedules per kind")
    p.add_argument("--plan-sets", type=int, default=1024,
                   help="plan size for the DRP round-trip audit")
    p.add_argument("--drift-out", default=None, metavar="FILE",
                   help="write the drift budgets + observed values as JSON")
    p.add_argument("--verbose", action="store_true",
                   help="list passing checks, not just failures")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="generate a full markdown report")
    p.add_argument("--profile", choices=("smoke", "quick"), default="smoke")
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; the only place an exception becomes an exit code.

    A bad input -- a flag value, a path, a refused checkpoint or store --
    prints its one-line message and exits 2.  A run that fails after it
    started (out of storage, a broken pool, an injected crash, an OS
    error) prints one line and exits 1.  Anything else is a bug and keeps
    its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, CheckpointError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ReproError, OSError) as exc:
        what = ("out of storage" if isinstance(exc, StorageExhaustedError)
                else "failed")
        print(f"{args.command} {what}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Conventional 128 + SIGINT, and no traceback spray at the shell.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
