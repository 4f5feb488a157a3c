//! # scan-bench — the experiment harness
//!
//! One binary per evaluation artefact of the paper (run with
//! `cargo run --release -p scan-bench --bin <name>`):
//!
//! | binary   | reproduces                                                  |
//! |----------|-------------------------------------------------------------|
//! | `table1` | Table I — the variable-parameter grid (validated + smoke)   |
//! | `table2` | Table II — per-stage factors, published vs regression-learned |
//! | `table3` | Table III — fixed attributes as configured                  |
//! | `fig4`   | Fig. 4 — profit vs inter-arrival interval per scaling policy |
//! | `fig5`   | Fig. 5 — reward-to-cost ratio vs total core-stages          |
//! | `sweep`  | §IV-B — the full policy-permutation sweep                   |
//!
//! Criterion microbenches (`cargo bench -p scan-bench`) cover the hot
//! kernels (event calendar, SPARQL evaluation, sharding, plan search) and
//! reduced-horizon versions of the figure experiments, plus the ablation
//! suite called out in DESIGN.md §8.
//!
//! Output conventions: plain-text tables with `mean ± σ` entries, exactly
//! the series the paper plots.

#![forbid(unsafe_code)]

use scan_metrics::Metrics;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::fleet::{run_fleet_replicated_with, run_fleet_with, FleetConfig};
use scan_platform::instrument::DEFAULT_WINDOW_TU;
use scan_platform::metrics::{ReplicatedMetrics, SessionMetrics};
use scan_platform::session::run_session_with;
use scan_platform::sweep::run_replicated;
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::{merge_in_order, prof, JsonlWriter};
use scan_spans::{Recorder, RecorderFactory, SpanSet};
use scan_tracestore::{TraceStore, TraceStoreFactory};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default repetitions: the paper's "all measurements were repeated 10
/// times".
pub const PAPER_REPETITIONS: u64 = 10;

/// The workspace-wide base seed for published experiments.
pub const EXPERIMENT_SEED: u64 = 0x5CA4_2015;

/// Runs one Table I cell with paper repetitions.
pub fn run_cell(variable: VariableParams, sim_time: f64, reps: u64) -> ReplicatedMetrics {
    let mut cfg = ScanConfig::new(variable, EXPERIMENT_SEED);
    cfg.fixed.sim_time_tu = sim_time;
    run_replicated(&cfg, reps)
}

/// The standard benchmarked fleet shape at `tenants` tenants: fig4's
/// predictive cell as the per-tenant config, four jobs per tenant, and a
/// shared private pool of one solo tier (624 cores) or two cores per
/// tenant, whichever is larger — contention stays constant-per-tenant as
/// the fleet grows, so every fleet drains well before the backstop and
/// jobs/sec is comparable across scales. Used by the `fleet` bin (CI
/// smoke + ledger) and the `fleet` criterion bench.
pub fn fleet_cfg(tenants: u16) -> FleetConfig {
    let mut base =
        ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), EXPERIMENT_SEED);
    // A backstop only: run-to-completion fleets drain long before this.
    base.fixed.sim_time_tu = 2_000.0;
    let mut cfg = FleetConfig::new(base, tenants);
    cfg.jobs_per_tenant = 4;
    cfg.shared_private_cores = cfg.shared_private_cores.max(tenants as u32 * 2);
    cfg
}

/// Formats `mean ± σ` to two decimals.
pub fn pm(stats: &scan_sim::stats::OnlineStats) -> String {
    format!("{:9.2} ± {:7.2}", stats.mean(), stats.stddev())
}

/// Parses a `--<flag> <path>` (or `--<flag>=<path>`) option from argv.
/// `flag` is given without the leading dashes.
pub fn path_flag_from_args(flag: &str) -> Option<PathBuf> {
    let spaced = format!("--{flag}");
    let joined = format!("--{flag}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == spaced {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix(&joined) {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// Writes a [`TraceStore`] as an SCTS export to `path`, reporting rows,
/// bytes, and the store digest (the CI fingerprint).
fn write_store(store: &TraceStore, label: &str, path: &Path) {
    let bytes = store.to_bytes();
    match std::fs::write(path, &bytes) {
        Ok(()) => println!(
            "store: wrote {} ({label}, {} events, {} bytes, digest {:016x})",
            path.display(),
            store.events(),
            bytes.len(),
            store.digest()
        ),
        Err(e) => eprintln!("store: failed to write {}: {e}", path.display()),
    }
}

/// Writes the artefacts of one representative session (repetition 0 of
/// `cfg`) that argv asks for, in this order: `--trace <path>` (typed
/// JSONL), `--store <path>` (SCTS export), `--spans <path>` with
/// `--slowest N` (Perfetto timeline + critical-path report), and
/// `--metrics <path>` / `--profile <path>` (registry exports and
/// wall-clock profile). Each artefact comes from its own run, separate
/// from the measured repetitions, so tables are unaffected. Used by the
/// `fig4`, `fig5` and `sweep` bins; without any of the flags it does
/// nothing.
pub fn dump_session_artefacts(cfg: &ScanConfig) {
    if let Some(path) = path_flag_from_args("trace") {
        dump_trace(cfg, &path);
    }
    if let Some(path) = path_flag_from_args("store") {
        dump_store(cfg, &path);
    }
    let (spans_path, slowest) = spans_flags_from_args();
    if let Some(path) = spans_path {
        dump_spans(cfg, &path, slowest);
    }
    let metrics_path = path_flag_from_args("metrics");
    dump_instrumented(cfg, metrics_path.as_deref(), path_flag_from_args("profile").as_deref());
}

/// Ingests one representative session (repetition 0 of `cfg`) into a
/// columnar [`TraceStore`] and writes its SCTS export to `path`. The
/// store-building run is separate from the measured repetitions, so
/// tables are unaffected — the `--store` analogue of [`dump_trace`].
fn dump_store(cfg: &ScanConfig, path: &Path) {
    let (_, store) = run_session_with(cfg, 0, TraceStore::new());
    write_store(&store, "1 session", path);
}

/// Runs `repetitions` whole fleets with one [`TraceStore`] per tenant
/// session, merges them in `(repetition, tenant)` order, and writes the
/// merged SCTS export to `path`. The merged store — and therefore the
/// export bytes and digest — is bit-identical for any
/// `RAYON_NUM_THREADS`, which CI exploits by diffing two exports.
pub fn dump_fleet_store(cfg: &FleetConfig, repetitions: u64, path: &Path) {
    let factory = TraceStoreFactory::fleet(u64::from(cfg.tenants));
    let (_, store) = run_fleet_replicated_with(cfg, repetitions, &factory);
    write_store(&store, &format!("{} fleet reps", repetitions), path);
}

/// Dumps the typed JSONL trace of one representative session (repetition
/// 0 of `cfg`) to `path`, reporting what was written. Used by the bench
/// bins' `--trace` flag; the traced run is separate from the measured
/// repetitions, so tables are unaffected.
fn dump_trace(cfg: &ScanConfig, path: &Path) {
    let traced = || -> io::Result<SessionMetrics> {
        let writer = JsonlWriter::new(BufWriter::new(File::create(path)?));
        let (metrics, writer) = run_session_with(cfg, 0, writer);
        // A write error latches inside the observer; surface it here.
        if writer.errored() {
            return Err(io::Error::other("trace write failed; output truncated"));
        }
        writer.into_inner().flush()?;
        Ok(metrics)
    };
    match traced() {
        Ok(m) => println!(
            "trace: wrote {} ({} events dispatched, {} jobs completed)",
            path.display(),
            m.events,
            m.jobs_completed
        ),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

/// Parses a numeric `--<flag> N` (or `--<flag>=N`) option from argv.
/// `flag` is given without the leading dashes; unparsable values count
/// as absent.
pub fn num_flag_from_args(flag: &str) -> Option<usize> {
    let spaced = format!("--{flag}");
    let joined = format!("--{flag}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == spaced {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix(&joined) {
            return v.parse().ok();
        }
    }
    None
}

/// The `--spans <path>` / `--slowest N` pair shared by the bench bins,
/// parsed from argv (`--slowest` defaults to 10 rows when absent).
pub fn spans_flags_from_args() -> (Option<PathBuf>, usize) {
    (path_flag_from_args("spans"), num_flag_from_args("slowest").unwrap_or(10))
}

/// A copy of `cfg` with the SLO monitor armed: spans runs default the
/// target to the break-even latency (`rmax / rpenalty`, the point where
/// a time-based reward hits zero) when the caller hasn't set one, so
/// `slo_violation` events and the burn-rate meters light up.
fn with_slo_default(cfg: &ScanConfig) -> ScanConfig {
    let mut cfg = cfg.clone();
    if cfg.slo_target_tu.is_none() {
        cfg.slo_target_tu = Some(cfg.breakeven_latency_tu());
    }
    cfg
}

/// Writes the span artefacts: the Chrome/Perfetto trace-event JSON to
/// `path`, and the aggregate + slowest-jobs text report to `<path>.txt`
/// (also echoed on stdout). Every line of the report is deterministic —
/// byte-identical across `RAYON_NUM_THREADS` — which CI exploits by
/// comparing the report files of a 1-thread and an 8-thread fleet run.
/// `timeline` is the (store, spans) pair the Perfetto document renders —
/// always a single run, because job/VM ids restart per repetition —
/// while `report_spans` may cover many merged repetitions.
fn write_spans(
    timeline: (&TraceStore, &SpanSet),
    report_spans: &SpanSet,
    label: &str,
    path: &Path,
    slowest: usize,
) {
    let doc = scan_spans::perfetto::export(timeline.0, timeline.1);
    let mut report = scan_spans::render(&scan_spans::aggregate(report_spans));
    report.push_str(&scan_spans::render_slowest(report_spans, slowest));
    print!("{report}");
    let mut report_path = path.as_os_str().to_os_string();
    report_path.push(".txt");
    let report_path = PathBuf::from(report_path);
    match std::fs::write(path, &doc).and_then(|()| std::fs::write(&report_path, &report)) {
        Ok(()) => println!(
            "spans: wrote {} (perfetto, {} bytes) and {} ({label}, {} jobs, {} in flight)",
            path.display(),
            doc.len(),
            report_path.display(),
            report_spans.jobs.len(),
            report_spans.in_flight
        ),
        Err(e) => eprintln!("spans: failed to write {}: {e}", path.display()),
    }
}

/// Runs one representative session (repetition 0 of `cfg`, SLO monitor
/// armed at the break-even default) with a [`Recorder`] — a columnar
/// store and the span observer on one stream — and writes the span
/// artefacts. The `--spans` analogue of [`dump_store`]; the recorded run
/// is separate from the measured repetitions, so tables are unaffected.
fn dump_spans(cfg: &ScanConfig, path: &Path, slowest: usize) {
    let cfg = with_slo_default(cfg);
    let (_, rec) = run_session_with(&cfg, 0, Recorder::default());
    let spans = rec.spans.into_spans();
    write_spans((&rec.store, &spans), &spans, "1 session", path, slowest);
}

/// Runs `repetitions` whole fleets with one [`Recorder`] per tenant
/// session and writes the span artefacts: the aggregate report covers
/// every repetition (merged in `(repetition, tenant)` order, so it is
/// bit-identical for any `RAYON_NUM_THREADS`), while the Perfetto JSON
/// covers repetition 0 only — job and VM ids restart every repetition,
/// so a multi-repetition timeline would stack unrelated slices.
pub fn dump_fleet_spans(cfg: &FleetConfig, repetitions: u64, path: &Path, slowest: usize) {
    let mut cfg = cfg.clone();
    cfg.base = Arc::new(with_slo_default(&cfg.base));
    let factory = RecorderFactory::fleet(u64::from(cfg.tenants));
    let (_, merged) = run_fleet_replicated_with(&cfg, repetitions, &factory);
    let (_, rep0) = run_fleet_with(&cfg, 0, &factory);
    let first = merge_in_order(rep0).expect("a fleet has at least one tenant");
    write_spans(
        (&first.store, &first.spans),
        &merged.spans,
        &format!("{repetitions} fleet reps"),
        path,
        slowest,
    );
}

/// Runs one instrumented representative session (repetition 0 of `cfg`)
/// and writes its artefacts. Used by the bench bins' `--metrics` and
/// `--profile` flags; like `--trace`, the instrumented run is separate
/// from the measured repetitions, so tables are unaffected.
///
/// * `metrics_path` — the metrics registry as self-describing JSONL,
///   plus a Prometheus text rendering at `<path>.prom`.
/// * `profile_path` — flamegraph-compatible collapsed stacks of the
///   run's wall-clock self-profile; the sorted self/total table goes to
///   stdout.
fn dump_instrumented(cfg: &ScanConfig, metrics_path: Option<&Path>, profile_path: Option<&Path>) {
    if metrics_path.is_none() && profile_path.is_none() {
        return;
    }
    let metrics = Metrics::enabled(DEFAULT_WINDOW_TU);
    let mut platform = Platform::new(cfg.clone(), 0);
    platform.set_metrics(&metrics);
    if profile_path.is_some() {
        // Profile the run, not the construction.
        prof::enable();
        prof::reset_thread();
    }
    platform.run();
    prof::mark_session();
    let summary = prof::take_summary();
    // `run` consumed the platform and every registry handle clone.
    let registry = metrics.into_registry().expect("registry uniquely owned after the run");
    if let Some(path) = metrics_path {
        let write = || -> io::Result<PathBuf> {
            let mut jsonl = BufWriter::new(File::create(path)?);
            scan_metrics::write_jsonl(&registry, &mut jsonl)?;
            jsonl.flush()?;
            let mut prom_path = path.as_os_str().to_os_string();
            prom_path.push(".prom");
            let prom_path = PathBuf::from(prom_path);
            let mut prom = BufWriter::new(File::create(&prom_path)?);
            scan_metrics::write_prometheus(&registry, &mut prom)?;
            prom.flush()?;
            Ok(prom_path)
        };
        match write() {
            Ok(prom_path) => println!(
                "metrics: wrote {} (+ {}): {} counters, {} histograms, {} series",
                path.display(),
                prom_path.display(),
                registry.counters().len(),
                registry.histograms().len(),
                registry.series_entries().len(),
            ),
            Err(e) => eprintln!("metrics: failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = profile_path {
        let write = || -> io::Result<()> {
            let mut collapsed = BufWriter::new(File::create(path)?);
            summary.write_collapsed(&mut collapsed)?;
            collapsed.flush()?;
            Ok(())
        };
        match write() {
            Ok(()) => {
                println!("profile: wrote collapsed stacks to {}", path.display());
                let mut table = Vec::new();
                if summary.write_table(&mut table).is_ok() {
                    print!("{}", String::from_utf8_lossy(&table));
                }
            }
            Err(e) => eprintln!("profile: failed to write {}: {e}", path.display()),
        }
    }
}
