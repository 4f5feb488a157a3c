//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo-busy|fleet-tenants|fig4-sweep|explain-session> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--record]
//! ```
//!
//! Builds the workload's inputs from `--seed`, repeats its body for
//! `--seconds`, checks every repetition's output against the recorded
//! fingerprint (or, for an unrecorded seed, against the first
//! repetition), and prints a human-readable table followed by one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` spends half the time
//! untraced and half with the `scan_sim::prof` scopes and benchmark-side
//! spans on, and reports the per-layer metrics. `--record` prints the
//! seed's fingerprint line for `fingerprints.tsv` instead. See
//! `perfbench/README.md` for every metric and workload.

mod clock;
mod loc;
mod spanlog;
mod stats;
mod workloads;

use scan_sim::prof::{self, FrameStat, ProfSummary};
use scan_sim::Merge;
use spanlog::SpanLog;
use stats::{median, min, quantile};
use std::hint::black_box;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    bootstrap_time, ExplainSession, Fig4Sweep, Fingerprint, FleetTenants, Outcome, SinkCosts,
    SoloBusy, Workload,
};

/// Recorded output fingerprints, one `workload seed …` line each.
const FINGERPRINTS: &str = include_str!("../fingerprints.tsv");
/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Tenants in the `fleet-tenants` fleet.
const FLEET_TENANTS: u16 = 200;
/// Set-up batches timed before the first repetition (one more precedes
/// each repetition).
const SETUP_BATCHES: usize = 11;
/// Shortest set-up batch, s: set-ups faster than this are timed in
/// batches and averaged, so timer resolution does not dominate.
const SETUP_BATCH_S: f64 = 0.002;
/// Body repetitions per phase, however long they take.
const MIN_REPS: usize = 3;
/// Interleaved rounds of the four explain sink variants.
const SINK_ROUNDS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <solo-busy|fleet-tenants|fig4-sweep|explain-session> \
[--seed N] [--seconds S] [--trace 0|1] [--record]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let result = match args.workload.as_str() {
        "solo-busy" => bench(&SoloBusy { seed }, &args),
        "fleet-tenants" => bench(&FleetTenants { seed, tenants: FLEET_TENANTS }, &args),
        "fig4-sweep" => bench(&Fig4Sweep { seed }, &args),
        "explain-session" => bench(&ExplainSession { seed }, &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed body repetition that ran to completion.
struct Rep {
    wall_s: f64,
    /// One `DataBroker::bootstrap` call timed just before (0 if not probed).
    boot_s: f64,
    out: Outcome,
}

/// Repetition bookkeeping shared by the phases of one run.
struct Runner<'a, W: Workload> {
    workload: &'a W,
    name: &'a str,
    expected: Option<Fingerprint>,
    setup_s: Vec<f64>,
    per_batch: usize,
    attempted: u64,
    failed: u64,
    log: SpanLog,
}

impl<W: Workload> Runner<'_, W> {
    /// Times one batch of as many set-ups as fill [`SETUP_BATCH_S`],
    /// recording seconds per set-up. Each input is dropped before the
    /// next is built, as in the body loop.
    fn time_setup_batch(&mut self) {
        if self.per_batch == 0 {
            let t = Instant::now();
            drop(self.workload.setup());
            let n = (SETUP_BATCH_S / t.elapsed().as_secs_f64().max(1e-9)).ceil();
            self.per_batch = (n as usize).clamp(1, 1_000_000);
        }
        let t = Instant::now();
        for _ in 0..self.per_batch {
            black_box(self.workload.setup());
        }
        self.setup_s.push(t.elapsed().as_secs_f64() / self.per_batch as f64);
    }

    /// Repeats the body until `budget_s` has passed (and at least
    /// [`MIN_REPS`] times), checking each repetition's output. A set-up
    /// batch, and with `probe_kb` one `DataBroker::bootstrap` call, are
    /// timed just before each repetition, so they share its conditions.
    fn phase(&mut self, budget_s: f64, traced: bool, probe_kb: bool) -> Vec<Rep> {
        let start = Instant::now();
        let mut reps = Vec::new();
        let mut tries = 0;
        while tries < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
            tries += 1;
            self.time_setup_batch();
            let boot_s = if probe_kb {
                bootstrap_time(&self.workload.platform_cfg(), tries as u64)
            } else {
                0.0
            };
            let input = self.workload.setup();
            self.log.set_rep(self.attempted);
            self.attempted += 1;
            let t = Instant::now();
            let res =
                catch_unwind(AssertUnwindSafe(|| self.workload.run(input, &mut self.log, traced)));
            let wall_s = t.elapsed().as_secs_f64();
            let out = match res {
                Ok(out) => out,
                Err(_) => {
                    self.failed += 1;
                    eprintln!("perfbench: {}: repetition {} panicked", self.name, self.attempted);
                    continue;
                }
            };
            let expected = *self.expected.get_or_insert(out.fp);
            let why = out.error.clone().or_else(|| {
                (out.fp != expected).then(|| {
                    format!("fingerprint {:?} differs from the expected {expected:?}", out.fp)
                })
            });
            // A wrong output still ran in full: it fails the run but keeps
            // its timing, so the result line can say what happened.
            if let Some(why) = why {
                self.failed += 1;
                eprintln!("perfbench: {}: repetition {} failed: {why}", self.name, self.attempted);
            }
            reps.push(Rep { wall_s, boot_s, out });
        }
        reps
    }
}

fn bench<W: Workload>(workload: &W, args: &Args) -> Result<(), String> {
    let name = args.workload.as_str();
    let recorded = Fingerprint::recorded(FINGERPRINTS, name, args.seed);
    let mut r = Runner {
        workload,
        name,
        expected: recorded,
        setup_s: Vec::new(),
        per_batch: 0,
        attempted: 0,
        failed: 0,
        log: SpanLog::new(false),
    };
    if args.record {
        let out = workload.run(workload.setup(), &mut r.log, false);
        if let Some(e) = out.error {
            return Err(e);
        }
        println!("{}", out.fp.to_line(name, args.seed));
        return Ok(());
    }

    for _ in 0..SETUP_BATCHES {
        r.time_setup_batch();
    }
    let metrics = if args.trace {
        let untraced = r.phase(args.seconds / 2.0, false, true);
        // Before `prof::enable`, which cannot be undone.
        let sinks = workload.sink_costs(SINK_ROUNDS);
        prof::enable();
        r.log.set_enabled(true);
        let traced = r.phase(args.seconds / 2.0, true, false);
        r.log.set_enabled(false);
        per_layer(name, args.seed, &untraced, &traced, sinks, &r.log)?
    } else {
        let reps = r.phase(args.seconds, false, false);
        let walls: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
        println!("body repetitions, wall s: {}", walls.join(" "));
        end_to_end(&reps, &r.setup_s)?
    };

    let ok = r.failed == 0;
    let check = match recorded {
        Some(_) => "recorded fingerprint",
        None => "first repetition (seed not recorded)",
    };
    println!(
        "{name} seed {} ({check}): {} attempted, {} failed, failed_ratio {}",
        args.seed,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    print_metrics(&metrics);
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", finite(*v)))
        .collect();
    println!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        body.join(",")
    );
    Ok(())
}

type Metric = (String, f64, &'static str);

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn print_metrics(metrics: &[Metric]) {
    for (k, v, u) in metrics {
        println!("  {k:<40} {v:>22} {u}");
    }
}

fn no_reps() -> String {
    "every repetition panicked".into()
}

/// The repetition with the shortest wall time: interference on a shared
/// host only ever adds time, so the fastest repetition is the steadiest
/// estimate of what the body costs.
fn fastest(reps: &[Rep]) -> Result<&Rep, String> {
    reps.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)).ok_or_else(no_reps)
}

/// Each session's fastest host time over the repetitions (every
/// repetition runs the same sessions in the same order).
fn fastest_sessions(reps: &[Rep]) -> Vec<f64> {
    let n = reps.iter().map(|r| r.out.session_s.len()).min().unwrap_or(0);
    (0..n).map(|i| min(&reps.iter().map(|r| r.out.session_s[i]).collect::<Vec<_>>())).collect()
}

fn end_to_end(reps: &[Rep], setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let best = fastest(reps)?;
    let (wall, o) = (best.wall_s, &best.out);
    let sessions = fastest_sessions(reps);
    Ok(vec![
        ("setup_s".into(), min(setup_s), "s"),
        ("wall_s".into(), wall, "s"),
        ("sim_events_per_s".into(), o.events as f64 / wall, "1/s"),
        ("jobs_per_s".into(), o.jobs as f64 / wall, "1/s"),
        ("sessions_per_s".into(), o.sessions as f64 / wall, "1/s"),
        ("session_p50_s".into(), quantile(&sessions, 0.5), "s"),
        ("session_p90_s".into(), quantile(&sessions, 0.9), "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
    ])
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The `prof` handler scopes, one per event kind.
const HANDLERS: [&str; 5] = ["arrival", "subtask_done", "vm_ready", "idle_sweep", "replan"];

/// Self time of every frame: its total minus its direct children's.
fn self_ns(summary: &ProfSummary) -> Vec<u64> {
    summary
        .frames
        .iter()
        .map(|f| {
            let children: u64 = summary
                .frames
                .iter()
                .filter(|c| {
                    c.path.len() == f.path.len() + 1 && c.path[..f.path.len()] == f.path[..]
                })
                .map(|c| c.total_ns)
                .sum();
            f.total_ns.saturating_sub(children)
        })
        .collect()
}

/// `(self_ns, total_ns, count)` summed over frames matching `pick`.
fn frames_where(
    summary: &ProfSummary,
    selfs: &[u64],
    pick: impl Fn(&FrameStat) -> bool,
) -> (u64, u64, u64) {
    summary
        .frames
        .iter()
        .zip(selfs)
        .filter(|(f, _)| pick(f))
        .fold((0, 0, 0), |acc, (f, s)| (acc.0 + s, acc.1 + f.total_ns, acc.2 + f.count))
}

fn per_layer(
    name: &str,
    seed: u64,
    untraced: &[Rep],
    traced: &[Rep],
    sinks: Option<SinkCosts>,
    log: &SpanLog,
) -> Result<Vec<Metric>, String> {
    let best = fastest(untraced)?;
    let (wall_a, first) = (best.wall_s, &best.out);
    let wall_b = fastest(traced)?.wall_s;
    // Ratios pair measurements taken at the same moment; their median
    // over repetitions is steady even when the host's speed drifts.
    let per_rep_a = |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let n_b = traced.len() as f64;

    let mut prof = ProfSummary::default();
    for r in traced {
        prof.merge(r.out.prof.clone());
    }
    let selfs = self_ns(&prof);
    let ms = |ns: u64| ns as f64 / 1e6 / n_b;
    let per_b = |n: u64| n as f64 / n_b;

    let boot = min(&untraced.iter().map(|r| r.boot_s).collect::<Vec<_>>());
    let constructions = first.construct_s.len() as f64;
    let threads = first.threads.max(1) as f64;
    let run_s = first.run_s;
    let events = first.events as f64;

    let mut m: Vec<Metric> = vec![
        ("kb.bootstrap_s".into(), boot, "s"),
        (
            "kb.bootstrap_share".into(),
            per_rep_a(&|r| constructions * r.boot_s / (threads * r.wall_s)),
            "ratio",
        ),
        ("core.platform_new_s".into(), median(&first.construct_s), "s"),
        ("core.run_s".into(), run_s, "s"),
        ("core.loop_ns_per_event".into(), run_s * 1e9 / events, "ns"),
        ("core.events".into(), events, "count"),
    ];
    let mut handler_total_ns = 0;
    for h in HANDLERS {
        let (s, t, c) = frames_where(&prof, &selfs, |f| f.path == [h]);
        handler_total_ns += t;
        m.push((format!("core.handler.{h}.self_ms"), ms(s), "ms"));
        m.push((format!("core.handler.{h}.count"), per_b(c), "count"));
    }
    for leaf in ["dispatch", "assign"] {
        let (s, _, _) = frames_where(&prof, &selfs, |f| f.path.last() == Some(&leaf));
        m.push((format!("core.{leaf}.self_ms"), ms(s), "ms"));
    }
    let (grow_self, grow_total, grow_count) =
        frames_where(&prof, &selfs, |f| f.path.last() == Some(&"try_grow"));
    let decisions = traced[0].out.decisions.as_ref();
    let total_decisions = decisions.map_or(0, |d| d.total_decisions()) as f64;
    let hires = decisions.map_or(0, |d| d.hire_decisions()) as f64;
    let traced_run_ns: f64 = traced.iter().map(|r| r.out.run_s * 1e9).sum();
    let span_s = |n: &str| min(&log.durations_s(n));
    m.extend([
        ("sched.try_grow.self_ms".into(), ms(grow_self), "ms"),
        ("sched.try_grow.count".into(), per_b(grow_count), "count"),
        ("sched.try_grow_ns_per_call".into(), grow_total as f64 / grow_count.max(1) as f64, "ns"),
        ("sched.scaling_decisions".into(), total_decisions, "count"),
        (
            "sched.hire_ratio".into(),
            if total_decisions > 0.0 { hires / total_decisions } else { 0.0 },
            "ratio",
        ),
        (
            "sim.loop_residual_ms".into(),
            (traced_run_ns - handler_total_ns as f64) / 1e6 / n_b,
            "ms",
        ),
        ("cloud.vms_hired".into(), first.vms_hired as f64, "count"),
        ("cloud.reshapes".into(), first.reshapes as f64, "count"),
        (
            "core.sweep.parallel_efficiency".into(),
            per_rep_a(&|r| r.out.session_s.iter().sum::<f64>() / (threads * r.wall_s)),
            "ratio",
        ),
        (
            "core.sweep.session_max_s".into(),
            first.session_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        ("tracestore.ingest_ns_per_event".into(), sinks.map_or(0.0, |s| s.store_ns), "ns"),
        ("spans.observe_ns_per_event".into(), sinks.map_or(0.0, |s| s.spans_ns), "ns"),
        ("metrics.registry_ns_per_event".into(), sinks.map_or(0.0, |s| s.metrics_ns), "ns"),
        ("tracestore.export_s".into(), span_s("tracestore.export"), "s"),
        ("tracestore.export_bytes".into(), first.scts_bytes as f64, "bytes"),
        ("spans.derive_s".into(), span_s("spans.derive"), "s"),
        ("spans.aggregate_s".into(), span_s("spans.aggregate"), "s"),
        ("spans.render_s".into(), span_s("spans.render"), "s"),
        ("spans.perfetto_s".into(), span_s("spans.perfetto"), "s"),
        ("spans.perfetto_bytes".into(), first.perfetto_bytes as f64, "bytes"),
        ("metrics.export_s".into(), span_s("metrics.export"), "s"),
        ("metrics.export_bytes".into(), first.metrics_bytes as f64, "bytes"),
        ("tracing_overhead".into(), wall_b - wall_a, "s"),
    ]);
    for c in loc::CRATES {
        let n = loc::nontest_loc(&Path::new("crates").join(c))
            .map_err(|e| format!("crates/{c}: {e}"))?;
        m.push((format!("{c}.nontest_loc"), n as f64, "count"));
    }

    print_layer_table(name, log, &prof, &selfs, n_b, wall_a, wall_b);
    write_artifacts(name, seed, log, &prof)?;
    Ok(m)
}

/// The per-layer table: benchmark-side spans, then the `prof` scope tree,
/// per traced body repetition.
fn print_layer_table(
    name: &str,
    log: &SpanLog,
    prof: &ProfSummary,
    selfs: &[u64],
    n_b: f64,
    wall_a: f64,
    wall_b: f64,
) {
    println!("== {name}: per-layer table (per traced repetition, {n_b} repetitions) ==");
    println!("{:<48} {:>10} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (span, (count, total, own)) in log.totals() {
        let row = |v: u64| v as f64 / 1e6 / n_b;
        println!("{span:<48} {:>10.1} {:>12.3} {:>12.3}", count as f64 / n_b, row(total), row(own));
    }
    for (f, s) in prof.frames.iter().zip(selfs) {
        let label = format!("prof {}", f.path.join(";"));
        let row = |v: u64| v as f64 / 1e6 / n_b;
        println!(
            "{label:<48} {:>10.1} {:>12.3} {:>12.3}",
            f.count as f64 / n_b,
            row(f.total_ns),
            row(*s)
        );
    }
    println!(
        "tracing_overhead: traced wall {wall_b:.6} s - untraced wall {wall_a:.6} s = {:.6} s",
        wall_b - wall_a
    );
}

/// Writes the benchmark-side spans (JSONL) and the `prof` tree
/// (collapsed stacks) under the build directory.
fn write_artifacts(name: &str, seed: u64, log: &SpanLog, prof: &ProfSummary) -> Result<(), String> {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("perfbench");
    let write = || -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let spans = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
        log.write_jsonl(std::io::BufWriter::new(std::fs::File::create(&spans)?))?;
        let mut folded = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("prof-{name}-seed{seed}.folded")),
        )?);
        prof.write_collapsed(&mut folded)?;
        folded.flush()?;
        Ok(spans)
    };
    let spans =
        write().map_err(|e| format!("writing trace artefacts to {}: {e}", dir.display()))?;
    println!("spans and prof stacks written next to {}", spans.display());
    Ok(())
}
