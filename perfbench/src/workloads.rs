//! The four workloads. Each builds its inputs from the benchmark seed
//! (`setup`), then runs one body repetition through the program's public
//! API (`run`) and reports what it saw as an [`Outcome`].

use crate::clock::{ClockFactory, SessionClock};
use crate::spanlog::SpanLog;
use scan_metrics::Metrics;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::fleet::{run_fleet_with, FleetConfig};
use scan_platform::instrument::DEFAULT_WINDOW_TU;
use scan_platform::sweep::sweep_grid_with;
use scan_platform::{DataBroker, DecisionStats, Platform, SessionMetrics};
use scan_sched::scaling::ScalingPolicy;
use scan_sim::prof::{self, ProfSummary};
use scan_sim::{Merge, Observer, RngHub};
use scan_spans::{Recorder, SpanObserver};
use scan_tracestore::TraceStore;
use std::cell::RefCell;
use std::collections::HashSet;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The output fingerprint of one body repetition: what must repeat
/// bit for bit for a given seed, at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated events dispatched.
    pub events: u64,
    /// Simulated jobs completed.
    pub jobs: u64,
    /// Bit pattern of the total reward, CU.
    pub reward_bits: u64,
    /// Bit pattern of the total cost, CU.
    pub cost_bits: u64,
    /// SCTS export digest (explain-session only).
    pub scts_digest: Option<u64>,
    /// Perfetto document length in bytes (explain-session only).
    pub perfetto_len: Option<u64>,
}

impl Fingerprint {
    fn of(events: u64, jobs: u64, reward: f64, cost: f64) -> Fingerprint {
        Fingerprint {
            events,
            jobs,
            reward_bits: reward.to_bits(),
            cost_bits: cost.to_bits(),
            scts_digest: None,
            perfetto_len: None,
        }
    }

    /// One line of `fingerprints.tsv`: workload, seed, then the fields.
    pub fn to_line(self, workload: &str, seed: u64) -> String {
        let opt = |v: Option<u64>, hex: bool| match v {
            None => "-".to_string(),
            Some(v) if hex => format!("{v:016x}"),
            Some(v) => v.to_string(),
        };
        format!(
            "{workload}\t{seed}\t{}\t{}\t{:016x}\t{:016x}\t{}\t{}",
            self.events,
            self.jobs,
            self.reward_bits,
            self.cost_bits,
            opt(self.scts_digest, true),
            opt(self.perfetto_len, false)
        )
    }

    /// Looks up the recorded fingerprint of `(workload, seed)` in a
    /// `fingerprints.tsv` table.
    pub fn recorded(table: &str, workload: &str, seed: u64) -> Option<Fingerprint> {
        table.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).find_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            if f.len() != 8 || f[0] != workload || f[1].parse::<u64>().ok()? != seed {
                return None;
            }
            let hex = |s: &str| u64::from_str_radix(s, 16).ok();
            let opt = |s: &str, radix: u32| {
                if s == "-" {
                    Some(None)
                } else {
                    u64::from_str_radix(s, radix).ok().map(Some)
                }
            };
            Some(Fingerprint {
                events: f[2].parse().ok()?,
                jobs: f[3].parse().ok()?,
                reward_bits: hex(f[4])?,
                cost_bits: hex(f[5])?,
                scts_digest: opt(f[6], 16)?,
                perfetto_len: opt(f[7], 10)?,
            })
        })
    }
}

/// Everything one body repetition reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The output fingerprint.
    pub fp: Fingerprint,
    /// Simulated events dispatched.
    pub events: u64,
    /// Simulated jobs completed.
    pub jobs: u64,
    /// Sessions run (tenant sessions for a fleet).
    pub sessions: u64,
    /// Host time of each session, s.
    pub session_s: Vec<f64>,
    /// Host time of each `Platform` construction, s.
    pub construct_s: Vec<f64>,
    /// Host time in event loops, summed over sessions, s.
    pub run_s: f64,
    /// Worker threads the sessions ran on.
    pub threads: usize,
    /// VMs hired (exact).
    pub vms_hired: u64,
    /// Reshapes performed (exact).
    pub reshapes: u64,
    /// Scaling decisions seen on the trace stream (traced runs only).
    pub decisions: Option<DecisionStats>,
    /// The `prof` tree of the repetition (empty unless profiling is on).
    pub prof: ProfSummary,
    /// SCTS export bytes.
    pub scts_bytes: u64,
    /// Perfetto document bytes.
    pub perfetto_bytes: u64,
    /// Metrics registry export bytes (JSONL + Prometheus).
    pub metrics_bytes: u64,
    /// A violated output invariant, if any.
    pub error: Option<String>,
}

impl Outcome {
    fn fail(&mut self, why: impl Into<String>) {
        self.error.get_or_insert_with(|| why.into());
    }

    fn add_sessions<'a>(&mut self, sessions: impl IntoIterator<Item = &'a SessionMetrics>) {
        let (mut reward, mut cost) = (0.0, 0.0);
        for m in sessions {
            self.events += m.events;
            self.jobs += m.jobs_completed;
            self.vms_hired += m.vms_hired;
            self.reshapes += m.reshapes;
            reward += m.total_reward;
            cost += m.total_cost;
            if m.jobs_completed > m.jobs_submitted || m.events == 0 {
                self.fail("session completed more jobs than it admitted, or dispatched none");
            }
        }
        self.fp = Fingerprint::of(self.events, self.jobs, reward, cost);
    }

    fn add_clocks(&mut self, clocks: &[SessionClock]) {
        let mut decisions: Option<DecisionStats> = None;
        for c in clocks {
            self.prof.merge(c.prof.clone());
            if let Some(d) = &c.decisions {
                match decisions.as_mut() {
                    None => decisions = Some(d.clone()),
                    Some(acc) => acc.merge(d.clone()),
                }
            }
        }
        self.decisions = decisions;
        self.threads = clocks.iter().map(|c| c.thread).collect::<HashSet<_>>().len();
    }
}

/// One benchmark workload.
pub trait Workload {
    /// What `setup` hands to `run`.
    type Input;
    /// The configuration every platform of the workload is built from.
    fn platform_cfg(&self) -> ScanConfig;
    /// Builds the inputs of one body repetition (timed as `setup_s`).
    fn setup(&self) -> Self::Input;
    /// Runs one body repetition (timed as `wall_s`). With `traced`, the
    /// sessions also carry a `DecisionStats` observer.
    fn run(&self, input: Self::Input, log: &mut SpanLog, traced: bool) -> Outcome;
    /// Per-event cost of each explain sink, measured against runs
    /// without it (only the workload that attaches the sinks has one).
    fn sink_costs(&self, _rounds: usize) -> Option<SinkCosts> {
        None
    }
}

fn fig4_cfg(scaling: ScalingPolicy, interval: f64, seed: u64, horizon_tu: f64) -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(scaling, interval), seed);
    cfg.fixed.sim_time_tu = horizon_tu;
    cfg
}

/// Times one `DataBroker::bootstrap` call for the workload's
/// configuration, on repetition stream `rep`; returns seconds.
pub fn bootstrap_time(cfg: &ScanConfig, rep: u64) -> f64 {
    let model = cfg.true_model();
    let mut rng = RngHub::new(cfg.seed, rep).stream("kb-bootstrap");
    let t = Instant::now();
    black_box(DataBroker::bootstrap(&model, cfg.fixed.profile_noise, &mut rng));
    t.elapsed().as_secs_f64()
}

/// A shared observer whose value is taken back after the run.
fn attach<O: Observer + 'static>(platform: &mut Platform, obs: O) -> Rc<RefCell<O>> {
    let handle = Rc::new(RefCell::new(obs));
    platform.add_observer(handle.clone());
    handle
}

fn reclaim<O>(handle: Rc<RefCell<O>>) -> O {
    Rc::try_unwrap(handle).ok().expect("observer uniquely owned after the run").into_inner()
}

/// Runs a constructed platform, timing the loop and collecting the
/// calling thread's `prof` tree.
fn run_platform(platform: Platform, log: &mut SpanLog) -> (SessionMetrics, f64, ProfSummary) {
    prof::reset_thread();
    let t = Instant::now();
    let m = log.span("core.run", |_| platform.run());
    let run_s = t.elapsed().as_secs_f64();
    (m, run_s, prof::take_summary())
}

fn timed_new(cfg: ScanConfig) -> (Platform, f64) {
    let t = Instant::now();
    let p = Platform::new(cfg, 0);
    (p, t.elapsed().as_secs_f64())
}

/// `solo-busy`: one predictive session at the busy end of Fig. 4.
pub struct SoloBusy {
    /// Benchmark seed.
    pub seed: u64,
}

impl Workload for SoloBusy {
    type Input = (Platform, f64);

    fn platform_cfg(&self) -> ScanConfig {
        fig4_cfg(ScalingPolicy::Predictive, 0.5, self.seed, 2_500.0)
    }

    fn setup(&self) -> (Platform, f64) {
        timed_new(self.platform_cfg())
    }

    fn run(
        &self,
        (mut platform, built_s): (Platform, f64),
        log: &mut SpanLog,
        traced: bool,
    ) -> Outcome {
        let decisions = traced.then(|| attach(&mut platform, DecisionStats::new()));
        let (m, run_s, prof) = run_platform(platform, log);
        let mut out = Outcome {
            sessions: 1,
            session_s: vec![run_s],
            construct_s: vec![built_s],
            run_s,
            threads: 1,
            decisions: decisions.map(reclaim),
            prof,
            ..Outcome::default()
        };
        out.add_sessions([&m]);
        out
    }
}

/// `fleet-tenants`: one run-to-completion multi-tenant fleet.
pub struct FleetTenants {
    /// Benchmark seed.
    pub seed: u64,
    /// Tenant platforms in the fleet.
    pub tenants: u16,
}

/// Jobs each fleet tenant runs before it tears down.
const JOBS_PER_TENANT: u64 = 4;

impl Workload for FleetTenants {
    type Input = FleetConfig;

    fn platform_cfg(&self) -> ScanConfig {
        // A backstop only: run-to-completion fleets drain long before it.
        fig4_cfg(ScalingPolicy::Predictive, 2.5, self.seed, 2_000.0)
    }

    fn setup(&self) -> FleetConfig {
        let mut cfg = FleetConfig::new(self.platform_cfg(), self.tenants);
        cfg.jobs_per_tenant = JOBS_PER_TENANT;
        cfg.shared_private_cores = cfg.shared_private_cores.max(u32::from(self.tenants) * 2);
        cfg
    }

    fn run(&self, cfg: FleetConfig, log: &mut SpanLog, traced: bool) -> Outcome {
        let factory = ClockFactory { traced };
        let start = Instant::now();
        let (fm, summaries) = log.span("core.run_fleet", |_| run_fleet_with(&cfg, 0, &factory));
        let end = Instant::now();
        let clocks: Vec<SessionClock> = summaries.into_iter().flat_map(|c| c.0).collect();

        let mut out = Outcome { sessions: u64::from(cfg.tenants), ..Outcome::default() };
        out.add_sessions(&fm.tenants);
        // Each tenant's observer is built right after its platform, so
        // the gaps between builds are the constructions; the loop starts
        // after the last one and is shared by all tenants.
        let mut prev = start;
        for c in &clocks {
            out.construct_s.push((c.built - prev).as_secs_f64());
            prev = c.built;
        }
        out.run_s = (end - prev).as_secs_f64();
        // A tenant session is its own construction plus its share of the
        // shared loop, weighted by the trace events it produced.
        let all_events: u64 = clocks.iter().map(|c| c.events).sum::<u64>().max(1);
        out.session_s = clocks
            .iter()
            .zip(&out.construct_s)
            .map(|(c, b)| b + out.run_s * c.events as f64 / all_events as f64)
            .collect();
        out.add_clocks(&clocks);
        out.threads = 1;
        let expected = u64::from(cfg.tenants) * cfg.jobs_per_tenant;
        if fm.jobs_submitted != expected || fm.jobs_completed != expected {
            out.fail(format!(
                "fleet did not drain: {} submitted, {} completed, {expected} expected",
                fm.jobs_submitted, fm.jobs_completed
            ));
        }
        if fm.events != out.events {
            out.fail("fleet event count differs from the sum over tenants");
        }
        out
    }
}

/// `fig4-sweep`: the full Fig. 4 grid through `sweep_grid_with`.
pub struct Fig4Sweep {
    /// Benchmark seed.
    pub seed: u64,
}

/// Repetitions per Fig. 4 cell.
const SWEEP_REPS: u64 = 2;
/// Session horizon of the sweep, TU.
const SWEEP_HORIZON_TU: f64 = 300.0;

impl Workload for Fig4Sweep {
    type Input = (ScanConfig, Vec<VariableParams>);

    fn platform_cfg(&self) -> ScanConfig {
        fig4_cfg(ScalingPolicy::Predictive, 2.0, self.seed, SWEEP_HORIZON_TU)
    }

    /// Both interval axes of Fig. 4 (paper 2.0–3.0 TU and calibrated
    /// 0.5–1.5 TU, 0.1 TU apart) × the three scaling policies.
    fn setup(&self) -> (ScanConfig, Vec<VariableParams>) {
        let intervals = (0..=10).flat_map(|i| [2.0 + 0.1 * i as f64, 0.5 + 0.1 * i as f64]);
        let cells = intervals
            .flat_map(|interval| {
                [ScalingPolicy::Predictive, ScalingPolicy::AlwaysScale, ScalingPolicy::NeverScale]
                    .map(|s| VariableParams::fig4(s, interval))
            })
            .collect();
        (self.platform_cfg(), cells)
    }

    fn run(&self, (base, cells): Self::Input, log: &mut SpanLog, traced: bool) -> Outcome {
        let factory = ClockFactory { traced };
        let results = log
            .span("core.sweep_grid_with", |_| sweep_grid_with(&base, &cells, SWEEP_REPS, &factory));
        let mut out = Outcome::default();
        out.add_sessions(results.iter().flat_map(|c| &c.metrics.sessions));
        let mut clocks: Vec<SessionClock> =
            results.into_iter().flat_map(|c| c.stats.0).collect::<Vec<_>>();
        clocks.sort_by_key(|c| c.ordinal);
        out.sessions = clocks.len() as u64;
        for c in &clocks {
            out.session_s.push((c.finished - c.built).as_secs_f64());
            out.construct_s.push((c.first_event - c.built).as_secs_f64());
            out.run_s += (c.finished - c.first_event).as_secs_f64();
        }
        out.add_clocks(&clocks);
        if out.sessions != cells.len() as u64 * SWEEP_REPS {
            out.fail("sweep lost sessions");
        }
        out
    }
}

/// Per-event wall cost of each explain sink, from runs with and
/// without it.
#[derive(Debug, Clone, Copy)]
pub struct SinkCosts {
    /// Columnar trace-store ingest, ns per dispatched event.
    pub store_ns: f64,
    /// Span observer, ns per dispatched event.
    pub spans_ns: f64,
    /// Metrics registry, ns per dispatched event.
    pub metrics_ns: f64,
}

/// `explain-session`: one recorded session, then the read side.
pub struct ExplainSession {
    /// Benchmark seed.
    pub seed: u64,
}

impl ExplainSession {
    /// Builds and runs one session with the chosen sinks, returning the
    /// loop's host time and the events it dispatched.
    fn run_with_sinks(&self, store: bool, spans: bool, metrics: bool) -> (f64, u64) {
        let mut platform = Platform::new(self.platform_cfg(), 0);
        let handle = Metrics::enabled(DEFAULT_WINDOW_TU);
        if metrics {
            platform.set_metrics(&handle);
        }
        let _sinks = (
            store.then(|| attach(&mut platform, TraceStore::new())),
            spans.then(|| attach(&mut platform, SpanObserver::new())),
        );
        let t = Instant::now();
        let m = platform.run();
        (t.elapsed().as_secs_f64(), m.events)
    }
}

impl Workload for ExplainSession {
    type Input = (Platform, f64);

    fn platform_cfg(&self) -> ScanConfig {
        let mut cfg = fig4_cfg(ScalingPolicy::Predictive, 1.0, self.seed, 2_000.0);
        cfg.slo_target_tu = Some(cfg.breakeven_latency_tu());
        cfg
    }

    fn setup(&self) -> (Platform, f64) {
        timed_new(self.platform_cfg())
    }

    fn run(
        &self,
        (mut platform, built_s): (Platform, f64),
        log: &mut SpanLog,
        traced: bool,
    ) -> Outcome {
        let recorder = attach(&mut platform, Recorder::default());
        let metrics = Metrics::enabled(DEFAULT_WINDOW_TU);
        platform.set_metrics(&metrics);
        let decisions = traced.then(|| attach(&mut platform, DecisionStats::new()));
        let (m, run_s, prof) = run_platform(platform, log);
        let mut out = Outcome {
            sessions: 1,
            session_s: vec![run_s],
            construct_s: vec![built_s],
            run_s,
            threads: 1,
            decisions: decisions.map(reclaim),
            prof,
            ..Outcome::default()
        };
        out.add_sessions([&m]);

        let Recorder { store, spans: observer } = reclaim(recorder);
        let registry = metrics.into_registry().expect("registry uniquely owned after the run");
        let spans = log.span("spans.finish", |_| observer.into_spans());
        let derived = log.span("spans.derive", |_| scan_spans::derive(&store));
        let agg = log.span("spans.aggregate", |_| scan_spans::aggregate(&spans));
        let report = log.span("spans.render", |_| scan_spans::render(&agg));
        let doc = log.span("spans.perfetto", |_| scan_spans::perfetto::export(&store, &spans));
        let scts = log.span("tracestore.export", |_| store.to_bytes());
        let mut exported = Vec::new();
        log.span("metrics.export", |_| {
            scan_metrics::write_jsonl(&registry, &mut exported)
                .and_then(|()| scan_metrics::write_prometheus(&registry, &mut exported))
        })
        .expect("writing to memory cannot fail");

        if derived != spans {
            out.fail("spans derived from the store differ from the live span observer");
        }
        if spans.jobs.len() as u64 != m.jobs_completed
            || !spans.jobs.iter().all(|j| j.conservation_ok())
        {
            out.fail("span set does not cover every completed job exactly");
        }
        if store.events() == 0 || report.is_empty() || exported.is_empty() {
            out.fail("an explain artefact is empty");
        }
        let mut digest = [0u8; 8];
        digest.copy_from_slice(&scts[scts.len() - 8..]);
        out.fp.scts_digest = Some(u64::from_le_bytes(digest));
        out.fp.perfetto_len = Some(doc.len() as u64);
        out.scts_bytes = scts.len() as u64;
        out.perfetto_bytes = doc.len() as u64;
        out.metrics_bytes = exported.len() as u64;
        out
    }

    fn sink_costs(&self, rounds: usize) -> Option<SinkCosts> {
        // Interleave the four variants so drift hits them alike.
        let mut runs: [Vec<f64>; 4] = Default::default();
        let mut events = 0;
        for _ in 0..rounds {
            for (i, (store, spans, metrics)) in
                [(true, true, true), (false, true, true), (true, false, true), (true, true, false)]
                    .into_iter()
                    .enumerate()
            {
                let (s, e) = self.run_with_sinks(store, spans, metrics);
                runs[i].push(s);
                events = e;
            }
        }
        let [full, no_store, no_spans, no_metrics] = runs.map(|r| crate::stats::min(&r));
        let per_event = |without: f64| (full - without) * 1e9 / events.max(1) as f64;
        Some(SinkCosts {
            store_ns: per_event(no_store),
            spans_ns: per_event(no_spans),
            metrics_ns: per_event(no_metrics),
        })
    }
}
