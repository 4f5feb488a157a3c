//! A benchmark-side clock on the program's observer bus.
//!
//! [`ClockFactory`] plugs into `sweep_grid_with` and `run_fleet_with`
//! through the public `ObserverFactory` bridge. Each session's observer
//! stamps the wall clock when it is built (just before or just after the
//! session's `Platform` is constructed), when the first trace event
//! arrives (the event loop has started), and when it is finished (the
//! run is over). No program change is needed to split a session's host
//! time into construction and loop.
//!
//! In a traced run the observer also folds the stream into a
//! `DecisionStats` (scaling decisions and hires) and moves the worker
//! thread's `scan_sim::prof` tree into the summary.

use scan_platform::DecisionStats;
use scan_sim::prof::{self, ProfSummary};
use scan_sim::{Merge, Observer, ObserverFactory, SimTime, TraceEvent};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// Builds one [`SessionObserver`] per session.
pub struct ClockFactory {
    /// Also count scaling decisions and collect `prof` trees.
    pub traced: bool,
}

/// The per-session observer.
pub struct SessionObserver {
    ordinal: u64,
    built: Instant,
    first_event: Option<Instant>,
    events: u64,
    decisions: Option<DecisionStats>,
}

impl Observer for SessionObserver {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        if self.first_event.is_none() {
            self.first_event = Some(Instant::now());
        }
        self.events += 1;
        if let Some(d) = self.decisions.as_mut() {
            d.on_event(at, event);
        }
    }
}

/// What one finished session reports.
#[derive(Debug)]
pub struct SessionClock {
    /// The factory's session ordinal.
    pub ordinal: u64,
    /// When the observer was built.
    pub built: Instant,
    /// When the first trace event arrived (`built` if none did).
    pub first_event: Instant,
    /// When the observer was finished.
    pub finished: Instant,
    /// Trace events delivered to this session's observers.
    pub events: u64,
    /// The worker thread that ran the session.
    pub thread: ThreadId,
    /// Scaling decisions (traced runs only).
    pub decisions: Option<DecisionStats>,
    /// The thread's `prof` tree since the session was built (empty unless
    /// `prof::enable` was called).
    pub prof: ProfSummary,
}

/// Session clocks in session order; merging concatenates.
#[derive(Debug)]
pub struct Clocks(pub Vec<SessionClock>);

impl Merge for Clocks {
    fn merge(&mut self, other: Clocks) {
        self.0.extend(other.0);
    }
}

impl ObserverFactory for ClockFactory {
    type Obs = SessionObserver;
    type Summary = Clocks;

    fn build(&self, session: u64) -> SessionObserver {
        prof::reset_thread();
        SessionObserver {
            ordinal: session,
            built: Instant::now(),
            first_event: None,
            events: 0,
            decisions: self.traced.then(DecisionStats::new),
        }
    }

    fn finish(&self, obs: SessionObserver) -> Clocks {
        let finished = Instant::now();
        Clocks(vec![SessionClock {
            ordinal: obs.ordinal,
            built: obs.built,
            first_event: obs.first_event.unwrap_or(obs.built),
            finished,
            events: obs.events,
            thread: thread::current().id(),
            decisions: obs.decisions,
            prof: prof::take_summary(),
        }])
    }
}
