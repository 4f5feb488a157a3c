//! Fixture trace schema: one live variant, one ghost, declared in the
//! same `trace_events!` form as the real `scan-sim` trace module.

macro_rules! trace_events {
    (pub enum TraceEvent { $($(#[$m:meta])* $v:ident as $tag:literal { $($f:ident: $t:ty,)* },)* }) => {
        /// The fixture event vocabulary.
        pub enum TraceEvent {
            $($(#[$m])* $v { $($f: $t,)* },)*
        }
    };
}

trace_events! {
    pub enum TraceEvent {
        /// Emitted by `emit` below — constructed, therefore live.
        JobSeen as "job_seen" {
            job: u64,
        },
        /// Declared but never constructed anywhere outside tests.
        GhostStep as "ghost_step" {
            step: u32,
        },
    }
}
