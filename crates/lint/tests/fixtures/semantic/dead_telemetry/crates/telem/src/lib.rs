//! Fixture telemetry crate: one factory-buildable observer and one no
//! factory can produce.

/// Buildable observer: the factory below names it.
pub struct Live;

impl Observer for Live {
    fn on_event(&mut self) {}
}

impl Merge for Live {
    fn merge(&mut self, _other: Live) {}
}

/// Observer no `ObserverFactory` impl can build.
pub struct Ghost;

impl Observer for Ghost {
    fn on_event(&mut self) {}
}

impl Merge for Ghost {
    fn merge(&mut self, _other: Ghost) {}
}

/// The fixture factory: builds only `Live`.
pub struct Factory;

impl ObserverFactory for Factory {
    fn build(&self) -> Live {
        Live
    }
}
