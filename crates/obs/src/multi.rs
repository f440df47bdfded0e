//! Fan-out to several observers.

use rtic_core::{StepEvent, StepObserver};

/// Delivers every event to each registered observer, in registration
/// order. Lets a run feed a [`crate::MetricsRegistry`] and a
/// [`crate::TraceWriter`] (and anything else) from one event stream.
#[derive(Default)]
pub struct MultiObserver<'a> {
    sinks: Vec<&'a mut dyn StepObserver>,
}

impl<'a> MultiObserver<'a> {
    /// An empty fan-out.
    pub fn new() -> MultiObserver<'a> {
        MultiObserver { sinks: Vec::new() }
    }

    /// Adds an observer (builder style).
    pub fn with(mut self, obs: &'a mut dyn StepObserver) -> MultiObserver<'a> {
        self.sinks.push(obs);
        self
    }

    /// Adds an observer.
    pub fn push(&mut self, obs: &'a mut dyn StepObserver) {
        self.sinks.push(obs);
    }

    /// Number of registered observers.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no observers are registered.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl StepObserver for MultiObserver<'_> {
    fn observe(&mut self, event: &StepEvent<'_>) {
        for sink in &mut self.sinks {
            sink.observe(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::observe::{CollectingObserver, StepStart};
    use rtic_temporal::TimePoint;

    #[test]
    fn fans_out_in_order() {
        let mut a = CollectingObserver::default();
        let mut b = CollectingObserver::default();
        {
            let mut multi = MultiObserver::new().with(&mut a).with(&mut b);
            assert_eq!(multi.len(), 2);
            multi.observe(&StepEvent::StepStart(StepStart {
                checker: "incremental",
                time: TimePoint(1),
                tuples: 3,
            }));
        }
        assert_eq!(a.events.len(), 1);
        assert_eq!(b.events.len(), 1);
    }
}
