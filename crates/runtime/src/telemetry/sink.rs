//! Pluggable telemetry sinks.
//!
//! A [`TelemetrySink`] consumes a replayed event stream: the
//! [`JsonlSink`] writes one deterministic JSON object per line, for
//! machine consumption, and the [`super::MetricsRegistry`] folds the
//! stream into Prometheus metrics.

use super::event::TelemetryEvent;

/// A consumer of the runtime event stream.
pub trait TelemetrySink {
    /// Receives one event, in emission order.
    fn on_event(&mut self, ev: &TelemetryEvent);

    /// Signals the end of the stream (flush/assemble output).
    fn finish(&mut self) {}
}

/// Serializes each event as one JSON line.
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The JSONL document accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the JSONL document.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl TelemetrySink for JsonlSink {
    fn on_event(&mut self, ev: &TelemetryEvent) {
        self.out.push_str(&ev.to_json());
        self.out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use gpuflow_sim::SimTime;

    fn ev(task: u32) -> TelemetryEvent {
        TelemetryEvent::TaskReady {
            at: SimTime::from_nanos(1),
            task: TaskId(task),
        }
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_event() {
        let mut s = JsonlSink::new();
        s.on_event(&ev(1));
        s.on_event(&ev(2));
        let out = s.into_string();
        assert_eq!(out.lines().count(), 2);
        assert!(out.ends_with('\n'));
    }
}
