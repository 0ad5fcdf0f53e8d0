//! Decision traces and runtime metrics for the DUFP suite.
//!
//! The paper's controllers (DUF, DUFP, DUFP-F, DNPC) make one actuation
//! decision per 200 ms interval per socket. Reproducing figures is only
//! half the work — explaining *why* a cap or uncore step happened at tick
//! N is the other half. This crate records both:
//!
//! * **Decision events** ([`DecisionEvent`]): every actuator change with a
//!   typed [`Reason`] (slowdown violation, phase reset, overshoot, ...),
//!   buffered in a lock-free bounded ring and exportable as JSON Lines.
//! * **Metrics** ([`metrics`]): lock-free counters, gauges and
//!   fixed-bucket histograms for per-tick simulator state and pipeline
//!   stage timings.
//!
//! The entry point is [`Telemetry`], a cheaply clonable handle that is
//! either *enabled* (backed by a shared collector) or *disabled* (a null
//! handle). Disabled is the default everywhere; recording a decision then
//! reduces to one branch on an `Option`. Looking a metric up by name
//! still allocates a detached handle when disabled, so hot paths resolve
//! their handles once and hold them.
//!
//! ```
//! use dufp_telemetry::{Actuator, DecisionCtx, Reason, Telemetry};
//!
//! let tel = Telemetry::new(1024);
//! let sock = tel.for_socket(0);
//! sock.decision(
//!     DecisionCtx { tick: 7, phase: 1, oi_class: None, flops_ratio: Some(0.88) },
//!     Actuator::PowerCap,
//!     120.0,
//!     115.0,
//!     Reason::SlowdownViolation,
//! );
//! tel.counter("ticks").inc();
//! let report = tel.report();
//! assert_eq!(report.decisions.len(), 1);
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to the ring buffer; see ring.rs for the invariants.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod event;
pub mod metrics;
pub mod ring;

pub use event::{read_jsonl, write_jsonl, Actuator, DecisionEvent, Reason};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry,
};

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Default event-ring capacity when the caller does not choose one.
pub const DEFAULT_EVENT_CAPACITY: usize = 64 * 1024;

struct Inner {
    events: ring::RingBuffer<DecisionEvent>,
    metrics: Registry,
}

/// Handle to the telemetry collector; cheap to clone and thread-safe.
///
/// A disabled handle ([`Telemetry::disabled`]) is a null object: recording
/// a decision is a single `Option` branch, and only a metric lookup by
/// name allocates (a detached handle that is never reported).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled collector whose event ring holds at least `capacity`
    /// decision events (older events are never overwritten; overflow is
    /// counted as dropped).
    pub fn new(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                events: ring::RingBuffer::new(capacity),
                metrics: Registry::default(),
            })),
        }
    }

    /// An enabled collector with [`DEFAULT_EVENT_CAPACITY`].
    pub fn enabled() -> Self {
        Telemetry::new(DEFAULT_EVENT_CAPACITY)
    }

    /// The null handle: records nothing. Recording costs one branch; a
    /// metric lookup by name returns a freshly allocated detached handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A recorder bound to one socket id, for controller/simulator code
    /// that always reports about the same socket.
    pub fn for_socket(&self, socket: u16) -> SocketTelemetry {
        SocketTelemetry {
            tel: self.clone(),
            socket,
        }
    }

    /// Records one decision event (no-op when disabled).
    pub fn record_decision(&self, event: DecisionEvent) {
        if let Some(inner) = &self.inner {
            inner.events.push(event);
        }
    }

    /// The counter named `name`; on a disabled handle a detached counter
    /// that is never reported.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Arc::new(Counter::default()),
        }
    }

    /// The gauge named `name` (detached when disabled).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match &self.inner {
            Some(inner) => inner.metrics.gauge(name),
            None => Arc::new(Gauge::default()),
        }
    }

    /// The histogram named `name` with `bounds` (detached when disabled).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name, bounds),
            None => Arc::new(Histogram::new(bounds)),
        }
    }

    /// Drains and returns all decision events recorded so far, oldest
    /// first (empty when disabled).
    pub fn drain_events(&self) -> Vec<DecisionEvent> {
        match &self.inner {
            Some(inner) => inner.events.drain(),
            None => Vec::new(),
        }
    }

    /// Decision events rejected because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.events.dropped())
    }

    /// A snapshot of every registered metric (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Drains events and snapshots metrics into one serializable report.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            decisions: self.drain_events(),
            dropped: self.dropped_events(),
            metrics: self.metrics_snapshot(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Per-decision context the caller already has in hand.
#[derive(Debug, Clone, Default)]
pub struct DecisionCtx {
    /// Interval/tick index of the decision.
    pub tick: u64,
    /// Monotonic phase sequence number on this socket.
    pub phase: u64,
    /// Operational-intensity class label, when classified.
    pub oi_class: Option<String>,
    /// Measured FLOPS over the per-phase maximum.
    pub flops_ratio: Option<f64>,
}

/// A [`Telemetry`] handle bound to one socket id.
#[derive(Debug, Clone, Default)]
pub struct SocketTelemetry {
    tel: Telemetry,
    socket: u16,
}

impl SocketTelemetry {
    /// Whether the underlying handle records.
    pub fn is_enabled(&self) -> bool {
        self.tel.is_enabled()
    }

    /// The socket this recorder reports about.
    pub fn socket(&self) -> u16 {
        self.socket
    }

    /// The shared underlying handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Records that `actuator` moved `old` → `new` because of `reason`.
    /// No-op when disabled or when the value did not change.
    pub fn decision(
        &self,
        ctx: DecisionCtx,
        actuator: Actuator,
        old: f64,
        new: f64,
        reason: Reason,
    ) {
        if !self.tel.is_enabled() || old == new {
            return;
        }
        self.tel.record_decision(DecisionEvent {
            tick: ctx.tick,
            at_us: 0,
            socket: self.socket,
            phase: ctx.phase,
            oi_class: ctx.oi_class,
            flops_ratio: ctx.flops_ratio,
            actuator,
            old,
            new,
            reason,
        });
    }
}

/// Drained events plus a metrics snapshot: everything a run produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// All decision events, oldest first.
    pub decisions: Vec<DecisionEvent>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Metrics at drain time.
    pub metrics: MetricsSnapshot,
}

impl TelemetryReport {
    /// Event count per reason, in [`Reason::ALL`] order, zero-count
    /// reasons included.
    pub fn counts_by_reason(&self) -> Vec<(Reason, usize)> {
        Reason::ALL
            .iter()
            .map(|&r| (r, self.decisions.iter().filter(|e| e.reason == r).count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let sock = tel.for_socket(3);
        sock.decision(
            DecisionCtx::default(),
            Actuator::Uncore,
            2.4e9,
            2.2e9,
            Reason::Probe,
        );
        tel.counter("c").add(10);
        tel.gauge("g").set(1.0);
        tel.histogram("h", &[1.0]).observe(0.5);
        let report = tel.report();
        assert!(report.decisions.is_empty());
        assert!(report.metrics.counters.is_empty());
        assert!(report.metrics.gauges.is_empty());
        assert!(report.metrics.histograms.is_empty());
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn enabled_handle_collects_across_clones() {
        let tel = Telemetry::new(16);
        let clone = tel.clone();
        clone.for_socket(0).decision(
            DecisionCtx {
                tick: 1,
                phase: 0,
                oi_class: None,
                flops_ratio: Some(0.9),
            },
            Actuator::PowerCap,
            125.0,
            120.0,
            Reason::Probe,
        );
        tel.counter("shared").inc();
        clone.counter("shared").inc();
        let report = tel.report();
        assert_eq!(report.decisions.len(), 1);
        assert_eq!(report.decisions[0].socket, 0);
        assert_eq!(report.metrics.counters[0].value, 2);
    }

    #[test]
    fn unchanged_value_is_not_an_event() {
        let tel = Telemetry::new(16);
        let sock = tel.for_socket(0);
        sock.decision(
            DecisionCtx::default(),
            Actuator::Uncore,
            2.4e9,
            2.4e9,
            Reason::Probe,
        );
        assert!(tel.drain_events().is_empty());
    }

    #[test]
    fn counts_by_reason_covers_all_reasons() {
        let tel = Telemetry::new(16);
        let sock = tel.for_socket(0);
        for _ in 0..3 {
            sock.decision(
                DecisionCtx::default(),
                Actuator::PowerCap,
                125.0,
                120.0,
                Reason::SlowdownViolation,
            );
        }
        let report = tel.report();
        let counts = report.counts_by_reason();
        assert_eq!(counts.len(), Reason::ALL.len());
        let slowdown = counts
            .iter()
            .find(|(r, _)| *r == Reason::SlowdownViolation)
            .unwrap();
        assert_eq!(slowdown.1, 3);
        let probe = counts.iter().find(|(r, _)| *r == Reason::Probe).unwrap();
        assert_eq!(probe.1, 0);
    }
}
