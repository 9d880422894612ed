//! Batched fault-event ingestion: the write path of the server.
//!
//! `FAIL`/`REPAIR` commands do not mutate anything on the connection
//! thread — they enqueue a [`FaultEvent`] and return immediately. A
//! single ingest thread drains the queue in batches (a short batching
//! window coalesces bursts), applies the toggles *incrementally* to a
//! persistent [`ftr_core::EpochState`] — cost proportional to the routes
//! through the toggled nodes, never a recompile — and publishes one new
//! epoch per effective batch.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ftr_core::{CompiledRoutes, EpochState};
use ftr_graph::Node;
// Poison recovery is sound for the queue: `push` appends one element
// atomically and the drain takes whole prefixes, so a holder that
// panicked between those operations cannot have left the event vector
// half-written.
use ftr_obs::relock;

use crate::epoch::EpochStore;
use crate::metrics::ServeObs;

/// One fault-churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Node `v` failed.
    Fail(Node),
    /// Node `v` was repaired.
    Repair(Node),
}

struct QueueInner {
    events: Vec<FaultEvent>,
    closed: bool,
}

/// An unbounded multi-producer event queue with batch-draining
/// semantics for the single ingest consumer.
pub struct EventQueue {
    inner: Mutex<QueueInner>,
    signal: Condvar,
}

impl EventQueue {
    /// An empty, open queue.
    pub fn new() -> Self {
        EventQueue {
            inner: Mutex::new(QueueInner {
                events: Vec::new(),
                closed: false,
            }),
            signal: Condvar::new(),
        }
    }

    /// Enqueues one event (no-op after [`EventQueue::close`]).
    pub fn push(&self, event: FaultEvent) {
        let mut inner = relock(self.inner.lock());
        if inner.closed {
            return;
        }
        inner.events.push(event);
        drop(inner);
        self.signal.notify_one();
    }

    /// Closes the queue: the consumer drains what remains, then
    /// [`EventQueue::next_batch`] starts returning `None`.
    pub fn close(&self) {
        relock(self.inner.lock()).closed = true;
        self.signal.notify_all();
    }

    /// Events currently queued (the ingest backlog the watchdog
    /// gauges). Momentary under concurrent producers.
    pub fn len(&self) -> usize {
        relock(self.inner.lock()).events.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until at least one event is available (or the queue
    /// closes), then keeps collecting for up to `window` so bursts
    /// coalesce into one batch, capped at `max` events. Returns `None`
    /// once the queue is closed *and* drained.
    pub fn next_batch(&self, window: Duration, max: usize) -> Option<Vec<FaultEvent>> {
        let mut inner = relock(self.inner.lock());
        while inner.events.is_empty() {
            if inner.closed {
                return None;
            }
            inner = relock(self.signal.wait(inner));
        }
        // First event seen: hold the batch open for the window.
        let deadline = Instant::now() + window;
        while inner.events.len() < max && !inner.closed {
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, _) = relock(
                self.signal
                    .wait_timeout(inner, left)
                    .map_err(|e| PoisonError::new(e.into_inner())),
            );
            inner = guard;
        }
        let batch_len = inner.events.len().min(max);
        let batch: Vec<FaultEvent> = inner.events.drain(..batch_len).collect();
        Some(batch)
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters the ingest loop reports back through [`Ingestor::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Events drained from the queue.
    pub events: u64,
    /// Events that actually toggled a node (`FAIL` of an
    /// already-faulty node and `REPAIR` of a healthy node are no-ops).
    pub applied: u64,
    /// Batches that published a new epoch.
    pub batches: u64,
}

/// The single-threaded write path: owns the persistent [`EpochState`]
/// and advances the [`EpochStore`] one epoch per effective batch.
pub struct Ingestor<'a> {
    engine: &'a CompiledRoutes,
    state: EpochState,
    store: EpochStore,
    /// Metric/trace sink; `None` keeps the ingest loop observation-free
    /// (unit tests, embedded uses).
    obs: Option<Arc<ServeObs>>,
}

impl<'a> Ingestor<'a> {
    /// An ingestor whose state starts at the store's genesis fault set.
    pub fn new(engine: &'a CompiledRoutes, store: EpochStore) -> Self {
        let mut state = engine.epoch_state();
        for v in store.load().faults().iter() {
            state.insert(engine, v);
        }
        Ingestor {
            engine,
            state,
            store,
            obs: None,
        }
    }

    /// Attaches the server observatory: batch occupancy, apply and
    /// publish timing, epoch gauges and trace events.
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<ServeObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Applies one batch of events to the cursor state; if any toggle
    /// was effective, publishes the next epoch. Returns the number of
    /// effective toggles.
    ///
    /// Events within a batch apply in order, so `FAIL 3, REPAIR 3`
    /// cancels out — but still publishes an epoch (the intermediate
    /// state was real; publishing keeps epoch ids aligned with batches
    /// that did work).
    pub fn apply_batch(&mut self, events: &[FaultEvent]) -> usize {
        let observing = self.obs.as_deref().is_some_and(ServeObs::enabled);
        // Lineage provenance: the epoch this batch derives from and its
        // live fault count, captured before any toggle applies.
        let parent = self.store.current_id();
        let faults_before = self.state.faults().len() as u64;
        let start = observing.then(Instant::now);
        let mut applied = 0;
        for &event in events {
            let effective = match event {
                FaultEvent::Fail(v) => self.state.insert(self.engine, v),
                FaultEvent::Repair(v) => self.state.remove(self.engine, v),
            };
            applied += usize::from(effective);
        }
        let apply_nanos = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut publish_nanos = 0;
        if applied > 0 {
            let start = observing.then(Instant::now);
            self.store.publish(&self.state);
            publish_nanos = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        }
        if let Some(obs) = &self.obs {
            obs.ingest_batch(
                events.len() as u64,
                applied as u64,
                apply_nanos,
                publish_nanos,
                applied > 0,
                self.store.current_id(),
                self.state.faults().len() as u64,
                parent,
                faults_before,
            );
        }
        applied
    }

    /// Drains `queue` until it closes, batching with `window`/`max`.
    pub fn run(mut self, queue: &EventQueue, window: Duration, max: usize) -> IngestReport {
        let mut report = IngestReport::default();
        while let Some(batch) = queue.next_batch(window, max) {
            report.events += batch.len() as u64;
            let applied = self.apply_batch(&batch);
            report.applied += applied as u64;
            report.batches += u64::from(applied > 0);
        }
        report
    }

    /// The current (not-yet-published) fault count, for diagnostics.
    pub fn fault_count(&self) -> usize {
        self.state.faults().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_core::{Compile, KernelRouting};
    use ftr_graph::gen;

    fn fixture() -> (CompiledRoutes, EpochStore) {
        let g = gen::petersen();
        let engine = KernelRouting::build(&g).unwrap().routing().compile();
        let store = EpochStore::new(&engine.epoch_state());
        (engine, store)
    }

    #[test]
    fn batch_applies_incrementally_and_publishes() {
        let (engine, store) = fixture();
        let mut ingestor = Ingestor::new(&engine, store.clone());
        let applied = ingestor.apply_batch(&[
            FaultEvent::Fail(2),
            FaultEvent::Fail(2), // duplicate: no-op
            FaultEvent::Fail(6),
            FaultEvent::Repair(9), // healthy: no-op
        ]);
        assert_eq!(applied, 2);
        let epoch = store.load();
        assert_eq!(epoch.id(), 1, "one batch, one epoch");
        assert_eq!(epoch.faults().iter().collect::<Vec<_>>(), vec![2, 6]);
    }

    #[test]
    fn noop_batch_publishes_nothing() {
        let (engine, store) = fixture();
        let mut ingestor = Ingestor::new(&engine, store.clone());
        assert_eq!(ingestor.apply_batch(&[FaultEvent::Repair(3)]), 0);
        assert_eq!(store.current_id(), 0);
    }

    #[test]
    fn ingestor_seeds_from_genesis_faults() {
        let (engine, _) = fixture();
        let mut seeded = engine.epoch_state();
        seeded.insert(&engine, 5);
        let store = EpochStore::new(&seeded);
        let mut ingestor = Ingestor::new(&engine, store.clone());
        assert_eq!(ingestor.fault_count(), 1);
        // Repairing the seeded fault is effective.
        assert_eq!(ingestor.apply_batch(&[FaultEvent::Repair(5)]), 1);
        assert!(store.load().faults().is_empty());
    }

    #[test]
    fn queue_batches_and_closes() {
        let queue = EventQueue::new();
        queue.push(FaultEvent::Fail(1));
        queue.push(FaultEvent::Fail(2));
        let batch = queue
            .next_batch(Duration::from_millis(1), 16)
            .expect("open queue yields a batch");
        assert_eq!(batch.len(), 2);
        queue.push(FaultEvent::Fail(3));
        queue.close();
        assert_eq!(
            queue.next_batch(Duration::from_millis(1), 16),
            Some(vec![FaultEvent::Fail(3)]),
            "closing drains the remainder"
        );
        assert_eq!(queue.next_batch(Duration::from_millis(1), 16), None);
        queue.push(FaultEvent::Fail(4));
        assert_eq!(
            queue.next_batch(Duration::from_millis(1), 16),
            None,
            "pushes after close are dropped"
        );
    }

    #[test]
    fn queue_respects_max_batch() {
        let queue = EventQueue::new();
        for v in 0..10 {
            queue.push(FaultEvent::Fail(v));
        }
        let batch = queue.next_batch(Duration::ZERO, 4).unwrap();
        assert_eq!(batch.len(), 4);
        let rest = queue.next_batch(Duration::ZERO, 100).unwrap();
        assert_eq!(rest.len(), 6);
    }

    #[test]
    fn run_drains_until_close() {
        let (engine, store) = fixture();
        let queue = EventQueue::new();
        let report = std::thread::scope(|scope| {
            let ingestor = Ingestor::new(&engine, store.clone());
            let handle = scope.spawn(|| ingestor.run(&queue, Duration::from_micros(200), 1024));
            for v in 0..5 {
                queue.push(FaultEvent::Fail(v));
            }
            queue.push(FaultEvent::Repair(0));
            queue.close();
            handle.join().expect("ingest thread lives")
        });
        assert_eq!(report.events, 6);
        assert_eq!(report.applied, 6);
        assert!(report.batches >= 1);
        let epoch = store.load();
        assert_eq!(epoch.faults().iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }
}
