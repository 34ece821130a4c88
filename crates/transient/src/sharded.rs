//! The sharded event engine: per-shard queues behind a deterministic
//! coordinator.
//!
//! A single binary-heap [`EventQueue`] is the simulator's clock, and at
//! million-VM trace sizes it becomes the bottleneck twice over: building
//! the heap is one giant `O(N log N)` pass on one core, and every event
//! kind shares one allocation-heavy structure. [`ShardedEventQueue`]
//! splits the queue into `S` per-shard [`EventQueue`]s:
//!
//! * **Routing** — every event is owned by exactly one shard, decided by
//!   a pure function of the event itself ([`ShardedEventQueue::route`]):
//!   capacity events go to the shard owning their server, VM
//!   arrivals/departures to the shard owning their workload slot,
//!   migration completions to the shard of their migration id, autoscale
//!   actions to the shard of their application id, and cluster-wide
//!   utilisation ticks to shard 0 (the coordinator's own shard). Routing
//!   affects only *which heap holds an event*, never the order it is
//!   delivered in.
//! * **Parallel construction** — [`ShardedEventQueue::build`] heapifies
//!   each shard's slice of the pre-scheduled events on its own
//!   `std::thread` worker, turning the start-of-run `O(N log N)` pass
//!   into `S` independent `O(N/S · log(N/S))` passes.
//! * **Coordinator merge** — [`ShardedEventQueue::pop`] compares the `S`
//!   shard heads under the exact total order of the single queue
//!   ([`event_cmp`]: time, then kind, then entity id, then payload bits)
//!   and pops the global minimum. Because the order is *total* and
//!   routing is a function of the ordering key's fields, the merged pop
//!   sequence is **identical** to the single queue's pop sequence — this
//!   is the determinism contract `tests/shard_parity.rs` pins and
//!   `docs/PERFORMANCE.md` documents.
//!
//! With one shard (the [`ShardConfig::sequential`] default) there is no
//! routing, no worker thread and a single heap: exactly the engine this
//! module replaced.

use crate::events::{event_cmp, EventQueue, SimEvent};
use crate::pool::{run_tasks, Task, WorkerPool};
use deflate_core::shard::ShardConfig;
use deflate_telemetry::{Phase, TelemetrySink};

/// A deterministic min-queue of timed simulation events, split into
/// per-shard heaps merged by a coordinator.
///
/// Drop-in replacement for [`EventQueue`]: `push`/`pop`/`len` behave
/// identically for every shard count, including pop *order*.
///
/// # Example
///
/// A four-shard queue delivers the same sequence as a sequential one:
///
/// ```
/// use deflate_core::shard::ShardConfig;
/// use deflate_transient::events::{EventQueue, SimEvent};
/// use deflate_transient::sharded::ShardedEventQueue;
///
/// let events = vec![
///     (9.0, SimEvent::Arrival(7)),
///     (3.0, SimEvent::Departure(1)),
///     (3.0, SimEvent::Arrival(2)),
///     (3.0, SimEvent::UtilizationTick),
///     (1.0, SimEvent::MigrationComplete { migration: 4 }),
/// ];
///
/// let mut sequential = EventQueue::new();
/// for &(t, e) in &events {
///     sequential.push(t, e);
/// }
/// let mut sharded = ShardedEventQueue::build(
///     ShardConfig::with_shards(4),
///     16, // servers
///     8,  // workload slots
///     events,
/// );
///
/// assert_eq!(sharded.len(), 5);
/// while let Some(expected) = sequential.pop() {
///     assert_eq!(sharded.pop(), Some(expected));
/// }
/// assert!(sharded.is_empty());
/// ```
#[derive(Debug)]
pub struct ShardedEventQueue {
    config: ShardConfig,
    num_servers: usize,
    num_slots: usize,
    shards: Vec<EventQueue>,
}

impl ShardedEventQueue {
    /// An empty sharded queue for a cluster of `num_servers` servers
    /// replaying `num_slots` workload slots. A zero shard count (possible
    /// via a `ShardConfig` struct literal) is normalised to one here, so
    /// every internal use of `config.shards` is safe.
    pub fn new(config: ShardConfig, num_servers: usize, num_slots: usize) -> Self {
        let config = ShardConfig::with_shards(config.shards);
        let shards = (0..config.shards).map(|_| EventQueue::new()).collect();
        ShardedEventQueue {
            config,
            num_servers,
            num_slots,
            shards,
        }
    }

    /// Build the queue from a pre-scheduled event list, heapifying each
    /// shard's share on its own `std::thread` worker (sequentially when
    /// the configuration has a single shard — no thread is spawned).
    pub fn build(
        config: ShardConfig,
        num_servers: usize,
        num_slots: usize,
        events: Vec<(f64, SimEvent)>,
    ) -> Self {
        Self::build_with_telemetry(
            config,
            num_servers,
            num_slots,
            events,
            &TelemetrySink::disabled(),
        )
    }

    /// [`build`](Self::build) under a telemetry sink: the whole build is
    /// a [`Phase::Heapify`] span, each worker's heapify is a per-shard
    /// span, and the queue publishes its routing balance (event count per
    /// shard) into the metrics registry. The sink only observes — the
    /// built queue is identical to [`build`](Self::build)'s.
    pub fn build_with_telemetry(
        config: ShardConfig,
        num_servers: usize,
        num_slots: usize,
        events: Vec<(f64, SimEvent)>,
        telemetry: &TelemetrySink,
    ) -> Self {
        Self::build_with_workers(config, num_servers, num_slots, events, telemetry, None)
    }

    /// [`build_with_telemetry`](Self::build_with_telemetry) with the
    /// parallel heapify submitted to a persistent [`WorkerPool`] instead
    /// of a throwaway one — the simulation loop shares one pool across
    /// every parallel section of a run. The built queue is identical
    /// either way.
    pub fn build_with_workers(
        config: ShardConfig,
        num_servers: usize,
        num_slots: usize,
        events: Vec<(f64, SimEvent)>,
        telemetry: &TelemetrySink,
        pool: Option<&WorkerPool>,
    ) -> Self {
        let _heapify = telemetry.span(Phase::Heapify);
        let mut queue = ShardedEventQueue::new(config, num_servers, num_slots);
        if !config.is_parallel() {
            queue.shards[0] = EventQueue::from_events(events);
            queue.publish_build_metrics(telemetry);
            return queue;
        }
        // Route first (cheap, sequential), then heapify each shard's
        // bucket in parallel — one linear `from_events` build per worker
        // rather than n sift-up pushes. Worker panics (only possible on
        // non-finite timestamps, which the single-queue path rejects
        // identically) propagate via the pool's batch join.
        let mut buckets: Vec<Vec<(f64, SimEvent)>> = vec![Vec::new(); config.shards];
        for (t, e) in events {
            buckets[queue.route(&e)].push((t, e));
        }
        let mut built: Vec<Option<EventQueue>> = (0..config.shards).map(|_| None).collect();
        let tasks: Vec<Task<'_>> = built
            .iter_mut()
            .zip(buckets)
            .enumerate()
            .map(|(shard, (slot, bucket))| {
                let worker_sink = telemetry.clone();
                Box::new(move || {
                    let _span = worker_sink.shard_span(shard, Phase::Heapify);
                    *slot = Some(EventQueue::from_events(bucket));
                }) as Task<'_>
            })
            .collect();
        run_tasks(pool, config.shards, tasks);
        queue.shards = built
            .into_iter()
            .map(|heap| heap.expect("shard heapify completed"))
            .collect();
        queue.publish_build_metrics(telemetry);
        queue
    }

    /// Publish the post-build routing balance: total scheduled events,
    /// shard count, and each shard's heap size.
    fn publish_build_metrics(&self, telemetry: &TelemetrySink) {
        if !telemetry.enabled() {
            return;
        }
        telemetry.gauge_set("queue.shards", self.config.shards as f64);
        telemetry.count("queue.events_scheduled", self.len() as u64);
        for (shard, len) in self.shard_lens().into_iter().enumerate() {
            telemetry.gauge_set(&format!("queue.shard.{shard}.initial_events"), len as f64);
        }
    }

    /// The shard owning an event: a pure function of the event's own
    /// fields, so the same event always lands in (and is popped from) the
    /// same heap.
    pub fn route(&self, event: &SimEvent) -> usize {
        match event {
            SimEvent::Arrival(i) | SimEvent::Departure(i) => {
                self.config.shard_of(*i, self.num_slots)
            }
            SimEvent::CapacityReclaim { server, .. } | SimEvent::CapacityRestore { server, .. } => {
                self.config.shard_of(server.0 as usize, self.num_servers)
            }
            // Migration ids are allocated in event-processing order and
            // have no home server spanning both endpoints; spread them
            // round-robin so no shard's heap collects every completion.
            SimEvent::MigrationComplete { migration } => (*migration as usize) % self.config.shards,
            // Elastic applications have no home server either (their
            // replicas spread across the cluster); spread their scale
            // actions round-robin by application id.
            SimEvent::ScaleOut { app } | SimEvent::ScaleIn { app } => {
                (*app as usize) % self.config.shards
            }
            // Cluster-wide events belong to the coordinator's own shard.
            SimEvent::UtilizationTick => 0,
        }
    }

    /// Schedule an event (same contract as [`EventQueue::push`]:
    /// non-finite timestamps panic).
    pub fn push(&mut self, time: f64, event: SimEvent) {
        let shard = self.route(&event);
        self.shards[shard].push(time, event);
    }

    /// Remove and return the globally earliest event: the minimum of the
    /// shard heads under the queue's total order.
    pub fn pop(&mut self) -> Option<(f64, SimEvent)> {
        let mut best: Option<(usize, (f64, SimEvent))> = None;
        for (k, shard) in self.shards.iter().enumerate() {
            let Some(head) = shard.peek() else { continue };
            let better = match &best {
                Some((_, current)) => event_cmp(head, *current) == std::cmp::Ordering::Less,
                None => true,
            };
            if better {
                best = Some((k, head));
            }
        }
        let (k, _) = best?;
        self.shards[k].pop()
    }

    /// The timestamp of the globally earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|s| s.peek_time())
            .min_by(f64::total_cmp)
    }

    /// Total number of pending events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no shard has pending events.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// The shard configuration this queue runs under.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Pending-event count of each shard, in shard order — the
    /// load-balance view `fig_scale` reports on.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Owned heap bytes across every shard's backing buffer (see
    /// [`EventQueue::accounted_bytes`]) plus the shard spine itself —
    /// the `mem.event_queue` contribution of the whole engine clock.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_telemetry::vec_capacity_bytes(&self.shards)
            + self.shards.iter().map(|s| s.accounted_bytes()).sum::<u64>()
    }

    /// Every pending event across all shards, in the queue's global pop
    /// order. Because the order is total and routing never affects it,
    /// the result — and therefore the checkpoint bytes derived from it —
    /// is identical for every shard count.
    pub fn contents(&self) -> Vec<(f64, SimEvent)> {
        let mut events: Vec<(f64, SimEvent)> =
            self.shards.iter().flat_map(|s| s.contents()).collect();
        events.sort_by(|a, b| event_cmp(*a, *b));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::vm::ServerId;

    /// A mixed event soup exercising every routing arm.
    fn soup(n: usize) -> Vec<(f64, SimEvent)> {
        let mut events = Vec::new();
        for i in 0..n {
            // Deliberately colliding timestamps to stress the tie-break.
            let t = (i % 7) as f64;
            events.push((t, SimEvent::Arrival(i)));
            events.push((t + 0.5, SimEvent::Departure(i)));
            events.push((
                t,
                SimEvent::CapacityReclaim {
                    server: ServerId((i % 13) as u32),
                    available_fraction: 0.25 + (i % 3) as f64 * 0.25,
                },
            ));
            events.push((
                t + 1.0,
                SimEvent::CapacityRestore {
                    server: ServerId((i % 13) as u32),
                    available_fraction: 1.0,
                },
            ));
            events.push((
                t,
                SimEvent::MigrationComplete {
                    migration: i as u64,
                },
            ));
            events.push((
                t + 0.5,
                SimEvent::ScaleOut {
                    app: (i % 3) as u32,
                },
            ));
            events.push((
                t + 0.5,
                SimEvent::ScaleIn {
                    app: (i % 4) as u32,
                },
            ));
            if i % 5 == 0 {
                events.push((t, SimEvent::UtilizationTick));
            }
        }
        events
    }

    fn drain_sequential(events: &[(f64, SimEvent)]) -> Vec<(f64, SimEvent)> {
        let mut q = EventQueue::with_capacity(events.len());
        for &(t, e) in events {
            q.push(t, e);
        }
        std::iter::from_fn(move || q.pop()).collect()
    }

    #[test]
    fn every_shard_count_pops_the_sequential_order() {
        let events = soup(40);
        let expected = drain_sequential(&events);
        for shards in [1, 2, 3, 4, 8, 16] {
            let mut q =
                ShardedEventQueue::build(ShardConfig::with_shards(shards), 13, 40, events.clone());
            assert_eq!(q.len(), events.len());
            let got: Vec<(f64, SimEvent)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(got, expected, "{shards} shards diverged");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn dynamic_pushes_interleave_identically() {
        // Push half up front, pop a few, push the rest mid-drain — the
        // simulator does exactly this with MigrationComplete events.
        let events = soup(20);
        let (first, second) = events.split_at(events.len() / 2);
        let reference = {
            let mut q = EventQueue::new();
            for &(t, e) in first {
                q.push(t, e);
            }
            let mut out = Vec::new();
            for _ in 0..5 {
                out.push(q.pop().unwrap());
            }
            for &(t, e) in second {
                q.push(t + 2.0, e);
            }
            out.extend(std::iter::from_fn(|| q.pop()));
            out
        };
        for shards in [2, 4] {
            let mut q = ShardedEventQueue::new(ShardConfig::with_shards(shards), 13, 20);
            for &(t, e) in first {
                q.push(t, e);
            }
            let mut out = Vec::new();
            for _ in 0..5 {
                out.push(q.pop().unwrap());
            }
            for &(t, e) in second {
                q.push(t + 2.0, e);
            }
            out.extend(std::iter::from_fn(|| q.pop()));
            assert_eq!(out, reference, "{shards} shards diverged mid-drain");
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let q = ShardedEventQueue::new(ShardConfig::with_shards(4), 13, 40);
        for &(_, e) in &soup(40) {
            let shard = q.route(&e);
            assert!(shard < 4);
            assert_eq!(q.route(&e), shard);
        }
        assert_eq!(q.route(&SimEvent::UtilizationTick), 0);
    }

    #[test]
    fn shard_lens_sum_to_len() {
        let events = soup(30);
        let total = events.len();
        let q = ShardedEventQueue::build(ShardConfig::with_shards(3), 13, 30, events);
        assert_eq!(q.shard_lens().iter().sum::<usize>(), total);
        assert_eq!(q.shard_lens().len(), 3);
        assert_eq!(q.config().shards, 3);
        // Parallel build actually spread events across shards.
        assert!(q.shard_lens().iter().filter(|&&l| l > 0).count() > 1);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = ShardedEventQueue::build(ShardConfig::with_shards(2), 13, 10, soup(10));
        while let Some(t) = q.peek_time() {
            let (popped, _) = q.pop().unwrap();
            assert_eq!(popped, t);
        }
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn telemetry_build_is_identical_and_publishes_balance() {
        use deflate_telemetry::{TelemetrySink, TelemetrySpec};
        let events = soup(25);
        let expected = drain_sequential(&events);
        let sink = TelemetrySink::in_memory(&TelemetrySpec::profiling());
        let mut q = ShardedEventQueue::build_with_telemetry(
            ShardConfig::with_shards(3),
            13,
            25,
            events.clone(),
            &sink,
        );
        let total = q.len() as u64;
        let got: Vec<(f64, SimEvent)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expected, "telemetry build changed pop order");
        let report = sink.finish().unwrap();
        assert_eq!(report.metrics.counter("queue.events_scheduled"), total);
        assert_eq!(report.metrics.gauge("queue.shards"), Some(3.0));
        // heapify appears both as a coordinator phase and per-shard rows
        assert!(report
            .phases
            .phases
            .iter()
            .any(|row| row.phase == deflate_telemetry::Phase::Heapify));
        assert_eq!(report.phases.shards.len(), 3);
    }

    #[test]
    fn contents_are_pop_order_and_shard_count_independent() {
        let events = soup(20);
        let expected = drain_sequential(&events);
        for shards in [1, 2, 4] {
            let q =
                ShardedEventQueue::build(ShardConfig::with_shards(shards), 13, 20, events.clone());
            assert_eq!(q.contents(), expected, "{shards}-shard contents diverged");
            assert_eq!(q.len(), events.len(), "contents must not drain");
        }
    }

    #[test]
    fn events_snapshot_round_trip() {
        use deflate_core::checkpoint::{ByteReader, ByteWriter};
        let events = soup(10);
        let mut w = ByteWriter::new();
        for &(_, mut e) in &events {
            e.visit_state(&mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &(_, e) in &events {
            let mut decoded = SimEvent::default();
            decoded.visit_state(&mut r).unwrap();
            assert_eq!(decoded, e);
        }
        r.finish().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_times_like_the_single_queue() {
        let mut q = ShardedEventQueue::new(ShardConfig::with_shards(2), 4, 4);
        q.push(f64::NAN, SimEvent::UtilizationTick);
    }
}
