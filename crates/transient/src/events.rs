//! Typed simulation events and the deterministic event queue.
//!
//! The first-generation cluster simulator kept an ad-hoc `Vec<(f64, u8,
//! Event)>` sorted once up front, which only knew VM arrivals and
//! departures and relied on `Vec` sort stability for tie-breaking. This
//! module generalises it: a binary-heap [`EventQueue`] over typed
//! [`SimEvent`]s with a *total*, fully deterministic order — timestamp
//! (via `f64::total_cmp`), then event kind, then entity id — so that runs
//! are reproducible regardless of insertion order, and new event kinds
//! (capacity reclamation/restitution, utilisation ticks) can be scheduled
//! dynamically while the simulation is running.

use deflate_core::checkpoint::{CheckpointError, CheckpointResult, StateVisitor};
use deflate_core::vm::ServerId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One typed simulation event.
///
/// `Arrival`/`Departure` carry the *index* of the VM in the workload slice
/// being replayed (not its [`VmId`](deflate_core::vm::VmId)) so the
/// simulator can address its per-VM bookkeeping arrays directly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum SimEvent {
    /// A VM (index into the workload) departs.
    Departure(usize),
    /// An in-flight live migration finishes (or hits its abort deadline).
    /// Carries the migration id handed out by the cluster manager when the
    /// transfer started; the manager decides on delivery whether the
    /// transfer completed or must be aborted. Transfers queued behind a
    /// bandwidth budget need no separate wake event: the transfer
    /// scheduler folds the queueing delay into the start time, so this
    /// one event covers the whole booked transfer.
    MigrationComplete {
        /// Identifier of the in-flight migration.
        migration: u64,
    },
    /// The provider restores a server's capacity to the given fraction of
    /// its hardware capacity.
    CapacityRestore {
        /// Affected server.
        server: ServerId,
        /// Available-capacity fraction from now on.
        available_fraction: f64,
    },
    /// The provider reclaims a server's capacity down to the given fraction
    /// of its hardware capacity.
    CapacityReclaim {
        /// Affected server.
        server: ServerId,
        /// Available-capacity fraction from now on.
        available_fraction: f64,
    },
    /// A VM (index into the workload) arrives.
    Arrival(usize),
    /// The autoscaler executes a previously decided scale-out for one
    /// elastic application: reinflate parked replicas and/or launch new
    /// ones. Decisions are made at `UtilizationTick`s and actuated after
    /// the policy's actuation delay, so the event carries only the
    /// application id — the actuator recomputes the desired replica count
    /// from the (deterministic) demand signal at delivery time.
    ScaleOut {
        /// Elastic application being scaled.
        app: u32,
    },
    /// The autoscaler executes a previously decided scale-in for one
    /// elastic application: terminate replicas (launch-only policy) or
    /// deflate them into the parked state (deflation-aware policy).
    ScaleIn {
        /// Elastic application being scaled.
        app: u32,
    },
    /// Periodic sampling point for cluster-utilisation metrics.
    #[default]
    UtilizationTick,
}

impl SimEvent {
    /// Processing rank for events sharing a timestamp. Departures run first
    /// (they free capacity), then migration completions (they free the
    /// source server's share of an in-flight VM), then capacity
    /// restitutions (more room), then reclamations (so simultaneous
    /// arrivals see the reduced capacity), then arrivals, then autoscale
    /// actions (scale-outs before scale-ins, both after arrivals so the
    /// actuator sees the settled population), then metric ticks (which
    /// observe the settled state). The relative order of the pre-autoscale
    /// kinds is unchanged from before scale events existed, so runs that
    /// never schedule them — every `AutoscalePolicy::Disabled` run — are
    /// bit-identical to the engine that predates them.
    fn rank(&self) -> u8 {
        match self {
            SimEvent::Departure(_) => 0,
            SimEvent::MigrationComplete { .. } => 1,
            SimEvent::CapacityRestore { .. } => 2,
            SimEvent::CapacityReclaim { .. } => 3,
            SimEvent::Arrival(_) => 4,
            SimEvent::ScaleOut { .. } => 5,
            SimEvent::ScaleIn { .. } => 6,
            SimEvent::UtilizationTick => 7,
        }
    }

    /// The event's snapshot schema: the kind's rank as the discriminant,
    /// then the payload fields. A decoded rank of another kind resets
    /// the event to that kind before its payload is read.
    pub fn visit_state(&mut self, v: &mut impl StateVisitor) -> CheckpointResult<()> {
        let mut kind = self.rank();
        v.u8("kind", &mut kind)?;
        if kind != self.rank() {
            *self = match kind {
                0 => SimEvent::Departure(0),
                1 => SimEvent::MigrationComplete { migration: 0 },
                2 => SimEvent::CapacityRestore {
                    server: ServerId(0),
                    available_fraction: 0.0,
                },
                3 => SimEvent::CapacityReclaim {
                    server: ServerId(0),
                    available_fraction: 0.0,
                },
                4 => SimEvent::Arrival(0),
                5 => SimEvent::ScaleOut { app: 0 },
                6 => SimEvent::ScaleIn { app: 0 },
                7 => SimEvent::UtilizationTick,
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown SimEvent discriminant {other}"
                    )))
                }
            };
        }
        match self {
            SimEvent::Arrival(i) | SimEvent::Departure(i) => v.usize("vm_index", i),
            SimEvent::MigrationComplete { migration } => v.u64("migration", migration),
            SimEvent::CapacityRestore {
                server,
                available_fraction,
            }
            | SimEvent::CapacityReclaim {
                server,
                available_fraction,
            } => {
                v.u32("server", &mut server.0)?;
                v.f64("available_fraction", available_fraction)
            }
            SimEvent::ScaleOut { app } | SimEvent::ScaleIn { app } => v.u32("app", app),
            SimEvent::UtilizationTick => Ok(()),
        }
    }

    /// Entity id used as the final tie-break among same-kind events at the
    /// same timestamp: the workload index for VM events, the server id for
    /// capacity events, the migration id for migration completions, the
    /// application id for autoscale actions.
    fn tie_id(&self) -> u64 {
        match self {
            SimEvent::Arrival(i) | SimEvent::Departure(i) => *i as u64,
            SimEvent::CapacityReclaim { server, .. } | SimEvent::CapacityRestore { server, .. } => {
                server.0 as u64
            }
            SimEvent::MigrationComplete { migration } => *migration,
            SimEvent::ScaleOut { app } | SimEvent::ScaleIn { app } => *app as u64,
            SimEvent::UtilizationTick => 0,
        }
    }
}

/// An event with its scheduled time.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    event: SimEvent,
}

impl Scheduled {
    /// Total ordering key. The final component folds in the capacity
    /// fraction (as raw bits) so the order is total over *every* field:
    /// two `Scheduled` values compare `Equal` if and only if their keys are
    /// bit-identical (`PartialEq` below is defined from this same key),
    /// keeping `Ord` and `PartialEq` consistent and making pop order
    /// independent of push order even for contradictory duplicate events.
    fn key(&self) -> (f64, u8, u64, u64) {
        let payload_bits = match self.event {
            SimEvent::CapacityReclaim {
                available_fraction, ..
            }
            | SimEvent::CapacityRestore {
                available_fraction, ..
            } => available_fraction.to_bits(),
            _ => 0,
        };
        (
            self.time,
            self.event.rank(),
            self.event.tie_id(),
            payload_bits,
        )
    }
}

/// The queue's total order over `(time, event)` pairs, earliest first:
/// timestamp (`f64::total_cmp`), then event kind, then entity id, then the
/// raw bits of the capacity payload — the order [`EventQueue::contents`]
/// lists pending events in.
fn event_cmp(a: (f64, SimEvent), b: (f64, SimEvent)) -> Ordering {
    let a = Scheduled {
        time: a.0,
        event: a.1,
    };
    let b = Scheduled {
        time: b.0,
        event: b.1,
    };
    // `Scheduled`'s own Ord is reversed for the max-heap; compare the raw
    // keys forward here.
    let (t1, r1, i1, p1) = a.key();
    let (t2, r2, i2, p2) = b.key();
    t1.total_cmp(&t2)
        .then(r1.cmp(&r2))
        .then(i1.cmp(&i2))
        .then(p1.cmp(&p2))
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        let (t1, r1, i1, p1) = self.key();
        let (t2, r2, i2, p2) = other.key();
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on
        // top.
        t2.total_cmp(&t1)
            .then(r2.cmp(&r1))
            .then(i2.cmp(&i1))
            .then(p2.cmp(&p1))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-queue of timed simulation events.
///
/// Events at equal timestamps are delivered in a fixed kind order
/// (departures, then migration completions, capacity restitutions,
/// reclamations, arrivals, scale-outs, scale-ins, utilisation ticks) with
/// entity ids breaking remaining ties, so replaying the same schedule
/// always produces the same sequence regardless of the order events were
/// pushed in.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue with space for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// A queue holding `events`, heapified in one linear pass
    /// (`BinaryHeap::from`) instead of `n` sift-up pushes — the
    /// start-of-run bulk build, repeated on every snapshot restore. Pop
    /// order is identical to pushing the events individually: the
    /// ordering is total, so the drained sequence of a multiset is unique
    /// regardless of the heap's internal layout. Panics on non-finite
    /// timestamps, like [`push`](Self::push).
    pub fn from_events(events: Vec<(f64, SimEvent)>) -> Self {
        let scheduled: Vec<Scheduled> = events
            .into_iter()
            .map(|(time, event)| {
                assert!(time.is_finite(), "event scheduled at non-finite time");
                Scheduled { time, event }
            })
            .collect();
        EventQueue {
            heap: BinaryHeap::from(scheduled),
        }
    }

    /// Schedule an event. Non-finite timestamps are rejected with a panic —
    /// they would corrupt the queue order.
    pub fn push(&mut self, time: f64, event: SimEvent) {
        assert!(time.is_finite(), "event scheduled at non-finite time");
        self.heap.push(Scheduled { time, event });
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, SimEvent)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Every pending event in the queue's pop order, without draining it.
    /// `BinaryHeap::iter` yields an arbitrary layout-dependent order, so
    /// the collected events are sorted under the queue's total order — the
    /// result is independent of how (and in what order) events were
    /// pushed, which is what makes checkpoint bytes reproducible.
    pub fn contents(&self) -> Vec<(f64, SimEvent)> {
        let mut events: Vec<(f64, SimEvent)> =
            self.heap.iter().map(|s| (s.time, s.event)).collect();
        events.sort_by(|a, b| event_cmp(*a, *b));
        events
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Owned heap bytes behind the queue: the backing buffer's allocated
    /// capacity × entry size. Deterministic — heap growth is a pure
    /// function of the push/pop sequence — and fed into the engine's
    /// `mem.event_queue` gauge (see `deflate-telemetry`'s `MemoryLedger`).
    pub fn accounted_bytes(&self) -> u64 {
        (self.heap.capacity() * std::mem::size_of::<Scheduled>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_kind_then_id() {
        let mut q = EventQueue::new();
        // Push deliberately shuffled.
        q.push(10.0, SimEvent::Arrival(5));
        q.push(5.0, SimEvent::UtilizationTick);
        q.push(5.0, SimEvent::Arrival(2));
        q.push(
            5.0,
            SimEvent::CapacityReclaim {
                server: ServerId(1),
                available_fraction: 0.5,
            },
        );
        q.push(5.0, SimEvent::Departure(9));
        q.push(
            5.0,
            SimEvent::CapacityRestore {
                server: ServerId(0),
                available_fraction: 1.0,
            },
        );
        q.push(5.0, SimEvent::Arrival(1));
        q.push(5.0, SimEvent::MigrationComplete { migration: 7 });
        q.push(5.0, SimEvent::ScaleIn { app: 0 });
        q.push(5.0, SimEvent::ScaleOut { app: 3 });
        let order: Vec<(f64, SimEvent)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (5.0, SimEvent::Departure(9)),
                (5.0, SimEvent::MigrationComplete { migration: 7 }),
                (
                    5.0,
                    SimEvent::CapacityRestore {
                        server: ServerId(0),
                        available_fraction: 1.0
                    }
                ),
                (
                    5.0,
                    SimEvent::CapacityReclaim {
                        server: ServerId(1),
                        available_fraction: 0.5
                    }
                ),
                (5.0, SimEvent::Arrival(1)),
                (5.0, SimEvent::Arrival(2)),
                (5.0, SimEvent::ScaleOut { app: 3 }),
                (5.0, SimEvent::ScaleIn { app: 0 }),
                (5.0, SimEvent::UtilizationTick),
                (10.0, SimEvent::Arrival(5)),
            ]
        );
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let events = [
            (3.0, SimEvent::Arrival(0)),
            (1.0, SimEvent::Departure(4)),
            (1.0, SimEvent::Arrival(4)),
            (2.0, SimEvent::UtilizationTick),
            (
                1.0,
                SimEvent::CapacityReclaim {
                    server: ServerId(3),
                    available_fraction: 0.25,
                },
            ),
        ];
        let drain = |order: &[usize]| -> Vec<(f64, SimEvent)> {
            let mut q = EventQueue::with_capacity(events.len());
            for &i in order {
                let (t, e) = events[i];
                q.push(t, e);
            }
            std::iter::from_fn(|| q.pop()).collect()
        };
        let forward = drain(&[0, 1, 2, 3, 4]);
        let backward = drain(&[4, 3, 2, 1, 0]);
        let shuffled = drain(&[2, 0, 4, 1, 3]);
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);
        assert_eq!(forward[0].1, SimEvent::Departure(4));
    }

    #[test]
    fn contradictory_duplicates_pop_in_a_fixed_order() {
        // Two reclaims for the same server at the same instant with
        // different fractions are contradictory input, but the queue must
        // still order them identically regardless of push order.
        let a = SimEvent::CapacityReclaim {
            server: ServerId(2),
            available_fraction: 0.3,
        };
        let b = SimEvent::CapacityReclaim {
            server: ServerId(2),
            available_fraction: 0.7,
        };
        let drain = |first: SimEvent, second: SimEvent| {
            let mut q = EventQueue::new();
            q.push(50.0, first);
            q.push(50.0, second);
            [q.pop().unwrap().1, q.pop().unwrap().1]
        };
        assert_eq!(drain(a, b), drain(b, a));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, SimEvent::UtilizationTick);
    }

    #[test]
    fn bulk_build_pops_the_same_sequence_as_pushes() {
        let events = vec![
            (3.0, SimEvent::Arrival(0)),
            (1.0, SimEvent::Departure(4)),
            (1.0, SimEvent::Arrival(4)),
            (2.0, SimEvent::UtilizationTick),
            (1.0, SimEvent::MigrationComplete { migration: 2 }),
            (
                1.0,
                SimEvent::CapacityReclaim {
                    server: ServerId(3),
                    available_fraction: 0.25,
                },
            ),
        ];
        let mut pushed = EventQueue::with_capacity(events.len());
        for &(t, e) in &events {
            pushed.push(t, e);
        }
        let mut bulk = EventQueue::from_events(events);
        assert_eq!(bulk.len(), pushed.len());
        while let Some(expected) = pushed.pop() {
            assert_eq!(bulk.pop(), Some(expected));
        }
        assert!(bulk.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn bulk_build_rejects_nan_times() {
        let _ = EventQueue::from_events(vec![(f64::NAN, SimEvent::UtilizationTick)]);
    }

    /// Every event kind, with colliding timestamps to stress the tie-break.
    fn soup(n: usize) -> Vec<(f64, SimEvent)> {
        let mut events = Vec::new();
        for i in 0..n {
            let t = (i % 7) as f64;
            let server = ServerId((i % 13) as u32);
            events.push((t, SimEvent::Arrival(i)));
            events.push((t + 0.5, SimEvent::Departure(i)));
            events.push((
                t,
                SimEvent::CapacityReclaim {
                    server,
                    available_fraction: 0.25 + (i % 3) as f64 * 0.25,
                },
            ));
            events.push((
                t + 1.0,
                SimEvent::CapacityRestore {
                    server,
                    available_fraction: 1.0,
                },
            ));
            let migration = i as u64;
            events.push((t, SimEvent::MigrationComplete { migration }));
            let app = (i % 3) as u32;
            events.push((t + 0.5, SimEvent::ScaleOut { app }));
            events.push((t + 0.5, SimEvent::ScaleIn { app }));
            if i % 5 == 0 {
                events.push((t, SimEvent::UtilizationTick));
            }
        }
        events
    }

    #[test]
    fn contents_list_the_pop_order_without_draining() {
        let events = soup(20);
        let queue = EventQueue::from_events(events.clone());
        let mut drained = EventQueue::from_events(events.clone());
        let expected: Vec<(f64, SimEvent)> = std::iter::from_fn(|| drained.pop()).collect();
        assert_eq!(queue.contents(), expected);
        assert_eq!(queue.len(), events.len(), "contents must not drain");
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
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(2.0, SimEvent::Arrival(0));
        q.push(1.0, SimEvent::Arrival(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(1.0));
    }
}
