//! Bounded admission with backpressure: a counted permit, not a thread.
//!
//! A statement runs on the thread that received it — the connection's
//! thread for TCP, the caller's for the in-process client — once it holds
//! one of `workers` permits. When every permit is out, up to
//! `queue_capacity` callers wait their turn in arrival order; the caller
//! after that is *not* made to wait: it immediately gets
//! [`ServerError::Busy`] with a retry hint. Saturation therefore sheds load
//! at the door instead of letting latency grow without bound — the client
//! sees a structured error it can back off on — and at most
//! `workers + queue_capacity` statements are ever in flight.

use crate::error::{ServerError, ServerResult};
use crate::metrics::Metrics;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[derive(Default)]
struct State {
    /// Permits currently out.
    executing: usize,
    /// Ticket the next caller that has to wait will draw.
    next_ticket: u64,
    /// Lowest ticket not yet admitted; `next_ticket - now_serving` callers
    /// are waiting.
    now_serving: u64,
}

/// The admission gate: `workers` permits, `queue_capacity` waiting places.
pub struct Admission {
    state: Mutex<State>,
    /// Signalled, while anyone waits, whenever a permit comes back or the
    /// head of the line moves.
    turn: Condvar,
    workers: usize,
    queue_capacity: usize,
    metrics: Arc<Metrics>,
}

/// The right to execute one statement. Taking one counts a job submitted;
/// dropping it returns the slot and counts the job completed — or
/// panicked, when [`Admission::run`] caught the statement unwinding — so
/// the jobs-conservation law holds for every holder, tests included.
pub struct Permit<'a> {
    gate: &'a Admission,
    waited_us: u64,
    panicked: bool,
}

impl Admission {
    /// A gate letting `workers` statements execute at once and
    /// `queue_capacity` more callers wait.
    pub fn new(workers: usize, queue_capacity: usize, metrics: Arc<Metrics>) -> Self {
        assert!(workers >= 1, "need at least one permit");
        assert!(queue_capacity >= 1, "need at least one waiting place");
        Admission {
            state: Mutex::new(State::default()),
            turn: Condvar::new(),
            workers,
            queue_capacity,
            metrics,
        }
    }

    /// Take a permit: at once if one is free and nobody is waiting, after
    /// waiting in arrival order if there is a place in line, and otherwise
    /// not at all — [`ServerError::Busy`], without blocking.
    pub fn acquire(&self) -> ServerResult<Permit<'_>> {
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        let waiting = (state.next_ticket - state.now_serving) as usize;
        let mut waited_us = 0;
        if state.executing == self.workers || waiting > 0 {
            if waiting >= self.queue_capacity {
                drop(state);
                self.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                // Hint scales with how much work one full line represents;
                // a floor keeps tight retry loops polite.
                let hint = (self.queue_capacity as u64).max(10);
                return Err(ServerError::Busy { retry_after_ms: hint });
            }
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            self.metrics.enqueue();
            let arrived = std::time::Instant::now();
            while state.now_serving != ticket || state.executing == self.workers {
                self.turn.wait(&mut state);
            }
            state.now_serving += 1;
            self.metrics.dequeue();
            waited_us = arrived.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            // The new head of the line may find a second free permit.
            if state.next_ticket != state.now_serving {
                self.turn.notify_all();
            }
        }
        state.executing += 1;
        drop(state);
        // One sample per admitted statement; an uncontended permit waited 0.
        self.metrics.queue_wait.record_us(waited_us);
        Ok(Permit { gate: self, waited_us, panicked: false })
    }

    /// Run `statement` on the calling thread under a permit, handing it the
    /// microseconds it waited for admission.
    ///
    /// A statement that panics (a bug in one session's statement, a
    /// poisoned engine invariant) must not unwind into the connection loop
    /// or the embedding program, and must not leak its permit — that would
    /// shrink the gate until the whole server wedges. *Its* caller gets a
    /// structured error; everyone else keeps their turn.
    pub fn run<T>(&self, statement: impl FnOnce(u64) -> T) -> ServerResult<T> {
        let mut permit = self.acquire()?;
        let waited_us = permit.waited_us;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| statement(waited_us)));
        permit.panicked = outcome.is_err();
        outcome.map_err(|_| ServerError::Io("statement panicked before replying".into()))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let metrics = &self.gate.metrics;
        let outcome = if self.panicked { &metrics.worker_panics } else { &metrics.jobs_completed };
        outcome.fetch_add(1, Ordering::Relaxed);
        let mut state = self.gate.state.lock();
        state.executing -= 1;
        // Uncontended (the usual case) nobody is parked: skip the wake-up,
        // which is a system call whether or not anyone hears it.
        let waiting = state.next_ticket != state.now_serving;
        drop(state);
        if waiting {
            self.gate.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    fn gate(workers: usize, queue_capacity: usize) -> (Arc<Metrics>, Admission) {
        let metrics = Arc::new(Metrics::default());
        let gate = Admission::new(workers, queue_capacity, Arc::clone(&metrics));
        (metrics, gate)
    }

    /// Spin until `n` callers are parked in line — an observation of the
    /// gate's own gauge, so the interleaving is forced, not slept for.
    fn await_depth(metrics: &Metrics, n: u64) {
        while metrics.queue_depth.load(Ordering::Relaxed) != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn runs_statements_and_returns_values() {
        let (metrics, gate) = gate(4, 16);
        let results: Vec<u64> = (0..10).map(|i| gate.run(|_| i * 2).unwrap()).collect();
        assert_eq!(results, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(metrics.queue_peak.load(Ordering::Relaxed), 0, "nobody waits for a free permit");
    }

    #[test]
    fn saturation_rejects_with_busy() {
        let (metrics, gate) = gate(1, 1);
        let held = gate.acquire().unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.run(|waited_us| waited_us));
            await_depth(&metrics, 1);
            // One executing, one waiting: the next caller bounces at once.
            match gate.run(|_| ()) {
                Err(ServerError::Busy { retry_after_ms }) => assert!(retry_after_ms > 0),
                other => panic!("expected Busy rejection, got {other:?}"),
            }
            assert_eq!(metrics.rejected_busy.load(Ordering::Relaxed), 1);
            drop(held);
            // The parked waiter is admitted and was told what it waited.
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(metrics.queue_peak.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let (metrics, gate) = gate(1, 4);
        let held = gate.acquire().unwrap();
        let (order_tx, order_rx) = mpsc::channel();
        std::thread::scope(|s| {
            for name in 0..4u64 {
                let order_tx = order_tx.clone();
                let gate = &gate;
                s.spawn(move || gate.run(|_| order_tx.send(name).unwrap()).unwrap());
                // The next caller arrives only once this one is in line.
                await_depth(&metrics, name + 1);
            }
            drop(held);
        });
        assert_eq!(order_rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panicking_statement_returns_its_permit() {
        // One permit: if the panic leaked it, every later statement would
        // wait forever.
        let (metrics, gate) = gate(1, 8);
        let err = gate.run(|_| -> u64 { panic!("boom") });
        assert!(
            matches!(err, Err(ServerError::Io(_))),
            "caller of a panicked statement must get a structured error, got {err:?}"
        );
        assert_eq!(gate.run(|_| 7u64).unwrap(), 7);
        assert_eq!(metrics.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_are_conserved_and_every_admission_is_sampled() {
        let (metrics, gate) = gate(2, 2);
        let (shed, panicked) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (gate, shed, panicked) = (&gate, &shed, &panicked);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let seen = match gate.run(|_| assert!((i + t) % 10 != 0, "injected")) {
                            Ok(()) => continue,
                            Err(ServerError::Io(_)) => panicked,
                            Err(ServerError::Busy { .. }) => shed,
                            Err(other) => panic!("unexpected error {other:?}"),
                        };
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let v = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (completed, panics, busy) =
            (v(&metrics.jobs_completed), v(&metrics.worker_panics), v(&metrics.rejected_busy));
        assert_eq!(v(&metrics.jobs_submitted), 8 * 200);
        assert_eq!(v(&metrics.jobs_submitted), completed + panics + busy);
        assert_eq!(busy, v(&shed), "each caller shed saw Busy");
        assert_eq!(panics, v(&panicked), "each panic reached its own caller");
        assert_eq!(metrics.queue_wait.count(), completed + panics);
        assert_eq!(v(&metrics.queue_depth), 0);
        assert!(v(&metrics.queue_peak) <= 2, "never more waiters than places");
    }
}
