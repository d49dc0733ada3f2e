//! Open-loop load: a schedule thread sends each operation at its due time
//! whatever the state of earlier ones, and a collector thread waits for
//! the answers. Latency is timed from the due time, so a stall anywhere
//! (service, schedule thread or collector) is charged to every request it
//! delays.

use daakg_graph::DaakgError;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Overloaded,
    DeadlineExceeded,
    Other,
}

impl Failure {
    pub fn of(err: &DaakgError) -> Self {
        match err {
            DaakgError::Overloaded { .. } => Self::Overloaded,
            DaakgError::DeadlineExceeded { .. } => Self::DeadlineExceeded,
            _ => Self::Other,
        }
    }
}

/// What the schedule thread's call returned.
pub enum Issued<T, A> {
    /// Admitted; the collector waits for the answer.
    Pending(T),
    /// Completed synchronously on the schedule thread.
    Ready(A),
}

/// The fate of one scheduled operation.
#[derive(Debug)]
pub struct Outcome<A> {
    /// Index into the schedule.
    pub op: usize,
    pub due: Instant,
    /// When the schedule thread actually issued it.
    pub sent: Instant,
    /// When its answer (or error) was observed.
    pub done: Instant,
    pub result: Result<A, Failure>,
}

impl<A> Outcome<A> {
    /// Due time to completion, in ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// Issue to completion, in ms (the caller's view of a blocking call).
    pub fn call_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.sent))
    }

    /// How late the schedule thread issued it, in ms.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Poisson arrival offsets at `rate` per second over `duration`.
pub fn poisson(rate: f64, duration: Duration, rng: &mut StdRng) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let end = duration.as_secs_f64();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Run `due.len()` operations open-loop from `start`: the calling thread
/// issues operation `i` at `start + due[i]` via `issue(i)`, and a
/// collector thread passes every pending ticket to `wait`. Returns one
/// outcome per operation, in schedule order.
pub fn run_open_loop<T, A>(
    start: Instant,
    due: &[Duration],
    mut issue: impl FnMut(usize) -> Result<Issued<T, A>, Failure>,
    wait: impl Fn(T) -> Result<A, Failure> + Send,
) -> Vec<Outcome<A>>
where
    T: Send,
    A: Send,
{
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, T)>();
    let mut outcomes = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(op, due, sent, ticket)| {
                    let result = wait(ticket);
                    Outcome {
                        op,
                        due,
                        sent,
                        done: Instant::now(),
                        result,
                    }
                })
                .collect::<Vec<_>>()
        });
        let mut direct = Vec::new();
        for (op, offset) in due.iter().enumerate() {
            let due_at = start + *offset;
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            let result = match issue(op) {
                Ok(Issued::Pending(ticket)) => {
                    tx.send((op, due_at, sent, ticket))
                        .expect("collector outlives the schedule");
                    continue;
                }
                Ok(Issued::Ready(answer)) => Ok(answer),
                Err(f) => Err(f),
            };
            direct.push(Outcome {
                op,
                due: due_at,
                sent,
                done: Instant::now(),
                result,
            });
        }
        drop(tx);
        let mut all = collector.join().expect("collector thread panicked");
        all.append(&mut direct);
        all
    });
    outcomes.sort_by_key(|o| o.op);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn every_ms(n: usize) -> Vec<Duration> {
        (0..n).map(|i| Duration::from_millis(i as u64)).collect()
    }

    #[test]
    fn a_stalled_collector_is_charged_from_due_time() {
        let due = every_ms(10);
        let out = run_open_loop(
            Instant::now(),
            &due,
            |op| Ok(Issued::<usize, usize>::Pending(op)),
            |op| {
                if op == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                Ok(op)
            },
        );
        assert_eq!(out.len(), 10);
        for o in &out {
            assert_eq!(o.result, Ok(o.op));
            // Answered no earlier than the stall ended, 40 ms after op 0
            // was due, so op i waited at least 40 - i ms since its due time.
            assert!(o.latency_ms() >= 40.0 - o.op as f64, "{o:?}");
        }
        // The schedule thread itself was not held up by the collector.
        assert!(out[9].late_ms() < 20.0, "{:?}", out[9]);
    }

    #[test]
    fn a_stalled_schedule_thread_shows_as_lateness_and_latency() {
        let due = every_ms(5);
        let out = run_open_loop(
            Instant::now(),
            &due,
            |op| {
                if op == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                    return Err(Failure::Overloaded);
                }
                Ok(Issued::<(), usize>::Ready(op))
            },
            |()| Ok(0),
        );
        assert_eq!(out[0].result, Err(Failure::Overloaded));
        assert!(out[0].call_ms() >= 30.0);
        for o in &out[1..] {
            assert_eq!(o.result, Ok(o.op));
            assert!(o.late_ms() >= 30.0 - o.op as f64 - 0.5, "{o:?}");
            assert!(o.latency_ms() >= o.late_ms());
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson(
            2000.0,
            Duration::from_secs(2),
            &mut StdRng::seed_from_u64(5),
        );
        let b = poisson(
            2000.0,
            Duration::from_secs(2),
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(a, b);
        assert!((3700..4300).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
