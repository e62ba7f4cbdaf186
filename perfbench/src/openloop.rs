//! Request plans and the connection loop shared by the workloads.
//!
//! An open-loop plan fixes every request's due time up front (seeded
//! Poisson arrivals); [`drive`] sends each request at its due time, or at
//! once when the connection is still busy, and latency is measured from the
//! due time, so a stall is charged to every request it delays.  A closed
//! loop is the same function with every due time at the start of the loop and
//! a deadline: each request is sent as soon as the previous reply arrives.

use crate::common::replay;
use crate::http::Client;
use crate::trace::{span, Tracer};
use rand::Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wfdiff_pdiffview::serve::handlers::AppState;

/// Request classes, each reported with its own latency figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Read,
    Diff,
    Similar,
    Insert,
    Stream,
    Batch,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Diff => "diff",
            Class::Similar => "similar",
            Class::Insert => "insert",
            Class::Stream => "stream",
            Class::Batch => "batch",
        }
    }

    /// The `/metrics` endpoint labels this class is served under.
    pub fn endpoints(self) -> &'static [&'static str] {
        match self {
            Class::Read => &["healthz", "specs", "spec_runs", "cluster", "drift"],
            Class::Diff => &["diff"],
            Class::Batch => &["diff_batch"],
            Class::Similar => &["similar"],
            Class::Insert => &["insert_run"],
            Class::Stream => &["runs_stream"],
        }
    }

    /// Whether the request only reads, so replaying it in process leaves
    /// the server's state unchanged.
    pub fn replayable(self) -> bool {
        matches!(self, Class::Read | Class::Diff | Class::Similar)
    }
}

/// One planned request.  `tag` indexes the workload's own expectation for
/// it.
pub struct Op {
    pub due: f64,
    pub class: Class,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    pub tag: usize,
}

/// One completed request; times are seconds from the start of the phase,
/// `status` is 0 on a transport failure.
pub struct Done {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub status: u16,
    pub body: String,
    pub response_bytes: usize,
    /// In-process replay time of the same request (traced runs only).
    pub replay_us: Option<f64>,
}

impl Done {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Time on the wire and in the server, in microseconds.
    pub fn roundtrip_us(&self) -> f64 {
        (self.done - self.sent) * 1e6
    }
}

/// Seeded Poisson arrival times at `rate` per second over `[0, seconds)`,
/// conditioned on their count: exactly `rate * seconds` arrivals, placed as
/// the order statistics of uniform draws, so every seed offers the same
/// load.
pub fn poisson(rate: f64, seconds: f64, rng: &mut impl Rng) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..seconds)).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Sends `ops` in order over one keep-alive connection, stopping at
/// `deadline` (seconds from `start`) when one is given.  With a replay
/// state, each read-only request is also run through the serving layers in
/// process right after its round trip.
pub fn drive(
    addr: SocketAddr,
    ops: &[Op],
    start: Instant,
    deadline: Option<f64>,
    replay_state: Option<&AppState>,
    tracer: Option<&Tracer>,
) -> Vec<Done> {
    let mut client = Client::connect(addr).ok();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let now = start.elapsed().as_secs_f64();
        if deadline.is_some_and(|d| now >= d) {
            break;
        }
        if op.due > now {
            std::thread::sleep(Duration::from_secs_f64(op.due - now));
        }
        let req = tracer.map(Tracer::request_id).unwrap_or(0);
        let sent = start.elapsed().as_secs_f64();
        let reply = span(tracer, "client.request", 0, req, |_| match client.as_mut() {
            Some(c) => c.request(op.method, &op.path, &op.body).ok(),
            None => None,
        });
        let done = start.elapsed().as_secs_f64();
        let replay_us = match (&reply, replay_state) {
            (Some(r), Some(state)) if op.class.replayable() && r.status == 200 => {
                Some(replay(state, &Client::encode(op.method, &op.path, &op.body), tracer, req))
            }
            _ => None,
        };
        match reply {
            Some(r) => out.push(Done {
                due: op.due,
                sent,
                done,
                status: r.status,
                body: r.body,
                response_bytes: r.response_bytes,
                replay_us,
            }),
            None => {
                out.push(Done {
                    due: op.due,
                    sent,
                    done,
                    status: 0,
                    body: String::new(),
                    response_bytes: 0,
                    replay_us: None,
                });
                client = Client::connect(addr).ok();
            }
        }
    }
    out
}
