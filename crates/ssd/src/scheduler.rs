//! Streaming discrete-event scheduler of the pipelined timing model.
//!
//! The serving loop hands every admitted request's foreground and
//! background op chains to a [`Scheduler`], which reserves their stages on
//! the [`ResourcePool`]: a chain's next stage is reserved the instant its
//! previous stage completes (FCFS in deterministic event order), and a
//! request's response is the completion of its foreground chain, measured
//! from its *original* arrival (any deferral wait included).
//!
//! The scheduler only reports what happened: [`Scheduler::drain`] hands
//! each [`Event`] to the caller's recorder in pop order, and the caller
//! decides what to account.
//!
//! Scheduling streams alongside the logical layer instead of replaying
//! the whole run afterwards. Before the logical layer takes a request
//! arriving at `a`, the loop drains every event earlier than `a`; after the
//! source ends it drains everything. Memory therefore follows in-flight
//! work, not trace length: finished chains return their slot and stage
//! buffer to a free list.
//!
//! The pop order is a total order on `(time, kind, seq)`: an arrival wins
//! a time tie against a stage completion, arrivals pop in admission order
//! and completions in push order. That is exactly the order of a batch
//! schedule that pushes every arrival before the first completion, and
//! streaming cannot change it: submit ≥ arrival and sources yield
//! non-decreasing arrivals, so no request still unseen at a drain can
//! submit before `a`.

use flash_model::Micros;
use ldpc::ReadLatencyModel;

use crate::config::SsdConfig;
use crate::device::ResourcePool;
use crate::events::EventQueue;
use crate::pipeline::{expand_ops, FlashOp, Stage, StageKind};

/// What the recorder needs to account one request's response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Request {
    pub(crate) tenant: u32,
    pub(crate) arrival: Micros,
    pub(crate) is_read: bool,
    /// The observer's key for this request; unused without an observer.
    pub(crate) obs_key: u64,
}

/// What [`Scheduler::drain`] reports, in pop order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// The request's foreground chain entered service at this time.
    Started(Request, Micros),
    /// One stage ran: its kind, service (busy) time and queueing wait.
    Stage(StageKind, Micros, Micros),
    /// The request completed with this response time, measured from its
    /// original arrival.
    Finished(Request, Micros),
}

/// An admitted request waiting for its submission time; the chains are
/// slab ids (`None` when the plan has no work of that kind).
#[derive(Debug)]
struct Admission {
    request: Request,
    fg: Option<usize>,
    bg: Option<usize>,
}

/// One serial stage chain in flight.
#[derive(Debug, Default)]
struct Chain {
    stages: Vec<Stage>,
    next: usize,
    /// Set on the foreground chain, whose completion is the response.
    request: Option<Request>,
}

/// The pipelined backend's scheduler state for one serving-loop call.
#[derive(Debug)]
pub(crate) struct Scheduler {
    pool: ResourcePool,
    /// Admitted requests keyed by submission time; seq is admission order.
    arrivals: EventQueue<Admission>,
    /// Stage completions, by chain id.
    completions: EventQueue<usize>,
    chains: Vec<Chain>,
    free: Vec<usize>,
}

impl Scheduler {
    /// An idle schedule on `config`'s resources.
    pub(crate) fn new(config: &SsdConfig) -> Scheduler {
        Scheduler {
            pool: ResourcePool::new(
                config.channels,
                config.dies_per_channel,
                config.planes_per_die,
                config.decoder_slots,
            ),
            arrivals: EventQueue::new(),
            completions: EventQueue::new(),
            chains: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Queues an admitted request's op chains to enter service at
    /// `submit`.
    pub(crate) fn admit(
        &mut self,
        request: Request,
        submit: Micros,
        fg_ops: &[FlashOp],
        bg_ops: &[FlashOp],
        latency: &ReadLatencyModel,
    ) {
        let fg = self.chain(fg_ops, latency);
        let bg = self.chain(bg_ops, latency);
        self.arrivals.push(submit, Admission { request, fg, bg });
    }

    /// When the last resource goes idle.
    pub(crate) fn busy_until(&self) -> Micros {
        self.pool.busy_until()
    }

    /// Pops events in schedule order while they fire before `before`
    /// (everything when `None`), reporting each to `report`.
    pub(crate) fn drain(&mut self, before: Option<Micros>, mut report: impl FnMut(Event)) {
        loop {
            let arrival = self.arrivals.peek_time();
            let done = self.completions.peek_time();
            let (time, arrives) = match (arrival, done) {
                (Some(a), Some(d)) if a.as_f64().total_cmp(&d.as_f64()).is_le() => (a, true),
                (_, Some(d)) => (d, false),
                (Some(a), None) => (a, true),
                (None, None) => return,
            };
            if before.is_some_and(|b| time.as_f64().total_cmp(&b.as_f64()).is_ge()) {
                return;
            }
            if arrives {
                if let Some(ev) = self.arrivals.pop() {
                    self.arrive(ev.payload, ev.time, &mut report);
                }
            } else if let Some(ev) = self.completions.pop() {
                self.complete(ev.payload, ev.time, &mut report);
            }
        }
    }

    /// Expands `ops` into a (recycled) chain slot.
    fn chain(&mut self, ops: &[FlashOp], latency: &ReadLatencyModel) -> Option<usize> {
        if ops.is_empty() {
            return None;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.chains.push(Chain::default());
            self.chains.len() - 1
        });
        let chain = &mut self.chains[id];
        expand_ops(ops, latency, &mut chain.stages);
        chain.next = 0;
        Some(id)
    }

    /// A request's submission time came: its chains enter service.
    fn arrive(&mut self, adm: Admission, time: Micros, report: &mut impl FnMut(Event)) {
        let request = adm.request;
        // Foreground first: host work wins ties against the background
        // chain admitted at the same instant.
        match adm.fg {
            // No device work: the response is just the defer wait (zero
            // in replay, where submit == arrival).
            None => report(Event::Finished(request, time - request.arrival)),
            Some(id) => {
                self.chains[id].request = Some(request);
                let start = self.start_stage(id, time, report);
                report(Event::Started(request, start));
            }
        }
        if let Some(id) = adm.bg {
            self.start_stage(id, time, report);
        }
    }

    /// Chain `id`'s current stage finished at `time`.
    fn complete(&mut self, id: usize, time: Micros, report: &mut impl FnMut(Event)) {
        let chain = &mut self.chains[id];
        chain.next += 1;
        if chain.next < chain.stages.len() {
            self.start_stage(id, time, report);
            return;
        }
        if let Some(request) = chain.request.take() {
            report(Event::Finished(request, time - request.arrival));
        }
        self.free.push(id);
    }

    /// Reserves chain `id`'s next stage from `ready` and schedules its
    /// completion; returns the stage's service start time.
    fn start_stage(&mut self, id: usize, ready: Micros, report: &mut impl FnMut(Event)) -> Micros {
        let chain = &self.chains[id];
        let stage = chain.stages[chain.next];
        let (start, end) = self
            .pool
            .reserve(stage.kind, stage.lpn, ready, stage.duration);
        report(Event::Stage(stage.kind, stage.duration, start - ready));
        self.completions.push(end, id);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn request(tenant: u32, arrival: f64) -> Request {
        Request {
            tenant,
            arrival: Micros(arrival),
            is_read: false,
            obs_key: u64::from(tenant),
        }
    }

    /// Admits `(request, submit, fg ops)` in order, then drains
    /// everything, collecting the reported events.
    fn events(admitted: &[(Request, Micros, &[FlashOp])]) -> Vec<Event> {
        let config = SsdConfig::scaled(Scheme::Baseline, 16);
        let mut scheduler = Scheduler::new(&config);
        for &(request, submit, fg) in admitted {
            scheduler.admit(request, submit, fg, &[], &config.latency);
        }
        let mut events = Vec::new();
        scheduler.drain(None, |event| events.push(event));
        events
    }

    #[test]
    fn an_arrival_wins_a_time_tie_against_a_stage_completion() {
        let t = ReadLatencyModel::paper_mlc().timing;
        let (a, b) = (request(0, 0.0), request(1, t.page_transfer.as_f64()));
        // `b` arrives the instant `a`'s transfer completes, and its erase
        // needs the plane `a`'s program is about to take.
        let got = events(&[
            (a, a.arrival, &[FlashOp::Program { lpn: 0 }]),
            (b, b.arrival, &[FlashOp::Erase { lpn: 0 }]),
        ]);
        let program_start = b.arrival + t.erase;
        assert_eq!(
            got,
            [
                Event::Stage(StageKind::Transfer, t.page_transfer, Micros::ZERO),
                Event::Started(a, a.arrival),
                Event::Stage(StageKind::Erase, t.erase, Micros::ZERO),
                Event::Started(b, b.arrival),
                Event::Stage(StageKind::Program, t.program, program_start - b.arrival),
                Event::Finished(b, program_start - b.arrival),
                Event::Finished(a, program_start + t.program - a.arrival),
            ]
        );
    }

    #[test]
    fn an_empty_foreground_chain_reports_only_its_defer_wait() {
        let r = request(2, 10.0);
        assert_eq!(
            events(&[(r, Micros(25.0), &[])]),
            [Event::Finished(r, Micros(15.0))]
        );
    }

    #[test]
    fn a_second_sense_on_one_die_waits_out_the_first() {
        let read = [FlashOp::Read {
            lpn: 0,
            extra_levels: 2,
            decode: Micros(5.0),
            iterations: 3,
        }];
        let (a, b) = (request(0, 0.0), request(1, 0.0));
        let senses: Vec<(Micros, Micros)> = events(&[(a, a.arrival, &read), (b, b.arrival, &read)])
            .into_iter()
            .filter_map(|event| match event {
                Event::Stage(StageKind::Sense, busy, wait) => Some((busy, wait)),
                _ => None,
            })
            .collect();
        assert_eq!(senses.len(), 2);
        assert_eq!(senses[0].1, Micros::ZERO);
        assert_eq!(senses[1].1, senses[0].0);
    }
}
