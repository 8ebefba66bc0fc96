//! Streaming discrete-event scheduler of the pipelined timing model.
//!
//! The serving loop hands every admitted request's foreground and
//! background op chains to a [`Scheduler`], which reserves their stages on
//! the [`ResourcePool`]: a chain's next stage is reserved the instant its
//! previous stage completes (FCFS in deterministic event order), and a
//! request's response is the completion of its foreground chain, measured
//! from its *original* arrival (any deferral wait included).
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
use crate::obs::SimObserver;
use crate::pipeline::{expand_ops, FlashOp, Stage};
use crate::stats::SimStats;

/// What the scheduler needs to account one request's response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) tenant: u32,
    pub(crate) arrival: Micros,
    pub(crate) is_read: bool,
    /// The observer's key for this request (see
    /// [`SimObserver::end_request_deferred`]); unused without an observer.
    pub(crate) obs_key: u64,
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
    tenanted: bool,
    /// Admitted requests keyed by submission time; seq is admission order.
    arrivals: EventQueue<Admission>,
    /// Stage completions, by chain id.
    completions: EventQueue<usize>,
    chains: Vec<Chain>,
    free: Vec<usize>,
}

impl Scheduler {
    /// An idle schedule on `config`'s resources.
    pub(crate) fn new(config: &SsdConfig, tenanted: bool) -> Scheduler {
        Scheduler {
            pool: ResourcePool::new(
                config.channels,
                config.dies_per_channel,
                config.planes_per_die,
                config.decoder_slots,
            ),
            tenanted,
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
    /// (everything when `None`), accounting stages and responses into
    /// `stats` and the observer.
    pub(crate) fn drain(
        &mut self,
        before: Option<Micros>,
        stats: &mut SimStats,
        obs: &mut Option<Box<SimObserver>>,
    ) {
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
                    self.arrive(ev.payload, ev.time, stats, obs);
                }
            } else if let Some(ev) = self.completions.pop() {
                self.complete(ev.payload, ev.time, stats, obs);
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
    fn arrive(
        &mut self,
        adm: Admission,
        time: Micros,
        stats: &mut SimStats,
        obs: &mut Option<Box<SimObserver>>,
    ) {
        // Foreground first: host work wins ties against the background
        // chain admitted at the same instant.
        match adm.fg {
            // No device work: the response is just the defer wait (zero
            // in replay, where submit == arrival).
            None => self.finish(adm.request, time, stats, obs),
            Some(id) => {
                self.chains[id].request = Some(adm.request);
                let start = self.start_stage(id, time, stats, obs);
                if let Some(o) = obs.as_mut() {
                    o.deferred_started(adm.request.obs_key, start);
                }
            }
        }
        if let Some(id) = adm.bg {
            self.start_stage(id, time, stats, obs);
        }
    }

    /// Chain `id`'s current stage finished at `time`.
    fn complete(
        &mut self,
        id: usize,
        time: Micros,
        stats: &mut SimStats,
        obs: &mut Option<Box<SimObserver>>,
    ) {
        let chain = &mut self.chains[id];
        chain.next += 1;
        if chain.next < chain.stages.len() {
            self.start_stage(id, time, stats, obs);
            return;
        }
        if let Some(request) = chain.request.take() {
            self.finish(request, time, stats, obs);
        }
        self.free.push(id);
    }

    /// Reserves chain `id`'s next stage from `ready` and schedules its
    /// completion; returns the stage's service start time.
    fn start_stage(
        &mut self,
        id: usize,
        ready: Micros,
        stats: &mut SimStats,
        obs: &mut Option<Box<SimObserver>>,
    ) -> Micros {
        let chain = &self.chains[id];
        let stage = chain.stages[chain.next];
        let (start, end) = self
            .pool
            .reserve(stage.kind, stage.lpn, ready, stage.duration);
        stats.record_stage(stage.kind, stage.duration, start - ready);
        if let Some(o) = obs.as_mut() {
            o.record_stage(stage.kind, stage.duration, start - ready);
        }
        self.completions.push(end, id);
        start
    }

    /// Records `request`'s response, complete at `time`.
    fn finish(
        &self,
        request: Request,
        time: Micros,
        stats: &mut SimStats,
        obs: &mut Option<Box<SimObserver>>,
    ) {
        let response = time - request.arrival;
        stats.record_response(response, request.is_read);
        if self.tenanted {
            stats.tenants[request.tenant as usize].record_response(response);
        }
        if let Some(o) = obs.as_mut() {
            o.deferred_finished(request.obs_key, response);
            if self.tenanted {
                o.tenant_response(request.tenant, response);
            }
        }
    }
}
