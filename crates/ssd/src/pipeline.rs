//! Flash operations and the stage chains they expand into.
//!
//! The simulator's logical layer describes every request's device work
//! as a list of [`FlashOp`]s, under both timing models, in reused
//! buffers. Each op is a short *chain* of stages, each occupying exactly
//! one hardware resource:
//!
//! * a host read that misses the buffer is `Sense(plane)` ×
//!   (1 + extra sensing levels) → `Transfer(channel)` →
//!   `Decode(controller slot)`; a recovery-ladder re-read
//!   ([`FlashOp::Retry`]) is staged the same way;
//! * a program is `Transfer(channel)` → `Program(plane)`;
//! * a GC/migration read is `Sense` → `Transfer` (the relocated page is
//!   copied, not decoded by the host path);
//! * an erase is a single `Erase(plane)` stage;
//! * buffer hits and host write ingest are a lone `Transfer` (the page
//!   moves over the bus, the die is untouched).
//!
//! Under [`TimingModel::Pipelined`](crate::config::TimingModel) the
//! scheduler runs these chains: stages of *different* chains overlap
//! whenever their resources differ — a die can sense the next read while
//! the channel ships the previous one and a decoder slot grinds on the
//! one before that. The single-queue model charges each op its lumped
//! price (`FlashOp::lumped`): the sum of the op's stages, with one
//! exception. A program costs only its ISPP time there
//! (`NandTiming::program`), not the chain's data transfer plus program.
//! So the two models price every op but a program identically; beyond
//! that, only the concurrency differs.

use flash_model::Micros;
use ldpc::ReadLatencyModel;
use serde::{Deserialize, Serialize};

/// The hardware resource class a stage occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Array sensing: occupies the page's plane (die-level parallelism).
    Sense,
    /// Bus transfer: occupies the page's channel.
    Transfer,
    /// LDPC/ReduceCode decode: occupies one controller decoder slot.
    Decode,
    /// ISPP page program: occupies the page's plane.
    Program,
    /// Block erase: occupies the page's plane.
    Erase,
}

impl StageKind {
    /// All stage kinds, in pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Sense,
        StageKind::Transfer,
        StageKind::Decode,
        StageKind::Program,
        StageKind::Erase,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Sense => "sense",
            StageKind::Transfer => "transfer",
            StageKind::Decode => "decode",
            StageKind::Program => "program",
            StageKind::Erase => "erase",
        }
    }
}

/// One stage of a flash operation: a duration on a resource, routed by
/// the logical page that triggered it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Resource class this stage occupies.
    pub kind: StageKind,
    /// Time the resource is held.
    pub duration: Micros,
    /// Logical page used for channel/plane routing.
    pub lpn: u64,
}

/// A flash operation: one unit of a request's device work. Produced by
/// the simulator's logical layer (and by
/// [`OpCost::push_ops`](crate::ftl::OpCost::push_ops) for FTL
/// background work) under both timing models; the pipelined scheduler
/// runs its [stages](StageKind) and the single-queue model charges its
/// lumped price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlashOp {
    /// A host read served from flash: sense passes, transfer, decode.
    /// `decode` carries the full decoder-stage duration (base + measured
    /// or heuristic iterations + any wasted progressive-sensing decode
    /// passes + the ReduceCode cycle where applicable), precomputed by
    /// the logical layer.
    Read {
        /// Logical page (resource routing).
        lpn: u64,
        /// Extra soft sensing levels charged to sense and transfer.
        extra_levels: u32,
        /// Decoder-slot stage duration.
        decode: Micros,
        /// Decoder iterations the read was charged, saturating (reported
        /// by the observer; pricing reads `decode` alone). A `u16` keeps
        /// the op 24 bytes wide, the size of every chain buffer slot.
        iterations: u16,
    },
    /// One rung of the read-recovery ladder: a re-read staged and priced
    /// exactly like [`FlashOp::Read`], marked so a read span reports the
    /// whole rung as one `"retry"` stage. A page's rungs follow its
    /// `Read` (and any `DieReset`) in the chain.
    Retry {
        /// Logical page (resource routing).
        lpn: u64,
        /// The rung's extra soft sensing levels.
        extra_levels: u32,
        /// Decoder-slot stage duration.
        decode: Micros,
        /// Whether this rung decoded the frame: only a ladder's last rung
        /// can, and its last rung failing means the read is
        /// uncorrectable. Ignored by pricing and scheduling.
        decoded: bool,
    },
    /// Host-interface transfer only: a buffer-hit read or a host write
    /// landing in the write-back buffer.
    HostTransfer {
        /// Logical page (resource routing).
        lpn: u64,
    },
    /// An internal copy read (GC relocation, AccessEval migration,
    /// patrol scrub): sense + transfer at zero extra levels, no host
    /// decode stage.
    GcRead {
        /// Logical page (resource routing).
        lpn: u64,
    },
    /// A page program: bus transfer of the data, then the ISPP loop.
    Program {
        /// Logical page (resource routing).
        lpn: u64,
    },
    /// A block erase.
    Erase {
        /// Logical page (resource routing).
        lpn: u64,
    },
    /// A transient die fault being cleared: the reset stalls the faulted
    /// page's plane (array access is blocked die-wide) for `duration`,
    /// priced by the fault model rather than the latency tables.
    DieReset {
        /// Logical page (resource routing).
        lpn: u64,
        /// Reset duration charged to the plane.
        duration: Micros,
    },
}

impl FlashOp {
    /// The logical page the op is routed by.
    pub fn lpn(&self) -> u64 {
        match *self {
            FlashOp::Read { lpn, .. }
            | FlashOp::Retry { lpn, .. }
            | FlashOp::HostTransfer { lpn }
            | FlashOp::GcRead { lpn }
            | FlashOp::Program { lpn }
            | FlashOp::Erase { lpn }
            | FlashOp::DieReset { lpn, .. } => lpn,
        }
    }

    /// Calls `f` with each stage of the op's chain, in chain order: the
    /// resource class it occupies and for how long, priced by `latency`.
    fn for_each_stage(&self, latency: &ReadLatencyModel, mut f: impl FnMut(StageKind, Micros)) {
        let t = &latency.timing;
        match *self {
            FlashOp::Read {
                extra_levels,
                decode,
                ..
            }
            | FlashOp::Retry {
                extra_levels,
                decode,
                ..
            } => {
                f(StageKind::Sense, t.sense_latency(extra_levels));
                f(StageKind::Transfer, t.transfer_latency(extra_levels));
                f(StageKind::Decode, decode);
            }
            FlashOp::HostTransfer { .. } => f(StageKind::Transfer, t.page_transfer),
            FlashOp::GcRead { .. } => {
                f(StageKind::Sense, t.sense_latency(0));
                f(StageKind::Transfer, t.transfer_latency(0));
            }
            FlashOp::Program { .. } => {
                f(StageKind::Transfer, t.page_transfer);
                f(StageKind::Program, t.program);
            }
            FlashOp::Erase { .. } => f(StageKind::Erase, t.erase),
            // A die reset occupies the plane like a (long) sense would:
            // the whole die is unavailable for array operations.
            FlashOp::DieReset { duration, .. } => f(StageKind::Sense, duration),
        }
    }

    /// The op's price under the single-queue model: the sum of its
    /// stages, except that a program is charged its ISPP time alone —
    /// the lumped model has no bus stage for data going into the die.
    pub(crate) fn lumped(&self, latency: &ReadLatencyModel) -> Micros {
        if let FlashOp::Program { .. } = self {
            return latency.timing.program;
        }
        let mut total = Micros::ZERO;
        self.for_each_stage(latency, |_, duration| total += duration);
        total
    }

    /// Calls `f` with each stage the op contributes to a read span, as a
    /// label and a duration: a retry rung is one `"retry"` stage at its
    /// lumped price, a die reset one `"die_reset"` stage, and every other
    /// op its chain stages under their [`StageKind::label`].
    pub(crate) fn for_each_span_stage(
        &self,
        latency: &ReadLatencyModel,
        mut f: impl FnMut(&'static str, Micros),
    ) {
        match *self {
            FlashOp::Retry { .. } => f("retry", self.lumped(latency)),
            FlashOp::DieReset { duration, .. } => f("die_reset", duration),
            _ => self.for_each_stage(latency, |kind, duration| f(kind.label(), duration)),
        }
    }
}

/// The single-queue price of a run of ops: their [`FlashOp::lumped`]
/// prices summed in order.
pub(crate) fn lumped_total(ops: &[FlashOp], latency: &ReadLatencyModel) -> Micros {
    ops.iter()
        .fold(Micros::ZERO, |total, op| total + op.lumped(latency))
}

/// Expands a slice of ops into one serial stage chain, replacing the
/// contents of `out` (whose allocation is reused).
pub fn expand_ops(ops: &[FlashOp], latency: &ReadLatencyModel, out: &mut Vec<Stage>) {
    out.clear();
    for op in ops {
        let lpn = op.lpn();
        op.for_each_stage(latency, |kind, duration| {
            out.push(Stage {
                kind,
                duration,
                lpn,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ReadLatencyModel {
        ReadLatencyModel::paper_mlc()
    }

    impl FlashOp {
        fn stages(&self, latency: &ReadLatencyModel) -> Vec<Stage> {
            let mut stages = Vec::new();
            expand_ops(&[*self], latency, &mut stages);
            stages
        }
    }

    #[test]
    fn read_chain_prices_like_the_lumped_model() {
        // Stage durations of a read must sum to exactly what the lumped
        // single-queue expression charges for the same work.
        let m = model();
        for levels in 0..=6u32 {
            for iters in [1u32, 5, 30] {
                let decode = m.decode_latency(iters);
                let op = FlashOp::Read {
                    lpn: 17,
                    extra_levels: levels,
                    decode,
                    iterations: iters as u16,
                };
                let total: Micros = op.stages(&m).iter().map(|s| s.duration).sum();
                assert_eq!(total, m.read_latency(levels, iters));
            }
        }
    }

    #[test]
    fn read_chain_shape() {
        let m = model();
        let op = FlashOp::Read {
            lpn: 3,
            extra_levels: 2,
            decode: Micros(10.0),
            iterations: 4,
        };
        let stages = op.stages(&m);
        let kinds: Vec<StageKind> = stages.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [StageKind::Sense, StageKind::Transfer, StageKind::Decode]
        );
        assert_eq!(stages[0].duration, Micros(270.0)); // 3 passes × 90
        assert_eq!(stages[1].duration, Micros(120.0)); // 3 passes × 40
        assert!(stages.iter().all(|s| s.lpn == 3));
    }

    #[test]
    fn program_and_gc_chains() {
        let m = model();
        let program = FlashOp::Program { lpn: 9 }.stages(&m);
        assert_eq!(program.len(), 2);
        assert_eq!(program[0].kind, StageKind::Transfer);
        assert_eq!(program[1].kind, StageKind::Program);
        assert_eq!(program[1].duration, Micros(1000.0));

        let gc = FlashOp::GcRead { lpn: 9 }.stages(&m);
        assert_eq!(gc.len(), 2);
        // A GC copy prices exactly like the lumped model's
        // read_transfer_latency(0) charge.
        let total: Micros = gc.iter().map(|s| s.duration).sum();
        assert_eq!(total, m.timing.read_transfer_latency(0));

        let erase = FlashOp::Erase { lpn: 9 }.stages(&m);
        assert_eq!(erase.len(), 1);
        assert_eq!(erase[0].duration, Micros(3000.0));
    }

    #[test]
    fn die_reset_stalls_the_plane() {
        let m = model();
        let op = FlashOp::DieReset {
            lpn: 5,
            duration: Micros(2000.0),
        };
        assert_eq!(op.lpn(), 5);
        let stages = op.stages(&m);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].kind, StageKind::Sense);
        assert_eq!(stages[0].duration, Micros(2000.0));
    }

    #[test]
    fn expand_concatenates_in_order() {
        let m = model();
        let ops = [
            FlashOp::GcRead { lpn: 1 },
            FlashOp::Program { lpn: 2 },
            FlashOp::Erase { lpn: 3 },
        ];
        // A reused buffer's stale chain is replaced, not appended to.
        let mut stages = FlashOp::HostTransfer { lpn: 9 }.stages(&m);
        expand_ops(&ops, &m, &mut stages);
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0].lpn, 1);
        assert_eq!(stages[2].lpn, 2);
        assert_eq!(stages[4].kind, StageKind::Erase);
    }

    #[test]
    fn lumped_price_is_the_stage_sum_except_a_programs_transfer() {
        let m = model();
        let decode = Micros(7.5);
        let every_kind = [
            FlashOp::Read {
                lpn: 1,
                extra_levels: 3,
                decode,
                iterations: 9,
            },
            FlashOp::Retry {
                lpn: 1,
                extra_levels: 3,
                decode,
                decoded: true,
            },
            FlashOp::HostTransfer { lpn: 1 },
            FlashOp::GcRead { lpn: 1 },
            FlashOp::Program { lpn: 1 },
            FlashOp::Erase { lpn: 1 },
            FlashOp::DieReset {
                lpn: 1,
                duration: Micros(2000.0),
            },
        ];
        for op in every_kind {
            let sum: Micros = op.stages(&m).iter().map(|s| s.duration).sum();
            let expected = match op {
                FlashOp::Program { .. } => sum - m.timing.page_transfer,
                _ => sum,
            };
            assert_eq!(op.lumped(&m), expected, "{op:?}");
        }
        assert_eq!(FlashOp::Program { lpn: 1 }.lumped(&m), m.timing.program);
        // A retry rung runs the same stages as the read it repeats.
        assert_eq!(every_kind[0].stages(&m), every_kind[1].stages(&m));
        // What the observer reads off the chain prices nothing: other
        // charged iterations, or a rung that failed, stage the same.
        let observed = [
            FlashOp::Read {
                lpn: 1,
                extra_levels: 3,
                decode,
                iterations: 1,
            },
            FlashOp::Retry {
                lpn: 1,
                extra_levels: 3,
                decode,
                decoded: false,
            },
        ];
        for (op, twin) in observed.iter().zip(&every_kind) {
            assert_eq!(op.stages(&m), twin.stages(&m));
            assert_eq!(op.lumped(&m), twin.lumped(&m));
        }
    }

    #[test]
    fn ops_stay_three_words_wide() {
        // Every request's chains and the scheduler's slab hold ops by
        // value; the observer's fields must not widen them.
        assert_eq!(std::mem::size_of::<FlashOp>(), 24);
    }

    #[test]
    fn lpn_accessor() {
        assert_eq!(FlashOp::HostTransfer { lpn: 42 }.lpn(), 42);
        assert_eq!(
            FlashOp::Read {
                lpn: 7,
                extra_levels: 0,
                decode: Micros::ZERO,
                iterations: 1,
            }
            .lpn(),
            7
        );
    }

    #[test]
    fn stage_labels() {
        assert_eq!(StageKind::ALL.len(), 5);
        assert_eq!(StageKind::Sense.label(), "sense");
        assert_eq!(StageKind::Decode.label(), "decode");
    }
}
