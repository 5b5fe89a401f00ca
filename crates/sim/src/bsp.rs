//! The BSP emulation of Theorem 1.1, as bookkeeping a [`crate::Pram`]
//! carries when it is built with [`crate::Pram::with_bsp`].
//!
//! Theorem 1.1 of the paper is its portability claim: a QRQW PRAM algorithm
//! running in time `t` can be emulated on a `p/lg p`-component standard BSP
//! machine in `O(t · lg p)` time, because a step whose maximum contention is
//! `k` costs the emulation only an *additive* `k` (the realized message
//! queues drain one message per cycle) rather than a multiplicative
//! penalty.  [`crate::bsp_emulation_time`] charges that bound by formula;
//! this module counts the emulation's messages.
//!
//! Processors do not touch shared cells directly on a BSP machine: they
//! emit read/write *requests* during the local-computation phase, and a
//! routing phase delivers them.  The simulator's stamp walk
//! ([`crate::step`]) is that phase.  It meets each address range's requests
//! in ascending processor id on its own pool worker, combines duplicate
//! same-processor requests (the standard first move of a PRAM-on-BSP
//! emulation: each component merges its own duplicates before injecting
//! them into the network) and delivers the winning writes.  The sink here
//! counts every combined message into that walker's [`Tally`], with cells
//! distributed cyclically (`addr % COMPONENTS`) over the components, and
//! merges the tallies into what the delivery cost: the message count and
//! the heaviest per-component load (the `h` of the realized h-relation).
//!
//! Delivery is the simulator's own arbitration: messages arrive at a cell
//! in processor-id order and the first sender takes it.  Chunk boundaries,
//! the order chunks finish in and the way memory is cut into ranges never
//! affect results, so a BSP-costed `Pram` runs bit-identically to a plain
//! one at any thread count.
//!
//! # What is measured
//!
//! Supersteps, messages and `h` are counted here.  The realized queue of a
//! step is the longest per-cell queue it drained, and with same-processor
//! combining that queue *is* the Definition 2.1 contention `κ`:
//! [`crate::Trace::queue_profile`] and [`BspCost::measured_cost`]
//! (Σ `max(m, queue)`) are read off the trace, so `measured_cost` equals
//! the trace's QRQW time by construction, and its comparison with
//! [`BspCost::predicted_cost`] (`t · ⌈lg COMPONENTS⌉`) holds for every
//! program.  A cost that could exceed the bound needs cells hashed to
//! components and each superstep charged `w + g·h + L`; that is not built
//! yet.

use crate::machine::BspCost;
use crate::model::CostModel;
use crate::schedule::bsp_emulation_time;
use crate::stats::{StepStats, Trace};
use crate::step::StepSink;

/// Component count: `2^10`, giving the Theorem 1.1 formula its
/// `⌈lg p⌉ = 10` factor (the MasPar of the Section 5.2 experiment had
/// `2^14` processors; `p/lg p ≈ 2^10` components is the machine Theorem 1.1
/// would emulate it on).
const COMPONENTS: usize = 1024;

/// The BSP state of a [`crate::Pram`]: the walk's sink, its per-chunk tallies and
/// the running totals [`BspCost`] reports.
#[derive(Debug)]
pub(crate) struct Bsp {
    /// Threads a step's launches and walk fan out over.
    pub(crate) threads: usize,
    /// The sink of the step in flight.
    pub(crate) delivery: Delivery,
    /// One tally per chunk of the walk, reused across steps.
    pub(crate) tallies: Vec<Tally>,
    supersteps: u64,
    messages: u64,
    max_h_relation: u64,
}

/// The traffic one walked step put on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Routed {
    /// Read requests, after same-processor combining.
    read_msgs: u64,
    /// Write messages, after same-processor combining.
    write_msgs: u64,
    /// Largest number of messages handled by one component (read requests
    /// count twice, request plus reply; write messages once).
    max_h: u64,
}

impl Routed {
    /// Total messages (reads are request + reply).
    fn messages(&self) -> u64 {
        2 * self.read_msgs + self.write_msgs
    }

    /// Supersteps the traffic took: read traffic a request and a reply
    /// superstep, write traffic a delivery superstep; even an all-compute
    /// step ends in a barrier.
    fn supersteps(&self) -> u64 {
        (2 * (self.read_msgs > 0) as u64 + (self.write_msgs > 0) as u64).max(1)
    }
}

/// What one chunk of the walk counted.  Aligned to its own pair of cache
/// lines: concurrent walkers bump neighbouring tallies once per message,
/// and sharing a line made the parallel walk no faster than a serial one.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Tally {
    read_msgs: u64,
    write_msgs: u64,
    /// Messages per component.
    per_component: Box<[u64; COMPONENTS]>,
}

/// The sink of one step's walk: `merge` leaves the step's traffic here for
/// [`Bsp::book`] to take.
#[derive(Debug, Default)]
pub(crate) struct Delivery {
    routed: Option<Routed>,
}

impl StepSink for Delivery {
    type Partial = Tally;

    fn new_partial(&self) -> Tally {
        Tally {
            read_msgs: 0,
            write_msgs: 0,
            per_component: Box::new([0; COMPONENTS]),
        }
    }

    fn read_pair(tally: &mut Tally, addr: usize) {
        tally.read_msgs += 1;
        tally.per_component[addr % COMPONENTS] += 2;
    }

    fn write_pair(tally: &mut Tally, addr: usize) {
        tally.write_msgs += 1;
        tally.per_component[addr % COMPONENTS] += 1;
    }

    /// Sums the tallies into the first, reads the heaviest component off
    /// it, and zeroes them all on the way.
    fn merge(&mut self, tallies: &mut [Tally]) {
        let (total, rest) = tallies
            .split_first_mut()
            .expect("a walk has at least one chunk");
        for tally in rest {
            total.read_msgs += std::mem::take(&mut tally.read_msgs);
            total.write_msgs += std::mem::take(&mut tally.write_msgs);
            for (sum, part) in total
                .per_component
                .iter_mut()
                .zip(tally.per_component.iter_mut())
            {
                *sum += std::mem::take(part);
            }
        }
        self.routed = Some(Routed {
            read_msgs: std::mem::take(&mut total.read_msgs),
            write_msgs: std::mem::take(&mut total.write_msgs),
            max_h: total
                .per_component
                .iter_mut()
                .map(std::mem::take)
                .max()
                .unwrap_or(0),
        });
    }
}

impl Bsp {
    /// Bookkeeping for steps fanned out over `threads` threads (clamped as
    /// a step pool clamps its own).
    pub(crate) fn new(threads: usize) -> Self {
        Bsp {
            threads: threads.clamp(1, rayon::pool::MAX_POOL_THREADS),
            delivery: Delivery::default(),
            tallies: Vec::new(),
            supersteps: 0,
            messages: 0,
            max_h_relation: 0,
        }
    }

    /// Books the step whose statistics `s` were just appended to the trace:
    /// the traffic its walk routed, or, for a step no walk carried (a
    /// sequential step, a scan, a global OR), what the statistics imply.
    pub(crate) fn book(&mut self, s: &StepStats) {
        if let Some(routed) = self.delivery.routed.take() {
            self.supersteps += routed.supersteps();
            self.messages += routed.messages();
            self.max_h_relation = self.max_h_relation.max(routed.max_h);
        } else if s.is_scan && s.scan_width > 0 {
            // A tree primitive: `⌈lg width⌉` supersteps of pairwise
            // combining, `width` messages into the fabric.
            self.supersteps += CostModel::Qrqw.step_time(s);
            self.messages += s.scan_width;
        } else {
            // One component working serially, or an empty primitive: one
            // superstep, every remote access a message.
            self.supersteps += 1;
            self.messages += s.total_reads + s.total_writes;
        }
    }

    /// The run's BSP section, for a trace whose QRQW time is
    /// `measured_cost`: the `t` whose Theorem 1.1 bound is
    /// `t · ⌈lg COMPONENTS⌉`.
    pub(crate) fn cost(&self, trace: &Trace, measured_cost: u64) -> BspCost {
        BspCost {
            components: COMPONENTS as u64,
            supersteps: self.supersteps,
            messages: self.messages,
            max_queue: trace.queue_profile().into_iter().max().unwrap_or(0),
            max_h_relation: self.max_h_relation,
            measured_cost,
            predicted_cost: bsp_emulation_time(measured_cost, COMPONENTS as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClaimMode, Machine, Pram, EMPTY};

    #[test]
    fn delivery_merges_each_steps_tallies_afresh() {
        // Cells 0, COMPONENTS and 2·COMPONENTS share component 0; cell 5
        // has its own.  Each step deals its distinct `(cell, processor)`
        // pairs over the same three partials, which a merge must leave
        // zeroed for the next step.  Reads take a request and a reply
        // superstep, writes one delivery superstep, an empty step one
        // barrier.
        let steps: [(&[usize], &[usize], u64, u64); 3] = [
            // (reads, writes, messages, supersteps)
            (&[0, COMPONENTS, 5, 5], &[2 * COMPONENTS, 5], 10, 3),
            (&[5], &[], 2, 2),
            (&[], &[], 0, 1),
        ];
        let mut delivery = Delivery::default();
        let mut tallies: Vec<Tally> = (0..3).map(|_| delivery.new_partial()).collect();
        for (reads, writes, messages, supersteps) in steps {
            for (i, &addr) in reads.iter().enumerate() {
                Delivery::read_pair(&mut tallies[i % 3], addr);
            }
            for (i, &addr) in writes.iter().enumerate() {
                Delivery::write_pair(&mut tallies[(i + 1) % 3], addr);
            }
            delivery.merge(&mut tallies);
            let mut per_component = vec![0u64; COMPONENTS];
            reads
                .iter()
                .for_each(|&a| per_component[a % COMPONENTS] += 2);
            writes
                .iter()
                .for_each(|&a| per_component[a % COMPONENTS] += 1);
            let want = Routed {
                read_msgs: reads.len() as u64,
                write_msgs: writes.len() as u64,
                max_h: per_component.into_iter().max().unwrap(),
            };
            let routed = delivery.routed.take().expect("merge leaves the traffic");
            assert_eq!(routed, want, "reads {reads:?}, writes {writes:?}");
            assert_eq!(
                (routed.messages(), routed.supersteps()),
                (messages, supersteps)
            );
        }
    }

    // ---- the booked totals, through `Pram::with_bsp` ----------------------

    #[test]
    fn outputs_are_bit_identical_at_every_thread_count() {
        let run = |threads: usize| {
            let mut m = Pram::with_bsp(4096, 9, threads);
            let draws = m.par_map(5000, |_p, ctx| ctx.random_index(1 << 30));
            m.par_for(5000, |p, ctx| {
                let t = (p * 131) % 4096;
                ctx.write(t, p as u64);
            });
            (
                draws,
                m.dump(0, 4096),
                m.trace().queue_profile(),
                m.cost_report().bsp,
            )
        };
        let baseline = run(1);
        for threads in [2, 5, 8] {
            assert_eq!(run(threads), baseline, "thread count {threads} diverged");
        }
    }

    #[test]
    fn cost_report_carries_measured_and_predicted_sides() {
        let mut m = Pram::with_bsp(128, 0, 1);
        m.par_for(64, |p, ctx| {
            let v = ctx.read(p % 8); // queue of 8 on each of 8 cells
            ctx.write(8 + p, v);
        });
        let report = m.cost_report();
        let bsp = report
            .bsp
            .expect("a BSP machine must fill its cost section");
        assert_eq!(bsp.components, 1024);
        assert_eq!(bsp.max_queue, 8);
        assert_eq!(m.trace().queue_profile(), &[8]);
        // one step, m = 2 ops... max(m, q) = 8; predicted = 8 · lg 1024
        assert_eq!(bsp.measured_cost, 8);
        assert_eq!(bsp.predicted_cost, 80);
        // reads travel request + reply, writes once
        assert_eq!(bsp.messages, 2 * 64 + 64);
        // the 8 read cells sit on 8 of the 1024 components, each asked by 8
        // readers at 2 messages apiece; the 64 writes land on distinct
        // components
        assert_eq!(bsp.max_h_relation, 16);
        assert_eq!(bsp.supersteps, 3);
        assert!(report.to_string().contains("measured=8 predicted=80"));
    }

    #[test]
    fn the_bsp_section_rides_next_to_the_model_fields() {
        // The same program on a plain and a BSP-costed machine: the
        // model-side fields and every other count are the plain run's, and
        // only the BSP-costed report carries the BSP section.
        let run = |mut m: Pram| {
            m.par_for(600, |p, ctx| {
                let v = ctx.read(p % 7);
                ctx.write(100 + p % 300, if v == EMPTY { p as u64 } else { v });
            });
            m.seq_step(|ctx| ctx.write(3, 9));
            m.scan_step(100, 300);
            m.claim(&[(1, 50), (2, 50), (3, 51)], ClaimMode::Occupy);
            let mut report = m.cost_report();
            report.wall = Default::default();
            report
        };
        let plain = run(Pram::with_seed(512, 4));
        let mut costed = run(Pram::with_bsp(512, 4, 2));
        assert!(plain.work.is_some() && plain.bsp.is_none());
        assert!(costed.bsp.take().is_some());
        assert_eq!(costed, plain);
    }

    #[test]
    fn empty_and_zero_width_steps_cost_nothing() {
        let mut m = Pram::with_bsp(4, 0, 1);
        let out: Vec<u64> = m.par_map(0, |_p, _ctx| 0u64);
        assert!(out.is_empty());
        assert_eq!(m.scan_step(0, 0), 0);
        assert!(!m.global_or_step(0, 0));
        let bsp = m.cost_report().bsp.unwrap();
        assert_eq!(bsp.measured_cost, 0);
        assert_eq!(m.trace().queue_profile(), &[0, 0, 0]);
        assert_eq!(m.steps_executed(), 3);
    }
}
