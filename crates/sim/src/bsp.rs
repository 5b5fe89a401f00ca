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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    use crate::memory::SharedMemory;
    use crate::step::{launch, StepScratch};
    use crate::{Machine, Pram};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One processor's requests, in program order.
    #[derive(Debug, Clone, Default)]
    struct Requests {
        reads: Vec<usize>,
        writes: Vec<(usize, u64)>,
    }

    /// A memory, the walk's scratch and a BSP sink with its tallies,
    /// stepped the way a [`Pram::with_bsp`] machine steps, but with each
    /// step's traffic handed back instead of booked.
    struct Fabric {
        mem: SharedMemory,
        scratch: StepScratch,
        delivery: Delivery,
        tallies: Vec<Tally>,
    }

    impl Fabric {
        fn new(cells: usize) -> Self {
            Fabric {
                mem: SharedMemory::new(cells),
                scratch: StepScratch::default(),
                delivery: Delivery::default(),
                tallies: Vec::new(),
            }
        }

        /// Routes `program` (processor `p` issues `program[p]`) as one step
        /// on `threads` threads: the measured traffic and the step's
        /// statistics.  (The order in which a step's chunk logs reach the
        /// walk is `crate::step`'s own test.)
        fn route(&mut self, program: &[Requests], threads: usize) -> (Routed, StepStats) {
            self.scratch.begin_step(self.mem.len(), threads);
            let procs = 0..program.len();
            launch(
                &self.scratch,
                self.mem.as_slice(),
                0,
                0,
                procs,
                threads,
                |p, ctx| {
                    for &a in &program[p].reads {
                        ctx.read(a);
                    }
                    for &(a, v) in &program[p].writes {
                        ctx.write(a, v);
                    }
                },
            );
            let cells = self.mem.as_mut_slice();
            let stats = self
                .scratch
                .finish(cells, &mut self.delivery, &mut self.tallies);
            let routed = self.delivery.routed.take().expect("the walk merged");
            (routed, stats)
        }
    }

    /// Routes `program` into 16 fresh cells on one thread.
    fn routed(program: &[Requests]) -> (Routed, StepStats, Fabric) {
        let mut fabric = Fabric::new(16);
        let (step, stats) = fabric.route(program, 1);
        (step, stats, fabric)
    }

    fn reads(addrs: &[usize]) -> Requests {
        Requests {
            reads: addrs.to_vec(),
            ..Requests::default()
        }
    }

    fn writes(recs: &[(usize, u64)]) -> Requests {
        Requests {
            writes: recs.to_vec(),
            ..Requests::default()
        }
    }

    #[test]
    fn lowest_processor_id_wins_each_cell() {
        let (step, stats, fabric) = routed(&[
            writes(&[(4, 20)]),
            writes(&[(4, 21)]),
            writes(&[(4, 22)]),
            writes(&[]),
            writes(&[]),
            writes(&[(9, 95)]),
        ]);
        assert_eq!((fabric.mem.peek(4), fabric.mem.peek(9)), (20, 95));
        assert_eq!(stats.max_write_contention, 3);
        assert_eq!(step.write_msgs, 4);
    }

    #[test]
    fn same_processor_duplicate_reads_are_combined() {
        // Processor 0 reads cell 3 three times: one routed request.
        let (step, stats, _) = routed(&[reads(&[3, 3, 3]), reads(&[3])]);
        assert_eq!(step.read_msgs, 2);
        assert_eq!(stats.max_read_contention, 2);
        assert_eq!(step.messages(), 4, "a read costs request + reply");
        assert_eq!(step.supersteps(), 2, "a request and a reply superstep");
    }

    #[test]
    fn queue_lengths_count_distinct_processors_per_cell() {
        let program = [
            Requests {
                reads: vec![0],
                writes: vec![(5, 10)],
            },
            Requests {
                reads: vec![0],
                writes: vec![(5, 11)],
            },
            reads(&[0]),
            reads(&[1]),
        ];
        let (step, stats, _) = routed(&program);
        assert_eq!(stats.max_read_contention, 3);
        assert_eq!(stats.max_write_contention, 2);
        assert_eq!(step.supersteps(), 3);
    }

    #[test]
    fn h_relation_counts_traffic_per_component() {
        // Cells 0 and COMPONENTS share component 0: 2 reads (×2) + 1 write.
        let mut fabric = Fabric::new(COMPONENTS + 1);
        let program = [
            reads(&[0]),
            reads(&[COMPONENTS]),
            writes(&[(COMPONENTS, 1)]),
        ];
        let (step, _) = fabric.route(&program, 1);
        assert_eq!(step.max_h, 5);
    }

    #[test]
    fn empty_step_routes_nothing() {
        let (step, stats, _) = routed(&[]);
        assert_eq!(step, Routed::default());
        assert_eq!(stats.active_procs, 0);
        assert_eq!(step.supersteps(), 1, "a barrier all the same");
    }

    // ---- the walk against the sort it replaces ---------------------------

    /// What routing returned before the walk, winners and queues included.
    #[derive(Debug, PartialEq, Eq)]
    struct SortedRoute {
        winners: Vec<(usize, u64)>,
        step: Routed,
        read_queue: u64,
        write_queue: u64,
    }

    /// The router that preceded the walk — merge every request with its
    /// processor id, sort by destination, combine, measure run lengths —
    /// with one rule made explicit: of the lowest processor's writes to a
    /// cell, the last in program order is delivered (the sort used to
    /// deliver the smallest value).
    fn route_by_sorting(
        mut reads: Vec<(usize, u64)>,
        mut writes: Vec<(usize, u64, u64)>,
    ) -> SortedRoute {
        // Local combining: one request per (cell, processor).
        reads.sort_unstable();
        reads.dedup();
        let read_queue = longest_run(reads.iter().map(|&(a, _)| a));

        // Stable, so one processor's writes to a cell stay in program
        // order; combining keeps the last of them.
        writes.sort_by_key(|&(a, p, _)| (a, p));
        writes.reverse();
        writes.dedup_by_key(|&mut (a, p, _)| (a, p));
        writes.reverse();
        let write_queue = longest_run(writes.iter().map(|&(a, _, _)| a));

        // Delivery: batches are grouped by destination cell and arrive in
        // processor order, so the first message of each batch takes the cell.
        let mut winners: Vec<(usize, u64)> = Vec::new();
        let mut last_addr = usize::MAX;
        for &(a, _, v) in &writes {
            if a != last_addr {
                winners.push((a, v));
                last_addr = a;
            }
        }

        // The realized h-relation over the component-distributed cells.
        let mut per_component = vec![0u64; COMPONENTS];
        for &(a, _) in &reads {
            per_component[a % COMPONENTS] += 2;
        }
        for &(a, _, _) in &writes {
            per_component[a % COMPONENTS] += 1;
        }
        SortedRoute {
            winners,
            step: Routed {
                read_msgs: reads.len() as u64,
                write_msgs: writes.len() as u64,
                max_h: per_component.iter().copied().max().unwrap_or(0),
            },
            read_queue,
            write_queue,
        }
    }

    /// Longest run of equal addresses in an address-sorted sequence (0 when
    /// empty) — the length of the fullest delivery queue.
    fn longest_run<I: Iterator<Item = usize>>(addrs: I) -> u64 {
        let mut best = 0u64;
        let mut cur = 0u64;
        let mut last = usize::MAX;
        for a in addrs {
            if a == last {
                cur += 1;
            } else {
                cur = 1;
                last = a;
            }
            best = best.max(cur);
        }
        best
    }

    #[test]
    fn the_walk_agrees_with_the_sort_it_replaces() {
        /// Every processor reads and writes one hot cell: ROADMAP's skew
        /// adversary, all traffic in one range.
        const HOT: u64 = 240;
        /// A one-cell memory: however many ranges the step is cut into,
        /// one holds all of it.
        const ONE_RANGE: u64 = 241;
        let mut grown = Fabric::new(40);
        grown.mem.load(0, &(0..40).collect::<Vec<_>>());
        let mut one_cell = Fabric::new(1);
        one_cell.mem.load(0, &[7]);
        for seed in 0..242u64 {
            let fabric = if seed == ONE_RANGE {
                &mut one_cell
            } else {
                &mut grown
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            if seed % 9 == 4 {
                // Memory grown between steps.
                let cells = fabric.mem.len() + rng.gen_range(1..3000usize);
                fabric.mem.ensure(cells);
            }
            let cells = fabric.mem.len();
            let procs = if seed >= HOT {
                13_000
            } else {
                [1usize, 6, 250, 4095, 13_000][seed as usize % 5]
            };
            // 0 mixed, 1 writes only, 2 reads only
            let flavour = (seed / 5) % 3;
            let hot = rng.gen_range(0..cells);
            let near = cells.min(24);
            let addr = |rng: &mut SmallRng| {
                if rng.gen::<bool>() {
                    rng.gen_range(0..near)
                } else {
                    rng.gen_range(0..cells)
                }
            };
            let program: Vec<Requests> = (0..procs)
                .map(|_| {
                    let mut requests = Requests::default();
                    if seed == HOT {
                        requests.reads.push(hot);
                        requests.writes.push((hot, rng.gen()));
                    } else if rng.gen_range(0..5u32) > 0 {
                        // A fifth of the processors stay idle.
                        if flavour != 1 {
                            requests.reads.push(hot);
                            for _ in 0..rng.gen_range(0..3u32) {
                                let a = addr(&mut rng);
                                requests.reads.push(a);
                                if rng.gen_range(0..4u32) == 0 {
                                    requests.reads.push(a);
                                }
                            }
                        }
                        if flavour != 2 {
                            for _ in 0..rng.gen_range(0..3u32) {
                                let a = addr(&mut rng);
                                requests.writes.push((a, rng.gen()));
                                if rng.gen_range(0..4u32) == 0 {
                                    requests.writes.push((a, rng.gen()));
                                }
                            }
                        }
                    }
                    requests
                })
                .collect();

            let want = route_by_sorting(
                (0..procs)
                    .flat_map(|p| program[p].reads.iter().map(move |&a| (a, p as u64)))
                    .collect(),
                (0..procs)
                    .flat_map(|p| {
                        program[p]
                            .writes
                            .iter()
                            .map(move |&(a, v)| (a, p as u64, v))
                    })
                    .collect(),
            );
            let before = fabric.mem.dump(0, cells);
            let mut want_cells = before.clone();
            for &(a, v) in &want.winners {
                want_cells[a] = v;
            }

            // One walker walks one range inline; two and five deal even
            // the 40-cell memory to four and eight ranges, and above the
            // cutoffs run the processors and the walk on the pool.
            for threads in [1, 2, 5] {
                fabric.mem.load(0, &before);
                let tag = format!("seed {seed}, {threads} threads");
                let (step, stats) = fabric.route(&program, threads);
                // `read_msgs`, `write_msgs` and `max_h` are the merged tallies.
                assert_eq!(
                    (step, stats.max_read_contention, stats.max_write_contention),
                    (want.step, want.read_queue, want.write_queue),
                    "{tag}: measured traffic"
                );
                assert_eq!(fabric.mem.dump(0, cells), want_cells, "{tag}: memory image");
            }
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
        assert_eq!(report.backend, "bsp");
        assert_eq!(
            (report.work, report.max_contention, report.time_qrqw),
            (None, None, None),
            "the BSP section replaces the model-side fields"
        );
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
