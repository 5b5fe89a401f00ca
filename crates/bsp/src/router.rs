//! The batch-message router: the communication phase of a BSP superstep.
//!
//! Processors do not touch shared cells directly on a BSP machine — they
//! emit read/write *requests* during the local-computation phase, and a
//! routing phase delivers them.  This module is that phase, and it is a
//! [`StepSink`] on the simulator's own step ([`Pram::par_map_into`]): the
//! simulator's stamp walk meets each address range's requests in ascending
//! processor id on its own pool worker, combines duplicate same-processor
//! requests (the standard first move of a PRAM-on-BSP emulation — each
//! component merges its own duplicates before injecting them into the
//! network) and delivers the winning writes, and the router counts every
//! combined message into that worker's tally.  The [`Router`] keeps those
//! tallies across steps and merges them into what the delivery cost:
//!
//! * the heaviest per-component load (the `h` of the realized h-relation,
//!   with cells distributed cyclically over components: the tallies'
//!   per-component histograms summed), and
//! * the message count itself.
//!
//! The longest per-cell queue (the realized contention `k` of Theorem 1.1 —
//! a queue of length `k` drains in `k` delivery cycles) is the walk's own
//! contention count, in the step's [`qrqw_sim::StepStats`].
//!
//! Delivery is deterministic: messages arrive at a cell in processor-id
//! order and the first sender takes the cell — the simulator's
//! lowest-processor-id write arbitration, by construction: it is the same
//! code.  Chunk boundaries, the order chunks finish in and the way memory is
//! cut into ranges therefore never affect results, which is what lets the
//! BSP backend keep bit-identical parity with the simulator at any thread
//! count.

use qrqw_sim::{MachineProc, Pram, StepSink};

/// The traffic one routed step put on the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutedStep {
    /// Read requests routed, after same-processor combining.
    pub read_msgs: u64,
    /// Write messages routed, after same-processor combining.
    pub write_msgs: u64,
    /// Largest number of messages handled by one component (read requests
    /// count twice — request plus reply — write messages once).
    pub max_h: u64,
}

impl RoutedStep {
    /// Total messages this step put on the network (reads are
    /// request + reply).
    pub fn messages(&self) -> u64 {
        2 * self.read_msgs + self.write_msgs
    }

    /// Supersteps the traffic took: read traffic a request and a reply
    /// superstep, write traffic a delivery superstep; even an all-compute
    /// step ends in a barrier.
    pub fn supersteps(&self) -> u64 {
        (2 * (self.read_msgs > 0) as u64 + (self.write_msgs > 0) as u64).max(1)
    }
}

/// The routing fabric: cells distributed cyclically (`addr % components`)
/// over a fixed number of components, and one tally per chunk of the walk,
/// reused across steps.
#[derive(Debug)]
pub struct Router {
    components: usize,
    tallies: Vec<Tally>,
}

/// What one chunk of the walk counted.  Aligned to its own pair of cache
/// lines: concurrent walkers bump neighbouring tallies once per message,
/// and sharing a line made the parallel walk no faster than a serial one.
#[derive(Debug)]
#[repr(align(128))]
struct Tally {
    read_msgs: u64,
    write_msgs: u64,
    /// Messages per component.
    per_component: Vec<u64>,
}

/// One step's delivery: the sink that counts its messages per chunk, and
/// the merged count.
struct Delivery {
    components: usize,
    routed: RoutedStep,
}

impl StepSink for Delivery {
    type Partial = Tally;

    fn new_partial(&self) -> Tally {
        Tally {
            read_msgs: 0,
            write_msgs: 0,
            per_component: vec![0; self.components],
        }
    }

    fn read_pair(tally: &mut Tally, addr: usize) {
        tally.read_msgs += 1;
        let components = tally.per_component.len();
        tally.per_component[addr % components] += 2;
    }

    fn write_pair(tally: &mut Tally, addr: usize) {
        tally.write_msgs += 1;
        let components = tally.per_component.len();
        tally.per_component[addr % components] += 1;
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
            for (sum, part) in total.per_component.iter_mut().zip(&mut tally.per_component) {
                *sum += std::mem::take(part);
            }
        }
        self.routed = RoutedStep {
            read_msgs: std::mem::take(&mut total.read_msgs),
            write_msgs: std::mem::take(&mut total.write_msgs),
            max_h: total
                .per_component
                .iter_mut()
                .map(std::mem::take)
                .max()
                .unwrap_or(0),
        };
    }
}

impl Router {
    /// A fabric of `components` components (at least one).
    pub fn new(components: usize) -> Self {
        Router {
            components: components.max(1),
            tallies: Vec::new(),
        }
    }

    /// Runs one step of processors `0..procs` on `pram`
    /// ([`Pram::par_map_into`], processors and walk on up to `threads`
    /// threads) with this fabric as its sink: the processors' results, next
    /// to the traffic routing them took.
    pub fn step<T, F>(
        &mut self,
        pram: &mut Pram,
        threads: usize,
        procs: usize,
        f: F,
    ) -> (Vec<T>, RoutedStep)
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let mut delivery = Delivery {
            components: self.components,
            routed: RoutedStep::default(),
        };
        let out = pram.par_map_into(threads, &mut delivery, &mut self.tallies, procs, f);
        (out, delivery.routed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{Machine, StepStats};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One processor's requests, in program order.
    #[derive(Debug, Clone, Default)]
    struct Requests {
        reads: Vec<usize>,
        writes: Vec<(usize, u64)>,
    }

    /// Routes `program` (processor `p` issues `program[p]`) over
    /// `components` components as one step of `pram` on `threads` threads:
    /// the measured traffic and the step's statistics.  (The order in which
    /// a step's chunk logs reach the walk is `qrqw_sim`'s own test.)
    fn route(
        pram: &mut Pram,
        components: usize,
        program: &[Requests],
        threads: usize,
    ) -> (RoutedStep, StepStats) {
        let (_, routed) = Router::new(components).step(pram, threads, program.len(), |p, ctx| {
            for &a in &program[p].reads {
                ctx.read(a);
            }
            for &(a, v) in &program[p].writes {
                ctx.write(a, v);
            }
        });
        let stats = *pram.trace().step_stats().last().expect("one step ran");
        (routed, stats)
    }

    /// Routes `program` into 16 fresh cells on one thread.
    fn routed(program: &[Requests], components: usize) -> (RoutedStep, StepStats, Pram) {
        let mut pram = Pram::new(16);
        let (step, stats) = route(&mut pram, components, program, 1);
        (step, stats, pram)
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
        let (step, stats, pram) = routed(
            &[
                writes(&[(4, 20)]),
                writes(&[(4, 21)]),
                writes(&[(4, 22)]),
                writes(&[]),
                writes(&[]),
                writes(&[(9, 95)]),
            ],
            8,
        );
        assert_eq!((pram.peek(4), pram.peek(9)), (20, 95));
        assert_eq!(stats.max_write_contention, 3);
        assert_eq!(step.write_msgs, 4);
    }

    #[test]
    fn same_processor_duplicate_reads_are_combined() {
        // Processor 0 reads cell 3 three times: one routed request.
        let (step, stats, _) = routed(&[reads(&[3, 3, 3]), reads(&[3])], 4);
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
        let (step, stats, _) = routed(&program, 4);
        assert_eq!(stats.max_read_contention, 3);
        assert_eq!(stats.max_write_contention, 2);
        assert_eq!(step.supersteps(), 3);
    }

    #[test]
    fn h_relation_counts_traffic_per_component() {
        // Cells 0 and 4 share component 0 of 4: 2 reads (×2) + 1 write = 5.
        let (step, _, _) = routed(&[reads(&[0]), reads(&[4]), writes(&[(4, 1)])], 4);
        assert_eq!(step.max_h, 5);
    }

    #[test]
    fn empty_step_routes_nothing() {
        let (step, stats, _) = routed(&[], 16);
        assert_eq!(step, RoutedStep::default());
        assert_eq!(stats.active_procs, 0);
        assert_eq!(step.supersteps(), 1, "a barrier all the same");
    }

    // ---- the walk against the sort it replaces ---------------------------

    /// What routing returned before the walk, winners and queues included.
    #[derive(Debug, PartialEq, Eq)]
    struct SortedRoute {
        winners: Vec<(usize, u64)>,
        step: RoutedStep,
        read_queue: u64,
        write_queue: u64,
    }

    /// The router this module had before the walk — merge every request
    /// with its processor id, sort by destination, combine, measure run
    /// lengths — with one rule made explicit: of the lowest processor's
    /// writes to a cell, the last in program order is delivered (the sort
    /// used to deliver the smallest value).
    fn route_by_sorting(
        mut reads: Vec<(usize, u64)>,
        mut writes: Vec<(usize, u64, u64)>,
        components: usize,
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
        let mut per_component = vec![0u64; components.max(1)];
        for &(a, _) in &reads {
            per_component[a % components.max(1)] += 2;
        }
        for &(a, _, _) in &writes {
            per_component[a % components.max(1)] += 1;
        }
        SortedRoute {
            winners,
            step: RoutedStep {
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
        let mut grown = Pram::new(40);
        grown.load(0, &(0..40).collect::<Vec<_>>());
        let mut one_cell = Pram::new(1);
        one_cell.load(0, &[7]);
        for seed in 0..242u64 {
            let pram = if seed == ONE_RANGE {
                &mut one_cell
            } else {
                &mut grown
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            if seed % 9 == 4 {
                // Memory grown between steps.
                let grown = pram.heap_top() + rng.gen_range(1..3000usize);
                pram.ensure_memory(grown);
            }
            let cells = pram.heap_top();
            let procs = if seed >= HOT {
                13_000
            } else {
                [1usize, 6, 250, 4095, 13_000][seed as usize % 5]
            };
            // 0 mixed, 1 writes only, 2 reads only
            let flavour = (seed / 5) % 3;
            let hot = rng.gen_range(0..cells);
            let components = [1usize, 2, 7, 1024][rng.gen_range(0..4usize)];
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
                components,
            );
            let before = pram.dump(0, cells);
            let mut want_cells = before.clone();
            for &(a, v) in &want.winners {
                want_cells[a] = v;
            }

            // One walker walks one range inline; two and five deal even
            // the 40-cell memory to four and eight ranges, and above the
            // cutoffs run the processors and the walk on the pool.
            for threads in [1, 2, 5] {
                pram.load(0, &before);
                let tag = format!("seed {seed}, {threads} threads");
                let (step, stats) = route(pram, components, &program, threads);
                // `read_msgs`, `write_msgs` and `max_h` are the merged tallies.
                assert_eq!(
                    (step, stats.max_read_contention, stats.max_write_contention),
                    (want.step, want.read_queue, want.write_queue),
                    "{tag}: measured traffic"
                );
                assert_eq!(pram.dump(0, cells), want_cells, "{tag}: memory image");
            }
        }
    }
}
