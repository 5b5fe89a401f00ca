//! The batch-message router: the communication phase of a BSP superstep.
//!
//! Processors do not touch shared cells directly on a BSP machine — they
//! emit read/write *requests* during the local-computation phase, and a
//! routing phase delivers them.  This module is that phase.  It runs the
//! simulator's own stamp walk ([`qrqw_sim::StepScratch::finish`]) over the
//! chunk logs the processors filled: the walk visits processors in
//! ascending id, combines duplicate same-processor requests (the standard
//! first move of a PRAM-on-BSP emulation — each component merges its own
//! duplicates before injecting them into the network), and reports every
//! combined message to the [`Router`], which *measures* what the delivery
//! actually cost:
//!
//! * the longest per-cell message queue (the realized contention `k` of
//!   Theorem 1.1 — a queue of length `k` drains in `k` delivery cycles),
//! * the heaviest per-component load (the `h` of the realized h-relation,
//!   with cells distributed cyclically over components), and
//! * the message count itself.
//!
//! Delivery is deterministic: messages arrive at a cell in processor-id
//! order and the first sender takes the cell — the simulator's
//! lowest-processor-id write arbitration, by construction: it is the same
//! code.  Chunk boundaries and the order chunks finish in therefore never
//! affect results, which is what lets the BSP backend keep bit-identical
//! parity with the simulator at any thread count.

use qrqw_sim::{StepScratch, StepSink, StepStats};

/// The measurements taken while routing one step's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedStep {
    /// Read requests routed, after same-processor combining.
    pub read_msgs: u64,
    /// Write messages routed, after same-processor combining.
    pub write_msgs: u64,
    /// Longest realized per-cell read queue.
    pub read_queue: u64,
    /// Longest realized per-cell write queue.
    pub write_queue: u64,
    /// Largest number of messages handled by one component (read requests
    /// count twice — request plus reply — write messages once).
    pub max_h: u64,
}

impl RoutedStep {
    /// The realized contention of the step: the longest message queue any
    /// single cell accumulated, reads or writes.
    pub fn max_queue(&self) -> u64 {
        self.read_queue.max(self.write_queue)
    }

    /// Total messages this step put on the network (reads are
    /// request + reply).
    pub fn messages(&self) -> u64 {
        2 * self.read_msgs + self.write_msgs
    }
}

/// The routing fabric: cells distributed cyclically (`addr % components`)
/// over a fixed number of components, whose per-step load histogram is
/// reused across steps.
#[derive(Debug)]
pub struct Router {
    per_component: Vec<u64>,
}

/// One step's delivery: counts the combined messages per component and
/// lets each cell's first sender write it.
struct Delivery<'a> {
    cells: &'a mut [u64],
    per_component: &'a mut [u64],
    read_msgs: u64,
    write_msgs: u64,
}

impl StepSink for Delivery<'_> {
    fn read_pair(&mut self, addr: usize) {
        self.read_msgs += 1;
        self.per_component[addr % self.per_component.len()] += 2;
    }

    fn write_pair(&mut self, addr: usize) {
        self.write_msgs += 1;
        self.per_component[addr % self.per_component.len()] += 1;
    }

    fn deliver(&mut self, addr: usize, value: u64) {
        self.cells[addr] = value;
    }
}

impl Router {
    /// A fabric of `components` components (at least one).
    pub fn new(components: usize) -> Self {
        Router {
            per_component: vec![0; components.max(1)],
        }
    }

    /// Routes the step buffered in `scratch`: delivers the winning writes
    /// into `cells` and returns the processor-side statistics of the step
    /// next to the measured traffic.
    pub fn route(
        &mut self,
        scratch: &mut StepScratch,
        cells: &mut [u64],
    ) -> (StepStats, RoutedStep) {
        self.per_component.fill(0);
        let mut delivery = Delivery {
            per_component: &mut self.per_component,
            read_msgs: 0,
            write_msgs: 0,
            cells,
        };
        let stats = scratch.finish(delivery.cells.len(), &mut delivery);
        let Delivery {
            read_msgs,
            write_msgs,
            ..
        } = delivery;
        let routed = RoutedStep {
            read_msgs,
            write_msgs,
            read_queue: stats.max_read_contention,
            write_queue: stats.max_write_contention,
            max_h: self.per_component.iter().copied().max().unwrap_or(0),
        };
        (stats, routed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::ProcCtx;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One processor's requests, in program order.
    #[derive(Debug, Clone, Default)]
    struct Requests {
        reads: Vec<usize>,
        writes: Vec<(usize, u64)>,
    }

    /// Buffers `program` (processor id, requests) in chunks of `chunk`
    /// processors handed back in `order`, then routes it over `components`
    /// components into `cells`.
    fn route_program(
        scratch: &mut StepScratch,
        cells: &mut [u64],
        components: usize,
        program: &[(usize, Requests)],
        chunk: usize,
        order: impl Fn(&mut Vec<qrqw_sim::ChunkLog>),
    ) -> RoutedStep {
        scratch.begin_step();
        let mut logs: Vec<_> = program
            .chunks(chunk)
            .map(|procs| {
                let mut log = scratch.take_log(procs[0].0);
                let mut ctx = ProcCtx::new(cells, 0, 0, &mut log);
                for (proc, requests) in procs {
                    ctx.begin(*proc as u64);
                    for &a in &requests.reads {
                        ctx.read(a);
                    }
                    for &(a, v) in &requests.writes {
                        ctx.write(a, v);
                    }
                    ctx.end();
                }
                log
            })
            .collect();
        order(&mut logs);
        for log in logs {
            scratch.put_log(log);
        }
        Router::new(components).route(scratch, cells).1
    }

    /// Routes `program` into 16 fresh cells, one chunk per two processors.
    fn routed(program: &[(usize, Requests)], components: usize) -> (RoutedStep, Vec<u64>) {
        let mut cells = vec![0u64; 16];
        let step = route_program(
            &mut StepScratch::default(),
            &mut cells,
            components,
            program,
            2,
            |_| {},
        );
        (step, cells)
    }

    fn reads(proc: usize, addrs: &[usize]) -> (usize, Requests) {
        let reads = addrs.to_vec();
        (
            proc,
            Requests {
                reads,
                ..Requests::default()
            },
        )
    }

    fn writes(proc: usize, recs: &[(usize, u64)]) -> (usize, Requests) {
        let writes = recs.to_vec();
        (
            proc,
            Requests {
                writes,
                ..Requests::default()
            },
        )
    }

    #[test]
    fn lowest_processor_id_wins_each_cell() {
        let (step, cells) = routed(
            &[
                writes(0, &[(4, 20)]),
                writes(1, &[(4, 21)]),
                writes(2, &[(4, 22)]),
                writes(3, &[]),
                writes(4, &[]),
                writes(5, &[(9, 95)]),
            ],
            8,
        );
        assert_eq!((cells[4], cells[9]), (20, 95));
        assert_eq!(step.write_queue, 3);
        assert_eq!(step.write_msgs, 4);
    }

    #[test]
    fn same_processor_duplicate_reads_are_combined() {
        // Processor 7 reads cell 3 three times: one routed request.
        let (step, _) = routed(&[reads(7, &[3, 3, 3]), reads(8, &[3])], 4);
        assert_eq!(step.read_msgs, 2);
        assert_eq!(step.read_queue, 2);
        assert_eq!(step.messages(), 4, "a read costs request + reply");
    }

    #[test]
    fn queue_lengths_count_distinct_processors_per_cell() {
        let program = [
            (
                1,
                Requests {
                    reads: vec![0],
                    writes: vec![(5, 10)],
                },
            ),
            (
                2,
                Requests {
                    reads: vec![0],
                    writes: vec![(5, 11)],
                },
            ),
            reads(3, &[0]),
            reads(4, &[1]),
        ];
        let (step, _) = routed(&program, 4);
        assert_eq!(step.read_queue, 3);
        assert_eq!(step.write_queue, 2);
        assert_eq!(step.max_queue(), 3);
    }

    #[test]
    fn h_relation_counts_traffic_per_component() {
        // Cells 0 and 4 share component 0 of 4: 2 reads (×2) + 1 write = 5.
        let (step, _) = routed(&[reads(1, &[0]), reads(2, &[4]), writes(3, &[(4, 1)])], 4);
        assert_eq!(step.max_h, 5);
    }

    #[test]
    fn empty_step_routes_nothing() {
        let (step, _) = routed(&[], 16);
        assert_eq!(step.max_queue(), 0);
        assert_eq!(step.messages(), 0);
        assert_eq!(step.max_h, 0);
    }

    // ---- the walk against the sort it replaces ---------------------------

    /// What `route` returned before the walk, winners included.
    #[derive(Debug, PartialEq, Eq)]
    struct SortedRoute {
        winners: Vec<(usize, u64)>,
        step: RoutedStep,
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
                read_queue,
                write_queue,
                max_h: per_component.iter().copied().max().unwrap_or(0),
            },
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
        let mut scratch = StepScratch::default();
        let mut cells: Vec<u64> = (0..40).collect();
        for seed in 0..240u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            if seed % 9 == 4 {
                // Memory grown between steps.
                let grown = cells.len() + rng.gen_range(1..3000usize);
                cells.resize(grown, qrqw_sim::EMPTY);
            }
            let procs = [1usize, 6, 250, 4095, 13_000][seed as usize % 5];
            // 0 mixed, 1 writes only, 2 reads only
            let flavour = (seed / 5) % 3;
            let hot = rng.gen_range(0..cells.len());
            let components = [1usize, 2, 7, 1024][rng.gen_range(0..4usize)];
            let addr = |rng: &mut SmallRng| {
                if rng.gen::<bool>() {
                    rng.gen_range(0..24usize)
                } else {
                    rng.gen_range(0..cells.len())
                }
            };
            let program: Vec<(usize, Requests)> = (0..procs)
                .map(|p| {
                    let mut requests = Requests::default();
                    // A fifth of the processors stay idle.
                    if rng.gen_range(0..5u32) > 0 {
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
                    (p, requests)
                })
                .collect();

            let want = route_by_sorting(
                program
                    .iter()
                    .flat_map(|(p, r)| r.reads.iter().map(move |&a| (a, *p as u64)))
                    .collect(),
                program
                    .iter()
                    .flat_map(|(p, r)| r.writes.iter().map(move |&(a, v)| (a, *p as u64, v)))
                    .collect(),
                components,
            );
            let mut want_cells = cells.clone();
            for &(a, v) in &want.winners {
                want_cells[a] = v;
            }

            // Chunks come back from the pool in any order.
            let chunk = rng.gen_range(1..600usize);
            let rotate = rng.gen_range(0..64usize);
            let got = route_program(
                &mut scratch,
                &mut cells,
                components,
                &program,
                chunk,
                |logs| {
                    logs.reverse();
                    let by = rotate % logs.len();
                    logs.rotate_left(by);
                },
            );
            assert_eq!(got, want.step, "seed {seed}: measured traffic");
            assert_eq!(cells, want_cells, "seed {seed}: memory image");
        }
    }
}
