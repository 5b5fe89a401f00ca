//! The host oracle of the serve workloads: a set, a counter array and a
//! FIFO, advanced at submit time.  Replies are trace-deterministic, so the
//! oracle's answer at submission order is the only right answer whatever
//! batches the server cuts; the final [`StateDigest`] must match too.

use std::collections::{HashSet, VecDeque};

use qrqw_serve::{Reply, Request, StateDigest};
use qrqw_sim::EMPTY;

#[derive(Debug)]
pub struct Oracle {
    keys: HashSet<u64>,
    /// `None` until a request first touches the counter.
    counters: Vec<Option<u64>>,
    tasks: VecDeque<(u64, u64)>,
    next_seq: u64,
}

impl Oracle {
    pub fn new(num_counters: usize) -> Oracle {
        Oracle {
            keys: HashSet::new(),
            counters: vec![None; num_counters],
            tasks: VecDeque::new(),
            next_seq: 0,
        }
    }

    pub fn pending_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Applies `request` and returns the reply the service owes for it.
    pub fn apply(&mut self, request: &Request) -> Reply {
        match *request {
            Request::HashInsert { key } => Reply::Inserted(self.keys.insert(key)),
            Request::HashDelete { key } => Reply::Removed(self.keys.remove(&key)),
            Request::HashLookup { key } | Request::HashContains { key } => {
                Reply::Found(self.keys.contains(&key))
            }
            Request::CounterAdd { counter, delta } => {
                let cell = self.counters[counter].get_or_insert(0);
                let old = *cell;
                *cell += delta;
                Reply::Counter(old)
            }
            Request::CounterRead { counter } => {
                Reply::Counter(*self.counters[counter].get_or_insert(0))
            }
            Request::TaskSubmit { payload } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.tasks.push_back((seq, payload));
                Reply::TaskQueued(seq)
            }
            Request::TaskSteal => Reply::TaskStolen(self.tasks.pop_front()),
            Request::Fault(_) => unreachable!("the workloads inject no faults"),
        }
    }

    /// The digest the service must end on.
    pub fn digest(&self) -> StateDigest {
        let mut hash_keys: Vec<u64> = self.keys.iter().copied().collect();
        hash_keys.sort_unstable();
        StateDigest {
            hash_keys,
            counters: self.counters.iter().map(|c| c.unwrap_or(EMPTY)).collect(),
            pending_tasks: self.tasks.iter().copied().collect(),
            next_seq: self.next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_follow_submission_order() {
        let mut o = Oracle::new(4);
        assert_eq!(
            o.apply(&Request::HashInsert { key: 9 }),
            Reply::Inserted(true)
        );
        assert_eq!(
            o.apply(&Request::HashInsert { key: 9 }),
            Reply::Inserted(false)
        );
        assert_eq!(o.apply(&Request::HashLookup { key: 9 }), Reply::Found(true));
        assert_eq!(
            o.apply(&Request::HashDelete { key: 9 }),
            Reply::Removed(true)
        );
        assert_eq!(
            o.apply(&Request::HashDelete { key: 9 }),
            Reply::Removed(false)
        );
        assert_eq!(
            o.apply(&Request::CounterAdd {
                counter: 1,
                delta: 5
            }),
            Reply::Counter(0)
        );
        assert_eq!(
            o.apply(&Request::CounterRead { counter: 1 }),
            Reply::Counter(5)
        );
        assert_eq!(o.apply(&Request::TaskSteal), Reply::TaskStolen(None));
        assert_eq!(
            o.apply(&Request::TaskSubmit { payload: 7 }),
            Reply::TaskQueued(0)
        );
        assert_eq!(
            o.apply(&Request::TaskSubmit { payload: 8 }),
            Reply::TaskQueued(1)
        );
        assert_eq!(
            o.apply(&Request::TaskSteal),
            Reply::TaskStolen(Some((0, 7)))
        );
        let d = o.digest();
        assert!(d.hash_keys.is_empty());
        assert_eq!(d.counters, vec![EMPTY, 5, EMPTY, EMPTY]);
        assert_eq!(d.pending_tasks, vec![(1, 8)]);
        assert_eq!(d.next_seq, 2);
    }
}
