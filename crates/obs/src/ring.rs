//! The bounded journal every `ftr-obs` ring is built on, and the
//! poison-recovering lock helper the workspace shares.

use std::collections::VecDeque;
use std::sync::{LockResult, Mutex};

/// Recovers a poisoned lock instead of panicking the acquiring thread.
///
/// Use it only on data that a panicking holder cannot leave half
/// written: a value replaced whole, a memo of a pure function, or a
/// ring whose every update is a single push or pop.
pub fn relock<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bounded ring of `T` behind a short mutex: pushes beyond the
/// capacity evict the oldest entry, so it always holds the *last*
/// `cap` pushes, and it counts every push and every eviction.
///
/// Journals push at epoch, batch, search or flush rate, never per
/// query, so the mutex stays off the serving hot path.
pub struct Ring<T> {
    cap: usize,
    inner: Mutex<RingInner<T>>,
}

struct RingInner<T> {
    items: VecDeque<T>,
    total: u64,
    dropped: u64,
}

impl<T: Clone> Ring<T> {
    /// A ring holding at most `cap` entries (`cap == 0` keeps nothing).
    pub fn new(cap: usize) -> Self {
        Ring {
            cap,
            inner: Mutex::new(RingInner {
                items: VecDeque::with_capacity(cap.min(4096)),
                total: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends `item`, returning the entry it evicted (the item itself
    /// when `cap == 0`).
    pub fn push(&self, item: T) -> Option<T> {
        let mut inner = relock(self.inner.lock());
        inner.total += 1;
        let evicted = if self.cap == 0 {
            Some(item)
        } else {
            let oldest = if inner.items.len() == self.cap {
                inner.items.pop_front()
            } else {
                None
            };
            inner.items.push_back(item);
            oldest
        };
        inner.dropped += u64::from(evicted.is_some());
        evicted
    }

    /// The newest `n` entries, oldest first.
    pub fn last(&self, n: usize) -> Vec<T> {
        let inner = relock(self.inner.lock());
        let skip = inner.items.len().saturating_sub(n);
        inner.items.iter().skip(skip).cloned().collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        relock(self.inner.lock()).items.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries pushed over the ring's lifetime.
    pub fn total(&self) -> u64 {
        relock(self.inner.lock()).total
    }

    /// Entries evicted (or refused at `cap == 0`).
    pub fn dropped(&self) -> u64 {
        relock(self.inner.lock()).dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_returns_it() {
        let ring = Ring::new(2);
        assert_eq!(ring.push(1), None);
        assert_eq!(ring.push(2), None);
        assert_eq!(ring.push(3), Some(1));
        assert_eq!(ring.last(10), vec![2, 3]);
        assert_eq!(ring.last(1), vec![3]);
        assert_eq!((ring.len(), ring.total(), ring.dropped()), (2, 3, 1));
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let ring = Ring::new(0);
        assert_eq!(ring.push("a"), Some("a"));
        assert!(ring.is_empty());
        assert_eq!((ring.total(), ring.dropped()), (1, 1));
    }
}
