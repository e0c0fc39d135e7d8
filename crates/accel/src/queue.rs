//! Bounded FIFO queues modeling the core↔accelerator interconnect of
//! Figure 4: the config queue (weights, checker coefficients), the
//! input/output data queues, and the recovery queue carrying per-iteration
//! recovery bits back to the CPU.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error returned when pushing into a full [`Fifo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    /// Capacity of the queue that rejected the push.
    pub capacity: usize,
}

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue is full (capacity {})", self.capacity)
    }
}

impl Error for QueueFullError {}

/// A bounded single-producer FIFO with occupancy statistics.
///
/// # Examples
///
/// ```
/// use rumba_accel::queue::Fifo;
///
/// let mut q = Fifo::new(2);
/// q.push(10u32)?;
/// q.push(20)?;
/// assert!(q.push(30).is_err());
/// assert_eq!(q.pop(), Some(10));
/// # Ok::<(), rumba_accel::queue::QueueFullError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushes: u64,
    pops: u64,
    high_water: usize,
}

impl<T> Fifo<T> {
    /// Creates an empty queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        Self { items: VecDeque::new(), capacity, pushes: 0, pops: 0, high_water: 0 }
    }

    /// Enqueues one entry.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when at capacity; the entry is dropped, so
    /// callers model back-pressure explicitly.
    pub fn push(&mut self, item: T) -> Result<(), QueueFullError> {
        if self.items.len() == self.capacity {
            return Err(QueueFullError { capacity: self.capacity });
        }
        self.items.push_back(item);
        self.pushes += 1;
        self.high_water = self.high_water.max(self.items.len());
        Ok(())
    }

    /// Dequeues the oldest entry, if any.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.pops += 1;
        }
        item
    }

    /// Oldest entry without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total successful pushes over the queue's lifetime.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total successful pops over the queue's lifetime.
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Maximum occupancy ever observed.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drains all entries, oldest first.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.pops += self.items.len() as u64;
        self.items.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_orders_and_counts() {
        let mut q = Fifo::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.high_water(), 4);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pushes(), 4);
        assert_eq!(q.pops(), 2);
    }

    #[test]
    fn push_to_full_queue_fails() {
        let mut q = Fifo::new(1);
        q.push('a').unwrap();
        assert_eq!(q.push('b'), Err(QueueFullError { capacity: 1 }));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new(0);
    }

    #[test]
    fn drain_empties_and_counts() {
        let mut q = Fifo::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let drained: Vec<_> = q.drain().collect();
        assert_eq!(drained, vec![1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.pops(), 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = Fifo::new(2);
        q.push(7).unwrap();
        assert_eq!(q.peek(), Some(&7));
        assert_eq!(q.len(), 1);
    }

    proptest! {
        #[test]
        fn fifo_preserves_order(items in proptest::collection::vec(0u32..1000, 1..64)) {
            let mut q = Fifo::new(items.len());
            for &i in &items {
                q.push(i).unwrap();
            }
            let out: Vec<_> = q.drain().collect();
            prop_assert_eq!(out, items);
        }

        #[test]
        fn occupancy_never_exceeds_capacity(ops in proptest::collection::vec(proptest::bool::ANY, 1..200)) {
            let mut q = Fifo::new(8);
            let mut i = 0u32;
            for push in ops {
                if push {
                    let _ = q.push(i);
                    i += 1;
                } else {
                    let _ = q.pop();
                }
                prop_assert!(q.len() <= q.capacity());
                prop_assert!(q.high_water() <= q.capacity());
            }
        }
    }
}
