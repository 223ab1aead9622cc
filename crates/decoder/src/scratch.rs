//! Epoch-stamped scratch buffers.
//!
//! Decoding one shot needs a raft of per-node / per-edge working arrays.
//! Allocating (or even zeroing) them per shot dominates the runtime of
//! cheap shots, so the batch decode path reuses buffers across shots and
//! invalidates them in O(1) with an *epoch stamp*: every slot remembers the
//! epoch in which it was last written, and a slot whose stamp is stale reads
//! as the default value. Starting a new shot is just `epoch += 1`.

/// A fixed-default array with O(1) bulk reset via epoch stamping.
#[derive(Debug, Clone)]
pub(crate) struct EpochVec<T: Copy> {
    stamps: Vec<u32>,
    values: Vec<T>,
    epoch: u32,
    default: T,
}

impl<T: Copy> EpochVec<T> {
    /// A new empty array whose stale slots read as `default`.
    pub(crate) fn new(default: T) -> Self {
        EpochVec {
            stamps: Vec::new(),
            values: Vec::new(),
            epoch: 1,
            default,
        }
    }

    /// Grows to at least `len` slots and invalidates every slot.
    pub(crate) fn begin(&mut self, len: usize) {
        if self.values.len() < len {
            self.stamps.resize(len, 0);
            self.values.resize(len, self.default);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(next) => next,
            None => {
                // Epoch wrapped: hard-reset stamps once every 2^32 shots.
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Reads a slot (the default if not written this epoch).
    pub(crate) fn get(&self, index: usize) -> T {
        if self.stamps[index] == self.epoch {
            self.values[index]
        } else {
            self.default
        }
    }

    /// Writes a slot.
    pub(crate) fn set(&mut self, index: usize, value: T) {
        self.stamps[index] = self.epoch;
        self.values[index] = value;
    }

    /// Whether a slot has been written this epoch.
    pub(crate) fn written(&self, index: usize) -> bool {
        self.stamps[index] == self.epoch
    }
}

/// A pool of reusable `Vec<usize>` lists with epoch-stamped clearing.
#[derive(Debug, Clone, Default)]
pub(crate) struct VecPool {
    stamps: Vec<u32>,
    lists: Vec<Vec<usize>>,
    epoch: u32,
}

impl VecPool {
    /// Grows to at least `len` lists and invalidates them all.
    pub(crate) fn begin(&mut self, len: usize) {
        if self.lists.len() < len {
            self.stamps.resize(len, 0);
            self.lists.resize_with(len, Vec::new);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(next) => next,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    fn freshen(&mut self, index: usize) {
        if self.stamps[index] != self.epoch {
            self.stamps[index] = self.epoch;
            self.lists[index].clear();
        }
    }

    /// Mutable access to one list (cleared lazily at first touch per epoch).
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut Vec<usize> {
        self.freshen(index);
        &mut self.lists[index]
    }

    /// Moves one list out (its slot becomes empty but keeps no capacity
    /// until [`VecPool::put_back`] returns an allocation to it).
    pub(crate) fn take(&mut self, index: usize) -> Vec<usize> {
        self.freshen(index);
        std::mem::take(&mut self.lists[index])
    }

    /// Returns a (typically drained) list's allocation to a slot, clearing
    /// its contents.
    pub(crate) fn put_back(&mut self, index: usize, mut list: Vec<usize>) {
        list.clear();
        self.stamps[index] = self.epoch;
        self.lists[index] = list;
    }

    /// Puts a list — contents included — into a slot.
    pub(crate) fn restore(&mut self, index: usize, list: Vec<usize>) {
        self.stamps[index] = self.epoch;
        self.lists[index] = list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_vec_resets_in_constant_time() {
        let mut v: EpochVec<u32> = EpochVec::new(7);
        v.begin(4);
        assert_eq!(v.get(3), 7);
        v.set(3, 9);
        assert_eq!(v.get(3), 9);
        v.begin(4);
        assert_eq!(v.get(3), 7, "new epoch must forget old writes");
        v.begin(8);
        assert_eq!(v.get(7), 7);
    }

    #[test]
    fn vec_pool_clears_lazily() {
        let mut pool = VecPool::default();
        pool.begin(2);
        pool.get_mut(0).extend([1, 2, 3]);
        pool.begin(2);
        assert!(pool.get_mut(0).is_empty());
        let taken = pool.take(0);
        pool.put_back(0, taken);
        assert!(pool.get_mut(0).is_empty());
    }
}
