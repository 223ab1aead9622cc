//! Epoch-stamped scratch buffers for the matching decoders' Dijkstra arrays.
//!
//! Each Dijkstra search needs per-node `(distance, path mask)` slots.
//! Allocating (or even zeroing) them per search dominates the runtime of
//! cheap shots, so they are reused across searches and invalidated in O(1)
//! with an *epoch stamp*: every slot remembers the epoch in which it was
//! last written, and a slot whose stamp is stale reads as the default
//! value. Starting a new search is just `epoch += 1`. (The union-find
//! decoder instead resets only the slots a shot touched; see its module.)

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
}
