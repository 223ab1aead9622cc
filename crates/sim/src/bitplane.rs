//! Flat bit-plane arena.
//!
//! A [`BitPlanes`] stores `planes × words_per_plane` 64-bit words in one
//! contiguous allocation, replacing the `Vec<Vec<u64>>`-of-planes layout the
//! sampler used to carry. Bit `s % 64` of word `s / 64` of a plane is the
//! value for shot `s`. One allocation instead of one per plane keeps the
//! sampler's hot loop allocation-free and cache-friendly, and lets planes be
//! appended in place (no temporary copies when snapshotting measurement
//! flips).

use serde::{Deserialize, Serialize};

/// A dense arena of equally-sized bit planes.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BitPlanes {
    words_per_plane: usize,
    data: Vec<u64>,
}

impl BitPlanes {
    /// An empty arena whose planes will each hold `words_per_plane` words.
    pub fn new(words_per_plane: usize) -> Self {
        BitPlanes {
            words_per_plane,
            data: Vec::new(),
        }
    }

    /// An arena pre-filled with `planes` zeroed planes.
    pub fn zeroed(planes: usize, words_per_plane: usize) -> Self {
        BitPlanes {
            words_per_plane,
            data: vec![0; planes * words_per_plane],
        }
    }

    /// Number of planes currently stored.
    pub fn num_planes(&self) -> usize {
        self.data
            .len()
            .checked_div(self.words_per_plane)
            .unwrap_or(0)
    }

    /// Words per plane.
    pub fn words_per_plane(&self) -> usize {
        self.words_per_plane
    }

    /// Read access to one plane.
    pub fn plane(&self, index: usize) -> &[u64] {
        let start = index * self.words_per_plane;
        &self.data[start..start + self.words_per_plane]
    }

    /// Write access to one plane.
    pub fn plane_mut(&mut self, index: usize) -> &mut [u64] {
        let start = index * self.words_per_plane;
        &mut self.data[start..start + self.words_per_plane]
    }

    /// Appends a plane by copying `source` into the arena (a single
    /// `memcpy`, no intermediate allocation). Returns the new plane's index.
    pub fn push_plane(&mut self, source: &[u64]) -> usize {
        assert_eq!(
            source.len(),
            self.words_per_plane,
            "plane width mismatch: {} vs {}",
            source.len(),
            self.words_per_plane
        );
        let index = self.num_planes();
        self.data.extend_from_slice(source);
        index
    }

    /// Tests one bit of one plane.
    pub fn bit(&self, plane: usize, bit: usize) -> bool {
        (self.plane(plane)[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Iterates one word *column*: the word at index `word` of every plane,
    /// in plane order. The arena is plane-major, so this is a strided walk —
    /// callers that copy out one word of every plane (the shot-major word
    /// block export) use it instead of resolving each plane slice per plane.
    pub fn column(&self, word: usize) -> impl Iterator<Item = u64> + '_ {
        assert!(word < self.words_per_plane, "word {word} out of range");
        // `get` instead of indexing so an arena with zero planes yields an
        // empty column rather than panicking on the out-of-range start.
        self.data
            .get(word..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.words_per_plane)
            .copied()
    }

    /// Re-lays every plane at `words_per_plane` words: a wider plane is
    /// zero-extended, a narrower one keeps its leading words.
    pub fn relay(&mut self, words_per_plane: usize) {
        let keep = self.words_per_plane.min(words_per_plane);
        let mut data = Vec::with_capacity(self.num_planes() * words_per_plane);
        for index in 0..self.num_planes() {
            data.extend_from_slice(&self.plane(index)[..keep]);
            data.resize((index + 1) * words_per_plane, 0);
        }
        self.words_per_plane = words_per_plane;
        self.data = data;
    }

    /// `plane[dst] ^= plane[src]`.
    pub(crate) fn xor_planes(&mut self, dst: usize, src: usize) {
        for k in 0..self.words_per_plane {
            let word = self.data[src * self.words_per_plane + k];
            self.data[dst * self.words_per_plane + k] ^= word;
        }
    }

    /// Exchanges the contents of two planes.
    pub(crate) fn swap_planes(&mut self, a: usize, b: usize) {
        for k in 0..self.words_per_plane {
            self.data
                .swap(a * self.words_per_plane + k, b * self.words_per_plane + k);
        }
    }

    /// Drops all planes, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut arena = BitPlanes::new(2);
        assert_eq!(arena.num_planes(), 0);
        arena.push_plane(&[0b1010, 0]);
        arena.push_plane(&[u64::MAX, 1]);
        assert_eq!(arena.num_planes(), 2);
        assert_eq!(arena.plane(0), &[0b1010, 0]);
        assert_eq!(arena.plane(1), &[u64::MAX, 1]);
        assert!(arena.bit(0, 1));
        assert!(!arena.bit(0, 0));
        assert!(arena.bit(1, 64));
        let ones: u32 = arena.plane(0).iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 2);
    }

    #[test]
    fn column_walks_one_word_of_every_plane() {
        let mut arena = BitPlanes::new(2);
        arena.push_plane(&[1, 2]);
        arena.push_plane(&[3, 4]);
        arena.push_plane(&[5, 6]);
        assert_eq!(arena.column(0).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(arena.column(1).collect::<Vec<_>>(), vec![2, 4, 6]);
    }

    #[test]
    fn relay_widens_with_zeros_and_narrows_to_the_leading_words() {
        let mut arena = BitPlanes::new(2);
        arena.push_plane(&[1, 2]);
        arena.push_plane(&[3, 4]);
        arena.relay(3);
        assert_eq!(arena.num_planes(), 2);
        assert_eq!(arena.plane(0), &[1, 2, 0]);
        assert_eq!(arena.plane(1), &[3, 4, 0]);
        arena.relay(1);
        assert_eq!(arena.plane(0), &[1]);
        assert_eq!(arena.plane(1), &[3]);
        arena.relay(0);
        assert_eq!(arena, BitPlanes::zeroed(2, 0));
    }

    #[test]
    #[should_panic(expected = "plane width mismatch")]
    fn width_mismatch_panics() {
        let mut arena = BitPlanes::new(2);
        arena.push_plane(&[1]);
    }
}
