//! Property battery for [`SyndromeChunkBuilder`]: whatever the interleaving
//! of index frames and shot-major word blocks, the builder's planes are the
//! planes [`SyndromeChunk::from_shots`] lays out for the same shots — across
//! widenings, blocks straddling word boundaries and ragged final words — and
//! a reused builder carries nothing over from the batch before.

use proptest::prelude::*;

use qccd_sim::{SyndromeChunk, SyndromeChunkBuilder};

/// One ingestion step: `count` shots, pushed as one word block or as `count`
/// index frames, firing a pseudo-random eighth of the detectors per shot.
type Step = (bool, usize, u64);

fn fires(seed: u64, shot: usize, detector: usize) -> bool {
    qccd_sim::block_seed(seed ^ shot as u64, detector as u64).is_multiple_of(8)
}

/// Pushes `steps` into `builder` until `cap` shots are pending and returns
/// the shots pushed, in order, as `from_shots` takes them.
fn ingest(
    builder: &mut SyndromeChunkBuilder,
    steps: &[Step],
    cap: usize,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let num_detectors = builder.num_detectors();
    let mut shots = Vec::new();
    for &(as_block, count, seed) in steps {
        let count = count.min(cap - shots.len());
        if count == 0 {
            break;
        }
        let fired: Vec<Vec<usize>> = (0..count)
            .map(|s| (0..num_detectors).filter(|&d| fires(seed, s, d)).collect())
            .collect();
        if as_block {
            let mut planes = vec![0u64; num_detectors];
            for (s, frame) in fired.iter().enumerate() {
                for &d in frame {
                    planes[d] |= 1u64 << s;
                }
            }
            builder.push_word_block(&planes, count);
        } else {
            for frame in &fired {
                builder.push_frame(frame);
            }
        }
        shots.extend(fired.into_iter().map(|frame| (frame, Vec::new())));
    }
    assert_eq!(builder.pending_frames(), shots.len());
    shots
}

#[test]
#[should_panic(expected = "block sets out-of-range shot bits")]
fn a_stray_bit_in_the_last_plane_word_panics() {
    let mut planes = vec![0u64; 40];
    planes[39] = 1 << 63;
    SyndromeChunkBuilder::new(40, 1).push_word_block(&planes, 63);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_planes_equal_from_shots_and_reuse_leaves_no_stale_bits(
        num_detectors in 1usize..131,
        steps in prop::collection::vec((any::<bool>(), 1usize..65, any::<u64>()), 1..24),
    ) {
        let mut builder = SyndromeChunkBuilder::new(num_detectors, 2);
        // Up to 300 shots: planes widen 1 → 2 → 4 → 8 words on the way.
        let first = ingest(&mut builder, &steps, 300);
        prop_assert_eq!(
            builder.finish(0, 0),
            SyndromeChunk::from_shots(num_detectors, 2, &first)
        );
        prop_assert!(builder.is_empty());

        // A second, shorter batch through the same builder, with the steps
        // in reverse so its bits differ from the first's.
        let reversed: Vec<Step> = steps.iter().rev().copied().collect();
        let second = ingest(&mut builder, &reversed, first.len() / 2);
        prop_assert_eq!(
            builder.finish(0, 0),
            SyndromeChunk::from_shots(num_detectors, 2, &second)
        );

        // A zero-shot finish keeps the detector count and has no words.
        let empty = builder.finish(0, 0);
        prop_assert_eq!(empty.num_detectors(), num_detectors);
        prop_assert_eq!(empty.words(), 0);
        prop_assert_eq!(empty, SyndromeChunk::from_shots(num_detectors, 2, &[]));
    }
}
