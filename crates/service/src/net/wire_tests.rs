//! The wire's readers on generated, truncated, byte-flipped and
//! mislabelled frames: every case is refused whole or read back exactly —
//! re-encoding what was read gives the frame's own bytes — and none
//! panics, whatever pieces the bytes arrive in. Every frame the two ends
//! encode reads back as exactly what was encoded, and a command line reads
//! as the vendored `serde_json` reads it.

use super::*;

/// SplitMix64 over a fixed seed: the case budget is fixed and every run
/// sees the same cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A plane word as bursts carry them: mostly zero, some all-ones.
    fn word(&mut self) -> u64 {
        match self.below(8) {
            0 => u64::MAX,
            1 => self.next(),
            2 => 1 << self.below(64),
            _ => 0,
        }
    }
}

/// Feeds `bytes` to an emptied `inbox` (its buffer reused, so that a case
/// costs no fresh allocation) in pieces of `piece` bytes and hands every
/// whole message to `each`; a message cut off at the end is not taken.
fn read_messages(
    inbox: &mut Inbox,
    bytes: &[u8],
    piece: usize,
    mut each: impl FnMut(Message<'_>),
) -> Result<(), TooLong> {
    *inbox = Inbox {
        bytes: std::mem::take(&mut inbox.bytes),
        ..Inbox::default()
    };
    for mut piece in bytes.chunks(piece) {
        while inbox.fill(&mut piece).expect("a slice reads") > 0 {}
        while let Some(message) = inbox.next()? {
            each(message);
        }
    }
    Ok(())
}

/// The bytes of `frame` as it arrived: its header, then its payload.
fn frame_bytes(frame: &Frame<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    push_frame(&mut out, frame.kind, frame.stream, |out| {
        out.extend_from_slice(frame.payload);
    });
    out
}

/// The one message `bytes` holds, which must be a whole frame.
fn only_frame(bytes: &[u8], mut check: impl FnMut(&Frame<'_>)) {
    let (mut inbox, mut frames) = (Inbox::default(), 0);
    read_messages(
        &mut inbox,
        bytes,
        bytes.len().max(1),
        |message| match message {
            Message::Frame(frame) => {
                frames += 1;
                check(&frame);
            }
            Message::Line(line) => panic!("a frame read as the line {line:?}"),
        },
    )
    .expect("within the cap");
    assert_eq!(frames, 1);
}

/// A generated request frame and the detector count of its stream: word
/// blocks or index frames, on a stream near either end of the id range.
fn request_frame(rng: &mut Rng) -> (Vec<u8>, usize) {
    let detectors = rng.below(12);
    let any = rng.next();
    let stream = *rng.pick(&[0, 1, u64::MAX, any]);
    let mut out = Vec::new();
    if rng.chance(50) {
        let blocks: Vec<(Vec<u64>, usize)> = (0..rng.below(5))
            .map(|_| {
                let planes = (0..detectors).map(|_| rng.word()).collect();
                (planes, *rng.pick(&[1, 17, 64]))
            })
            .collect();
        push_blocks_frame(&mut out, stream, &blocks);
    } else {
        let frames: Vec<Vec<usize>> = (0..rng.below(6))
            .map(|_| (0..rng.below(6)).map(|_| rng.below(50)).collect())
            .collect();
        push_index_frame(&mut out, stream, &frames);
    }
    (out, detectors)
}

/// A generated run frame for a stream of `observables` observables: valid
/// runs, and runs with stray bits, a word too many, a zero `count` or an
/// overflowing `seq + count`.
fn run_frame(rng: &mut Rng, observables: usize) -> Vec<u8> {
    let count = *rng.pick(&[1u64, 3, 64, 65, 130]);
    let per_observable = count.div_ceil(64);
    let words = per_observable as usize * observables + usize::from(rng.chance(5));
    let planes: Vec<u64> = (0..words as u64)
        .map(|at| {
            let shots_in_word = (count - 64 * (at % per_observable)).min(64);
            if rng.chance(3) {
                rng.word()
            } else {
                rng.next() & u64::MAX >> (64 - shots_in_word)
            }
        })
        .collect();
    let seq = *rng.pick(&[0, 1000, u64::MAX - 64, u64::MAX]);
    let count = if rng.chance(3) { 0 } else { count };
    let mut out = Vec::new();
    push_frame(&mut out, RUN, rng.next(), |out| {
        push_word(out, seq);
        push_word(out, count);
        planes.iter().for_each(|&word| push_word(out, word));
    });
    out
}

/// Every prefix of `frame` when `truncations` (each must yield no
/// message), then the hostile variants: two seeded byte flips, a wrong
/// kind byte, a header word count one off either way, a wrong first
/// payload word (a block's shot count, an index frame's detector count, a
/// run's `seq`) — and `frame` itself.
fn variants(frame: &[u8], rng: &mut Rng, truncations: bool) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let prefixes = if truncations {
        (0..frame.len()).map(|end| frame[..end].to_vec()).collect()
    } else {
        Vec::new()
    };
    let mut cases = Vec::new();
    for _ in 0..2 {
        let mut flipped = frame.to_vec();
        flipped[rng.below(frame.len())] ^= 1 << rng.below(8);
        cases.push(flipped);
    }
    let mut kind = frame.to_vec();
    kind[0] = *rng.pick(&[WORD_BLOCKS, INDEX_FRAMES, RUN, 0x00, 0x04, b'{', b'\n']);
    cases.push(kind);
    let words = u32::from_le_bytes(frame[9..HEADER_BYTES].try_into().expect("a header"));
    for claim in [words.wrapping_sub(1), words + 1] {
        let mut claimed = frame.to_vec();
        claimed[9..HEADER_BYTES].copy_from_slice(&claim.to_le_bytes());
        cases.push(claimed);
    }
    if frame.len() > HEADER_BYTES {
        let mut first = frame.to_vec();
        let word: u64 = *rng.pick(&[0, 65, 1 << 32, u64::MAX]);
        first[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&word.to_le_bytes());
        cases.push(first);
    }
    cases.push(frame.to_vec());
    (prefixes, cases)
}

/// What the reader made of the cases: messages read back exactly, refused
/// whole, or taken as (malformed) command lines.
#[derive(Debug, Default)]
struct Tally {
    read: usize,
    refused: usize,
    lines: usize,
}

#[test]
fn request_frames_are_refused_whole_or_read_back_exactly() {
    let mut inbox = Inbox::default();
    let mut rng = Rng(0x5eed_0066);
    let mut buffers = FrameBuffers::default();
    let mut tally = Tally::default();
    for case in 0..3_000 {
        let (frame, detectors) = request_frame(&mut rng);
        // Every truncation of the first valid frames.
        let (prefixes, cases) = variants(&frame, &mut rng, case < 400);
        for prefix in prefixes {
            read_messages(&mut inbox, &prefix, 1 + rng.below(16), |message| {
                panic!("a truncated frame gave {message:?}")
            })
            .expect("within the cap");
        }
        for bytes in cases {
            let piece = *rng.pick(&[1, 5, 13, 4096]);
            let read = read_messages(&mut inbox, &bytes, piece, |message| {
                let Message::Frame(frame) = message else {
                    tally.lines += 1;
                    return;
                };
                if buffers.read(&frame, detectors).is_err() {
                    tally.refused += 1;
                    return;
                }
                let mut again = Vec::new();
                if frame.kind == WORD_BLOCKS {
                    let blocks: Vec<(Vec<u64>, usize)> = buffers
                        .blocks()
                        .map(|block| (block.planes.to_vec(), block.count))
                        .collect();
                    push_blocks_frame(&mut again, frame.stream, &blocks);
                } else {
                    let frames: Vec<Vec<usize>> = buffers.frames().map(<[usize]>::to_vec).collect();
                    push_index_frame(&mut again, frame.stream, &frames);
                }
                assert_eq!(again, frame_bytes(&frame), "{bytes:?}");
                tally.read += 1;
            });
            // A flipped header byte may claim more than the cap.
            tally.refused += usize::from(read.is_err());
        }
    }
    // The generator reaches every outcome, not only the refusals.
    assert!(tally.read > 8_000, "{tally:?}");
    assert!(tally.refused > 4_000, "{tally:?}");
    assert!(tally.lines > 300, "{tally:?}");
}

#[test]
fn run_frames_are_refused_whole_or_read_back_exactly() {
    let mut inbox = Inbox::default();
    let mut rng = Rng(0x7e11_0066);
    let mut tally = Tally::default();
    for case in 0..3_000 {
        let observables = case % 4;
        let frame = run_frame(&mut rng, observables);
        let (prefixes, cases) = variants(&frame, &mut rng, case < 40);
        for prefix in prefixes {
            read_messages(&mut inbox, &prefix, 1 + rng.below(16), |message| {
                panic!("a truncated frame gave {message:?}")
            })
            .expect("within the cap");
        }
        for bytes in cases {
            let piece = *rng.pick(&[1, 5, 13, 4096]);
            let read = read_messages(&mut inbox, &bytes, piece, |message| {
                let Message::Frame(frame) = message else {
                    tally.lines += 1;
                    return;
                };
                let run = (frame.kind == RUN)
                    .then(|| read_run(frame.payload, observables).ok())
                    .flatten();
                let Some(run) = run else {
                    tally.refused += 1;
                    return;
                };
                let mut again = Vec::new();
                push_run_frame(&mut again, frame.stream, observables, &run);
                assert_eq!(again, frame_bytes(&frame), "{bytes:?}");
                tally.read += 1;
            });
            tally.refused += usize::from(read.is_err());
        }
    }
    assert!(tally.read > 5_000, "{tally:?}");
    assert!(tally.refused > 8_000, "{tally:?}");
}

/// Command lines read as the vendored `serde_json` reads them: a
/// well-formed non-object is a command without fields (so an unknown
/// command), and a line nested past the parser's limit, or not UTF-8, is
/// not JSON. The limit's exact boundary is pinned in the shim's own tests.
#[test]
fn non_object_and_deeply_nested_lines() {
    for line in ["5", "[1,2]", r#""cmd""#, "null", " [ ] "] {
        let request = parse_line(line.as_bytes()).expect("well-formed JSON");
        assert!(request.get("cmd").is_none(), "{line:?}");
    }
    let nested = |depth: usize| {
        let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        format!(r#"{{"cmd":"ping","x":{arrays}}}"#).into_bytes()
    };
    // The object is one level of the limit.
    assert!(parse_line(&nested(127)).is_some());
    assert!(parse_line(&nested(128)).is_none());
    assert!(parse_line(&nested(200_000)).is_none());
    assert!(parse_line(b"{\"cmd\":\"\xff\"}").is_none());
}

/// Lines and frames interleave in one inbox; a line ends at its newline
/// whatever follows, and the cap refuses a line once `MAX_LINE_BYTES + 1`
/// bytes hold no newline and a frame as soon as its header claims more.
#[test]
fn an_inbox_splits_lines_and_frames_and_refuses_past_the_cap() {
    let mut inbox = Inbox::default();
    let mut bytes = b"{\"cmd\":\"ping\"}\n".to_vec();
    push_index_frame(&mut bytes, 7, &[vec![1, 2], vec![]]);
    bytes.extend_from_slice(b"\r\n{}\n");
    let mut seen = Vec::new();
    read_messages(&mut inbox, &bytes, 3, |message| {
        seen.push(match message {
            Message::Line(line) => String::from_utf8_lossy(line).into_owned(),
            Message::Frame(frame) => format!("frame {} {:?}", frame.stream, frame.payload.len()),
        });
    })
    .expect("within the cap");
    assert_eq!(seen, [r#"{"cmd":"ping"}"#, "frame 7 32", "\r", "{}"]);

    let mut line = vec![b'x'; MAX_LINE_BYTES];
    assert_eq!(read_messages(&mut inbox, &line, READ_BYTES, |_| {}), Ok(()));
    line.push(b'\n');
    let mut lines = 0;
    assert_eq!(
        read_messages(&mut inbox, &line, READ_BYTES, |_| lines += 1),
        Ok(())
    );
    assert_eq!(lines, 1, "a line of exactly the cap is read");
    line.insert(0, b'x');
    assert_eq!(
        read_messages(&mut inbox, &line, READ_BYTES, |_| {}),
        Err(TooLong)
    );

    let largest = ((MAX_LINE_BYTES - HEADER_BYTES) / 8) as u32;
    for (words, verdict) in [(largest, Ok(())), (largest + 1, Err(TooLong))] {
        let mut header = vec![WORD_BLOCKS];
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&words.to_le_bytes());
        assert_eq!(
            read_messages(&mut inbox, &header, 1, |_| {}),
            verdict,
            "{words} words"
        );
    }
}

#[test]
fn encoded_requests_read_back_exactly() {
    let mut rng = Rng(0xc0de_0066);
    let mut buffers = FrameBuffers::default();
    let edge_bursts = [
        (vec![], 3),
        (vec![(vec![], 1)], 0),
        (vec![(vec![u64::MAX; 3], 64), (vec![0, 1, u64::MAX], 1)], 3),
    ];
    let random_bursts = (0..200).map(|_| {
        let detectors = rng.below(40);
        let blocks = (0..rng.below(5))
            .map(|_| {
                let planes = (0..detectors).map(|_| rng.word()).collect();
                let any = 1 + rng.below(64);
                (planes, *rng.pick(&[1, 64, any]))
            })
            .collect::<Vec<(Vec<u64>, usize)>>();
        (blocks, detectors)
    });
    for (case, (blocks, detectors)) in edge_bursts.into_iter().chain(random_bursts).enumerate() {
        let stream = [0, u64::MAX, case as u64][case % 3];
        let mut bytes = Vec::new();
        push_blocks_frame(&mut bytes, stream, &blocks);
        // The header the module doc specifies.
        let words = blocks.len() * (1 + detectors);
        assert_eq!(bytes.len(), HEADER_BYTES + 8 * words);
        assert_eq!(bytes[0], WORD_BLOCKS);
        assert_eq!(bytes[1..9], stream.to_le_bytes());
        assert_eq!(bytes[9..13], (words as u32).to_le_bytes());
        only_frame(&bytes, |frame| {
            assert_eq!((frame.kind, frame.stream), (WORD_BLOCKS, stream));
            buffers.read(frame, detectors).expect("whole blocks");
            let read: Vec<(Vec<u64>, usize)> = buffers
                .blocks()
                .map(|block| (block.planes.to_vec(), block.count))
                .collect();
            assert_eq!(read, blocks);
        });
    }

    let edge_frames = [
        vec![],
        vec![vec![]],
        vec![vec![usize::MAX, 0], vec![], vec![7]],
    ];
    let random_frames = (0..200).map(|_| {
        (0..rng.below(6))
            .map(|_| (0..rng.below(8)).map(|_| rng.below(10_000)).collect())
            .collect::<Vec<Vec<usize>>>()
    });
    for (case, frames) in edge_frames.into_iter().chain(random_frames).enumerate() {
        let mut bytes = Vec::new();
        push_index_frame(&mut bytes, case as u64, &frames);
        let words: usize = frames.iter().map(|fired| 1 + fired.len()).sum();
        assert_eq!(bytes.len(), HEADER_BYTES + 8 * words);
        assert_eq!(bytes[0], INDEX_FRAMES);
        only_frame(&bytes, |frame| {
            assert_eq!((frame.kind, frame.stream), (INDEX_FRAMES, case as u64));
            // The detector count of the stream matters to word blocks only.
            buffers.read(frame, 0).expect("whole frames");
            let read: Vec<Vec<usize>> = buffers.frames().map(<[usize]>::to_vec).collect();
            assert_eq!(read, frames);
        });
    }
}

#[test]
fn encoded_run_lines_read_back_exactly() {
    let mut rng = Rng(0x0b5e_0066);
    for case in 0..300 {
        let observables = case % 4;
        let any = 1 + rng.below(200);
        let count = *rng.pick(&[1, 63, 64, 65, 130, any]);
        let mask = (1u64 << observables) - 1;
        let run = CorrectionRun {
            first_seq: [0, u64::MAX - count as u64, rng.next() >> 1][case % 3],
            flips: (0..count).map(|_| rng.next() & mask).collect(),
        };
        let stream = rng.next();
        let mut bytes = Vec::new();
        push_run_frame(&mut bytes, stream, observables, &run);
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 8 * (2 + observables * count.div_ceil(64))
        );
        only_frame(&bytes, |frame| {
            assert_eq!((frame.kind, frame.stream), (RUN, stream));
            assert_eq!(read_run(frame.payload, observables), Ok(run.clone()));
        });
    }
}
