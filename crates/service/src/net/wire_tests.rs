//! The wire readers against an independent reference: on generated,
//! shuffled, repeated, escaped, truncated, mutated and type-confused lines,
//! the request reader and the run-line reader must agree with
//! `serde_json::from_str` plus `Value` accessors — the way both ends read
//! these lines before the field reader — on accept or reject and on
//! everything they extract. And every line the two ends encode must read
//! back as exactly what was encoded.

use serde_json::{json, Value};

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

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
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

/// Values of every JSON type, well-formed or not, that a field reader
/// could mistake for the one it wants.
const CONFUSED: &[&str] = &[
    "1.5",
    "-1",
    "-0",
    "-00",
    "007",
    r#""7""#,
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "-9223372036854775809",
    "1e3",
    "1E+2",
    "-.5",
    "1.",
    "-",
    "1.2.3",
    "01e",
    "2-",
    "+1",
    ".5",
    "nul",
    "null",
    "true",
    "false",
    "[]",
    "{}",
    "[-0]",
    "[0.0]",
    "[1,]",
    r#"{"a"}"#,
    "[1,[2,[3,{}]]]",
    r#"{"x":[1,{"y":null}],"count":3}"#,
    r#""A""#,
    r#""é\t""#,
    r#""\q""#,
    r#""😀""#,
    r#""\ud800A""#,
    r#""\ud800\u0041""#,
    r#""\u+041""#,
    r#""a\"b""#,
    r#""é""#,
    r#""unterminated"#,
];

/// One line under construction: each field's raw JSON key and raw value.
type RawFields = Vec<(String, String)>;

/// Quotes `key`, sometimes writing one of its letters as a `\u` escape
/// (`"cmd"` reads as `cmd`).
fn quote_key(key: &str, rng: &mut Rng) -> String {
    if key.is_empty() || !rng.chance(15) {
        return format!("\"{key}\"");
    }
    let at = rng.below(key.len());
    let letter = key.as_bytes()[at];
    format!("\"{}\\u{:04x}{}\"", &key[..at], letter, &key[at + 1..])
}

/// Renders `fields` as one object, with random whitespace between tokens
/// when `spaced`.
fn render(fields: &[(String, String)], rng: &mut Rng, spaced: bool) -> String {
    const SPACES: &[&str] = &["", "", " ", "\t", "\r", " \n ", "  "];
    let space = |rng: &mut Rng| -> &'static str {
        if spaced {
            SPACES[rng.below(SPACES.len())]
        } else {
            ""
        }
    };
    let mut out = String::from(space(rng));
    out.push('{');
    for (index, (key, value)) in fields.iter().enumerate() {
        if index > 0 {
            out.push_str(space(rng));
            out.push(',');
        }
        out.push_str(space(rng));
        out.push_str(key);
        out.push_str(space(rng));
        out.push(':');
        out.push_str(space(rng));
        out.push_str(value);
    }
    out.push_str(space(rng));
    out.push('}');
    out.push_str(space(rng));
    out
}

/// Orders `fields` as `json!` would (alphabetically by key) or shuffled,
/// sometimes repeats a key earlier with another value, sometimes adds an
/// unknown field, and renders the result.
fn arrange(mut fields: RawFields, rng: &mut Rng) -> String {
    if rng.chance(50) {
        fields.sort();
    } else {
        rng.shuffle(&mut fields);
    }
    if rng.chance(20) && !fields.is_empty() {
        // The earlier value: confused, or well-formed (some field's own).
        let (key, _) = fields[rng.below(fields.len())].clone();
        let value = if rng.chance(50) {
            rng.pick(CONFUSED).to_string()
        } else {
            fields[rng.below(fields.len())].1.clone()
        };
        let at = rng.below(fields.len() + 1);
        fields.insert(at, (key, value));
    }
    if rng.chance(15) {
        let at = rng.below(fields.len() + 1);
        fields.insert(at, (r#""extra""#.into(), rng.pick(CONFUSED).to_string()));
    }
    let spaced = rng.chance(30);
    render(&fields, rng, spaced)
}

fn u64s_text(values: impl IntoIterator<Item = u64>) -> String {
    let values: Vec<String> = values.into_iter().map(|value| value.to_string()).collect();
    format!("[{}]", values.join(","))
}

/// A raw integer array, sometimes with one element type-confused.
fn words_text(count: usize, rng: &mut Rng, word: fn(&mut Rng) -> u64) -> String {
    let mut items: Vec<String> = (0..count).map(|_| word(rng).to_string()).collect();
    if !items.is_empty() && rng.chance(10) {
        let at = rng.below(items.len());
        items[at] = rng.pick(CONFUSED).to_string();
    }
    format!("[{}]", items.join(","))
}

fn detector(rng: &mut Rng) -> u64 {
    rng.below(50) as u64
}

/// A generated request line: mostly frame lines, some commands.
fn request_line(rng: &mut Rng) -> String {
    let key = |name: &str, rng: &mut Rng| quote_key(name, rng);
    let cmd = *rng.pick(&[
        "frames_packed",
        "frames_packed",
        "frames",
        "frame",
        "open",
        "close",
        "metrics",
        "ping",
    ]);
    let mut fields: RawFields = vec![(key("cmd", rng), format!("\"{cmd}\""))];
    if !matches!(cmd, "ping" | "metrics") || rng.chance(10) {
        let stream = if rng.chance(80) {
            rng.below(4).to_string()
        } else {
            rng.pick(CONFUSED).to_string()
        };
        fields.push((key("stream", rng), stream));
    }
    match cmd {
        "frames_packed" => {
            let blocks: Vec<String> = (0..rng.below(4))
                .map(|_| {
                    let count = rng.pick(&["1", "64", "17", "0", "65"]).to_string();
                    let planes = words_text(rng.below(12), rng, Rng::word);
                    let mut block = vec![(key("count", rng), count), (key("planes", rng), planes)];
                    if rng.chance(5) {
                        block.remove(rng.below(2));
                    }
                    arrange(block, rng)
                })
                .collect();
            fields.push((key("blocks", rng), format!("[{}]", blocks.join(","))));
        }
        "frames" => {
            let frames: Vec<String> = (0..rng.below(5))
                .map(|_| words_text(rng.below(5), rng, detector))
                .collect();
            fields.push((key("frames", rng), format!("[{}]", frames.join(","))));
        }
        "frame" => fields.push((
            key("detectors", rng),
            words_text(rng.below(5), rng, detector),
        )),
        "open" => {
            for (name, value) in [
                ("topology", r#""grid""#),
                ("capacity", "2"),
                ("wiring", r#""standard""#),
                ("gate_improvement", "5.0"),
                ("distance", "3"),
                ("decoder", r#""union_find""#),
            ] {
                if rng.chance(80) {
                    fields.push((key(name, rng), value.to_string()));
                }
            }
        }
        "metrics" if rng.chance(50) => fields.push((key("format", rng), r#""text""#.into())),
        _ => {}
    }
    // Type-confuse one field's whole value.
    if rng.chance(15) {
        let at = rng.below(fields.len());
        fields[at].1 = rng.pick(CONFUSED).to_string();
    }
    arrange(fields, rng)
}

/// Flips, inserts or deletes a few bytes, from JSON's own alphabet.
fn mutate(line: &str, rng: &mut Rng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let byte = *rng.pick(b"{}[]\",:0123456789-+.eE \\uatrfnl");
        let at = rng.below(bytes.len() + 1);
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    // Mutations only touch ASCII positions of ASCII lines; a multi-byte
    // character a mutation splits is dropped instead.
    String::from_utf8_lossy(&bytes).replace('\u{fffd}', "")
}

/// The shots a frame line carries.
#[derive(Debug, PartialEq)]
enum Shots {
    Blocks(Vec<(usize, Vec<u64>)>),
    Frames(Vec<Vec<usize>>),
}

/// The `open` fields: topology, capacity, wiring, gate improvement and
/// decoder.
type OpenFields = (String, u64, String, f64, String);

/// Everything the server reads from one request line; `None` for a line
/// that is not JSON.
#[derive(Debug, PartialEq)]
struct Request {
    cmd: String,
    stream: Option<u64>,
    distance: Option<u64>,
    format: Option<String>,
    shots: Option<Result<Shots, String>>,
    open: Option<Result<OpenFields, String>>,
}

/// The server's reader.
fn read_request(line: &str, buffers: &mut FrameBuffers) -> Option<Request> {
    let request = Fields::parse(line).ok()?;
    let cmd = request.str("cmd").unwrap_or_default().into_owned();
    let shots = matches!(&*cmd, "frame" | "frames" | "frames_packed").then(|| {
        buffers.read(&cmd, &request).map(|()| {
            if cmd == "frames_packed" {
                Shots::Blocks(
                    buffers
                        .blocks()
                        .map(|block| (block.count, block.planes.to_vec()))
                        .collect(),
                )
            } else {
                Shots::Frames(buffers.frames().map(<[usize]>::to_vec).collect())
            }
        })
    });
    let open = (cmd == "open").then(|| -> Result<OpenFields, String> {
        Ok((
            optional_field(&request, "topology", raw_str, "grid".into())?.into_owned(),
            optional_field(&request, "capacity", raw_u64, 2)?,
            optional_field(&request, "wiring", raw_str, "standard".into())?.into_owned(),
            optional_field(&request, "gate_improvement", raw_f64, 1.0)?,
            optional_field(&request, "decoder", raw_str, "union_find".into())?.into_owned(),
        ))
    });
    Some(Request {
        stream: request.u64("stream"),
        distance: request.u64("distance"),
        format: request.str("format").map(Cow::into_owned),
        cmd,
        shots,
        open,
    })
}

/// The reference: the whole line parsed into a `Value` tree and read with
/// `Value` accessors.
fn oracle_request(line: &str) -> Option<Request> {
    let request: Value = serde_json::from_str(line).ok()?;
    let cmd = request.get("cmd").and_then(Value::as_str).unwrap_or("");
    let shots = match cmd {
        "frames_packed" => Some(oracle_blocks(request.get("blocks")).map(Shots::Blocks)),
        "frame" => Some(oracle_detectors(request.get("detectors")).map(|f| Shots::Frames(vec![f]))),
        "frames" => Some(
            request
                .get("frames")
                .and_then(Value::as_array)
                .ok_or_else(|| "`frames` must be an array of frames".to_string())
                .and_then(|frames| {
                    frames
                        .iter()
                        .map(|frame| oracle_detectors(Some(frame)))
                        .collect()
                })
                .map(Shots::Frames),
        ),
        _ => None,
    };
    let field = |key: &str| request.get(key);
    let wrong = |key: &str| format!("`{key}` has the wrong type");
    let text = |key: &str, default: &str| match field(key) {
        None => Ok(default.to_string()),
        Some(value) => value.as_str().map(str::to_string).ok_or_else(|| wrong(key)),
    };
    let open = (cmd == "open").then(|| -> Result<OpenFields, String> {
        Ok((
            text("topology", "grid")?,
            field("capacity").map_or(Ok(2), |v| v.as_u64().ok_or_else(|| wrong("capacity")))?,
            text("wiring", "standard")?,
            field("gate_improvement").map_or(Ok(1.0), |v| {
                v.as_f64().ok_or_else(|| wrong("gate_improvement"))
            })?,
            text("decoder", "union_find")?,
        ))
    });
    Some(Request {
        cmd: cmd.to_string(),
        stream: request.get("stream").and_then(Value::as_u64),
        distance: request.get("distance").and_then(Value::as_u64),
        format: request
            .get("format")
            .and_then(Value::as_str)
            .map(str::to_string),
        shots,
        open,
    })
}

fn oracle_detectors(value: Option<&Value>) -> Result<Vec<usize>, String> {
    let list = value
        .and_then(Value::as_array)
        .ok_or("frame detectors must be an array")?;
    list.iter()
        .map(|entry| {
            entry
                .as_u64()
                .map(|d| d as usize)
                .ok_or_else(|| "detector indices must be non-negative integers".to_string())
        })
        .collect()
}

fn oracle_blocks(value: Option<&Value>) -> Result<Vec<(usize, Vec<u64>)>, String> {
    let list = value
        .and_then(Value::as_array)
        .ok_or("`blocks` must be an array of word blocks")?;
    list.iter()
        .map(|block| {
            let count = block
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("a word block needs a `count` of shots")? as usize;
            let planes = block
                .get("planes")
                .and_then(Value::as_array)
                .ok_or("a word block needs a `planes` array")?
                .iter()
                .map(|word| {
                    word.as_u64()
                        .ok_or_else(|| "plane words must be non-negative integers".to_string())
                })
                .collect::<Result<Vec<u64>, String>>()?;
            Ok((count, planes))
        })
        .collect()
}

/// How the client classifies and reads one server line: which of `seq`,
/// `ok` and `async` it has, its stream, and its run.
type RunLine = (
    bool,
    bool,
    bool,
    Option<u64>,
    Result<CorrectionRun, &'static str>,
);

fn read_run_line(line: &str, observables: usize) -> Option<RunLine> {
    let fields = Fields::parse(line).ok()?;
    let has = |key: &str| fields.get(key).is_some();
    Some((
        has("seq"),
        has("ok"),
        has("async"),
        fields.u64("stream"),
        read_run(&fields, observables),
    ))
}

fn oracle_run_line(line: &str, observables: usize) -> Option<RunLine> {
    let value: Value = serde_json::from_str(line).ok()?;
    let has = |key: &str| value.get(key).is_some();
    Some((
        has("seq"),
        has("ok"),
        has("async"),
        value.get("stream").and_then(Value::as_u64),
        oracle_parse_run(&value, observables),
    ))
}

/// The run-line rules as they were written against a `Value`.
fn oracle_parse_run(value: &Value, num_observables: usize) -> Result<CorrectionRun, &'static str> {
    let seq = value
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or("no valid `seq`")?;
    let count = value
        .get("count")
        .and_then(Value::as_u64)
        .filter(|count| (1..=MAX_LINE_BYTES as u64).contains(count))
        .ok_or("`count` must be an integer in 1..=MAX_LINE_BYTES")?;
    if seq.checked_add(count).is_none() {
        return Err("`seq + count` overflows");
    }
    let count = count as usize;
    let words = count.div_ceil(64);
    let planes = value
        .get("planes")
        .and_then(Value::as_array)
        .filter(|planes| planes.len() == words * num_observables)
        .ok_or("`planes` must hold ⌈count/64⌉ words per observable")?;
    let mut flips = vec![0u64; count];
    for (index, word) in planes.iter().enumerate() {
        let (observable, first_shot) = (index / words, 64 * (index % words));
        let mut bits = word.as_u64().ok_or("plane words must be u64 integers")?;
        while bits != 0 {
            let shot = first_shot + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let mask = flips
                .get_mut(shot)
                .ok_or("a plane sets a bit past `count`")?;
            *mask |= 1 << observable;
        }
    }
    Ok(CorrectionRun {
        first_seq: seq,
        flips,
    })
}

/// A generated run line for a stream of `observables` observables: valid
/// runs, wrong word counts, stray bits and confused fields.
fn run_line(rng: &mut Rng, observables: usize) -> String {
    let key = |name: &str, rng: &mut Rng| quote_key(name, rng);
    let count = *rng.pick(&[1u64, 3, 64, 65, 130]);
    let words = count.div_ceil(64) as usize * observables + usize::from(rng.chance(5));
    let planes: Vec<u64> = (0..words)
        .map(|index| {
            let shots_in_word = (count - 64 * (index as u64 % count.div_ceil(64))).min(64);
            let valid = u64::MAX >> (64 - shots_in_word);
            if rng.chance(3) {
                rng.word()
            } else {
                rng.next() & valid
            }
        })
        .collect();
    let mut fields: RawFields = vec![
        (key("stream", rng), rng.below(3).to_string()),
        (
            key("seq", rng),
            rng.pick(&["0", "1000", "18446744073709551615"]).to_string(),
        ),
        (key("count", rng), count.to_string()),
        (key("planes", rng), u64s_text(planes)),
    ];
    if rng.chance(10) {
        let extra = rng.pick(&["ok", "async", "error"]).to_string();
        fields.push((key(&extra, rng), rng.pick(CONFUSED).to_string()));
    }
    if rng.chance(15) {
        let at = rng.below(fields.len());
        fields[at].1 = rng.pick(CONFUSED).to_string();
    }
    arrange(fields, rng)
}

/// Every line's prefixes, then the case itself and a few mutants of it.
fn variants(line: String, rng: &mut Rng, truncations: bool) -> Vec<String> {
    let mut cases: Vec<String> = if truncations {
        (0..line.len())
            .filter(|&end| line.is_char_boundary(end))
            .map(|end| line[..end].to_string())
            .collect()
    } else {
        Vec::new()
    };
    for _ in 0..2 {
        cases.push(mutate(&line, rng));
    }
    cases.push(line);
    cases
}

#[test]
fn request_reader_agrees_with_the_value_tree_reader() {
    let mut rng = Rng(0x5eed_0032);
    let mut buffers = FrameBuffers::default();
    let (mut accepted_shots, mut refused_shots, mut malformed) = (0, 0, 0);
    for case in 0..3_000 {
        let line = request_line(&mut rng);
        // Every truncation of the first valid `frames_packed` lines.
        let truncations = case < 400 && line.contains("frames_packed");
        for line in variants(line, &mut rng, truncations) {
            let read = read_request(&line, &mut buffers);
            assert_eq!(read, oracle_request(&line), "request line {line:?}");
            match read.and_then(|request| request.shots) {
                None => malformed += 1,
                Some(Ok(_)) => accepted_shots += 1,
                Some(Err(_)) => refused_shots += 1,
            }
        }
    }
    // The generator reaches every outcome, not only the refusals.
    assert!(accepted_shots > 800, "{accepted_shots} frame lines read");
    assert!(refused_shots > 300, "{refused_shots} frame lines refused");
    assert!(
        malformed > 15_000,
        "{malformed} lines not JSON or not frames"
    );
}

#[test]
fn run_line_reader_agrees_with_the_value_tree_reader() {
    let mut rng = Rng(0x7e11_0032);
    let (mut runs, mut refused) = (0, 0);
    for case in 0..3_000 {
        let observables = case % 4;
        let line = run_line(&mut rng, observables);
        for line in variants(line, &mut rng, case < 40) {
            let read = read_run_line(&line, observables);
            assert_eq!(
                read,
                oracle_run_line(&line, observables),
                "run line {line:?}"
            );
            match read.map(|read| read.4) {
                Some(Ok(_)) => runs += 1,
                Some(Err(_)) => refused += 1,
                None => {}
            }
        }
    }
    assert!(runs > 1_400, "{runs} runs read");
    assert!(refused > 1_800, "{refused} run lines refused");
}

#[test]
fn non_object_and_deeply_nested_lines() {
    let mut buffers = FrameBuffers::default();
    // Well-formed non-objects read as objects without fields, as `get` on
    // a non-object `Value` does.
    for line in ["5", "[1,2]", r#""cmd""#, "null", " [ ] "] {
        let read = read_request(line, &mut buffers);
        assert_eq!(read, oracle_request(line), "{line:?}");
        assert_eq!(read.map(|request| request.cmd), Some(String::new()));
    }
    // Nesting past the limit is refused without recursing through it.
    let deep = "[".repeat(200_000);
    assert!(Fields::parse(&deep).is_err());
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(Fields::parse(&nested(MAX_DEPTH)).is_ok());
    assert!(Fields::parse(&nested(MAX_DEPTH + 1)).is_err());
}

#[test]
fn encoded_requests_read_back_exactly() {
    let mut rng = Rng(0xc0de_0032);
    let mut buffers = FrameBuffers::default();
    let mut line = String::new();
    let edge_bursts = [
        vec![],
        vec![(vec![], 1)],
        vec![(vec![u64::MAX; 3], 64), (vec![0, 1, u64::MAX], 1)],
    ];
    let random_bursts = (0..200).map(|_| {
        (0..rng.below(5))
            .map(|_| {
                let planes = (0..rng.below(40)).map(|_| rng.word()).collect();
                let any = 1 + rng.below(64);
                (planes, *rng.pick(&[1, 64, any]))
            })
            .collect::<Vec<(Vec<u64>, usize)>>()
    });
    for (case, blocks) in edge_bursts.into_iter().chain(random_bursts).enumerate() {
        let stream = [0, u64::MAX, case as u64][case % 3];
        line.clear();
        push_packed_line(&mut line, stream, &blocks);
        let read = read_request(&line, &mut buffers).expect("an encoded line is JSON");
        assert_eq!(
            (read.cmd.as_str(), read.stream),
            ("frames_packed", Some(stream))
        );
        let expected = blocks
            .iter()
            .map(|(planes, count)| (*count, planes.clone()));
        assert_eq!(read.shots, Some(Ok(Shots::Blocks(expected.collect()))));
        let blocks_json: Vec<Value> = blocks
            .iter()
            .map(|(planes, count)| json!({"count": count, "planes": planes}))
            .collect();
        let tree = json!({"cmd": "frames_packed", "stream": stream, "blocks": blocks_json});
        assert_eq!(serde_json::from_str(&line).ok(), Some(tree), "{line}");
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
        line.clear();
        push_frames_line(&mut line, case as u64, &frames);
        let read = read_request(&line, &mut buffers).expect("an encoded line is JSON");
        assert_eq!(
            (read.cmd.as_str(), read.stream),
            ("frames", Some(case as u64))
        );
        assert_eq!(read.shots, Some(Ok(Shots::Frames(frames.clone()))));
        let tree = json!({"cmd": "frames", "stream": case as u64, "frames": frames});
        assert_eq!(serde_json::from_str(&line).ok(), Some(tree), "{line}");
    }
}

#[test]
fn encoded_run_lines_read_back_exactly() {
    let mut rng = Rng(0x0b5e_0032);
    let mut line = String::new();
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
        line.clear();
        push_run_line(&mut line, stream, observables, &run);
        let read = read_run_line(line.trim_end(), observables);
        assert_eq!(
            read,
            Some((true, false, false, Some(stream), Ok(run))),
            "{line}"
        );
    }
}
