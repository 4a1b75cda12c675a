//! The one set scanner, `ringrt_model::setfmt::scan_message_set`, against
//! the two-pass parser it replaced, kept here only as the oracle. For set
//! files and for the wire's `set=`, both must accept or both refuse, with
//! equal sets and equal error texts, and a `CHECK` must get the cache key
//! of the oracle's set in any station order.
//!
//! The vendored proptest does not shrink, so every assertion names the
//! case's seed; `case(seed)` replays it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_model::setfmt::{scan_message_set, Records};
use ringrt_model::{parse_message_set, MessageSet, ParseSetError, SyncStream};
use ringrt_service::{parse_request, AnalysisRequest, CacheKey, Request};
use ringrt_units::{Bits, Seconds};

/// The replaced parser, unchanged but for the `SyncStream` constructor: it
/// split lines, cut comments, collected each record's fields into a `Vec`
/// and read them with `str::parse`. The wire called it on the `set=` text
/// with every `;` replaced by a newline. (It panicked on a period that
/// rounds to zero seconds; the scanner refuses one, so the oracle skips it.)
fn oracle(text: &str) -> Option<Result<MessageSet, ParseSetError>> {
    let mut streams = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|f| !f.is_empty())
            .collect();
        let bad = |reason: String| {
            Some(Err(ParseSetError::BadLine {
                line: line_no,
                reason,
            }))
        };
        if fields.len() != 2 {
            return bad(format!(
                "expected `period_ms, payload_bits`, found {} field(s)",
                fields.len()
            ));
        }
        let Ok(period_ms) = fields[0].parse::<f64>() else {
            return bad(format!("cannot parse period `{}` as a number", fields[0]));
        };
        let Ok(bits) = fields[1].parse::<u64>() else {
            return bad(format!(
                "cannot parse payload `{}` as an integer bit count",
                fields[1]
            ));
        };
        if !(period_ms.is_finite() && period_ms > 0.0) {
            return bad(format!("period must be positive, got {period_ms} ms"));
        }
        if bits == 0 {
            return bad("payload must be at least one bit".into());
        }
        streams.push(SyncStream::try_new(Seconds::from_millis(period_ms), Bits::new(bits)).ok()?);
    }
    if streams.is_empty() {
        return Some(Err(ParseSetError::Empty));
    }
    Some(MessageSet::new(streams).map_err(ParseSetError::Invalid))
}

/// Numbers as clients write them, the std grammar's corners, and values
/// at the edges of `f64` and `u64`.
const NUMBERS: [&str; 28] = [
    "20",
    "1000",
    "123.456",
    "0.5",
    ".5",
    "5.",
    "007",
    "0",
    "0.000",
    "+5",
    "-3",
    "1e3",
    "2E-1",
    "inf",
    "-Infinity",
    "NaN",
    ".",
    "1.2.3",
    "999999999999999",
    "1234567890.123456",
    "0.1234567890123456789",
    "18446744073709551615",
    "18446744073709551616",
    "1e308",
    "1e-323",
    "4e-321",
    "1e-7",
    "99999999999999999999",
];

/// Field separators, including whitespace only `char::is_whitespace`
/// knows.
const SEPARATORS: [&str; 9] = [
    ",",
    ",",
    ", ",
    " ",
    "\t",
    "\u{b}",
    "\r",
    "\u{a0}",
    ",\u{3000}",
];

/// Anything else a record may hold.
const JUNK: [&str; 9] = ["#", "#x", "#;", "x", "e", "µ", ";", "=", "\u{2028}"];

/// One record: `period sep payload`, and in a noisy text sometimes
/// blanks, a comment, another field count or a corner-case token.
fn record(rng: &mut StdRng, noisy: bool, out: &mut String) {
    let pick = |rng: &mut StdRng, from: &[&'static str]| from[rng.gen_range(0..from.len())];
    let odd = |rng: &mut StdRng, one_in: u32| noisy && rng.gen_range(0..one_in) == 0;
    if odd(rng, 8) {
        out.push_str(pick(rng, &["", " ", "\t", ",", "# note"]));
        return;
    }
    if odd(rng, 6) {
        out.push_str(pick(rng, &SEPARATORS));
    }
    let plain = |rng: &mut StdRng, field: u32| {
        if field == 0 && rng.gen_range(0..2) == 0 {
            format!(
                "{}.{:03}",
                rng.gen_range(1..100_000),
                rng.gen_range(0..1000)
            )
        } else {
            rng.gen_range(1..10_000_000u64).to_string()
        }
    };
    let fields: u32 = if odd(rng, 8) { rng.gen_range(0..4) } else { 2 };
    for k in 0..fields {
        if k > 0 {
            out.push_str(pick(rng, &SEPARATORS));
        }
        if odd(rng, 4) {
            out.push_str(pick(rng, &NUMBERS));
        } else {
            out.push_str(&plain(rng, k));
        }
        if odd(rng, 24) {
            out.push_str(pick(rng, &JUNK));
        }
    }
    if odd(rng, 6) {
        out.push_str(pick(rng, &SEPARATORS));
    }
    if odd(rng, 10) {
        out.push_str(pick(rng, &["#", "# c", "#µ;", "#,1,2"]));
    }
}

/// A text of 0–12 records, each ended by one of `ends` (the first in a
/// clean text), and half the time noisy.
fn text(rng: &mut StdRng, ends: &[&str]) -> String {
    let noisy = rng.gen_range(0..2) == 0;
    let end = |rng: &mut StdRng| {
        ends[if noisy {
            rng.gen_range(0..ends.len())
        } else {
            0
        }]
    };
    let mut out = String::new();
    for k in 0..rng.gen_range(0..=12) {
        if k > 0 {
            out.push_str(end(rng));
        }
        record(rng, noisy, &mut out);
    }
    if rng.gen_range(0..4) == 0 {
        out.push_str(end(rng));
    }
    out
}

fn case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);

    let file = text(&mut rng, &["\n", "\r\n", "\n\n", ";"]);
    if let Some(expected) = oracle(&file) {
        assert_eq!(
            parse_message_set(&file),
            expected,
            "seed {seed}: file {file:?}"
        );
    }

    let wire = text(&mut rng, &[";", ";", ";;", "\n"]);
    if let Some(expected) = oracle(&wire.replace(';', "\n")) {
        assert_eq!(
            scan_message_set(&wire, Records::Semicolons),
            expected,
            "seed {seed}: wire {wire:?}"
        );
        if !wire.contains(char::is_whitespace) {
            check_line(seed, &wire, expected);
        }
    }
}

/// The same `set=` through `parse_request` and `CacheKey::for_request`.
fn check_line(seed: u64, set: &str, expected: Result<MessageSet, ParseSetError>) {
    let line = format!("CHECK mbps=16 set={set}");
    match (parse_request(&line), expected) {
        (Ok(Request::Analysis(req)), Ok(want)) => {
            assert_eq!(req.set, want, "seed {seed}: {line}");
            let reversed = AnalysisRequest {
                set: MessageSet::new(want.as_slice().iter().rev().cloned().collect()).unwrap(),
                ..req.clone()
            };
            assert_eq!(
                CacheKey::for_request(&req),
                CacheKey::for_request(&reversed),
                "seed {seed}: {line}"
            );
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, format!("invalid set: {want}"), "seed {seed}: {line}");
        }
        (got, want) => panic!("seed {seed}: {line}: {got:?} against {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_scanner_reads_every_text_as_the_replaced_parser_did(seed in any::<u64>()) {
        case(seed);
    }
}

/// The drawn texts reach both outcomes and the scanner's general path.
#[test]
fn the_cases_reach_sets_errors_and_every_grammar_case() {
    let (mut sets, mut errors) = (0, 0);
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let file = text(&mut rng, &["\n", "\r\n", "\n\n", ";"]);
        match parse_message_set(&file) {
            Ok(_) => sets += 1,
            Err(_) => errors += 1,
        }
    }
    assert!(sets > 20 && errors > 20, "{sets} sets, {errors} errors");
    for (text, streams) in [
        ("20,,1000;;30,2000,", 2),
        ("20,1000#x;30,2000", 2),
        ("+5,1;1e3,2", 2),
        ("20\u{a0}1000", 1),
    ] {
        let want = oracle(&text.replace(';', "\n")).expect("no zero period");
        assert_eq!(want.as_ref().map(MessageSet::len), Ok(streams), "{text}");
        assert_eq!(scan_message_set(text, Records::Semicolons), want, "{text}");
    }
}
