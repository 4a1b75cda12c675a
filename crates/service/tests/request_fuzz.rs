//! No request line panics the parser, the cache key or the event loop's
//! inline `CHECK`. Random lines over the protocol's alphabet, and valid
//! lines of every kind cut at a byte, with one byte flipped or with one
//! record doubled, go through `parse_request`. Every line that parses as
//! an analysis also goes through `CacheKey::for_request` and
//! `engine::execute_check` with a small budget.
//!
//! The vendored proptest does not shrink, so a failure names the case's
//! seed and the line; `case(seed)` replays it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_core::rm::Budget;
use ringrt_service::engine::execute_check;
use ringrt_service::{parse_request, CacheKey, Request};

/// Words, keys and characters a request line is made of.
const ALPHABET: [&str; 60] = [
    "CHECK ",
    "check ",
    "SIMULATE ",
    "SATURATION ",
    "ABU ",
    "ADMIT ",
    "BATCH ",
    "TRACE ",
    "STATS ",
    "SHOW ",
    "REGISTER ",
    "PING",
    " mbps=",
    " set=",
    " protocol=",
    " stations=",
    " seconds=",
    " async_load=",
    " seed=",
    " deadline_ms=",
    " ring=",
    " stream=",
    " period_ms=",
    " bits=",
    " samples=",
    "fddi",
    "802.5",
    "modified",
    "lab",
    "0",
    "1",
    "2",
    "5",
    "9",
    "16",
    "20",
    "1000",
    ".",
    "e",
    "+",
    "-",
    ";",
    ",",
    "#",
    "=",
    "inf",
    "NaN",
    "1e-323",
    "1e308",
    "18446744073709551615",
    " ",
    "\t",
    "\u{b}",
    "\r",
    "\u{a0}",
    "\u{3000}",
    "\u{2028}",
    "µ",
    "x",
    "",
];

/// A valid line of each kind, for the mutations to start from.
const VALID: [&str; 8] = [
    "CHECK mbps=16 set=20,20000;50,60000 protocol=fddi",
    "CHECK mbps=4 set=20.5,1000;30,1000;40,1000 stations=2 protocol=802.5",
    "SATURATION mbps=100 set=20,1000;40,2000 protocol=fddi",
    "SIMULATE mbps=4 set=20,4000;30,2000 seconds=0.01 seed=3 protocol=modified",
    "ABU mbps=100 stations=8 samples=2 seed=9 protocol=fddi",
    "ADMIT ring=lab stream=cam period_ms=20 bits=1000 deadline_ms=7.5",
    "BATCH 3",
    "CHECK ring=lab deadline_ms=5",
];

fn random_line(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..24))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// A valid line cut at a byte, with one byte flipped, or with one of its
/// set's records doubled. Bytes that are no longer UTF-8 become U+FFFD,
/// as a lossy reader would make them.
fn mutated_line(rng: &mut StdRng) -> String {
    let line = VALID[rng.gen_range(0..VALID.len())];
    let mut bytes = line.as_bytes().to_vec();
    match rng.gen_range(0..3) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        _ => {
            let Some(from) = line.find("set=").map(|i| i + 4) else {
                return line.to_owned();
            };
            let to = line[from..].find(' ').map_or(line.len(), |i| from + i);
            let records: Vec<&str> = line[from..to].split(';').collect();
            let doubled = records[rng.gen_range(0..records.len())];
            let mut set = records.join(";");
            set.insert_str(0, &format!("{doubled};"));
            return format!("{}{set}{}", &line[..from], &line[to..]);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs one line through every step a `CHECK` takes before its reply.
fn exercise(line: &str) {
    if let Ok(Request::Analysis(req)) = parse_request(line) {
        let _ = CacheKey::for_request(&req);
        let _ = execute_check(&req, &mut Budget::terms(64));
    }
}

fn case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..4 {
        let line = if rng.gen_range(0..2) == 0 {
            random_line(&mut rng)
        } else {
            mutated_line(&mut rng)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| exercise(&line)));
        assert!(outcome.is_ok(), "seed {seed}: {line:?} panicked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn no_request_line_panics(seed in any::<u64>()) {
        case(seed);
    }
}

/// The lines reach analyses, errors and the inputs that used to panic.
#[test]
fn the_lines_reach_analyses_and_errors() {
    let (mut analyses, mut errors) = (0, 0);
    for seed in 0..200 {
        let mut rng = StdRng::seed_from_u64(seed);
        for line in [random_line(&mut rng), mutated_line(&mut rng)] {
            match parse_request(&line) {
                Ok(Request::Analysis(_)) => analyses += 1,
                Err(_) => errors += 1,
                Ok(_) => {}
            }
        }
    }
    assert!(
        analyses > 20 && errors > 20,
        "{analyses} analyses, {errors} errors"
    );
    let err = parse_request("CHECK mbps=16 set=1e-323,100").unwrap_err();
    assert!(err.ends_with("rounds to zero seconds"), "{err}");
}
