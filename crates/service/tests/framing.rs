//! Property tests for the fragmented-read protocol framing.
//!
//! The server's event loop receives request lines in whatever byte
//! fragments the kernel delivers — one byte at a time in the worst case — and
//! reassembles them with [`LineBuffer`]. These properties pin the framing
//! invariants the server relies on:
//!
//! * any fragmentation of a byte stream yields exactly the original lines,
//!   in order, with nothing left buffered;
//! * an unterminated line longer than the cap is always rejected, however
//!   it was fragmented;
//! * a live server answers a pipelined request stream correctly
//!   regardless of how the writes were split.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use ringrt_net::LineBuffer;
use ringrt_service::{spawn, ServiceConfig, MAX_LINE_BYTES};

/// Cuts `stream` at the (projected, sorted) cut points and feeds the
/// fragments through a [`LineBuffer`], returning every line extracted.
fn feed_fragmented(
    stream: &[u8],
    cuts: &[proptest::sample::Index],
    max_line: usize,
) -> Result<(Vec<Vec<u8>>, bool), ringrt_net::LineTooLong> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|i| i.index(stream.len().max(1)).min(stream.len()))
        .collect();
    points.sort_unstable();
    points.push(stream.len());
    let mut lb = LineBuffer::new(max_line);
    let mut got = Vec::new();
    let mut prev = 0;
    for p in points {
        lb.extend(&stream[prev..p]);
        prev = p;
        while let Some(line) = lb.next_line()? {
            got.push(line.into_owned().into_bytes());
        }
    }
    Ok((got, lb.has_partial()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random lines, random split points: reassembly is exact and total.
    #[test]
    fn any_fragmentation_reassembles_the_original_lines(
        lines in prop::collection::vec(prop::collection::vec(97u8..123, 0..40), 1..16),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..32),
    ) {
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line);
            stream.push(b'\n');
        }
        let (got, partial) = feed_fragmented(&stream, &cuts, MAX_LINE_BYTES).expect("within cap");
        prop_assert_eq!(got, lines);
        prop_assert!(!partial, "fully terminated stream must leave nothing buffered");
    }

    /// Byte-at-a-time delivery is just the finest fragmentation; a trailing
    /// unterminated fragment stays buffered as a partial line.
    #[test]
    fn byte_at_a_time_with_trailing_partial(
        lines in prop::collection::vec(prop::collection::vec(32u8..127, 0..24), 1..8),
        tail in prop::collection::vec(32u8..127, 0..24),
    ) {
        let mut lb = LineBuffer::new(MAX_LINE_BYTES);
        let mut got = Vec::new();
        for line in &lines {
            for &b in line {
                lb.extend(&[b]);
                prop_assert_eq!(lb.next_line().expect("within cap"), None);
            }
            lb.extend(b"\n");
            let out = lb.next_line().expect("within cap").expect("line complete");
            got.push(out.into_owned().into_bytes());
        }
        prop_assert_eq!(&got, &lines);
        for &b in &tail {
            lb.extend(&[b]);
        }
        prop_assert_eq!(lb.has_partial(), !tail.is_empty());
        prop_assert_eq!(lb.pending_bytes(), tail.len());
    }

    /// However an oversized unterminated line is fragmented, the buffer
    /// rejects it no later than the first full-stream pass — it never
    /// buffers past the cap waiting for a newline that may never come.
    #[test]
    fn oversized_lines_are_always_rejected(
        cap in 8usize..64,
        excess in 1usize..64,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let stream = vec![b'x'; cap + excess];
        let result = feed_fragmented(&stream, &cuts, cap);
        prop_assert!(result.is_err(), "{} bytes past a {} cap must be rejected", excess, cap);
    }

    /// A terminated line exactly at the cap survives any fragmentation;
    /// one byte more never does.
    #[test]
    fn cap_boundary_is_exact(
        cap in 4usize..64,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let mut at_cap = vec![b'y'; cap];
        at_cap.push(b'\n');
        let (got, _) = feed_fragmented(&at_cap, &cuts, cap).expect("at-cap line is legal");
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].len(), cap);

        let mut over = vec![b'y'; cap + 1];
        over.push(b'\n');
        prop_assert!(feed_fragmented(&over, &cuts, cap).is_err());
    }
}

/// Sends `payload` to a live server in the given fragment sizes, then
/// reads `responses` lines back.
fn roundtrip_fragmented(payload: &[u8], sizes: &[usize], responses: usize) -> Vec<String> {
    let server = spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 8,
        ..ServiceConfig::default()
    })
    .expect("spawn server");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut offset = 0;
    for &size in sizes.iter().cycle() {
        if offset >= payload.len() {
            break;
        }
        let end = (offset + size.max(1)).min(payload.len());
        writer
            .write_all(&payload[offset..end])
            .expect("send fragment");
        writer.flush().expect("flush fragment");
        offset = end;
    }
    let mut reader = BufReader::new(stream);
    let mut got = Vec::new();
    for _ in 0..responses {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        got.push(line.trim_end().to_owned());
    }
    drop(reader);
    server.join();
    got
}

/// The whole stack: a pipelined request stream split into odd-sized
/// fragments still parses frame by frame, however the loop sees them
/// arrive.
#[test]
fn server_parses_fragmented_pipelines() {
    let payload = b"PING\nCHECK mbps=16 set=20,20000\nBATCH 2\nPING\nPING\nPING\n";
    for sizes in [&[1usize][..], &[3, 1, 7][..], &[64][..]] {
        let got = roundtrip_fragmented(payload, sizes, 5);
        assert_eq!(got[0], "OK cmd=ping", "sizes {sizes:?}");
        assert!(
            got[1].starts_with("OK cmd=check"),
            "sizes {sizes:?}: {}",
            got[1]
        );
        assert_eq!(
            &got[2..],
            ["OK cmd=ping", "OK cmd=ping", "OK cmd=ping"],
            "sizes {sizes:?}"
        );
    }
}
