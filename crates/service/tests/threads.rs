//! No request spawns a thread: STATS `threads` (the server process's
//! entries in `/proc/self/task`) stays put over a run of `ABU`s once the
//! first one has started the execution pool's helper.
//!
//! The server runs in this test binary's process, so this file holds one
//! test: no other test's threads come and go while it counts.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ringrt_service::{spawn, ServiceConfig};

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("STATS lacks `{key}`: {stats}"))
        .parse()
        .expect("numeric STATS value")
}

#[test]
fn abu_requests_start_no_threads_after_the_first() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // no thread count to read on this platform
    }
    let server = spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 8,
        exec_threads: Some(2),
        ..ServiceConfig::default()
    })
    .expect("spawn server");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        reply
    };
    let abu = |seed: u64| {
        format!("ABU mbps=16 stations=8 samples=16 seed={seed} protocol=modified deadline_ms=30000")
    };

    let before = stat(&roundtrip("STATS"), "threads");
    assert!(roundtrip(&abu(1)).starts_with("OK cmd=abu"));
    let after_first = stat(&roundtrip("STATS"), "threads");
    // A width-2 pool has one helper, started by the first parallel map.
    assert_eq!(after_first, before + 1);
    for seed in 2..8 {
        let reply = roundtrip(&abu(seed));
        assert!(reply.contains("cached=false"), "{reply}");
        assert_eq!(
            stat(&roundtrip("STATS"), "threads"),
            after_first,
            "after seed {seed}"
        );
    }
    let stats = roundtrip("STATS");
    assert_eq!(stat(&stats, "exec_parallel_runs"), 7, "{stats}");
    server.join();
}
