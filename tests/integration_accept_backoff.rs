//! A failed `accept` must not spin. At the process's descriptor limit
//! `accept` fails with `EMFILE` at once and leaves the connection
//! queued, so an accept loop that retried at once would burn a core
//! until a descriptor frees up.
//!
//! The test takes every free descriptor of the process, so it is the
//! only test in its binary: tests in one binary run in parallel, and a
//! neighbour could open nothing while it runs.

#[cfg(target_os = "linux")]
#[test]
fn accept_at_the_descriptor_limit_does_not_spin() {
    use std::fs::File;
    use std::io::{Read, Seek, SeekFrom};
    use std::time::{Duration, Instant};
    use summa_serve::client::Client;
    use summa_serve::server::{Server, ServerConfig};
    use summa_serve::wire::STATUS_OK;

    /// Above this soft limit, hoarding every descriptor costs a test
    /// too much time and memory.
    const MAX_SOFT_LIMIT: u64 = 65_536;
    /// `EMFILE`: the process has no descriptor free.
    const EMFILE: i32 = 24;
    /// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
    /// (`USER_HZ`, 100 on Linux).
    const TICKS_PER_SEC: u64 = 100;

    let limits = std::fs::read_to_string("/proc/self/limits").expect("/proc/self/limits");
    let soft = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .map_or(u64::MAX, |n| n.parse().unwrap_or(u64::MAX));
    if soft > MAX_SOFT_LIMIT {
        eprintln!("skipped: soft descriptor limit {soft} is above {MAX_SOFT_LIMIT}");
        return;
    }

    let server = Server::start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    // Opened before the hoard: once it is taken, nothing can be opened.
    let mut stat = File::open("/proc/self/stat").expect("/proc/self/stat");
    let mut cpu_ms = || {
        let mut text = String::new();
        stat.seek(SeekFrom::Start(0)).expect("rewinds");
        stat.read_to_string(&mut text).expect("reads");
        // The fields after the command name, which ends at the last
        // `)`, start at field 3 (state); utime and stime are fields 14
        // and 15.
        let fields: Vec<&str> = text[text.rfind(')').expect("comm") + 1..]
            .split_whitespace()
            .collect();
        let ticks: u64 =
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        ticks * 1000 / TICKS_PER_SEC
    };

    let mut hoard = Vec::new();
    let err = loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(e) => break e,
        }
    };
    assert_eq!(err.raw_os_error(), Some(EMFILE), "hoard stopped on {err}");
    // One descriptor for the client's socket; the server has none left
    // to accept it with.
    hoard.pop();
    let mut client = Client::connect(server.addr(), "hoard").expect("connects");

    let (cpu_before, t0) = (cpu_ms(), Instant::now());
    std::thread::sleep(Duration::from_millis(300));
    let (cpu_after, window_ms) = (cpu_ms(), t0.elapsed().as_millis() as u64);
    drop(hoard);
    let used = cpu_after - cpu_before;
    assert!(
        used < window_ms / 4,
        "the process used {used} ms of CPU in {window_ms} ms at the descriptor limit"
    );

    // With descriptors free again, the queued client and a new one are
    // both served.
    assert_eq!(client.ping().expect("answered").status, STATUS_OK);
    let mut fresh = Client::connect(server.addr(), "fresh").expect("connects");
    assert_eq!(fresh.ping().expect("answered").status, STATUS_OK);
    assert!(server.stats().reconciles(), "{:?}", server.stats());
    // The first client may have been accepted while no descriptor was
    // free for the drain's clone, so it leaves before the drain.
    drop((client, fresh));
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.completed, 2);
}
