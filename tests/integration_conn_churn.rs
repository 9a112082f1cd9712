//! Connection churn must not leak: a server that has answered and
//! closed many short connections holds no descriptor, no thread and no
//! thread handle for them, and shutdown still closes the connections
//! that are live. A draining server refuses new connections at once.
//!
//! The test counts the process's open descriptors and threads, so it
//! is the only test in its binary: tests in one binary run in
//! parallel, and a neighbour's sockets or servers would move the
//! counts.

#[cfg(target_os = "linux")]
#[path = "support/pigeonhole.rs"]
mod pigeonhole;

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    use std::io::ErrorKind;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    use summa_serve::client::Client;
    use summa_serve::server::{Server, ServerConfig};
    use summa_serve::wire::STATUS_OK;

    let open_descriptors = || {
        std::fs::read_dir("/proc/self/fd")
            .expect("/proc/self/fd is readable")
            .count()
    };
    // Live threads of the given name.
    let threads_named = |name: &str| {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task is readable")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == name)
            .count()
    };
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let start = open_descriptors();
    // Each client connects only after the previous one was answered
    // and dropped.
    for _ in 0..200 {
        let mut client = Client::connect(server.addr(), "churn").expect("connects");
        assert_eq!(client.ping().expect("answered").status, STATUS_OK);
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    let (mut open, mut handlers) = (open_descriptors(), threads_named("serve-conn"));
    while (open > start + 3 || handlers > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        (open, handlers) = (open_descriptors(), threads_named("serve-conn"));
    }
    assert!(
        open <= start + 3,
        "{open} descriptors open after 200 closed connections, {start} before"
    );
    // Each closed connection's handler thread has ended.
    assert_eq!(
        handlers, 0,
        "connection threads after 200 closed connections"
    );
    assert!(server.stats().reconciles(), "{:?}", server.stats());

    // Shutdown still closes a connection that is live: its client reads
    // a clean end of stream.
    let addr = server.addr();
    let mut live = Client::connect(addr, "live").expect("connects");
    assert_eq!(live.ping().expect("answered").status, STATUS_OK);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.completed, 201);
    assert!(live.try_read_response().expect("clean close").is_none());
    // Shutdown joined every thread it started; an exited thread can
    // stay listed for a moment after its join.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads_named("serve-conn") + threads_named("serve-accept") > 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        threads_named("serve-conn"),
        0,
        "connection threads after shutdown"
    );
    assert_eq!(
        threads_named("serve-accept"),
        0,
        "accept threads after shutdown"
    );
    let refused = TcpStream::connect(addr).map(drop);
    assert_eq!(
        refused.map_err(|e| e.kind()),
        Err(ErrorKind::ConnectionRefused),
        "connect after shutdown"
    );

    // While a long request keeps a drain open, the listening socket is
    // already closed: a new connection is refused at once instead of
    // waiting out the drain in the backlog.
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let long = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "long").expect("connects");
        client
            .subsumes(
                "animals-repaired",
                &pigeonhole::pigeonhole_concept(),
                "bottom",
            )
            .expect("answered")
    });
    while server.stats().accepted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drain = std::thread::spawn(move || server.shutdown());
    let refused_at = loop {
        match TcpStream::connect(addr) {
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => break e.kind(),
        }
    };
    assert_eq!(refused_at, ErrorKind::ConnectionRefused);
    assert!(
        !drain.is_finished(),
        "the first refused connect came only after the drain"
    );
    assert_eq!(long.join().expect("long client").status, STATUS_OK);
    let stats = drain.join().expect("drain");
    assert!(stats.reconciles(), "{stats:?}");
}
