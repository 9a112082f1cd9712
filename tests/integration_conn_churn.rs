//! Connection churn must not leak: a server that has answered and
//! closed many short connections holds no descriptor and no thread
//! handle for them, and shutdown still closes the connections that are
//! live.
//!
//! The test counts the process's open descriptors, so it is the only
//! test in its binary: tests in one binary run in parallel, and a
//! neighbour's sockets would move the count.

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    use std::time::{Duration, Instant};
    use summa_serve::client::Client;
    use summa_serve::server::{Server, ServerConfig};
    use summa_serve::wire::STATUS_OK;

    let open_descriptors = || {
        std::fs::read_dir("/proc/self/fd")
            .expect("/proc/self/fd is readable")
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
    let mut open = open_descriptors();
    while open > start + 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    assert!(
        open <= start + 3,
        "{open} descriptors open after 200 closed connections, {start} before"
    );
    assert!(server.stats().reconciles(), "{:?}", server.stats());

    // Shutdown still closes a connection that is live: its client reads
    // a clean end of stream.
    let mut live = Client::connect(server.addr(), "live").expect("connects");
    assert_eq!(live.ping().expect("answered").status, STATUS_OK);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.completed, 201);
    assert!(live.try_read_response().expect("clean close").is_none());
}
