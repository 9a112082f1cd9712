//! Deterministic protocol fuzz for summa-serve: hostile frames must
//! never panic the server, never wedge a connection, and always
//! produce a **typed** protocol error (or a valid answer, when a
//! mutation happens to produce a well-formed request). The stream is
//! closed only where it genuinely cannot be re-synchronized
//! (oversize / truncated framing); everything else leaves the
//! connection serving.
//!
//! All randomness is a seeded SplitMix64 stream — failures replay
//! exactly.

use summa_dl::parser::MAX_NESTING;
use summa_serve::client::Client;
use summa_serve::server::{Server, ServerConfig};
use summa_serve::wire::{
    decode_ok_body, decode_protocol_error, encode_request, encode_response, Envelope, Op, Payload,
    Request, Response, MAX_FRAME, MAX_TENANT, STATUS_OK, STATUS_OVERLOADED, STATUS_PROTOCOL_ERROR,
};

/// SplitMix64 — tiny, seedable, good enough for byte fuzz.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

fn server() -> Server {
    Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// A healthy request the fuzzers use to prove the connection (or the
/// server) still serves after each attack.
fn probe(client: &mut Client) {
    let resp = client.ping().expect("probe answered");
    assert_eq!(resp.status, STATUS_OK, "probe is healthy");
}

/// Statuses a fuzzed frame may legitimately come back with. A mutated
/// frame can decode into a perfectly valid request, so OK and even
/// overload are acceptable — the invariants are "always a response"
/// and "protocol errors are typed".
fn assert_legitimate(status: u8, body: &[u8]) {
    match status {
        STATUS_OK | STATUS_OVERLOADED => {}
        STATUS_PROTOCOL_ERROR => {
            let (code, msg) = decode_protocol_error(body).expect("typed protocol error");
            assert!((1..=10).contains(&code), "known error code, got {code}");
            assert!(!msg.is_empty());
        }
        other => panic!("unexpected status {other}"),
    }
}

/// Pure-noise frames: correct framing, garbage payloads.
#[test]
fn random_payloads_never_panic_and_always_answer() {
    let server = server();
    let mut client = Client::connect(server.addr(), "noise").expect("connects");
    let mut rng = Rng(0xBADC0FFE);
    for i in 0..200 {
        let len = rng.below(96);
        let payload: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        client.send_raw(&payload).expect("frame written");
        let resp = client
            .try_read_response()
            .expect("readable")
            .expect("server answered garbage frame");
        assert_legitimate(resp.status, &resp.body);
        if i % 20 == 0 {
            probe(&mut client);
        }
    }
    probe(&mut client);
    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert!(stats.rejected_protocol > 0, "noise produced typed errors");
}

/// Byte-flip mutations of valid frames: framing intact, fields bent.
#[test]
fn mutated_frames_get_typed_answers_and_connection_survives() {
    let server = server();
    let mut client = Client::connect(server.addr(), "mutant").expect("connects");
    let mut rng = Rng(0x5EED);
    let templates = [
        Request::Ping,
        Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        },
        Request::Classify {
            snapshot: "animals".into(),
        },
        Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : car".into(),
        },
        Request::Admit {
            artifact: "vehicles-tbox".into(),
            definition: "gruber".into(),
        },
    ];
    for round in 0..300 {
        let req = &templates[rng.below(templates.len())];
        let mut bytes = encode_request(&Envelope {
            id: round as u64 + 1,
            tenant: "mutant".into(),
            request: req.clone(),
        });
        // 1–4 byte flips anywhere in the frame.
        for _ in 0..(1 + rng.below(4)) {
            let at = rng.below(bytes.len());
            bytes[at] ^= rng.byte() | 1;
        }
        client.send_raw(&bytes).expect("frame written");
        let resp = client
            .try_read_response()
            .expect("readable")
            .expect("server answered mutated frame");
        assert_legitimate(resp.status, &resp.body);
        if round % 50 == 0 {
            probe(&mut client);
        }
    }
    probe(&mut client);
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// Targeted structural attacks, each on a fresh connection where the
/// framing itself is destroyed.
#[test]
fn framing_attacks_are_rejected_before_allocation() {
    let server = server();

    // Oversize length prefix: typed Oversize error, then close. The
    // declared 512 MiB is never allocated (the test would OOM-or-hang
    // otherwise, not merely fail).
    let mut client = Client::connect(server.addr(), "oversize").expect("connects");
    let hostile = (512u32 * 1024 * 1024).to_le_bytes();
    client.send_bytes(&hostile).expect("written");
    let responses = client.drain_until_close().expect("typed answer then close");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, STATUS_PROTOCOL_ERROR);
    let (code, _) = decode_protocol_error(&responses[0].body).expect("typed");
    assert_eq!(code, 4, "Oversize");

    // Truncated frame: the length promises more than ever arrives.
    let mut client = Client::connect(server.addr(), "truncated").expect("connects");
    let mut partial = 100u32.to_le_bytes().to_vec();
    partial.extend_from_slice(b"only ten b");
    client.send_bytes(&partial).expect("written");
    client.finish_writes().expect("half-close");
    let responses = client.drain_until_close().expect("typed answer then close");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, STATUS_PROTOCOL_ERROR);
    let (code, _) = decode_protocol_error(&responses[0].body).expect("typed");
    assert_eq!(code, 5, "Truncated");

    // Boundary: a frame of exactly MAX_FRAME is legal (decode then
    // rejects its content as malformed — but nothing disconnects).
    let mut client = Client::connect(server.addr(), "boundary").expect("connects");
    let payload = vec![0u8; MAX_FRAME as usize];
    client.send_raw(&payload).expect("written");
    let resp = client
        .try_read_response()
        .expect("readable")
        .expect("answered");
    assert_eq!(resp.status, STATUS_PROTOCOL_ERROR);
    probe(&mut client);

    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
}

/// Field-level attacks with intact framing: bad version, bad opcode,
/// hostile inner string lengths, trailing garbage, short payloads.
/// Every one is a typed error on a still-usable connection.
#[test]
fn field_attacks_are_typed_and_resyncable() {
    let server = server();
    let mut client = Client::connect(server.addr(), "fields").expect("connects");
    let valid = encode_request(&Envelope {
        id: 9,
        tenant: "fields".into(),
        request: Request::Ping,
    });

    // Wrong protocol version.
    let mut bad = valid.clone();
    bad[0] = 99;
    client.send_raw(&bad).expect("written");
    let resp = client.try_read_response().unwrap().expect("answered");
    let (code, _) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 1, "BadVersion");

    // Unknown opcode — the id must still be recovered for correlation.
    let mut bad = valid.clone();
    bad[1] = 250;
    client.send_raw(&bad).expect("written");
    let resp = client.try_read_response().unwrap().expect("answered");
    assert_eq!(resp.id, 9, "id recovered from the broken frame");
    let (code, _) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 2, "BadOp");

    // Tenant string length pointing past the end of the frame.
    let mut bad = valid.clone();
    let len_at = 1 + 1 + 8;
    bad[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    client.send_raw(&bad).expect("written");
    let resp = client.try_read_response().unwrap().expect("answered");
    let (code, _) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 3, "Malformed");

    // Trailing garbage after a complete request.
    let mut bad = valid.clone();
    bad.extend_from_slice(&[1, 2, 3]);
    client.send_raw(&bad).expect("written");
    let resp = client.try_read_response().unwrap().expect("answered");
    let (code, _) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 3, "Malformed");

    // Non-UTF-8 tenant bytes.
    let mut bad = valid.clone();
    bad[len_at..len_at + 4].copy_from_slice(&2u32.to_le_bytes());
    bad.truncate(len_at + 4);
    bad.extend_from_slice(&[0xFF, 0xFE]);
    client.send_raw(&bad).expect("written");
    let resp = client.try_read_response().unwrap().expect("answered");
    let (code, _) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 6, "BadUtf8");

    // Empty frame.
    client.send_raw(&[]).expect("written");
    let resp = client.try_read_response().unwrap().expect("answered");
    let (code, _) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 3, "Malformed");

    // After the whole gauntlet the connection still serves.
    probe(&mut client);
    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.rejected_protocol, 6);
}

/// A peer may split a frame anywhere. A `subsumes` frame sent as the
/// bare length prefix, then its payload 1 or 7 bytes at a time, is
/// answered exactly as the same frame sent whole, on a connection that
/// keeps serving.
#[test]
fn split_frames_are_served_like_whole_ones() {
    let server = server();
    let mut client = Client::connect(server.addr(), "split").expect("connects");
    let payload = encode_request(&Envelope {
        id: 1,
        tenant: "split".into(),
        request: Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        },
    });
    // The header's wall clock and trace handle vary per request; every
    // other field, and the body, must not.
    let read_answer = |client: &mut Client| {
        let resp = client
            .try_read_response()
            .expect("readable")
            .expect("answered");
        assert_eq!(resp.status, STATUS_OK);
        encode_response(&Response {
            elapsed_ns: 0,
            trace_id: 0,
            ..resp
        })
    };
    client.send_raw(&payload).expect("written");
    let whole = read_answer(&mut client);
    for piece in [1, 7] {
        client
            .send_bytes(&(payload.len() as u32).to_le_bytes())
            .expect("prefix written");
        for chunk in payload.chunks(piece) {
            client.send_bytes(chunk).expect("piece written");
        }
        assert_eq!(read_answer(&mut client), whole, "{piece}-byte pieces");
    }
    probe(&mut client);
    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.rejected_protocol, 0);
}

/// Tenant ids are bounded: a [`MAX_TENANT`]-byte id is served, one
/// byte more is a typed `Malformed` error on a connection that keeps
/// serving, and the books reconcile.
#[test]
fn overlong_tenant_id_is_a_typed_error() {
    let server = server();
    let longest = "t".repeat(MAX_TENANT);
    let mut served = Client::connect(server.addr(), &longest).expect("connects");
    probe(&mut served);
    let mut refused = Client::connect(server.addr(), &format!("{longest}t")).expect("connects");
    let resp = refused.ping().expect("typed rejection, not a disconnect");
    assert_eq!(resp.status, STATUS_PROTOCOL_ERROR);
    let (code, msg) = decode_protocol_error(&resp.body).expect("typed");
    assert_eq!(code, 3, "Malformed: {msg}");
    // The same connection then serves an id at the bound.
    let ping = encode_request(&Envelope {
        id: 2,
        tenant: longest,
        request: Request::Ping,
    });
    refused.send_raw(&ping).expect("written");
    let resp = refused
        .try_read_response()
        .expect("readable")
        .expect("answered");
    assert_eq!(resp.status, STATUS_OK);
    drop((served, refused));
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.rejected_protocol, 1);
}

/// Interleaved tenants: hostile and honest clients share the server;
/// the honest ones' answers are unaffected and the books stay exact.
#[test]
fn interleaved_hostile_and_honest_tenants() {
    let server = server();
    let addr = server.addr();
    let hostile = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "hostile").expect("connects");
        let mut rng = Rng(0xD15EA5E);
        for _ in 0..150 {
            let len = rng.below(64);
            let payload: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
            client.send_raw(&payload).expect("written");
            let resp = client
                .try_read_response()
                .expect("readable")
                .expect("answered");
            assert_legitimate(resp.status, &resp.body);
        }
    });
    let honest: Vec<_> = (0..2)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("honest-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                for _ in 0..40 {
                    let resp = client
                        .subsumes("vehicles", "car", "motorvehicle")
                        .expect("answered");
                    assert_eq!(resp.status, STATUS_OK, "honest tenant unaffected");
                }
            })
        })
        .collect();
    hostile.join().expect("hostile thread");
    for h in honest {
        h.join().expect("honest thread");
    }
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.accepted, stats.completed);
}

/// Hostile axiom text over the wire: nesting at the parser's ceiling
/// installs, one level deeper and an overflowing literal are typed parse
/// errors naming the line, and a frame of nearly 1 MiB of distinct names
/// installs (past the EL memory ceiling it ships cold). None of it
/// wedges the server: a second connection still answers, and the books
/// reconcile.
#[test]
fn hostile_axiom_text_installs_or_fails_typed() {
    let server = server();
    let mut client = Client::connect(server.addr(), "axioms").expect("connects");
    let installed = |resp: summa_serve::wire::Response| {
        assert_eq!(resp.status, STATUS_OK, "installs");
        let ok = decode_ok_body(Op::LoadSnapshot, &resp.body).expect("decodes");
        let Some(Payload::SnapshotInstalled { atoms, .. }) = ok.payload else {
            panic!("an install payload");
        };
        atoms
    };
    let parse_error = |resp: summa_serve::wire::Response| {
        assert_eq!(resp.status, STATUS_PROTOCOL_ERROR);
        let (code, msg) = decode_protocol_error(&resp.body).expect("typed");
        assert_eq!(code, 10, "ParseError: {msg}");
        msg
    };

    // `some r.` opens one frame each, and `b` the last: exactly the
    // ceiling, then one past it.
    let deepest = format!("a < {}b\n", "some r.".repeat(MAX_NESTING - 1));
    let resp = client.load_snapshot("deep", &deepest).expect("answered");
    assert_eq!(installed(resp), 2);
    let resp = client.subsumes("deep", "a", "a").expect("answered");
    assert_eq!(resp.status, STATUS_OK, "the deep snapshot serves");
    let too_deep = format!("a < b\na < {}b\n", "some r.".repeat(MAX_NESTING));
    let msg = parse_error(client.load_snapshot("deep", &too_deep).expect("answered"));
    assert!(msg.contains("line 2: cannot parse"), "{msg}");
    assert!(
        msg.ends_with(&format!("nesting deeper than {MAX_NESTING}")),
        "{msg}"
    );

    let overflow = "a < atleast 99999999999999999999 r.b\n";
    let msg = parse_error(client.load_snapshot("deep", overflow).expect("answered"));
    assert!(
        msg.ends_with("at byte 12: number literal too large"),
        "{msg}"
    );

    // Distinct names up to about 90% of the frame, one chain link a
    // line.
    let mut wide = String::new();
    let mut names = 0;
    while wide.len() < MAX_FRAME as usize * 9 / 10 {
        wide += &format!("n{names} < n{}\n", names + 1);
        names += 1;
    }
    let resp = client.load_snapshot("wide", &wide).expect("answered");
    assert_eq!(installed(resp), names as u64 + 1);

    // The failed loads replaced nothing, and the server still serves
    // another connection.
    let resp = client.subsumes("deep", "a", "a").expect("answered");
    assert_eq!(resp.status, STATUS_OK);
    let mut other = Client::connect(server.addr(), "other").expect("connects");
    probe(&mut other);
    drop((client, other));
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
}
