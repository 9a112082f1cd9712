//! A small blocking client for the summa-serve wire protocol.
//!
//! One [`Client`] owns one TCP connection and one tenant identity;
//! request ids are assigned monotonically per connection. The client
//! is deliberately thin — encode, frame, read, decode — so the
//! conformance suite can compare served bytes against direct library
//! calls without a client-side abstraction in the way. Each request
//! leaves in one write ([`wire::write_frame`]); only
//! [`Client::send_bytes`] puts bytes on the wire unframed, so fuzz
//! cases can split or break a frame on purpose.

use crate::wire::{self, Envelope, Request, Response};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

/// A blocking single-connection client.
pub struct Client {
    stream: TcpStream,
    tenant: String,
    next_id: u64,
}

impl Client {
    /// Connect to a server as `tenant`.
    pub fn connect(addr: SocketAddr, tenant: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            tenant: tenant.to_string(),
            next_id: 0,
        })
    }

    /// The tenant identity every request is stamped with.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, request: Request) -> io::Result<Response> {
        self.next_id += 1;
        let env = Envelope {
            id: self.next_id,
            tenant: self.tenant.clone(),
            request,
        };
        wire::write_frame(&mut self.stream, &wire::encode_request(&env))?;
        self.read_response()
    }

    /// Write raw bytes as one frame (length prefix added here). For
    /// the fuzz suite, which needs to put hostile payloads on the
    /// wire.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        wire::write_frame(&mut self.stream, payload)
    }

    /// Write arbitrary bytes verbatim — no framing at all. For fuzz
    /// cases that attack the length prefix itself.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Read one response frame. `Ok(None)` on clean server close.
    pub fn try_read_response(&mut self) -> io::Result<Option<Response>> {
        match wire::read_frame(&mut self.stream) {
            Ok(None) => Ok(None),
            Ok(Some(payload)) => wire::decode_response(&payload)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Err(e) => Err(e.into()),
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        self.try_read_response()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Drain whatever the server still has for us until it closes the
    /// stream (fuzz helper).
    pub fn drain_until_close(&mut self) -> io::Result<Vec<Response>> {
        let mut out = Vec::new();
        while let Some(r) = self.try_read_response()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Half-close our write side so the server sees EOF.
    pub fn finish_writes(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    // ---- convenience wrappers ------------------------------------

    pub fn ping(&mut self) -> io::Result<Response> {
        self.call(Request::Ping)
    }

    pub fn subsumes(&mut self, snapshot: &str, sub: &str, sup: &str) -> io::Result<Response> {
        self.call(Request::Subsumes {
            snapshot: snapshot.to_string(),
            sub: sub.to_string(),
            sup: sup.to_string(),
        })
    }

    pub fn classify(&mut self, snapshot: &str) -> io::Result<Response> {
        self.call(Request::Classify {
            snapshot: snapshot.to_string(),
        })
    }

    pub fn realize(&mut self, snapshot: &str, abox: &str) -> io::Result<Response> {
        self.call(Request::Realize {
            snapshot: snapshot.to_string(),
            abox: abox.to_string(),
        })
    }

    pub fn admit(&mut self, artifact: &str, definition: &str) -> io::Result<Response> {
        self.call(Request::Admit {
            artifact: artifact.to_string(),
            definition: definition.to_string(),
        })
    }

    pub fn critique(&mut self) -> io::Result<Response> {
        self.call(Request::Critique)
    }

    pub fn load_snapshot(&mut self, name: &str, axioms: &str) -> io::Result<Response> {
        self.call(Request::LoadSnapshot {
            name: name.to_string(),
            axioms: axioms.to_string(),
        })
    }

    pub fn stats(&mut self) -> io::Result<Response> {
        self.call(Request::Stats)
    }

    /// Scrape the telemetry plane in the given format
    /// ([`wire::TELEMETRY_FORMAT_PROMETHEUS`] or
    /// [`wire::TELEMETRY_FORMAT_CHROME_SLOWLOG`]).
    pub fn telemetry(&mut self, format: u8) -> io::Result<Response> {
        self.call(Request::Telemetry { format })
    }

    /// Scrape and decode the telemetry text payload, failing on any
    /// non-OK status or payload shape mismatch.
    pub fn telemetry_text(&mut self, format: u8) -> io::Result<String> {
        let resp = self.telemetry(format)?;
        if resp.status != wire::STATUS_OK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("telemetry scrape failed with status {}", resp.status),
            ));
        }
        let ok = wire::decode_ok_body(crate::wire::Op::Telemetry, &resp.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        match ok.payload {
            Some(wire::Payload::Telemetry { text, .. }) => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected telemetry payload: {other:?}"),
            )),
        }
    }
}
