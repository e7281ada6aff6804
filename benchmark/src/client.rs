//! A blocking wire client: one TCP connection, strict request/reply or
//! a pipelined burst, every frame counted so `responses == requests`
//! can be checked against the server's own counters.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use medea_server::{write_frame, FrameReader, Request, Response, MAX_FRAME_BYTES};

/// A reply that does not arrive within this long fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    pub requests: u64,
    pub responses: u64,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Client {
            stream,
            reader: FrameReader::new(MAX_FRAME_BYTES),
            requests: 0,
            responses: 0,
            next_id: 1,
        })
    }

    /// A fresh request id (ids are per connection).
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends one already-encoded request frame.
    pub fn send(&mut self, payload: &str) -> Result<(), String> {
        write_frame(&mut self.stream, payload.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.requests += 1;
        Ok(())
    }

    /// Receives the next reply.
    pub fn recv(&mut self) -> Result<Response, String> {
        let t0 = Instant::now();
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(Some(payload)) => {
                    let text = std::str::from_utf8(&payload).map_err(|e| format!("reply: {e}"))?;
                    let resp = Response::decode(text)
                        .map_err(|e| format!("reply undecodable: {}", e.message))?;
                    self.responses += 1;
                    return Ok(resp);
                }
                Ok(None) if t0.elapsed() < REPLY_TIMEOUT => {}
                Ok(None) => return Err("no reply within 30 s".to_string()),
                Err(e) => return Err(format!("connection: {e}")),
            }
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(&req.encode())?;
        let resp = self.recv()?;
        if resp.id() != req.id() {
            return Err(format!("reply id {} for request {}", resp.id(), req.id()));
        }
        Ok(resp)
    }

    /// `query`: the app's phase and hosting nodes, as a tenant sees them.
    pub fn query(&mut self, app: u64) -> Result<(String, Vec<u32>), String> {
        let id = self.id();
        match self.call(&Request::Query { id, app })? {
            Response::AppStatus { phase, nodes, .. } => Ok((phase, nodes)),
            other => Err(format!("query {app}: unexpected {other:?}")),
        }
    }

    /// `status`: the server's ledger counters.
    pub fn status(&mut self) -> Result<medea_server::StatusReply, String> {
        let id = self.id();
        match self.call(&Request::Status { id })? {
            Response::Status { reply, .. } => Ok(reply),
            other => Err(format!("status: unexpected {other:?}")),
        }
    }
}
