//! Minimal blocking client for the wire protocol — used by the
//! fault-injection tests, the `serve-bench` load generator, and the
//! verify-script drive.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use lasagne_testkit::{Json, Rng};

use crate::error::{ServeError, ServeResult};
use crate::protocol::Request;

/// One persistent connection to a model server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: &str) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Io(format!("connect {addr}: {e}")))?;
        Client::from_stream(stream)
    }

    /// Connect with bounded exponential backoff + jitter: try up to
    /// `attempts` times, sleeping `base_ms · 2^i · (1 + jitter)` between
    /// failures, jitter drawn in `[0, 1)` from the deterministic testkit
    /// PRNG seeded with `seed` (so retry schedules are replayable in tests
    /// yet fleet-decorrelated by distinct seeds). This replaces
    /// connect-or-die for callers racing a server that is still binding,
    /// or one at its connection cap: a TCP accept is not admission (the
    /// acceptor refuses over the accepted socket), so each attempt confirms
    /// admission with a `health` round trip, and a `too_many_connections`
    /// refusal or a connection closed mid-round-trip counts as a failure.
    pub fn connect_with_retry(
        addr: &str,
        attempts: usize,
        base_ms: u64,
        seed: u64,
    ) -> ServeResult<Client> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut last = ServeError::Io(format!("connect {addr}: no attempts made"));
        for attempt in 0..attempts.max(1) {
            match Client::connect(addr).and_then(Client::admitted) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
            if attempt + 1 < attempts.max(1) {
                let backoff = base_ms.saturating_mul(1u64 << attempt.min(10)) as f64;
                let jittered = backoff * (1.0 + rng.range_f64(0.0, 1.0));
                std::thread::sleep(Duration::from_millis(jittered as u64));
            }
        }
        Err(last)
    }

    /// `self`, once a `health` round trip shows the server admitted it.
    fn admitted(mut self) -> ServeResult<Client> {
        let doc = self.call(&Request::Health)?;
        let error = doc.get("error");
        let kind = error.and_then(|e| e.get("kind")).and_then(Json::as_str);
        if kind == Some("too_many_connections") {
            let limit = error.and_then(|e| e.get("limit")).and_then(Json::as_usize).unwrap_or(0);
            return Err(ServeError::TooManyConnections { limit });
        }
        Ok(self)
    }

    fn from_stream(stream: TcpStream) -> ServeResult<Client> {
        // One-line requests + one-line responses are exactly the traffic
        // pattern Nagle + delayed ACK punishes (~40-200 ms stalls).
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream.try_clone().map_err(|e| ServeError::Io(format!("clone stream: {e}")))?,
        );
        Ok(Client { writer: stream, reader })
    }

    /// Set a per-call deadline on both directions of the socket: any
    /// single send or receive that takes longer fails with a typed
    /// [`ServeError::Timeout`] instead of blocking forever on a stalled
    /// server. `None` restores fully blocking behavior.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> ServeResult<()> {
        let apply = |s: &TcpStream| -> std::io::Result<()> {
            s.set_read_timeout(timeout)?;
            s.set_write_timeout(timeout)
        };
        apply(&self.writer).map_err(|e| ServeError::Io(format!("set timeout: {e}")))?;
        apply(self.reader.get_ref()).map_err(|e| ServeError::Io(format!("set timeout: {e}")))
    }

    fn map_io(stage: &str, e: std::io::Error) -> ServeError {
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
            ServeError::Timeout(format!("{stage} deadline elapsed"))
        } else {
            ServeError::Io(format!("{stage}: {e}"))
        }
    }

    /// Send one raw line and read one response line (lets tests send
    /// garbage or truncated requests on purpose).
    pub fn roundtrip_raw(&mut self, line: &str) -> ServeResult<String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| Client::map_io("send", e))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| Client::map_io("recv", e))?;
        if n == 0 {
            return Err(ServeError::Io("server closed the connection".into()));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send a typed request and parse the JSON response.
    pub fn call(&mut self, request: &Request) -> ServeResult<Json> {
        let line = self.roundtrip_raw(&request.to_line())?;
        Json::parse(&line).map_err(|e| ServeError::Parse(format!("response: {e}")))
    }

    /// Send a typed request, parse the response, and fail on `ok:false`
    /// with the server's error kind + message.
    pub fn call_ok(&mut self, request: &Request) -> ServeResult<Json> {
        let doc = self.call(request)?;
        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(doc);
        }
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("<no message>");
        Err(ServeError::BadRequest(format!("server error [{kind}]: {message}")))
    }

    /// Top-`k` item recommendations for user node `node`. Returns the full
    /// response; its `items` array carries `{item, score}` pairs best-first.
    pub fn recommend(&mut self, node: usize, k: usize) -> ServeResult<Json> {
        self.call_ok(&Request::Recommend { node, k })
    }

    /// Insert undirected edge `u — v` into the live graph.
    pub fn add_edge(&mut self, u: usize, v: usize) -> ServeResult<Json> {
        self.call_ok(&Request::AddEdge { u, v })
    }

    /// Delete undirected edge `u — v` from the live graph.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> ServeResult<Json> {
        self.call_ok(&Request::RemoveEdge { u, v })
    }

    /// Append an isolated node with the given feature row; the response's
    /// `node` field carries its id.
    pub fn add_node(&mut self, features: &[f32]) -> ServeResult<Json> {
        self.call_ok(&Request::AddNode { features: features.to_vec() })
    }

    /// Ask the server to hot-swap to the frozen model at `path`
    /// (server-side path). Returns the full response; its `model_version`
    /// is the version the new model will serve as.
    pub fn swap_model(&mut self, path: &str) -> ServeResult<Json> {
        self.call_ok(&Request::SwapModel { path: path.to_string() })
    }
}
