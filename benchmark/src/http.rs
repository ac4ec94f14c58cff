//! The load generator's HTTP/1.1 client.
//!
//! Unlike `pse_serve::http_request` (which sends `Connection: close` and
//! reads to EOF) this client speaks persistent HTTP/1.1: it never asks
//! for a close, frames the response by `Content-Length`, and keeps the
//! socket for the next request unless the response says
//! `Connection: close` or the peer hangs up. It counts the connections
//! it opens, so `serve.connections_per_request` reads 1.0 against
//! today's one-request-per-connection server and drops the day the
//! server learns keep-alive — without an edit here.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code of the status line.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes (or everything up to EOF
    /// when the header is absent).
    pub body: Vec<u8>,
    /// Whether the connection may not be reused: the response carried
    /// `Connection: close`, or had no `Content-Length` and was framed by
    /// the peer closing.
    pub close: bool,
}

/// When each step of one request happened.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Request start (before any connect).
    pub start: Instant,
    /// Connect finished; `None` when a kept-alive socket was reused.
    pub connected: Option<Instant>,
    /// Request fully written.
    pub written: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Response fully read.
    pub done: Instant,
}

impl Timing {
    /// Client-observed latency including connect, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.done.duration_since(self.start).as_nanos() as u64
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A reader that notes when its first byte arrived — the client's
/// time-to-first-byte, and the evidence that a response had started
/// when an exchange fails.
struct Stamped<R> {
    inner: R,
    first_byte: Option<Instant>,
}

impl<R: Read> Read for Stamped<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && self.first_byte.is_none() {
            self.first_byte = Some(Instant::now());
        }
        Ok(n)
    }
}

/// Read one response from `stream`. A peer that hangs up before the
/// framed length is complete is an `UnexpectedEof` error, never a short
/// body.
pub fn read_response(stream: &mut impl Read) -> io::Result<Response> {
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-header"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("header is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                Some(value.trim().parse::<usize>().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let mut body = buf.split_off(header_end + 4);
    match content_length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-body",
                    ));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            stream.read_to_end(&mut body)?;
            close = true;
        }
    }
    Ok(Response { status, body, close })
}

/// Encode one request. No `Connection` header: HTTP/1.1 is persistent
/// by default and the server decides.
pub fn encode_request(host: &str, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A closed-loop client: one connection at a time, reused when allowed.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    host: String,
    stream: Option<TcpStream>,
    timeout: Duration,
    /// Connections opened so far.
    pub connections_opened: u64,
}

impl Client {
    /// A client for `addr`; nothing is connected until the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            host: addr.to_string(),
            stream: None,
            timeout: Duration::from_secs(10),
            connections_opened: 0,
        }
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        self.connections_opened += 1;
        Ok(stream)
    }

    /// Issue one request and wait for its response.
    ///
    /// A kept-alive socket the server closed while idle fails on its next
    /// use before a byte of response arrives; that one case reconnects
    /// and resends transparently. Any other failure is returned.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Timing)> {
        let bytes = encode_request(&self.host, method, path, body);
        let start = Instant::now();
        if let Some(mut stream) = self.stream.take() {
            match exchange(&mut stream, &bytes) {
                Ok(done) => return Ok(self.finish(stream, done, start, None)),
                Err((e, response_started)) if response_started => return Err(e),
                Err(_) => {}
            }
        }
        let mut stream = self.connect()?;
        let connected = Instant::now();
        let done = exchange(&mut stream, &bytes).map_err(|(e, _)| e)?;
        Ok(self.finish(stream, done, start, Some(connected)))
    }

    fn finish(
        &mut self,
        stream: TcpStream,
        (response, written, first_byte): (Response, Instant, Instant),
        start: Instant,
        connected: Option<Instant>,
    ) -> (Response, Timing) {
        let done = Instant::now();
        if !response.close {
            self.stream = Some(stream);
        }
        (response, Timing { start, connected, written, first_byte, done })
    }
}

/// Write the request, read the response: `(response, written, first
/// byte)`. An error says whether any response byte had arrived.
fn exchange(
    stream: &mut TcpStream,
    request: &[u8],
) -> Result<(Response, Instant, Instant), (io::Error, bool)> {
    stream.write_all(request).map_err(|e| (e, false))?;
    let written = Instant::now();
    let mut reader = Stamped { inner: stream, first_byte: None };
    match read_response(&mut reader) {
        Ok(response) => Ok((response, written, reader.first_byte.unwrap_or(written))),
        Err(e) => Err((e, reader.first_byte.is_some())),
    }
}

/// Percent-encode one query value (everything but unreserved characters).
pub fn encode_query_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    fn framed(raw: &[u8]) -> io::Result<Response> {
        read_response(&mut Cursor::new(raw.to_vec()))
    }

    #[test]
    fn frames_by_content_length_and_ignores_trailing_bytes() {
        let r = framed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloEXTRA").unwrap();
        assert_eq!((r.status, r.body.as_slice(), r.close), (200, &b"hello"[..], false));
    }

    #[test]
    fn connection_close_header_forbids_reuse() {
        let r =
            framed(b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nCONNECTION: Close\r\n\r\nno")
                .unwrap();
        assert_eq!((r.status, r.close), (404, true));
        assert_eq!(r.body, b"no");
    }

    #[test]
    fn missing_length_reads_to_eof_and_closes() {
        let r = framed(b"HTTP/1.1 200 OK\r\n\r\nall of it").unwrap();
        assert_eq!(r.body, b"all of it");
        assert!(r.close, "EOF-framed responses cannot share a connection");
    }

    #[test]
    fn a_mid_body_hang_up_is_an_error_not_a_short_body() {
        let err = framed(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhalf").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = framed(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(framed(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn request_has_no_connection_header() {
        let req = String::from_utf8(encode_request("h:1", "POST", "/ingest", b"[]")).unwrap();
        assert!(req.starts_with("POST /ingest HTTP/1.1\r\nHost: h:1\r\nContent-Length: 2\r\n\r\n"));
        assert!(!req.to_ascii_lowercase().contains("connection:"));
        assert!(req.ends_with("[]"));
    }

    /// A server answering `per_conn` requests per connection, the last
    /// with `Connection: close` when `announce`, else hanging up silently.
    fn serve(listener: TcpListener, conns: usize, per_conn: usize, announce: bool) {
        for _ in 0..conns {
            let (mut s, _) = listener.accept().unwrap();
            for i in 0..per_conn {
                let mut buf = [0u8; 1024];
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut buf).unwrap();
                    if n == 0 {
                        return;
                    }
                    seen.extend_from_slice(&buf[..n]);
                }
                let last = i + 1 == per_conn;
                let extra = if last && announce { "Connection: close\r\n" } else { "" };
                write!(s, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n{extra}\r\nok").unwrap();
            }
        }
    }

    #[test]
    fn reuses_the_socket_until_told_to_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, 2, 2, true));
        let mut client = Client::new(addr);
        for _ in 0..4 {
            let (r, _) = client.request("GET", "/x", b"").unwrap();
            assert_eq!(r.body, b"ok");
        }
        assert_eq!(client.connections_opened, 2, "two requests per connection");
        server.join().unwrap();
    }

    #[test]
    fn reconnects_transparently_after_a_silent_hang_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, 3, 1, false));
        let mut client = Client::new(addr);
        for _ in 0..3 {
            let (r, t) = client.request("GET", "/x", b"").unwrap();
            assert_eq!(r.status, 200);
            assert!(t.total_ns() > 0);
        }
        assert_eq!(client.connections_opened, 3);
        server.join().unwrap();
    }

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(encode_query_value("abc-123"), "abc-123");
        assert_eq!(encode_query_value("a b&c=d"), "a%20b%26c%3Dd");
    }
}
