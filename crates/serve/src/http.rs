//! A minimal HTTP/1.1 subset on blocking sockets: enough to parse one
//! request per connection (`Connection: close` semantics) and write one
//! response. No external dependencies, no chunked encoding, no keep-alive
//! — every malformed input becomes a typed error the server maps to a 4xx
//! instead of a worker panic.

use std::io::{Read, Write};
use std::sync::Arc;

use crate::error::ServeError;

/// A response body: bytes a handler built for this request, or a shared
/// pre-serialized buffer from the snapshot response cache — either way
/// written to the socket without copying.
#[derive(Debug, Clone)]
pub enum Body {
    /// Handler-owned bytes.
    Owned(Vec<u8>),
    /// A shared cache buffer (`Arc` clone, no copy).
    Shared(Arc<[u8]>),
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        match self {
            Self::Owned(v) => v,
            Self::Shared(b) => b,
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Self {
        Self::Owned(v)
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(b: Arc<[u8]>) -> Self {
        Self::Shared(b)
    }
}

/// The snapshot's cached per-product JSON: the same allocation, viewed
/// as bytes (no copy).
impl From<Arc<str>> for Body {
    fn from(s: Arc<str>) -> Self {
        Self::Shared(Arc::from(s))
    }
}

impl From<&[u8]> for Body {
    fn from(b: &[u8]) -> Self {
        Self::Owned(b.to_vec())
    }
}

/// One parsed request.
#[derive(Debug, PartialEq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client, not normalized here).
    pub method: String,
    /// Path without the query string, kept verbatim (not percent-decoded):
    /// cluster keys are normalized alphanumerics, so the router only
    /// percent-decodes query values.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs in wire order, names verbatim,
    /// values trimmed. Look up with [`Request::header`].
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `name`, if present (duplicate keys keep wire
    /// order) — the one query accessor every handler shares.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First header value for `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Read one request from the stream, enforcing `max_bytes` over header +
/// body. Returns `RequestTooLarge` past the cap and `BadRequest` for
/// anything that does not parse.
pub fn read_request(stream: &mut impl Read, max_bytes: usize) -> Result<Request, ServeError> {
    // Read until the blank line ending the header block.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Where the next search starts: 3 bytes before the bytes just read, so
    // a terminator split across reads is found and a header trickled in
    // byte by byte costs linear time, not a rescan per read.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf[scanned..]) {
            break scanned + pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > max_bytes {
            return Err(ServeError::RequestTooLarge { got: buf.len(), cap: max_bytes });
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServeError::BadRequest("connection closed mid-header".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let header_text = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ServeError::BadRequest("header block is not UTF-8".into()))?
        .to_string();
    let mut lines = header_text.split("\r\n");
    let request_line =
        lines.next().ok_or_else(|| ServeError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ServeError::BadRequest("missing method".into()))?
        .to_string();
    let target =
        parts.next().ok_or_else(|| ServeError::BadRequest("missing request target".into()))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(ServeError::BadRequest("missing or unsupported HTTP version".into())),
    }

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::BadRequest(format!("malformed header line {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| ServeError::BadRequest("unparseable Content-Length".into()))?;
            // RFC 7230 §3.3.2: duplicates carrying the same value may be
            // accepted as that value; differing values make the message
            // length ambiguous (request-smuggling vector) and MUST be
            // rejected. The old code let the last duplicate win.
            match content_length {
                None => content_length = Some(parsed),
                Some(previous) if previous == parsed => {}
                Some(previous) => {
                    return Err(ServeError::BadRequest(format!(
                        "conflicting Content-Length headers: {previous} then {parsed}"
                    )));
                }
            }
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    let content_length = content_length.unwrap_or(0);

    let body_start = header_end + 4; // past "\r\n\r\n"
    if body_start.saturating_add(content_length) > max_bytes {
        return Err(ServeError::RequestTooLarge {
            got: body_start + content_length,
            cap: max_bytes,
        });
    }
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServeError::BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    Ok(Request { method, path, query, headers, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decode a query string into pairs; `+` becomes space, `%XX` is decoded,
/// undecodable sequences are kept verbatim.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    match b {
        Some(c @ b'0'..=b'9') => Some(c - b'0'),
        Some(c @ b'a'..=b'f') => Some(c - b'a' + 10),
        Some(c @ b'A'..=b'F') => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one `Connection: close` response.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(raw: &[u8]) -> Result<Request, ServeError> {
        read_request(&mut std::io::Cursor::new(raw.to_vec()), 4096)
    }

    #[test]
    fn parses_get_with_query() {
        let r = req(b"GET /product?category=3&attr=MPN&key=abc%20123 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/product");
        assert_eq!(r.query_param("category"), Some("3"));
        assert_eq!(r.query_param("key"), Some("abc 123"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn headers_are_captured_case_insensitively() {
        let r =
            req(b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pse-Trace-Id:  00ff  \r\n\r\n").unwrap();
        assert_eq!(r.header("x-pse-trace-id"), Some("00ff"), "trimmed, any case");
        assert_eq!(r.header("X-PSE-TRACE-ID"), Some("00ff"));
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("absent"), None);
    }

    #[test]
    fn query_accessor_reads_first_of_duplicates() {
        let request = Request {
            method: "GET".into(),
            path: "/search".into(),
            query: vec![
                ("q".into(), "canon 12mp".into()),
                ("q".into(), "second".into()),
                ("empty".into(), String::new()),
            ],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(request.query_param("q"), Some("canon 12mp"));
        assert_eq!(request.query_param("empty"), Some(""));
        assert_eq!(request.query_param("absent"), None);
    }

    #[test]
    fn parses_post_with_body() {
        let r = req(b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(matches!(req(b"\r\n\r\n"), Err(ServeError::BadRequest(_))));
        assert!(matches!(req(b"GET /x\r\n\r\n"), Err(ServeError::BadRequest(_))));
        assert!(matches!(req(b"GET /x SPDY/9\r\n\r\n"), Err(ServeError::BadRequest(_))));
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn duplicate_content_length_same_value_is_accepted() {
        let r = req(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn conflicting_content_length_is_rejected() {
        let err = req(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!")
            .unwrap_err();
        let ServeError::BadRequest(msg) = err else { panic!("want BadRequest, got {err:?}") };
        assert!(msg.contains("conflicting Content-Length"), "{msg}");
        // Case-insensitive and order-independent: the larger value first
        // must not win either (the old last-wins bug read 5 here and
        // left a stray byte on the wire).
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\ncontent-length: 6\r\nCONTENT-LENGTH: 5\r\n\r\nhello!"),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn empty_content_length_is_rejected() {
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            req(b"POST /x HTTP/1.1\r\nContent-Length:   \r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
    }

    /// A client that sends `bytes` in pieces: each `read()` yields the
    /// bytes up to `next_cut(pos)`, as one segment of a slow sender would.
    struct Pieces<F> {
        bytes: Vec<u8>,
        pos: usize,
        next_cut: F,
    }

    impl<F: Fn(usize) -> usize> Read for Pieces<F> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let end = (self.next_cut)(self.pos).min(self.bytes.len()).min(self.pos + out.len());
            let n = end - self.pos;
            out[..n].copy_from_slice(&self.bytes[self.pos..end]);
            self.pos = end;
            Ok(n)
        }
    }

    #[test]
    fn a_header_sent_one_byte_per_read_parses_in_linear_time() {
        let head = b"GET /healthz HTTP/1.1\r\nX-Pad: ";
        let mut raw = head.to_vec();
        raw.resize(64 << 10, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let started = std::time::Instant::now();
        let mut client = Pieces { bytes: raw, pos: 0, next_cut: |pos| pos + 1 };
        let r = read_request(&mut client, 1 << 20).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(r.header("x-pad").map(str::len), Some((64 << 10) - head.len()));
        assert!(elapsed < std::time::Duration::from_secs(2), "took {elapsed:?}");
    }

    #[test]
    fn a_request_split_at_any_byte_parses_like_the_whole() {
        let raw = b"POST /ingest?k=v HTTP/1.1\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello";
        let whole = req(raw).unwrap();
        assert_eq!(whole.body, b"hello");
        for cut in 0..=raw.len() {
            let next_cut = |pos| if pos < cut { cut } else { usize::MAX };
            let mut client = Pieces { bytes: raw.to_vec(), pos: 0, next_cut };
            assert_eq!(read_request(&mut client, 4096).unwrap(), whole, "split at byte {cut}");
        }
    }

    #[test]
    fn body_over_cap_is_too_large() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 10000\r\n\r\n";
        let err = read_request(&mut std::io::Cursor::new(raw.to_vec()), 256).unwrap_err();
        assert!(matches!(err, ServeError::RequestTooLarge { .. }));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a+b%2Fc"), "a b/c");
        assert_eq!(percent_decode("100%"), "100%", "trailing percent kept verbatim");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex kept verbatim");
    }

    #[test]
    fn response_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
