//! A minimal blocking HTTP/1.1 client for the daemon: one connection per
//! request, as the daemon's own clients use it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (0 if the status line was unreadable).
    pub status: u16,
    /// Body bytes after the header block, as text.
    pub body: String,
}

/// `POST path` with `body`.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    request(addr, "POST", path, body)
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, &[])
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok(Response { status, body })
}

/// A counter from a `GET /metrics` document (0 when absent).
pub fn counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    metrics
        .find(&key)
        .map(|i| &metrics[i + key.len()..])
        .and_then(|rest| {
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// The response body without its leading `"session":"<key>",` member,
/// so a replay and a fresh bootstrap compare on content alone.
pub fn without_session(body: &str) -> &str {
    match body.strip_prefix("{\"session\":\"") {
        Some(rest) => rest.split_once("\",").map_or(body, |(_, tail)| tail),
        None => body,
    }
}

/// The session key a `/delta` bootstrap answered with.
pub fn session_key(body: &str) -> Option<&str> {
    body.strip_prefix("{\"session\":\"")?.split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_session_keys_parse() {
        let m = "{\n  \"counters\": {\n    \"serve.shed\": 3,\n    \"serve.snapshot_hit\": 12\n  }";
        assert_eq!(counter(m, "serve.snapshot_hit"), 12);
        assert_eq!(counter(m, "serve.shed"), 3);
        assert_eq!(counter(m, "serve.snapshot_miss"), 0);
        let a = "{\"session\":\"00000000000000ab\",\"status\":\"ok\"}";
        let b = "{\"session\":\"00000000000000cd\",\"status\":\"ok\"}";
        assert_eq!(session_key(a), Some("00000000000000ab"));
        assert_eq!(without_session(a), without_session(b));
        assert_eq!(
            without_session("{\"status\":\"ok\"}"),
            "{\"status\":\"ok\"}"
        );
    }
}
