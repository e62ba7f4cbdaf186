//! A minimal keep-alive HTTP/1.1 client over one `TcpStream`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status, body, and the bytes it occupied on the wire.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub response_bytes: usize,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// The exact bytes [`Client::request`] sends for a request.
    pub fn encode(method: &str, path: &str, body: &str) -> Vec<u8> {
        let mut bytes = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        bytes
    }

    /// Sends one request and reads its reply.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        self.writer.write_all(&Client::encode(method, path, body))?;
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut response_bytes = 0;
        let mut line = String::new();
        response_bytes += self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            response_bytes += n;
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length =
                        value.trim().parse().map_err(|_| bad("unparsable Content-Length"))?;
                }
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        response_bytes += content_length;
        let body = String::from_utf8(buf).map_err(|_| bad("non-UTF-8 body"))?;
        Ok(Reply { status, body, response_bytes })
    }
}

/// Percent-encodes a query component (RFC 3986 unreserved set).
pub fn encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}
