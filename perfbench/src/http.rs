//! A minimal HTTP/1.1 keep-alive client for the serve workload: one
//! request at a time on one connection, bodies framed by `Content-Length`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A response as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Write one request with a `Content-Length` body.
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    if body.is_empty() {
        w.write_all(head.as_bytes())?;
    } else {
        // One write for small requests keeps Nagle out of the latency.
        let mut buf = std::mem::take(&mut head).into_bytes();
        buf.extend_from_slice(body);
        w.write_all(&buf)?;
    }
    w.flush()
}

/// Read one response: status line, headers, then exactly `Content-Length`
/// body bytes — never more, so the next response on the connection stays
/// intact.
pub fn read_reply<R: BufRead>(r: &mut R) -> Result<Reply, String> {
    let mut line = String::new();
    if r.read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?
        == 0
    {
        return Err("connection closed before the status line".into());
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if r.read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?
            == 0
        {
            return Err("connection closed inside the headers".into());
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| format!("bad header {h:?}"))?;
        let value = value.trim();
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            )
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Reply { status, body })
}

/// One keep-alive connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Reply, String> {
        write_request(&mut self.writer, method, target, body).map_err(|e| format!("send: {e}"))?;
        read_reply(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    #[test]
    fn content_length_frames_back_to_back_replies() {
        // The first body contains a fake status line and blank lines: only
        // Content-Length may decide where it ends.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 26\r\n\r\nA\r\n\r\nHTTP/1.1 500 Nope\r\n\r\nHTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nConnection: close\r\n\r\n{}";
        let mut r = Cursor::new(&wire[..]);
        let a = read_reply(&mut r).unwrap();
        assert_eq!(
            (a.status, a.body.as_slice()),
            (200, &b"A\r\n\r\nHTTP/1.1 500 Nope\r\n\r\n"[..])
        );
        let b = read_reply(&mut r).unwrap();
        assert_eq!((b.status, b.body.as_slice()), (404, &b"{}"[..]));
        assert!(read_reply(&mut r).is_err(), "stream is exhausted");
    }

    #[test]
    fn truncated_or_unframed_replies_are_errors() {
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_reply(&mut Cursor::new(&short[..])).is_err());
        let unframed = b"HTTP/1.1 200 OK\r\n\r\nabc";
        assert!(read_reply(&mut Cursor::new(&unframed[..])).is_err());
        assert!(read_reply(&mut Cursor::new(&b"garbage\r\n"[..])).is_err());
    }

    #[test]
    fn request_carries_its_body_length() {
        let mut out = Vec::new();
        write_request(&mut out, "POST", "/v1/t/ingest", b"N a X -\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("POST /v1/t/ingest HTTP/1.1\r\n"));
        assert!(text.contains("\r\nContent-Length: 8\r\n"));
        assert!(text.ends_with("\r\n\r\nN a X -\n"));
    }

    #[test]
    fn keep_alive_connection_is_reused_for_several_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Accept exactly one connection and answer three requests on it.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for i in 0..3 {
                let mut len = 0usize;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if h.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).unwrap();
                let reply = format!("{i}:{}", String::from_utf8(body).unwrap());
                write!(
                    writer,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{reply}",
                    reply.len()
                )
                .unwrap();
            }
        });
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.request("POST", "/x", b"hello").unwrap().body, b"0:hello");
        assert_eq!(c.request("GET", "/y", b"").unwrap().body, b"1:");
        assert_eq!(c.request("POST", "/z", b"bye").unwrap().body, b"2:bye");
        server.join().unwrap();
    }
}
