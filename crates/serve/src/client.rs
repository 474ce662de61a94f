//! Line-oriented client: one request line out, one response line back.
//!
//! [`Client`] is the primitive the `pipm-client` binary, the open-loop
//! benchmark in [`bench`](crate::bench) and the tests speak through.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One protocol connection to a `pipm-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Read timeout [`Client::connect`] applies when the caller does not
/// choose one: long enough for a cold full-scale batch, short enough
/// that a wedged daemon does not hang a script forever.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(600);

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7457`) with the
    /// [`DEFAULT_READ_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option failures.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Some(DEFAULT_READ_TIMEOUT))
    }

    /// Connects with an explicit read timeout; `None` blocks forever.
    /// The `pipm-client` binary wires `--timeout-secs` through here, so
    /// batches slower than the default 600 s no longer kill the client
    /// mid-wait, and impatient scripts can fail fast.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option failures.
    pub fn connect_with_timeout(
        addr: &str,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unexpectedly closed connection.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        // Line and newline in one write: under TCP_NODELAY two writes
        // can leave as two segments, and a daemon sweep that reads
        // between them sees a partial line and answers a sweep later.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// `request` plus JSON parsing of the response.
    ///
    /// # Errors
    ///
    /// I/O failure, or a response that is not valid JSON.
    pub fn request_json(&mut self, line: &str) -> std::io::Result<Json> {
        let raw = self.request(line)?;
        crate::json::parse(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response JSON: {e} (raw: {raw})"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    // Regression test: the read timeout used to be hardcoded to 600 s
    // inside `connect`, so a silent daemon wedged every caller for ten
    // minutes with no way to opt out. The timeout is now configurable.
    #[test]
    fn read_timeout_is_configurable_and_defaults_to_600s() {
        // A listener that never accepts: connections complete the TCP
        // handshake into the backlog, then never see a response byte.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        let defaulted = Client::connect(&addr).unwrap();
        assert_eq!(
            defaulted.reader.get_ref().read_timeout().unwrap(),
            Some(DEFAULT_READ_TIMEOUT),
            "connect() must keep the historical 600s default"
        );

        let mut impatient =
            Client::connect_with_timeout(&addr, Some(Duration::from_millis(50))).unwrap();
        let start = Instant::now();
        let err = impatient.request(r#"{"cmd":"status"}"#).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a read timeout, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a 50ms timeout must not wait anywhere near the 600s default"
        );
    }
}
