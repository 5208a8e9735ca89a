//! Address parsing and the TCP / Unix-domain-socket stream abstraction.
//!
//! One syntax rule: an address containing `/` is a Unix-domain socket path,
//! anything else is `host:port` TCP. Loopback chaos runs (and the CI
//! `net-smoke` job) use UDS for speed and hermeticity; TCP exists for
//! spreading servers across hosts.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A listen/dial address: TCP `host:port` or a Unix-domain socket path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// A TCP endpoint, kept as the literal `host:port` string.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl Addr {
    /// Parses an address: anything containing `/` is a UDS path, the rest
    /// is TCP `host:port`.
    #[must_use]
    pub fn parse(s: &str) -> Addr {
        if s.contains('/') {
            Addr::Uds(PathBuf::from(s))
        } else {
            Addr::Tcp(s.to_string())
        }
    }

    /// `"tcp"` or `"uds"` — used in logs and the chaos summary.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Addr::Tcp(_) => "tcp",
            Addr::Uds(_) => "uds",
        }
    }

    /// Binds a listener on this address. A stale UDS socket file from a
    /// previous run is removed first — the common crash-restart case.
    ///
    /// # Errors
    ///
    /// The underlying bind error.
    pub fn listen(&self) -> io::Result<Listener> {
        match self {
            Addr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp.as_str())?)),
            Addr::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Uds(UnixListener::bind(path)?))
            }
        }
    }

    /// Connects once.
    ///
    /// # Errors
    ///
    /// The underlying connect error.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Addr::Tcp(hp) => {
                let s = TcpStream::connect(hp.as_str())?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Addr::Uds(path) => Ok(Stream::Uds(UnixStream::connect(path)?)),
        }
    }

    /// Connects, retrying on refusal until `window` elapses — covers the
    /// startup race where a driver dials servers that are still binding.
    ///
    /// # Errors
    ///
    /// The last connect error once the window is spent.
    pub fn connect_retry(&self, window: Duration) -> io::Result<Stream> {
        let deadline = Instant::now() + window;
        loop {
            match self.connect() {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "{hp}"),
            Addr::Uds(path) => write!(f, "{}", path.display()),
        }
    }
}

/// A connected byte stream over either backend.
#[derive(Debug)]
pub enum Stream {
    /// TCP.
    Tcp(TcpStream),
    /// Unix domain socket.
    Uds(UnixStream),
}

impl Stream {
    /// A second handle on the same connection (reader/writer split).
    ///
    /// # Errors
    ///
    /// The underlying clone error.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            Stream::Uds(s) => Ok(Stream::Uds(s.try_clone()?)),
        }
    }

    /// Bounds every later `read` on this connection (all handles of it: the
    /// timeout is the socket's): a read that gets no byte within `timeout`
    /// fails with [`io::ErrorKind::WouldBlock`] or
    /// [`io::ErrorKind::TimedOut`]. `None` blocks indefinitely, the
    /// default.
    ///
    /// # Errors
    ///
    /// The underlying `setsockopt` error; a zero `timeout` is
    /// [`io::ErrorKind::InvalidInput`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Uds(s) => s.set_read_timeout(timeout),
        }
    }

    /// Shuts the connection down in both directions — for every handle of
    /// it, clones included: a reader blocked on any of them sees the end
    /// of the stream, and so does the peer. Closing one handle does neither
    /// while a clone lives.
    ///
    /// # Errors
    ///
    /// The underlying `shutdown` error (a connection the peer has already
    /// torn down may report `NotConnected`).
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A bound listener over either backend.
#[derive(Debug)]
pub enum Listener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix domain socket.
    Uds(UnixListener),
}

impl Listener {
    /// Accepts one connection (TCP connections get `TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// The underlying accept error.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Uds(s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_distinguishes_uds_from_tcp() {
        assert_eq!(
            Addr::parse("127.0.0.1:9000"),
            Addr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(Addr::parse("localhost:80").kind(), "tcp");
        assert_eq!(
            Addr::parse("/tmp/s0.sock"),
            Addr::Uds(PathBuf::from("/tmp/s0.sock"))
        );
        assert_eq!(Addr::parse("./rel/s.sock").kind(), "uds");
    }

    #[test]
    fn uds_listen_connect_round_trip_and_stale_socket_cleanup() {
        let dir = std::env::temp_dir().join(format!("blunt-net-conn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = Addr::Uds(dir.join("rt.sock"));
        // Bind twice: the second listen must clear the stale file.
        for _ in 0..2 {
            let l = addr.listen().unwrap();
            let mut cl = addr.connect_retry(Duration::from_secs(1)).unwrap();
            let mut sv = l.accept().unwrap();
            cl.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            sv.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
