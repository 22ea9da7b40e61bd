//! The byte carrier between the socket coordinator and its `ufc-node`
//! workers: a Unix stream socket when the fleet runs on the coordinator's
//! own host (`SocketOptions::bind` is `None`), TCP for an explicit
//! [`crate::wire::BindConfig`].
//!
//! Everything above this module — framing, CRC, chaos, the handshake,
//! `Load`, partition teardown and reconnect, respawn, the receive-timeout
//! ladder — sees one [`Stream`] and cannot tell the two apart. A worker
//! learns which carrier to dial from the address it is given: `unix:` and
//! an absolute path, or `host:port`.
//!
//! An own-host listener lives in a fresh mode-0700 directory under
//! [`std::env::temp_dir`], so only the coordinator's user can reach it;
//! the directory is named after the coordinator's pid, the fleet's
//! session id and a process-wide counter, and removed when the listener
//! drops. A `SIGKILL`ed coordinator leaves its directory behind.

use std::fs::{self, DirBuilder};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::DirBuilderExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What marks a worker address as a Unix-socket path.
const UNIX_PREFIX: &str = "unix:";

/// The socket's name inside its fleet directory.
const SOCKET_NAME: &str = "sock";

/// One connection between the coordinator and a worker process.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Dials `addr`: `unix:<path>`, or `host:port` (with `TCP_NODELAY`,
    /// since every frame is a whole message someone waits for).
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        match addr.strip_prefix(UNIX_PREFIX) {
            Some(path) => UnixStream::connect(path).map(Stream::Unix),
            None => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.set_read_timeout(timeout),
            Stream::Unix(stream) => stream.set_read_timeout(timeout),
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.set_nonblocking(nonblocking),
            Stream::Unix(stream) => stream.set_nonblocking(nonblocking),
        }
    }

    /// Shuts both directions down: the peer reads end-of-stream.
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.shutdown(Shutdown::Both),
            Stream::Unix(stream) => stream.shutdown(Shutdown::Both),
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(stream) => (&*stream).read(buf),
            Stream::Unix(stream) => (&*stream).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(stream) => (&*stream).write(buf),
            Stream::Unix(stream) => (&*stream).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => (&*stream).flush(),
            Stream::Unix(stream) => (&*stream).flush(),
        }
    }
}

/// The coordinator's listener.
pub(crate) enum Listener {
    Tcp(TcpListener),
    /// Declared before its directory, so the socket closes before the
    /// directory is removed.
    Unix(UnixListener, FleetDir),
}

/// An own-host listener's private directory, removed with its socket on
/// drop.
pub(crate) struct FleetDir(PathBuf);

impl Drop for FleetDir {
    fn drop(&mut self) {
        let _ = fs::remove_file(self.0.join(SOCKET_NAME));
        let _ = fs::remove_dir(&self.0);
    }
}

impl Listener {
    /// Listens on TCP at `listen` (`host:port`).
    pub(crate) fn tcp(listen: &str) -> io::Result<Listener> {
        TcpListener::bind(listen).map(Listener::Tcp)
    }

    /// Listens on a Unix socket in a new mode-0700 directory under the
    /// temporary directory, named after this process, `session` and the
    /// number of own-host listeners opened before it in this process. The
    /// directory must not exist yet.
    pub(crate) fn own_host(session: u64) -> io::Result<Listener> {
        static OPENED: AtomicU64 = AtomicU64::new(0);
        let count = OPENED.fetch_add(1, Ordering::Relaxed);
        let dir = std::path::absolute(std::env::temp_dir())?
            .join(format!("ufc-{}-{session:016x}-{count}", std::process::id()));
        DirBuilder::new().mode(0o700).create(&dir)?;
        let dir = FleetDir(dir);
        let listener = UnixListener::bind(dir.0.join(SOCKET_NAME))?;
        Ok(Listener::Unix(listener, dir))
    }

    /// The address that leads back to this listener from this host, as
    /// [`Stream::connect`] takes it: `unix:` and the socket's absolute
    /// path, or the bound TCP address with a wildcard IP replaced by the
    /// loopback address of its family.
    pub(crate) fn local_addr(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(listener) => {
                let mut addr = listener.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Ok(addr.to_string())
            }
            Listener::Unix(_, dir) => {
                let path = dir.0.join(SOCKET_NAME);
                let path = path.to_str().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("socket path {} is not UTF-8", path.display()),
                    )
                })?;
                Ok(format!("{UNIX_PREFIX}{path}"))
            }
        }
    }

    /// Blocks for the next connection; a TCP one gets `TCP_NODELAY`.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            Listener::Unix(listener, _) => {
                listener.accept().map(|(stream, _)| Stream::Unix(stream))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::PermissionsExt;
    use std::path::Path;

    /// An own-host listener sits in a private directory: mode 0700, named
    /// after the session, reached at `unix:` plus an absolute path, and
    /// gone with the listener. Two listeners of one session get two
    /// directories.
    #[test]
    fn own_host_listener_lives_in_a_private_directory_until_dropped() {
        let session = 0x5EED;
        let listener = Listener::own_host(session).expect("listen on a Unix socket");
        let second = Listener::own_host(session).expect("a second fleet of the session");
        let addr = listener.local_addr().expect("the listener's address");
        let path = Path::new(addr.strip_prefix(UNIX_PREFIX).expect("a unix: address"));
        assert!(path.is_absolute(), "{addr} is not an absolute path");
        let dir = path.parent().expect("the socket's directory").to_owned();
        assert!(dir
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with("ufc-") && name.contains("0000000000005eed")));
        let mode = fs::metadata(&dir)
            .expect("stat the directory")
            .permissions();
        assert_eq!(mode.mode() & 0o777, 0o700, "{}", dir.display());
        assert_ne!(second.local_addr().expect("address"), addr);

        let client = Stream::connect(&addr).expect("dial the listener");
        let server = listener.accept().expect("accept the connection");
        (&client).write_all(b"ping").expect("write");
        let mut got = [0u8; 4];
        (&server).read_exact(&mut got).expect("read");
        assert_eq!(&got, b"ping");

        drop(listener);
        assert!(!dir.exists(), "{} outlived its listener", dir.display());
        assert!(Stream::connect(&addr).is_err());
        drop(second);
    }

    /// A wildcard TCP listener is reached at the loopback address of its
    /// family, at its port.
    #[test]
    fn a_wildcard_tcp_listener_is_reached_on_loopback() {
        let listener = Listener::tcp("0.0.0.0:0").expect("bind the wildcard address");
        let addr = listener.local_addr().expect("the listener's address");
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        let client = Stream::connect(&addr).expect("dial it");
        listener.accept().expect("accept");
        client.shutdown().expect("shut down");
    }
}
