//! The one blocking TCP accept loop, shared by the coordinator and the
//! service. Each connection goes to a detached handler thread at once,
//! with no timer in between; [`Acceptor::stop`] wakes the blocked
//! `accept` with a connection of its own. Handlers are counted, not
//! kept, so memory does not grow with the connections taken.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Running handlers, and the condition variable their exits notify.
type Live = (Mutex<usize>, Condvar);

fn count(live: &Live) -> MutexGuard<'_, usize> {
    // A plain integer: a panic while holding the lock cannot tear it.
    live.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts one handler from its accept to its exit, panics included.
struct LiveGuard(Arc<Live>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        *count(&self.0) -= 1;
        self.0 .1.notify_all();
    }
}

/// A running accept loop. Dropped without [`Acceptor::stop`], its thread
/// stays blocked in `accept` until the process ends.
pub(crate) struct Acceptor {
    thread: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    wake: SocketAddr,
    live: Arc<Live>,
}

impl Acceptor {
    /// Accepts on `listener` (switched to blocking mode) and runs
    /// `handle` on its own thread for each connection.
    ///
    /// # Errors
    ///
    /// Listener configuration failures.
    pub(crate) fn spawn<F>(listener: TcpListener, handle: F) -> std::io::Result<Acceptor>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        listener.set_nonblocking(false)?;
        let wake = wake_addr(listener.local_addr()?);
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(Live::default());
        let thread = {
            let (stop, live, handle) = (Arc::clone(&stop), Arc::clone(&live), Arc::new(handle));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            // Control messages are small: send them now.
                            let _ = stream.set_nodelay(true);
                            *count(&live) += 1;
                            let guard = LiveGuard(Arc::clone(&live));
                            let handle = Arc::clone(&handle);
                            std::thread::spawn(move || {
                                let _guard = guard;
                                handle(stream);
                            });
                        }
                        // Out of descriptors or the like: back off, not spin.
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
        };
        Ok(Acceptor {
            thread,
            stop,
            wake,
            live,
        })
    }

    /// Waits until no handler is running, or until `deadline`.
    pub(crate) fn wait_idle(&self, deadline: Instant) {
        let left = deadline.saturating_duration_since(Instant::now());
        let n = count(&self.live);
        let _ = self.live.1.wait_timeout_while(n, left, |n| *n > 0);
    }

    /// Stops accepting and joins the accept thread; returns `true` once
    /// it is joined. Running handlers finish on their own. If even a
    /// loopback connect fails, the blocked thread is left to end with
    /// the process rather than hang the caller.
    pub(crate) fn stop(self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        TcpStream::connect_timeout(&self.wake, Duration::from_secs(1)).is_ok()
            && self.thread.join().is_ok()
    }
}

/// An address that reaches `local` from this host: the loopback address
/// of the same family when the listener is bound to the wildcard.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, local.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, local.port()).into(),
        _ => local,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::io::{Read, Write};

    /// Echoes bytes until the peer closes.
    fn echo(mut stream: TcpStream) {
        let mut buf = [0u8; 64];
        while let Ok(n) = stream.read(&mut buf) {
            if n == 0 || stream.write_all(&buf[..n]).is_err() {
                return;
            }
        }
    }

    #[test]
    fn finished_connections_leave_nothing_behind() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = Acceptor::spawn(listener, echo).unwrap();
        let mut peak = 0;
        for _ in 0..200 {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"x").unwrap();
            let mut reply = [0u8; 1];
            client.read_exact(&mut reply).unwrap();
            assert_eq!(&reply, b"x");
            drop(client);
            peak = peak.max(*count(&acceptor.live));
        }
        acceptor.wait_idle(Instant::now() + Duration::from_secs(5));
        assert_eq!(*count(&acceptor.live), 0, "handlers outlived their clients");
        // Sequential clients: a handler outlives its client only by the
        // moment it takes to see EOF.
        assert!(
            peak <= 16,
            "{peak} handlers live at once for sequential clients"
        );
        assert!(acceptor.stop());
    }

    fn stop_returns_promptly(bind: &str) {
        let listener = TcpListener::bind(bind).unwrap();
        let acceptor = Acceptor::spawn(listener, echo).unwrap();
        let start = Instant::now();
        assert!(acceptor.stop(), "the wake connect to {bind} failed");
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "stop on {bind} took {took:?}"
        );
    }

    #[test]
    fn stop_wakes_a_loopback_listener() {
        stop_returns_promptly("127.0.0.1:0");
    }

    #[test]
    fn stop_wakes_a_wildcard_listener() {
        stop_returns_promptly("0.0.0.0:0");
    }

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:7".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7".parse().unwrap());
        let v6: SocketAddr = "[::]:7".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:7".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }
}
