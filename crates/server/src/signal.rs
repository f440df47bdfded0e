//! SIGTERM-triggered graceful drain, without any signal-handling crate.
//!
//! The handler only sets a process-wide atomic flag — the one operation
//! that is async-signal-safe — and the server's engine loop polls it
//! between queue pops. Tests call [`request_shutdown`] directly; the
//! real signal path is exercised by the CI `serve` job (`kill -TERM`).

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler (or [`request_shutdown`]); polled by the
/// engine loop. Process-wide: one resident server per process.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

mod sys {
    use core::ffi::c_int;
    use std::sync::atomic::Ordering;

    const SIGTERM: c_int = 15;
    const SIGINT: c_int = 2;

    extern "C" {
        // libc is already linked through std; `signal` is the one
        // binding we need, so a full FFI crate would be dead weight.
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: c_int) {
        // Only an atomic store: anything else is not async-signal-safe.
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(c_int) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Installs the SIGTERM/SIGINT handler (idempotent).
pub fn install_handler() {
    sys::install();
}

/// Whether a drain has been requested (signal or [`request_shutdown`]).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests a graceful drain, exactly as SIGTERM would. In-process
/// server tests use this instead of raising a real signal.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears a pending shutdown request so the next `serve` run starts
/// clean. Called on server startup (and by tests between runs).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}
