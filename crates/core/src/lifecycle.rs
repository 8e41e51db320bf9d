//! Process-wide stop flag and SIGINT/SIGTERM handlers.
//!
//! The standalone caching proxy polls the flag to flush its journal and
//! write a final cache snapshot before exiting, so a `kill` (SIGTERM) or
//! Ctrl-C never loses the warm working set.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide stop flag raised by the SIGINT/SIGTERM handler.
static STOP: AtomicBool = AtomicBool::new(false);

/// True once a termination signal has been received.
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod signals {
    use super::STOP;
    use std::sync::atomic::Ordering;

    // Raw libc signal(2) binding: the workspace deliberately vendors no
    // libc crate, and installing a flag-setting handler needs only this
    // one symbol. Write access to a static AtomicBool is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Install SIGINT/SIGTERM handlers that raise the stop flag so in-flight
/// work flushes its final snapshot and exits cleanly. No-op off Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    signals::install();
}
