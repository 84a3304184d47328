//! Where a cluster's bodies ran: the thread, and how many OS threads the
//! whole process had then. A test using this sits alone in its binary, so
//! no neighbouring test's threads disturb the count.

#![allow(
    clippy::disallowed_types,
    reason = "test code: process bodies record the thread they ran on"
)]

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// OS threads of this process right now.
pub fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Where each body ran: `(who, thread, OS threads in the process then)`.
pub type Seen = Arc<Mutex<Vec<(String, ThreadId, usize)>>>;

pub fn note(seen: &Seen, who: String) {
    seen.lock()
        .unwrap()
        .push((who, thread::current().id(), os_threads()));
}

/// Every body in `who` ran, each time on this thread and while the process
/// had the `before` OS threads it had when the run started.
pub fn all_ran_on_the_caller(seen: &Seen, who: &[&str], before: usize, label: &str) {
    let me = thread::current().id();
    let seen = seen.lock().unwrap();
    for who in who {
        let mine: Vec<_> = seen.iter().filter(|(w, ..)| w == who).collect();
        assert!(!mine.is_empty(), "{label}: {who} never ran");
        for (_, thread, threads) in mine {
            assert_eq!(*thread, me, "{label}: {who} ran off the caller's thread");
            assert_eq!(
                *threads, before,
                "{label}: {who} ran while the run had spawned a thread"
            );
        }
    }
}
