//! A round gate that wakes its workers while still holding the lock.

use parking_lot::{Condvar, Mutex};

pub struct Gate {
    round: Mutex<u64>,
    cv: Condvar,
}

impl Gate {
    pub fn next_round(&self) {
        let mut round = self.round.lock();
        *round += 1;
        self.cv.notify_all();
    }
}
