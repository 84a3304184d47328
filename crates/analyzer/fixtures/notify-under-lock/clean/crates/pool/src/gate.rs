//! A round gate that releases the lock before it wakes its workers: by
//! the end of the guard's block, by `drop`, or by never naming the guard.

use parking_lot::{Condvar, Mutex};

pub struct Gate {
    round: Mutex<u64>,
    cv: Condvar,
}

impl Gate {
    pub fn next_round(&self) {
        {
            let mut round = self.round.lock();
            *round += 1;
        }
        self.cv.notify_all();
    }

    pub fn skip_round(&self) {
        let mut round = self.round.lock();
        *round += 2;
        drop(round);
        self.cv.notify_all();
    }

    pub fn reset(&self) {
        *self.round.lock() = 0;
        self.cv.notify_one();
    }

    pub fn wait_for(&self, want: u64) {
        let mut round = self.round.lock();
        while *round < want {
            self.cv.wait(&mut round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_test_may_notify_however_it_likes() {
        let gate = Gate {
            round: Mutex::new(0),
            cv: Condvar::new(),
        };
        let round = gate.round.lock();
        gate.cv.notify_all();
        drop(round);
    }
}
