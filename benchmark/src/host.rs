//! The CPUs this process runs on.
//!
//! A run is confined to one CPU. Its threads (the client, the socket reader,
//! the server worker) hand work to each other and never run at the same
//! time; what a second CPU adds is a wake-up across virtual CPUs at every
//! hand-over, which on the reference host costs 80 us or nothing depending
//! on where the scheduler happened to put the threads: unconfined,
//! `search_tcp` read a point `get` at 30 us in one run and 110 us in the
//! next. Only the two pool workers of `insert_many` could have used a second
//! CPU. Elsewhere than on Linux nothing happens.

use std::sync::OnceLock;

type Mask = [u64; 16];

/// The CPUs the process was allowed before it was confined.
static ALLOWED: OnceLock<Mask> = OnceLock::new();

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: the call writes at most `size_of::<Mask>()` bytes to `mask`.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (status == 0).then_some(mask)
    }

    /// Sets the affinity of the calling thread; threads it starts inherit it.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: the call reads `size_of::<Mask>()` bytes of `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// The last of the allowed CPUs (the first serves most interrupts).
fn last_of(allowed: &Mask) -> Option<Mask> {
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let mut one: Mask = [0; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    Some(one)
}

/// Confines the calling thread, and every thread it starts from now on, to
/// one CPU. False if the host would not have it.
pub fn confine_to_one_cpu() -> bool {
    let Some(allowed) = sys::get() else { return false };
    let allowed = ALLOWED.get_or_init(|| allowed);
    last_of(allowed).is_some_and(|one| sys::set(&one))
}

/// Runs `work` on all the CPUs the process was allowed (threads that exist
/// already stay where they are), then confines the calling thread again.
pub fn with_all_cpus<T>(work: impl FnOnce() -> T) -> T {
    let Some(allowed) = ALLOWED.get() else { return work() };
    sys::set(allowed);
    let out = work();
    if let Some(one) = last_of(allowed) {
        sys::set(&one);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_chosen() {
        let mut allowed: Mask = [0; 16];
        assert!(last_of(&allowed).is_none());
        allowed[0] = 0b1011;
        assert_eq!(last_of(&allowed).expect("one")[0], 0b1000);
        allowed[2] = 1;
        let one = last_of(&allowed).expect("one");
        assert_eq!((one[0], one[2]), (0, 1));
    }
}
