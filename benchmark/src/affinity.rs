//! Pinning a client thread to one processor.
//!
//! `serve_mixed` has two client threads. Left to the scheduler, the
//! writer sometimes shares the reader's processor and sometimes does
//! not, and stays where it is for a whole run: commits then take 42 µs
//! or 50 µs (the data they touch is in the other core's cache), and
//! `write_ms` moves by a fifth from run to run for no reason inside the
//! engine. Each client on a processor of its own is the steadier and
//! the more honest set-up: two clients, two cores.

#[cfg(target_os = "linux")]
mod sys {
    /// Bits of a `cpu_set_t` as glibc defines it: 1024.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Pin the calling thread to the `n`-th processor it is allowed to run
/// on (counting round and round if there are fewer). `false` when the
/// system refuses or is not Linux; the caller carries on unpinned and
/// says so in its report.
pub fn pin_to_allowed_cpu(n: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut allowed = [0u64; sys::WORDS];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of `size` bytes,
        // and pid 0 names the calling thread.
        if unsafe { sys::sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return false;
        }
        let cpus: Vec<usize> = (0..sys::WORDS * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let Some(&cpu) = cpus.get(n % cpus.len().max(1)) else {
            return false;
        };
        let mut only = [0u64; sys::WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a live buffer of `size` bytes, read only.
        unsafe { sys::sched_setaffinity(0, size, only.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = n;
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn a_thread_can_be_pinned_and_others_are_left_alone() {
        let pinned = std::thread::spawn(|| super::pin_to_allowed_cpu(1))
            .join()
            .unwrap();
        assert!(pinned);
        // Affinity is per thread: this one still has every processor.
        assert!(std::thread::available_parallelism().is_ok());
    }
}
