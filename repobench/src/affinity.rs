//! Pinning the calling thread to one CPU, for the open loop. Threads
//! spawned while it is pinned inherit the pin.

/// A saved CPU mask (room for 1024 CPUs).
pub type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is writable for the size passed; pid 0 is the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is readable for the size passed; pid 0 is the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
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

    pub fn current_cpu() -> Option<usize> {
        None
    }
}

/// Pins the calling thread to the CPU it runs on and returns the mask to
/// restore, or `None` (nothing changed) where that is not possible.
pub fn pin_to_current_cpu() -> Option<Mask> {
    let saved = sys::get()?;
    let cpu = sys::current_cpu().filter(|&c| c < 64 * saved.len())?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    sys::set(&one).then_some(saved)
}

/// Restores a mask saved by [`pin_to_current_cpu`].
pub fn restore(mask: &Mask) {
    sys::set(mask);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_and_restore() {
        let Some(saved) = pin_to_current_cpu() else { return };
        assert_eq!(sys::get().map(|m| m.iter().map(|w| w.count_ones()).sum::<u32>()), Some(1));
        restore(&saved);
        assert_eq!(sys::get(), Some(saved));
    }
}
