//! The two system calls the benchmark needs and `std` does not offer,
//! made directly so the package stays free of external crates: pinning
//! to one CPU and the calling thread's CPU clock. Linux on x86-64;
//! elsewhere pinning does nothing and the CPU clock is the wall clock.

use std::sync::OnceLock;
use std::time::Instant;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    const SCHED_SETAFFINITY: usize = 203;
    const CLOCK_GETTIME: usize = 228;
    const CLOCK_THREAD_CPUTIME_ID: usize = 3;

    /// SAFETY (caller): the arguments are valid for system call `number`.
    unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") a, in("rsi") b, in("rdx") c,
            lateout("rcx") _, lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub fn pin_to_current_cpu() -> Option<usize> {
        // Field 39 of /proc/thread-self/stat: the CPU last run on.
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        let fields = stat.rsplit(')').next()?;
        let cpu: usize = fields.split_whitespace().nth(36)?.parse().ok()?;
        let mut mask = [0u64; 16];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: sched_setaffinity(0 = this thread, size, mask) reads
        // `size_of_val(&mask)` bytes from a live array.
        let ret = unsafe {
            syscall3(
                SCHED_SETAFFINITY,
                0,
                std::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
            )
        };
        (ret == 0).then_some(cpu)
    }

    pub fn thread_cpu_ns() -> Option<u64> {
        let mut ts = [0i64; 2];
        // SAFETY: clock_gettime writes one `timespec` — two 64-bit fields
        // on this target — to a live array.
        let ret = unsafe {
            syscall3(
                CLOCK_GETTIME,
                CLOCK_THREAD_CPUTIME_ID,
                ts.as_mut_ptr() as usize,
                0,
            )
        };
        (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    pub fn pin_to_current_cpu() -> Option<usize> {
        None
    }

    pub fn thread_cpu_ns() -> Option<u64> {
        None
    }
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the CPU it is running on (`sched_setaffinity`). Returns that CPU.
pub fn pin_to_current_cpu() -> Option<usize> {
    imp::pin_to_current_cpu()
}

/// CPU time the calling thread has used, in ns
/// (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`): time it was preempted or
/// asleep does not count.
pub fn thread_cpu_ns() -> u64 {
    imp::thread_cpu_ns().unwrap_or_else(|| {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    })
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let asleep = thread_cpu_ns() - t0;
        let mut x = 1u64;
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = thread_cpu_ns() - t0 - asleep;
        assert!(busy > asleep, "busy {busy} ns, asleep {asleep} ns");
    }
}
