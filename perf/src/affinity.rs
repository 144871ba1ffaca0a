//! CPU placement: the load generator and the server child share one CPU.
//!
//! Left to the scheduler, a request-response ping-pong over loopback on a
//! two-CPU virtual machine flips between placements. With a connection's
//! client and server threads on one CPU a `wire_hot` query takes 28 µs,
//! across CPUs 120 µs (a cross-CPU wake-up in a guest is an inter-processor
//! interrupt through the hypervisor), and the scheduler changes its mind
//! every few seconds: unpinned, ten runs of one build spread 13 % in
//! throughput and 25 % in p99. Two fixed placements were tried:
//!
//! * server on one CPU, load generator on the other: steady on a quiet host
//!   (3 % and 6 %), but every request needs both virtual CPUs running at
//!   once, and when the host takes CPU time away from the guest (15 % steal
//!   was observed) throughput falls 23-fold;
//! * everything on one CPU: as steady on a quiet host, and under the same
//!   steal throughput falls 2-fold, in proportion.
//!
//! The second carries every bounded metric. The process pins itself, before
//! it starts any thread or child (so all of them inherit the mask), to the
//! CPU it may use that has serviced the fewest device interrupts: on the
//! machine this was built on every completion interrupt of the block device
//! lands on CPU 1, and with the benchmark there too eight runs of `wire_hot`
//! spread 0.15 in p99 and 0.21 in update latency, against 0.08 and 0.05 on
//! CPU 0, measured alternately in the same hour.
//!
//! Every end-to-end number is therefore a one-CPU number: the load
//! generator's own work (encoding requests, decoding answers) is part of it,
//! and whatever the server could do on two CPUs at once is serialized. The
//! traced run's two-CPU phase ([`on_every_cpu`]) leaves the server child
//! every CPU the process was allowed, the load generator staying on its own;
//! its unbounded `client.two_cpu_*` metrics are where a change in
//! parallelism shows. Where the calls are unavailable or refused the run
//! goes on unpinned.

use std::sync::OnceLock;

/// Words of the CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPU this process pinned itself to, and the CPUs it was allowed when
/// it started.
static PLACEMENT: OnceLock<(usize, Mask)> = OnceLock::new();

fn only(cpu: usize) -> Mask {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Restricts the calling thread, and whatever it starts from here on, to
/// the CPUs of `mask`.
#[cfg(target_os = "linux")]
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Device interrupts each CPU has serviced since boot: the numbered rows of
/// `/proc/interrupts`, summed per column. Empty where the file is missing.
#[cfg(target_os = "linux")]
fn device_interrupts() -> std::collections::HashMap<usize, u64> {
    let text = std::fs::read_to_string("/proc/interrupts").unwrap_or_default();
    let mut lines = text.lines();
    let cpus: Vec<usize> = lines
        .next()
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|h| h.strip_prefix("CPU")?.parse().ok())
        .collect();
    let mut serviced = std::collections::HashMap::new();
    for line in lines {
        let mut fields = line.split_whitespace();
        // Rows of per-CPU kernel interrupts (LOC, RES, ..) are named, not
        // numbered.
        let numbered = fields
            .next()
            .and_then(|f| f.strip_suffix(':'))
            .is_some_and(|irq| irq.parse::<u32>().is_ok());
        if numbered {
            for (&cpu, count) in cpus.iter().zip(fields.map_while(|f| f.parse::<u64>().ok())) {
                *serviced.entry(cpu).or_default() += count;
            }
        }
    }
    serviced
}

/// Pins the calling thread — and every thread and process it starts from
/// here on — to the quietest CPU it is allowed (see the module text).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread. The kernel writes at
    // most that many bytes.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return;
    }
    let serviced = device_interrupts();
    let Some(own) = (0..MASK_WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .min_by_key(|c| serviced.get(c).copied().unwrap_or(0))
    else {
        return;
    };
    if set(&only(own)) {
        let _ = PLACEMENT.set((own, allowed));
    }
}

/// Runs `spawn` with the calling thread back on every CPU the process was
/// allowed, so that the process it starts may use them all, then pins the
/// thread again. `None` when there is only one CPU (or the process is
/// unpinned): `spawn` is not run.
#[cfg(target_os = "linux")]
pub fn on_every_cpu<T>(spawn: impl FnOnce() -> T) -> Option<T> {
    let (own, allowed) = PLACEMENT.get()?;
    if *allowed == only(*own) || !set(allowed) {
        return None;
    }
    let out = spawn();
    // Cannot fail: the same call with the same mask succeeded at start-up.
    set(&only(*own));
    Some(out)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() {}

#[cfg(not(target_os = "linux"))]
pub fn on_every_cpu<T>(_spawn: impl FnOnce() -> T) -> Option<T> {
    None
}
