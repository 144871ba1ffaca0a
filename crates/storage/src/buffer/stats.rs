//! The pool's I/O counters, declared once: [`IoStats`] is the snapshot the
//! harness reads, `AtomicIoStats` its lock-free twin the pool counts into.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter once: the `IoStats` field, its atomic twin, the
/// snapshot, the difference, the reset, and one `name(n)` adder per counter.
macro_rules! io_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Cumulative I/O counters of a [`BufferPool`](super::BufferPool).
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct IoStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl IoStats {
            /// Difference between two snapshots (`self - earlier`).
            pub fn since(&self, earlier: &IoStats) -> IoStats {
                IoStats { $($name: self.$name - earlier.$name,)* }
            }
        }

        /// The pool's counters as relaxed atomics: the shared-lock read path,
        /// the lock-free §3.3 skip path and
        /// [`BufferPool::stats`](super::BufferPool::stats) touch them without
        /// any lock. Counters only ever increase between resets, so
        /// `IoStats::since` on two snapshots never underflows even while
        /// other threads are counting.
        #[derive(Default)]
        pub(super) struct AtomicIoStats {
            $($name: AtomicU64,)*
        }

        impl AtomicIoStats {
            pub(super) fn snapshot(&self) -> IoStats {
                IoStats { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            pub(super) fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            $(
                /// Adds `n` to this counter.
                #[inline]
                pub(super) fn $name(&self, n: u64) {
                    self.$name.fetch_add(n, Ordering::Relaxed);
                }
            )*
        }
    };
}

io_counters! {
    /// Page accesses served (hit or miss).
    logical_reads,
    /// Pages fetched from the disk on a miss.
    physical_reads,
    /// Pages written back to the disk (eviction or flush).
    physical_writes,
    /// Frames evicted to make room.
    evictions,
    /// Page reads avoided by the §3.3 page-skip test (whole block known
    /// inaccessible from memory).
    pages_skipped,
    /// Physical reads repeated after a transient error or a checksum
    /// mismatch (each extra attempt counts once).
    read_retries,
    /// Physical writes repeated after a transient error.
    write_retries,
    /// Checksum verifications that found a payload/trailer mismatch
    /// (including mismatches later cleared by a successful retry).
    checksum_failures,
    /// [`with_page`](super::BufferPool::with_page) hits served entirely
    /// under the pool's *shared* lock (no exclusive lock taken).
    read_shared,
    /// [`with_page`](super::BufferPool::with_page) calls that fell back to
    /// the exclusive lock (cache miss, or the page appeared between the
    /// shared probe and the exclusive acquisition).
    read_exclusive_fallback,
    /// Exponential-backoff pauses slept between I/O attempts (one per
    /// non-zero pause; see [`RetryPolicy::backoff_for`](crate::RetryPolicy::backoff_for)).
    backoffs,
    /// Times the circuit breaker tripped open (a run of
    /// [`RetryPolicy::breaker_threshold`](crate::RetryPolicy::breaker_threshold)
    /// consecutive surfaced I/O failures).
    breaker_trips,
    /// Operations refused with
    /// [`StorageError::BreakerOpen`](crate::StorageError::BreakerOpen) while
    /// the breaker was open.
    breaker_fast_fails,
    /// Half-open probes admitted while the breaker was open (successful
    /// probes close it).
    breaker_probes,
    /// [`with_page`](super::BufferPool::with_page) calls served from the
    /// version ring's retained pre-images instead of the current frame — a
    /// pinned reader time-traveling to its snapshot epoch (see
    /// [`BufferPool::enable_version_ring`](super::BufferPool::enable_version_ring)).
    versioned_reads,
    /// LRU heap entries popped to choose eviction victims: one per eviction
    /// plus one per entry found stale (its frame was hit since it was
    /// pushed).
    victim_probes,
    /// Whole-page copies: a write to a page a handle is still held on, and a
    /// seal (write-back or commit) of such a page. A read-only workload
    /// makes none.
    page_copies,
}
