//! Software prefetch for loops that chase rows at random addresses.
//!
//! The engine's per-target loops read an adjacency header, a neighbor list
//! and state rows that sit at unrelated addresses in matrices far larger
//! than the cache. Each of those loads depends on the one before it, so the
//! out-of-order window never reaches the next target; asking for a later
//! target's lines while working on the current one overlaps the misses.
//! [`DynGraph`](crate::DynGraph) uses the helper for its own headers and
//! lists, and the engine for its state rows.

/// Asks the cache for the line holding `s[i]`, ahead of a read.
///
/// A hint, never a load: it does nothing when `i` is past the end of `s`,
/// when `T` is zero-sized, or on a target other than x86_64, and it never
/// changes what the program computes. Safe for any `i`: the `unsafe`
/// intrinsic runs only for an address inside `s`, and a prefetch never
/// faults and writes nothing.
#[inline(always)]
pub fn prefetch<T>(s: &[T], i: usize) {
    if i >= s.len() || std::mem::size_of::<T>() == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `i < s.len()`, so the address is inside `s`; and a prefetch
    // is only a hint that never faults and writes nothing.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(s.as_ptr().add(i).cast::<i8>());
    }
}

/// Bytes per cache line on the targets the hint serves.
const LINE_BYTES: usize = 64;

/// Asks the cache for every line `s` touches, ahead of a read of all of it.
/// A hint like [`prefetch`]: it never changes what the program computes.
#[inline(always)]
pub fn prefetch_lines<T>(s: &[T]) {
    let step = (LINE_BYTES / std::mem::size_of::<T>().max(1)).max(1);
    for i in (0..s.len()).step_by(step) {
        prefetch(s, i);
    }
    // A slice that does not start on a line boundary spills into one more.
    prefetch(s, s.len().wrapping_sub(1));
}

#[cfg(test)]
mod tests {
    use super::{prefetch, prefetch_lines};

    #[test]
    fn every_index_is_a_noop_on_the_values() {
        let empty: [f32; 0] = [];
        prefetch(&empty, 0);
        prefetch(&empty, usize::MAX);
        let v = vec![1.0f32, 2.0, 3.0];
        prefetch(&v, 2); // the last element
        prefetch(&v, 3); // one past the end
        prefetch(&v, usize::MAX);
        assert_eq!(v, [1.0, 2.0, 3.0]);
        // Zero-sized elements have no line to fetch, whatever the length.
        let units = vec![(); 1 << 20];
        prefetch(&units, 0);
        prefetch(&units, (1 << 20) - 1);
        prefetch(&units, 1 << 20);
        prefetch_lines(&empty);
        prefetch_lines(&v);
        prefetch_lines(&units);
        prefetch_lines(&[0u8; 200][..]);
    }
}
