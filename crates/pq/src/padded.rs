//! Cache-line padding to prevent false sharing.
//!
//! The MultiCounter spreads contention over `m` independent atomic
//! words. If adjacent words shared cache lines, hardware would
//! re-serialize them: every increment would invalidate its neighbours'
//! lines and the counter would scale no better than a single word.
//! [`CachePadded<T>`] aligns each value to 128 bytes — two 64-byte
//! lines — because Intel's adjacent-line prefetcher pairs lines, so
//! 64-byte alignment alone still exhibits false sharing in practice.
//!
//! It serves `dlz-core`'s counters: `ExactCounter`'s one word and the
//! cells of `MultiCounter` and `ShardedCounter`. (It lives in
//! `dlz-pq`, the lowest crate in the workspace.) [`LockedPq`](crate::LockedPq)
//! does not use it: its header shares a line with the queue it guards,
//! and the struct's own 128-byte alignment keeps adjacent queues apart.

use std::ops::{Deref, DerefMut};

/// Aligns (and pads) `T` to 128 bytes.
///
/// # Example
/// ```
/// use dlz_pq::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// let cell = CachePadded::new(AtomicU64::new(0));
/// assert_eq!(std::mem::align_of_val(&cell), 128);
/// assert!(std::mem::size_of_val(&cell) >= 128);
/// ```
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a padded cell.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        CachePadded::new(self.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn alignment_and_size() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 200]>>(), 256);
    }

    #[test]
    fn adjacent_array_cells_do_not_share_lines() {
        let cells: Vec<CachePadded<AtomicU64>> = (0..4)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let a = &*cells[0] as *const AtomicU64 as usize;
        let b = &*cells[1] as *const AtomicU64 as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_and_into_inner() {
        let mut p = CachePadded::new(5u64);
        *p += 1;
        assert_eq!(*p, 6);
        assert_eq!(p.into_inner(), 6);
    }

    #[test]
    fn atomic_through_padding() {
        let p = CachePadded::new(AtomicU64::new(0));
        p.fetch_add(3, Ordering::Relaxed);
        assert_eq!(p.load(Ordering::Relaxed), 3);
    }
}
