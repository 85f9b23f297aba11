//! Transaction state: speculative reads and buffered writes.
//!
//! TL2 transactions never write to shared memory before commit. Reads
//! are validated at read time against the transaction's read version
//! (`rv`) using the lock/version double-check; writes go to a private
//! buffer. The commit protocol lives in [`engine`](crate::engine), and so
//! do the buffers: a [`Tx`] only borrows its read and write set from the
//! thread's [`TxThread`](crate::engine::TxThread), so starting a
//! transaction allocates nothing.

use std::sync::atomic::{fence, Ordering};

use crate::tarray::TArray;
use crate::vlock::{is_locked, version_of};

/// Why a transaction aborted (or must abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A read found the location locked by a committing transaction.
    LockedRead,
    /// A read found a version newer than `rv` (with the relaxed clock
    /// this includes "future" timestamps — the paper's expected abort
    /// mode for freshly written objects).
    FutureVersion,
    /// The lock word changed while the value was being read.
    InconsistentRead,
    /// Commit could not acquire a write-set lock.
    LockBusy,
    /// Read-set validation at commit failed.
    ReadValidation,
    /// The user's transaction body requested an abort.
    User,
}

/// Signal that the current attempt must be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort(pub AbortReason);

/// One buffered write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteEntry {
    pub(crate) index: u32,
    pub(crate) value: u64,
    /// The cell's pre-lock word. Meaningless until commit holds the
    /// cell's lock; from then on it is what an abort restores and what
    /// read-set validation checks for a cell the transaction also read.
    pub(crate) old_word: u64,
}

/// The read set and write set of one thread's transactions. Every
/// attempt borrows them cleared, so their capacity outlives the attempt
/// and only a transaction larger than any before it on this thread
/// allocates.
#[derive(Debug, Default)]
pub(crate) struct TxBuffers {
    read_set: Vec<u32>,
    write_set: Vec<WriteEntry>,
}

/// An in-flight transaction over a [`TArray`].
///
/// Obtained from [`TxThread::run`](crate::engine::TxThread::run); all
/// accesses go through [`read`](Tx::read) / [`write`](Tx::write).
#[derive(Debug)]
pub struct Tx<'a> {
    array: &'a TArray,
    rv: u64,
    pub(crate) read_set: &'a mut Vec<u32>,
    pub(crate) write_set: &'a mut Vec<WriteEntry>,
}

impl<'a> Tx<'a> {
    pub(crate) fn new(array: &'a TArray, rv: u64, buffers: &'a mut TxBuffers) -> Self {
        buffers.read_set.clear();
        buffers.write_set.clear();
        Tx {
            array,
            rv,
            read_set: &mut buffers.read_set,
            write_set: &mut buffers.write_set,
        }
    }

    /// The read version this transaction started with.
    pub fn rv(&self) -> u64 {
        self.rv
    }

    /// Number of distinct buffered writes.
    pub fn write_set_len(&self) -> usize {
        self.write_set.len()
    }

    /// Transactional read of cell `i`.
    ///
    /// Returns `Err(Abort)` if the location is locked, changed under
    /// the read, or carries a version newer than `rv` — the caller
    /// should propagate the abort with `?` and let the engine retry.
    pub fn read(&mut self, i: usize) -> Result<u64, Abort> {
        // Read-after-write: serve from the buffer.
        if let Some(entry) = self.write_set.iter().find(|e| e.index as usize == i) {
            return Ok(entry.value);
        }
        let slot = self.array.slot(i);
        // Seqlock-style validated read (see Mara Bos, ch. 9 patterns):
        // the Acquire load of the lock word pairs with the committer's
        // Release store, and the Acquire fence keeps the second lock
        // load from being ordered before the value load.
        let w1 = slot.lock.load();
        if is_locked(w1) {
            return Err(Abort(AbortReason::LockedRead));
        }
        let val = slot.value.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let w2 = slot.lock.load_relaxed();
        if w1 != w2 {
            return Err(Abort(AbortReason::InconsistentRead));
        }
        if version_of(w1) > self.rv {
            return Err(Abort(AbortReason::FutureVersion));
        }
        self.read_set.push(i as u32);
        Ok(val)
    }

    /// Buffers a write of `v` to cell `i` (visible to this
    /// transaction's own reads immediately; visible to others only
    /// after a successful commit).
    pub fn write(&mut self, i: usize, v: u64) {
        assert!(i < self.array.len(), "index {i} out of bounds");
        if let Some(entry) = self.write_set.iter_mut().find(|e| e.index as usize == i) {
            entry.value = v;
        } else {
            self.write_set.push(WriteEntry {
                index: i as u32,
                value: v,
                old_word: 0,
            });
        }
    }

    /// Convenience: `write(i, read(i)? + delta)`.
    pub fn add(&mut self, i: usize, delta: u64) -> Result<(), Abort> {
        let v = self.read(i)?;
        self.write(i, v.wrapping_add(delta));
        Ok(())
    }

    /// User-requested abort (for explicit retry loops).
    pub fn abort<T>(&self) -> Result<T, Abort> {
        Err(Abort(AbortReason::User))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_own_writes() {
        let a = TArray::new(4);
        let mut buffers = TxBuffers::default();
        let mut tx = Tx::new(&a, 0, &mut buffers);
        assert_eq!(tx.read(0).unwrap(), 0);
        tx.write(0, 42);
        assert_eq!(tx.read(0).unwrap(), 42);
        // Shared memory untouched before commit.
        assert_eq!(a.read_quiescent(0), 0);
    }

    #[test]
    fn double_write_overwrites_buffer() {
        let a = TArray::new(2);
        let mut buffers = TxBuffers::default();
        let mut tx = Tx::new(&a, 0, &mut buffers);
        tx.write(1, 5);
        tx.write(1, 6);
        assert_eq!(tx.write_set_len(), 1);
        assert_eq!(tx.read(1).unwrap(), 6);
    }

    #[test]
    fn future_version_aborts() {
        let a = TArray::new(1);
        // Manually commit a version 10 on slot 0.
        let slot = a.slot(0);
        slot.lock.try_lock().unwrap();
        slot.value.store(7, Ordering::Relaxed);
        slot.lock.unlock_with_version(10);
        // A transaction with rv = 5 must abort reading it.
        let mut buffers = TxBuffers::default();
        let mut tx = Tx::new(&a, 5, &mut buffers);
        assert_eq!(tx.read(0), Err(Abort(AbortReason::FutureVersion)));
        // With rv = 10 it reads fine.
        let mut tx = Tx::new(&a, 10, &mut buffers);
        assert_eq!(tx.read(0).unwrap(), 7);
    }

    #[test]
    fn locked_read_aborts() {
        let a = TArray::new(1);
        let old = a.slot(0).lock.try_lock().unwrap();
        let mut buffers = TxBuffers::default();
        let mut tx = Tx::new(&a, 100, &mut buffers);
        assert_eq!(tx.read(0), Err(Abort(AbortReason::LockedRead)));
        a.slot(0).lock.unlock_restore(old);
        assert!(tx.read(0).is_ok());
    }

    #[test]
    fn add_combines_read_and_write() {
        let a = TArray::from_values(&[10]);
        let mut buffers = TxBuffers::default();
        let mut tx = Tx::new(&a, 0, &mut buffers);
        tx.add(0, 5).unwrap();
        assert_eq!(tx.read(0).unwrap(), 15);
    }

    #[test]
    fn user_abort() {
        let a = TArray::new(1);
        let mut buffers = TxBuffers::default();
        let tx = Tx::new(&a, 0, &mut buffers);
        let r: Result<(), Abort> = tx.abort();
        assert_eq!(r, Err(Abort(AbortReason::User)));
    }
}
