//! The storage engine: slotted pages, heap files with overflow chains for
//! large genomic payloads, columnar page images with zone maps, and a
//! logical write-ahead log.
//!
//! Durability model: each heap owns its pages in memory and never writes
//! them out. Persistence across restarts is *logical* WAL records plus
//! snapshot checkpoints (see [`wal`] and `crate::db`); recovery rebuilds
//! every heap by replaying rows through the ordinary insert path. This is
//! the classical snapshot-plus-redo-log design: easy to reason about, and
//! the replay path doubles as the ETL refresh machinery's transport format.
//!
//! Every byte of file IO — the WAL and the snapshot — goes through the
//! [`vfs`] abstraction: [`vfs::StdVfs`] in production, [`vfs::FaultVfs`]
//! under the crash-recovery test harness, so fault injection covers every
//! IO path. See DESIGN.md ("Fault model") for the recovery guarantee.

pub mod colpage;
pub mod heap;
pub mod page;
pub mod vfs;
pub mod wal;
