//! # unidb — the Unifying Database substrate
//!
//! A from-scratch, extensible relational DBMS implementing the storage
//! manager the paper's *Unifying Database* (§5) runs on. It is deliberately
//! built around the extension surface the paper requires of a host DBMS
//! (§6.2–6.5):
//!
//! * **Opaque user-defined types** — values "whose internal and mostly
//!   complex structure is unknown to the DBMS"; the database provides
//!   storage, registered hooks provide display/comparison.
//! * **External functions / user-defined operators** — registered scalar
//!   functions usable anywhere expressions occur: `SELECT` lists, `WHERE`,
//!   `GROUP BY`, `ORDER BY`.
//! * **User-defined index access methods** — domain indexes (k-mer,
//!   suffix) pluggable into query plans, with selectivity hooks feeding the
//!   optimizer. They are created, maintained, logged and recovered by the
//!   same path as the built-in B-trees (`CREATE INDEX … USING kind`).
//! * **Public / user space separation** — the integrated (read-only)
//!   schema versus updatable per-user schemas (§5.1).
//!
//! Architecturally it is a classical single-node engine: in-memory heap
//! files of slotted pages, a write-ahead log with redo recovery,
//! B+-tree secondary indexes, a recursive-descent SQL parser, a
//! rule-plus-cost optimizer, and a batched pull-based executor that compiles
//! expressions at plan time and fuses `ORDER BY + LIMIT` into a bounded
//! Top-N; each statement runs on the thread that issues it.
//!
//! ```
//! use unidb::Database;
//!
//! let db = Database::in_memory();
//! db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'alpha'), (2, 'beta')").unwrap();
//! let rs = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rs.rows[0][0].as_text(), Some("beta"));
//! ```

pub mod catalog;
pub mod datum;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fxhash;
pub mod index;
mod locate;
pub mod plan;
pub mod sql;
pub mod storage;
pub mod tuple;
pub mod txn;

pub use catalog::Role;
pub use catalog::{ColumnDef, OpaqueTypeDef, TableDef};
pub use datum::{DataType, Datum};
pub use db::{Database, Prepared, ResultSet};
pub use error::{DbError, DbResult};
pub use expr::func::{
    AggregateFn, BoundCall, BoundColumnFn, BoundScalarFn, FunctionRegistry, IndexKindFn,
    ScalarBinder, ScalarFn,
};
pub use index::udi::AccessMethod;
pub use storage::heap::Rid;
pub use storage::vfs::{FaultConfig, FaultVfs, StdVfs, Vfs};
pub use txn::TxnStats;
