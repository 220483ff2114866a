//! `mixed_rw_durable`: the same engine used differently — a durable
//! database with a real write-ahead log (engine-default flush policy: one
//! sync per commit), 60% reads and 40% write transactions from both
//! clients at once.
//!
//! Why it exists: the transaction manager, the WAL, index maintenance and
//! the invalidation of zone maps, column images and cached results do the
//! work. A read-side gain bought with more write-side maintenance, or a
//! commit-path change that slows snapshot readers, shows here and nowhere
//! else.
//!
//! Each client owns its share of the account keys and of the organisms, so
//! no two transactions ever write the same row: conflicts are zero by
//! construction and every client can model its own rows exactly. One read
//! in four runs inside `BEGIN … COMMIT` on a table the other client keeps
//! dirtying.

use super::{
    client_rng, inserts, int_row, Check, ClientStream, Loaded, Op, Schedule, Stmt, Workload, Zipf,
};
use genalg_server::SessionKind;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use unidb::{Database, Role};

const KINDS: &[&str] = &["point", "range", "point_in_txn", "update", "transfer", "wave"];
const POINT: usize = 0;
const RANGE: usize = 1;
const TXN_READ: usize = 2;
const UPDATE: usize = 3;
const TRANSFER: usize = 4;
const WAVE: usize = 5;
/// 40 operations: 24 reads (12 point, 6 range, 6 inside a transaction) and
/// 16 writes (10 single-row increments, 5 two-row transfers, 1 ETL wave).
/// The median sits in the read mass; the slowest 5% are the waves (2.5%)
/// plus the slow half of the commits, inside the commit mass.
const CYCLE: &[usize] = &[
    POINT, UPDATE, RANGE, POINT, TXN_READ, UPDATE, POINT, TRANSFER, POINT, RANGE, UPDATE, TXN_READ,
    POINT, UPDATE, POINT, TRANSFER, RANGE, POINT, UPDATE, TXN_READ, POINT, WAVE, RANGE, POINT,
    UPDATE, TXN_READ, POINT, TRANSFER, POINT, UPDATE, RANGE, TXN_READ, UPDATE, POINT, TRANSFER,
    UPDATE, RANGE, TXN_READ, UPDATE, TRANSFER,
];

/// Key ranges and organisms are split between this many clients.
const CLIENTS: usize = 2;
const INITIAL_BALANCE: i64 = 1_000;
/// Ids of organism `o` are `o * ID_STRIDE + i`.
const ID_STRIDE: usize = 1_000;
const RANGE_WIDTH: usize = 20;

#[derive(Clone, Copy)]
struct Sizes {
    accounts: usize,
    organisms: usize,
    rows_per_organism: usize,
}

fn item_len(seed: u64, organism: usize, i: usize, wave: u64) -> i64 {
    let key = (organism as u64) << 40 | (i as u64) << 20 | wave;
    (super::mix64(seed ^ key) % 9_900) as i64 + 100
}

pub struct MixedRwDurable {
    seed: u64,
    smoke: bool,
    sizes: Sizes,
    script: String,
    payload_bytes: u64,
    zipf: Arc<Zipf>,
}

impl MixedRwDurable {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke {
            Sizes { accounts: 1_000, organisms: 8, rows_per_organism: 25 }
        } else {
            Sizes { accounts: 10_000, organisms: 32, rows_per_organism: 100 }
        };
        // DDL cannot run inside a transaction: tables first, all rows in one
        // transaction (one WAL sync, not one per statement — per-commit syncs
        // are what the timed window measures), indexes after.
        let mut script = String::from(
            "CREATE TABLE public.accounts (k INT, v INT);\n\
             CREATE TABLE public.items (id INT, organism TEXT, len INT);\nBEGIN;\n",
        );
        script.push_str(&inserts("public.accounts", sizes.accounts, 250, |k, out| {
            out.push_str(&format!("({k},{INITIAL_BALANCE})"))
        }));
        let items = sizes.organisms * sizes.rows_per_organism;
        let mut payload_bytes = sizes.accounts as u64 * 16;
        script.push_str(&inserts("public.items", items, sizes.rows_per_organism, |row, out| {
            let (o, i) = (row / sizes.rows_per_organism, row % sizes.rows_per_organism);
            let organism = format!("org{o}");
            payload_bytes += 16 + organism.len() as u64;
            out.push_str(&format!(
                "({},'{organism}',{})",
                o * ID_STRIDE + i,
                item_len(seed, o, i, 0)
            ));
        }));
        script.push_str(
            "COMMIT;\nCREATE UNIQUE INDEX ON public.accounts (k);\n\
             CREATE INDEX ON public.items (id);\n",
        );
        let zipf = Arc::new(Zipf::new(sizes.accounts / CLIENTS, 0.99));
        MixedRwDurable { seed, smoke, sizes, script, payload_bytes, zipf }
    }

    fn open(dir: &Path) -> (Arc<Database>, f64) {
        let db = Database::open(dir).expect("open durable database");
        let start = Instant::now();
        db.recover().expect("recover");
        (Arc::new(db), start.elapsed().as_secs_f64())
    }
}

impl Workload for MixedRwDurable {
    fn name(&self) -> &'static str {
        "mixed_rw_durable"
    }

    fn kinds(&self) -> &'static [&'static str] {
        KINDS
    }

    fn session(&self) -> SessionKind {
        // Only the maintainer may write the public space.
        SessionKind::Maintainer
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn durable(&self) -> bool {
        true
    }

    fn wal_tail_ops(&self) -> usize {
        if self.smoke {
            CYCLE.len()
        } else {
            5 * CYCLE.len()
        }
    }

    fn txn_read_pair(&self) -> Option<[(usize, usize); 2]> {
        Some([(TXN_READ, 1), (POINT, 0)])
    }

    fn warmup_ops(&self) -> usize {
        if self.smoke {
            CYCLE.len()
        } else {
            10 * CYCLE.len()
        }
    }

    fn traced_ops(&self) -> usize {
        // The wave comes once a cycle and must reach every call level.
        if self.smoke {
            4 * CYCLE.len()
        } else {
            100 * CYCLE.len()
        }
    }

    fn tables(&self) -> &'static [&'static str] {
        &["public.accounts", "public.items"]
    }

    fn build(&self, dir: &Path) -> Loaded {
        let (db, _) = Self::open(dir);
        let start = Instant::now();
        db.execute_script_as(&self.script, &Role::Maintainer).expect("load accounts and items");
        Loaded {
            db,
            rows: (self.sizes.accounts + self.sizes.organisms * self.sizes.rows_per_organism)
                as u64,
            payload_bytes: self.payload_bytes,
            insert_secs: start.elapsed().as_secs_f64(),
        }
    }

    fn reopen(&self, dir: &Path) -> Option<(Arc<Database>, f64)> {
        Some(Self::open(dir))
    }

    fn client(&self, idx: usize) -> Box<dyn ClientStream> {
        assert!(idx < CLIENTS, "key ranges are split between {CLIENTS} clients");
        let own_accounts = self.sizes.accounts / CLIENTS;
        let organisms: Vec<usize> =
            (0..self.sizes.organisms).filter(|o| o % CLIENTS == idx).collect();
        let lens = organisms
            .iter()
            .map(|&o| {
                (0..self.sizes.rows_per_organism).map(|i| item_len(self.seed, o, i, 0)).collect()
            })
            .collect();
        Box::new(MixedStream {
            seed: self.seed,
            sizes: self.sizes,
            first_key: idx * own_accounts,
            balances: vec![INITIAL_BALANCE; own_accounts],
            organisms,
            lens,
            waves: 0,
            pending: Vec::new(),
            zipf: Arc::clone(&self.zipf),
            rng: client_rng(self.seed, "mixed_rw_durable", idx),
            schedule: Schedule::new(CYCLE, idx),
        })
    }
}

/// A change to the client's model, applied when the operation is
/// acknowledged.
enum Effect {
    Balance { slot: usize, delta: i64 },
    Wave { organism_slot: usize, lens: Vec<i64> },
}

struct MixedStream {
    seed: u64,
    sizes: Sizes,
    /// This client owns account keys `first_key .. first_key + balances.len()`.
    first_key: usize,
    balances: Vec<i64>,
    /// Organisms this client owns, and the current `len` of each of their rows.
    organisms: Vec<usize>,
    lens: Vec<Vec<i64>>,
    waves: u64,
    pending: Vec<Effect>,
    zipf: Arc<Zipf>,
    rng: StdRng,
    schedule: Schedule,
}

impl MixedStream {
    /// A hot own account: slot in the model, and its key.
    fn hot_account(&mut self) -> (usize, usize) {
        // Scatter ranks so the hot rows are spread over the heap pages.
        let slot = self.zipf.sample(&mut self.rng) * 7919 % self.balances.len();
        (slot, self.first_key + slot)
    }

    fn point_select(&self, slot: usize, key: usize) -> Stmt {
        Stmt::sql(
            format!("SELECT v FROM public.accounts WHERE k = {key}"),
            Check::Rows(vec![int_row(&[self.balances[slot]])]),
        )
    }

    fn add(key: usize, delta: i64) -> Stmt {
        let sign = if delta < 0 { '-' } else { '+' };
        Stmt::sql(
            format!("UPDATE public.accounts SET v = v {sign} {} WHERE k = {key}", delta.abs()),
            Check::Affected(1),
        )
    }
}

fn begin() -> Stmt {
    Stmt::sql("BEGIN".into(), Check::Ok)
}

fn commit() -> Stmt {
    Stmt::sql("COMMIT".into(), Check::Ok)
}

impl ClientStream for MixedStream {
    fn next_op(&mut self) -> Op {
        self.pending.clear();
        let kind = self.schedule.next_kind();
        let mut op = Op { kind, write: kind >= UPDATE, stmts: Vec::new(), payload_bytes: 0 };
        match kind {
            POINT => {
                let (slot, key) = self.hot_account();
                op.stmts.push(self.point_select(slot, key));
            }
            TXN_READ => {
                let (slot, key) = self.hot_account();
                op.stmts = vec![begin(), self.point_select(slot, key), commit()];
            }
            RANGE => {
                let o = self.rng.gen_range(0..self.organisms.len());
                let at = self.rng.gen_range(0..=self.sizes.rows_per_organism - RANGE_WIDTH);
                let lo = self.organisms[o] * ID_STRIDE + at;
                let sum: i64 = self.lens[o][at..at + RANGE_WIDTH].iter().sum();
                op.stmts.push(Stmt::sql(
                    format!(
                        "SELECT count(*), sum(len) FROM public.items \
                         WHERE id >= {lo} AND id < {}",
                        lo + RANGE_WIDTH
                    ),
                    Check::Rows(vec![int_row(&[RANGE_WIDTH as i64, sum])]),
                ));
            }
            UPDATE => {
                let (slot, key) = self.hot_account();
                op.stmts.push(Self::add(key, 1));
                op.payload_bytes = 16;
                self.pending.push(Effect::Balance { slot, delta: 1 });
            }
            TRANSFER => {
                let (from, from_key) = self.hot_account();
                let (to, to_key) = self.hot_account();
                op.stmts = vec![begin(), Self::add(from_key, -1), Self::add(to_key, 1), commit()];
                op.payload_bytes = 32;
                self.pending.push(Effect::Balance { slot: from, delta: -1 });
                self.pending.push(Effect::Balance { slot: to, delta: 1 });
            }
            _ => {
                // ETL wave: drop one organism and reload it with new values.
                self.waves += 1;
                let slot = (self.waves as usize) % self.organisms.len();
                let o = self.organisms[slot];
                let organism = format!("org{o}");
                let rows = self.sizes.rows_per_organism;
                let lens: Vec<i64> =
                    (0..rows).map(|i| item_len(self.seed, o, i, self.waves)).collect();
                op.stmts.push(begin());
                op.stmts.push(Stmt::sql(
                    format!("DELETE FROM public.items WHERE organism = '{organism}'"),
                    Check::Affected(rows as u64),
                ));
                for half in [0..rows / 2, rows / 2..rows] {
                    let values: Vec<String> = half
                        .clone()
                        .map(|i| format!("({},'{organism}',{})", o * ID_STRIDE + i, lens[i]))
                        .collect();
                    op.stmts.push(Stmt::sql(
                        format!("INSERT INTO public.items VALUES {}", values.join(",")),
                        Check::Affected(half.len() as u64),
                    ));
                }
                op.stmts.push(commit());
                op.payload_bytes = (rows * (16 + organism.len())) as u64;
                self.pending.push(Effect::Wave { organism_slot: slot, lens });
            }
        }
        op
    }

    fn ack(&mut self) {
        for effect in self.pending.drain(..) {
            match effect {
                Effect::Balance { slot, delta } => self.balances[slot] += delta,
                Effect::Wave { organism_slot, lens } => self.lens[organism_slot] = lens,
            }
        }
    }

    /// The ledger invariant over this client's keys, and the content of
    /// every organism it reloaded.
    fn final_checks(&self) -> Vec<Stmt> {
        let mut checks = vec![Stmt::sql(
            format!(
                "SELECT count(*), sum(v) FROM public.accounts WHERE k >= {} AND k < {}",
                self.first_key,
                self.first_key + self.balances.len()
            ),
            Check::Rows(vec![int_row(&[
                self.balances.len() as i64,
                self.balances.iter().sum::<i64>(),
            ])]),
        )];
        for (slot, o) in self.organisms.iter().enumerate() {
            checks.push(Stmt::sql(
                format!("SELECT count(*), sum(len) FROM public.items WHERE organism = 'org{o}'"),
                Check::Rows(vec![int_row(&[
                    self.lens[slot].len() as i64,
                    self.lens[slot].iter().sum::<i64>(),
                ])]),
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_sixty_percent_reads_with_one_in_four_in_a_transaction() {
        let count = |kind: usize| CYCLE.iter().filter(|&&k| k == kind).count();
        assert_eq!(CYCLE.len(), 40);
        assert_eq!((count(POINT), count(RANGE), count(TXN_READ)), (12, 6, 6));
        assert_eq!((count(UPDATE), count(TRANSFER), count(WAVE)), (10, 5, 1));
    }

    #[test]
    fn clients_own_disjoint_rows() {
        let w = MixedRwDurable::new(3, true);
        let keys = |idx: usize| -> Vec<String> {
            let mut stream = w.client(idx);
            let mut written = Vec::new();
            for _ in 0..200 {
                let op = stream.next_op();
                if op.write {
                    written.extend(
                        op.stmts
                            .into_iter()
                            .map(|s| s.text)
                            .filter(|t| t.starts_with("UPDATE") || t.starts_with("DELETE")),
                    );
                }
                stream.ack();
            }
            // Keep only the row-identifying tail of each statement.
            written.iter().map(|t| t.rsplit("WHERE").next().unwrap_or("").to_string()).collect()
        };
        let (a, b) = (keys(0), keys(1));
        assert!(!a.is_empty() && !b.is_empty());
        assert!(a.iter().all(|k| !b.contains(k)), "clients 0 and 1 write the same row");
    }
}
