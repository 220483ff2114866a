//! A toy domain index kind shared by the integration tests: `parity`
//! partitions integer keys by parity and answers `same_parity(col, n)`.
//! `WITH (selectivity = x)` sets what it tells the optimizer about itself
//! (default 0.3: understated — parity selects half — so the estimate stays
//! under the planner's index-worthwhile cutoff and the probe path is the
//! one a test exercises).

use std::sync::Arc;
use unidb::{AccessMethod, Database, Datum, DbError, Rid};

struct ParityIndex {
    even: Vec<Rid>,
    odd: Vec<Rid>,
    selectivity: f64,
}

impl ParityIndex {
    fn list(&mut self, value: &Datum) -> Option<&mut Vec<Rid>> {
        let i = value.as_int()?;
        Some(if i % 2 == 0 { &mut self.even } else { &mut self.odd })
    }
}

impl AccessMethod for ParityIndex {
    fn name(&self) -> &str {
        "parity"
    }
    fn on_insert(&mut self, rid: Rid, value: &Datum) {
        if let Some(list) = self.list(value) {
            list.push(rid);
        }
    }
    fn on_delete(&mut self, rid: Rid, value: &Datum) {
        if let Some(list) = self.list(value) {
            list.retain(|r| *r != rid);
        }
    }
    fn supports(&self, func: &str) -> bool {
        func == "same_parity"
    }
    fn probe(&self, func: &str, args: &[Datum]) -> Option<Vec<Rid>> {
        if func != "same_parity" {
            return None;
        }
        let n = args.first()?.as_int()?;
        Some(if n % 2 == 0 { self.even.clone() } else { self.odd.clone() })
    }
    fn selectivity(&self, _func: &str, _args: &[Datum]) -> Option<f64> {
        Some(self.selectivity)
    }
}

/// Register the `same_parity` function and the `parity` index kind.
pub fn register_parity(db: &Database) {
    db.register_scalar(
        "same_parity",
        Arc::new(|args| {
            let (a, b) = (args[0].as_int(), args[1].as_int());
            Ok(match (a, b) {
                (Some(a), Some(b)) => Datum::Bool(a % 2 == b % 2),
                _ => Datum::Null,
            })
        }),
    )
    .unwrap();
    db.register_index_kind(
        "parity",
        Arc::new(|params| {
            let selectivity = match params {
                [] => 0.3,
                [(name, Datum::Float(x))] if name == "selectivity" => *x,
                _ => return Err(DbError::Constraint(format!("parity: bad params {params:?}"))),
            };
            Ok(Box::new(ParityIndex { even: vec![], odd: vec![], selectivity }))
        }),
    )
    .unwrap();
}
