//! The function registry: built-in and user-defined scalar functions and
//! aggregates.
//!
//! This is the paper's §6.3 mechanism: "the UDT mechanism also allows us to
//! specify and include user-defined operators as external functions …
//! User-defined operators can be invoked anywhere built-in operators can be
//! used." Registered names are resolved at planning time and evaluated
//! wherever expressions occur. Domain index kinds (§6.5) register here
//! too: `CREATE INDEX … USING kind` finds its kind where a call finds its
//! function, so recovery needs nothing registered beyond what the queries
//! already need.

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::index::udi::AccessMethod;
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar function implementation.
pub type ScalarFn = Arc<dyn Fn(&[Datum]) -> DbResult<Datum> + Send + Sync>;

/// A scalar function specialised on its literal arguments: called with the
/// remaining arguments only, in order, borrowed from wherever they live.
pub type BoundScalarFn = Arc<dyn Fn(&[&Datum]) -> DbResult<Datum> + Send + Sync>;

/// The page-at-a-time entry of a bound call whose one varying argument is
/// a column: handed that argument's values for a run of rows (the selected
/// rows of one column of a page), it either appends one output per value
/// to `out` — exactly what the per-row call returns for it — and answers
/// `true`, or *refuses* the run and answers `false`. The caller discards
/// whatever a refusing entry appended and makes the per-row call for each
/// value instead, which decides the result and words any error; so an
/// entry refuses every run holding a value it cannot serve, and never
/// reports an error itself.
pub type BoundColumnFn = Arc<dyn Fn(&[&Datum], &mut Vec<Datum>) -> bool + Send + Sync>;

/// A call site as a [`ScalarBinder`] specialised it: the per-row call and,
/// when the binder offers one, the page-at-a-time entry beside it.
#[derive(Clone)]
pub struct BoundCall {
    pub row: BoundScalarFn,
    pub column: Option<BoundColumnFn>,
}

impl BoundCall {
    /// A bound call with no page-at-a-time entry.
    pub fn per_row(row: BoundScalarFn) -> BoundCall {
        BoundCall { row, column: None }
    }
}

/// Specialises a scalar function for one call site. It is handed each
/// argument that is a literal in the statement (`Some`) and a placeholder
/// for each that varies by row (`None`), once, when the expression is
/// compiled — so parsing a pattern or resolving an overload is paid per
/// statement, not per row. The bound function must return exactly what the
/// plain function returns for the same full argument list, and so must its
/// page-at-a-time entry, when it has one, for every run it does not
/// refuse; returning `None` leaves the call site on the plain function.
pub type ScalarBinder = Arc<dyn Fn(&[Option<&Datum>]) -> Option<BoundCall> + Send + Sync>;

/// A registered scalar function.
#[derive(Clone)]
pub struct Scalar {
    pub f: ScalarFn,
    pub binder: Option<ScalarBinder>,
}

/// Per-group aggregate state.
///
/// `update` is the definition. The typed entries `update_ints` and
/// `update_floats` are optional fast paths: the executor hands one of them
/// a group's non-NULL INT (or FLOAT) values of one page or run, in row
/// order (`count(*)` as a `1` per row), and the entry either folds them
/// exactly as one `update` per value would, in the same order, and answers
/// `true`, or *refuses* them — before changing any state — and answers
/// `false`. A refused run is folded one `update` per value instead, which
/// decides the result and words any error; so a typed entry never fails,
/// and refuses any run on which `update` could. NULLs are left out of a
/// run, so only an accumulator whose `update` ignores NULL may override
/// them; one that does not override them refuses everything and is folded
/// per value.
pub trait Accumulator: Send {
    /// Fold one input value (NULLs are filtered by the executor except for
    /// `count(*)`, which feeds a non-null marker per row).
    fn update(&mut self, value: &Datum) -> DbResult<()>;
    /// Fold INT values as `update` would, or refuse them (`false`).
    fn update_ints(&mut self, _values: &[i64]) -> bool {
        false
    }
    /// Fold FLOAT values as `update` would, or refuse them (`false`).
    fn update_floats(&mut self, _values: &[f64]) -> bool {
        false
    }
    /// Produce the aggregate result.
    fn finish(&self) -> Datum;
}

/// Factory producing a fresh accumulator per group.
pub type AggregateFn = Arc<dyn Fn() -> Box<dyn Accumulator> + Send + Sync>;

/// Makes an empty domain index from the parameters of a `CREATE INDEX …
/// USING kind (column) WITH (name = literal, …)`, names lower-cased, or
/// says which parameter is wrong and what it must be.
pub type IndexKindFn =
    Arc<dyn Fn(&[(String, Datum)]) -> DbResult<Box<dyn AccessMethod>> + Send + Sync>;

/// Registry of scalar functions, aggregates and domain index kinds.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    scalars: HashMap<String, Scalar>,
    aggregates: HashMap<String, AggregateFn>,
    index_kinds: HashMap<String, IndexKindFn>,
}

impl FunctionRegistry {
    /// A registry preloaded with the SQL built-ins.
    pub fn with_builtins() -> Self {
        let mut r = FunctionRegistry::default();
        r.install_builtins();
        r
    }

    /// Register a scalar function; rejects duplicate names so extensions
    /// cannot silently shadow built-ins.
    pub fn register_scalar(&mut self, name: &str, f: ScalarFn) -> DbResult<()> {
        self.register(name, Scalar { f, binder: None })
    }

    /// Register a scalar function together with its [`ScalarBinder`].
    pub fn register_scalar_with_binder(
        &mut self,
        name: &str,
        f: ScalarFn,
        binder: ScalarBinder,
    ) -> DbResult<()> {
        self.register(name, Scalar { f, binder: Some(binder) })
    }

    fn register(&mut self, name: &str, scalar: Scalar) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        if self.scalars.contains_key(&key) || self.aggregates.contains_key(&key) {
            return Err(DbError::AlreadyExists { kind: "function", name: key });
        }
        self.scalars.insert(key, scalar);
        Ok(())
    }

    /// Register an aggregate (user-defined aggregates are requirement C14).
    pub fn register_aggregate(&mut self, name: &str, f: AggregateFn) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        if self.scalars.contains_key(&key) || self.aggregates.contains_key(&key) {
            return Err(DbError::AlreadyExists { kind: "function", name: key });
        }
        self.aggregates.insert(key, f);
        Ok(())
    }

    /// Register a domain index kind; `btree` is built in, and a kind cannot
    /// be registered twice.
    pub fn register_index_kind(&mut self, name: &str, f: IndexKindFn) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        if key == crate::index::BTREE || self.index_kinds.contains_key(&key) {
            return Err(DbError::AlreadyExists { kind: "index kind", name: key });
        }
        self.index_kinds.insert(key, f);
        Ok(())
    }

    /// Look up a domain index kind.
    pub fn index_kind(&self, name: &str) -> Option<&IndexKindFn> {
        self.index_kinds.get(&name.to_ascii_lowercase())
    }

    /// Look up a scalar function.
    pub fn scalar(&self, name: &str) -> Option<&ScalarFn> {
        self.scalar_entry(name).map(|s| &s.f)
    }

    /// Look up a scalar function with its binder, if it has one.
    pub fn scalar_entry(&self, name: &str) -> Option<&Scalar> {
        self.scalars.get(&name.to_ascii_lowercase())
    }

    /// Look up an aggregate factory.
    pub fn aggregate(&self, name: &str) -> Option<&AggregateFn> {
        self.aggregates.get(&name.to_ascii_lowercase())
    }

    /// Is this name an aggregate?
    pub fn is_aggregate(&self, name: &str) -> bool {
        self.aggregates.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered scalar functions, sorted.
    pub fn scalar_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.scalars.keys().map(String::as_str).collect();
        v.sort();
        v
    }

    fn install_builtins(&mut self) {
        let mut builtin = |name: &str, f: ScalarFn| {
            self.scalars.insert(name.into(), Scalar { f, binder: None });
        };
        builtin(
            "upper",
            Arc::new(|args| {
                text_arg(args, "upper")
                    .map(|s| s.map_or(Datum::Null, |s| Datum::Text(s.to_uppercase())))
            }),
        );
        builtin(
            "lower",
            Arc::new(|args| {
                text_arg(args, "lower")
                    .map(|s| s.map_or(Datum::Null, |s| Datum::Text(s.to_lowercase())))
            }),
        );
        builtin(
            "length",
            Arc::new(|args| {
                arity(args, 1, "length")?;
                Ok(match &args[0] {
                    Datum::Null => Datum::Null,
                    Datum::Text(s) => Datum::Int(s.chars().count() as i64),
                    Datum::Blob(b) => Datum::Int(b.len() as i64),
                    other => {
                        return Err(DbError::TypeMismatch(format!(
                            "length() expects TEXT or BLOB, got {other}"
                        )))
                    }
                })
            }),
        );
        builtin(
            "abs",
            Arc::new(|args| {
                arity(args, 1, "abs")?;
                Ok(match &args[0] {
                    Datum::Null => Datum::Null,
                    Datum::Int(i) => Datum::Int(
                        i.checked_abs()
                            .ok_or_else(|| DbError::TypeMismatch("integer overflow".into()))?,
                    ),
                    Datum::Float(f) => Datum::Float(f.abs()),
                    other => {
                        return Err(DbError::TypeMismatch(format!(
                            "abs() expects a number, got {other}"
                        )))
                    }
                })
            }),
        );
        builtin(
            "coalesce",
            Arc::new(|args| Ok(args.iter().find(|d| !d.is_null()).cloned().unwrap_or(Datum::Null))),
        );
        builtin(
            "substr",
            Arc::new(|args| {
                arity(args, 3, "substr")?;
                if args.iter().any(Datum::is_null) {
                    return Ok(Datum::Null);
                }
                let s = args[0]
                    .as_text()
                    .ok_or_else(|| DbError::TypeMismatch("substr() expects TEXT".into()))?;
                let start = args[1]
                    .as_int()
                    .ok_or_else(|| DbError::TypeMismatch("substr() start must be INT".into()))?
                    .max(0) as usize;
                let len = args[2]
                    .as_int()
                    .ok_or_else(|| DbError::TypeMismatch("substr() length must be INT".into()))?
                    .max(0) as usize;
                Ok(Datum::Text(s.chars().skip(start).take(len).collect()))
            }),
        );

        self.aggregates.insert("count".into(), Arc::new(|| Box::new(CountAcc(0))));
        self.aggregates.insert("sum".into(), Arc::new(|| Box::new(SumAcc::default())));
        self.aggregates.insert("avg".into(), Arc::new(|| Box::new(AvgAcc::default())));
        self.aggregates
            .insert("min".into(), Arc::new(|| Box::new(ExtremeAcc { best: None, want_min: true })));
        self.aggregates.insert(
            "max".into(),
            Arc::new(|| Box::new(ExtremeAcc { best: None, want_min: false })),
        );
    }
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("scalars", &self.scalars.len())
            .field("aggregates", &self.aggregates.len())
            .finish()
    }
}

fn arity(args: &[Datum], n: usize, name: &str) -> DbResult<()> {
    if args.len() != n {
        return Err(DbError::TypeMismatch(format!(
            "{name}() takes {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

fn text_arg<'a>(args: &'a [Datum], name: &str) -> DbResult<Option<&'a str>> {
    arity(args, 1, name)?;
    match &args[0] {
        Datum::Null => Ok(None),
        Datum::Text(s) => Ok(Some(s)),
        other => Err(DbError::TypeMismatch(format!("{name}() expects TEXT, got {other}"))),
    }
}

struct CountAcc(i64);

impl Accumulator for CountAcc {
    fn update(&mut self, value: &Datum) -> DbResult<()> {
        if !value.is_null() {
            self.0 += 1;
        }
        Ok(())
    }

    fn update_ints(&mut self, values: &[i64]) -> bool {
        self.0 += values.len() as i64;
        true
    }

    fn update_floats(&mut self, values: &[f64]) -> bool {
        self.0 += values.len() as i64;
        true
    }

    fn finish(&self) -> Datum {
        Datum::Int(self.0)
    }
}

/// Integer inputs accumulate in i128 so no realistic row count can
/// overflow mid-sum; if the final total doesn't fit i64 the result widens
/// to FLOAT (documented in DESIGN.md) rather than wrapping or panicking.
#[derive(Default)]
struct SumAcc {
    int_sum: i128,
    float_sum: f64,
    saw_float: bool,
    saw_any: bool,
}

impl Accumulator for SumAcc {
    fn update(&mut self, value: &Datum) -> DbResult<()> {
        match value {
            Datum::Null => {}
            Datum::Int(i) => {
                self.int_sum = self
                    .int_sum
                    .checked_add(*i as i128)
                    .ok_or_else(|| DbError::TypeMismatch("integer overflow".into()))?;
                self.saw_any = true;
            }
            Datum::Float(f) => {
                self.float_sum += f;
                self.saw_float = true;
                self.saw_any = true;
            }
            other => {
                return Err(DbError::TypeMismatch(format!("sum() expects numbers, got {other}")))
            }
        }
        Ok(())
    }

    fn update_ints(&mut self, values: &[i64]) -> bool {
        let Some(sum) = add_ints(self.int_sum, values) else { return false };
        self.int_sum = sum;
        self.saw_any |= !values.is_empty();
        true
    }

    fn update_floats(&mut self, values: &[f64]) -> bool {
        for f in values {
            self.float_sum += f;
        }
        self.saw_float |= !values.is_empty();
        self.saw_any |= !values.is_empty();
        true
    }

    fn finish(&self) -> Datum {
        if !self.saw_any {
            Datum::Null
        } else if self.saw_float {
            Datum::Float(self.float_sum + self.int_sum as f64)
        } else if let Ok(i) = i64::try_from(self.int_sum) {
            Datum::Int(i)
        } else {
            Datum::Float(self.int_sum as f64)
        }
    }
}

/// `sum + Σ values`, or `None` where `update` would raise an overflow: a
/// run's own sum cannot overflow an i128, so only the last add can.
fn add_ints(sum: i128, values: &[i64]) -> Option<i128> {
    sum.checked_add(values.iter().map(|&v| i128::from(v)).sum::<i128>())
}

/// Like [`SumAcc`], integers accumulate exactly in i128; the division
/// happens once at finish so int-only averages don't lose precision to
/// incremental float rounding.
#[derive(Default)]
struct AvgAcc {
    int_sum: i128,
    float_sum: f64,
    n: u64,
}

impl Accumulator for AvgAcc {
    fn update(&mut self, value: &Datum) -> DbResult<()> {
        match value {
            Datum::Null => {}
            Datum::Int(i) => {
                self.int_sum = self
                    .int_sum
                    .checked_add(*i as i128)
                    .ok_or_else(|| DbError::TypeMismatch("integer overflow".into()))?;
                self.n += 1;
            }
            Datum::Float(f) => {
                self.float_sum += f;
                self.n += 1;
            }
            other => {
                return Err(DbError::TypeMismatch(format!("avg() expects numbers, got {other}")))
            }
        }
        Ok(())
    }

    fn update_ints(&mut self, values: &[i64]) -> bool {
        let Some(sum) = add_ints(self.int_sum, values) else { return false };
        self.int_sum = sum;
        self.n += values.len() as u64;
        true
    }

    fn update_floats(&mut self, values: &[f64]) -> bool {
        for f in values {
            self.float_sum += f;
        }
        self.n += values.len() as u64;
        true
    }

    fn finish(&self) -> Datum {
        if self.n == 0 {
            Datum::Null
        } else {
            Datum::Float((self.int_sum as f64 + self.float_sum) / self.n as f64)
        }
    }
}

struct ExtremeAcc {
    best: Option<Datum>,
    want_min: bool,
}

impl ExtremeAcc {
    /// Does `value` (not NULL) replace the best so far? A tie keeps the
    /// first.
    #[inline]
    fn better(&self, value: &Datum) -> bool {
        let Some(best) = &self.best else { return true };
        let ord = value.total_cmp(best);
        if self.want_min {
            ord == std::cmp::Ordering::Less
        } else {
            ord == std::cmp::Ordering::Greater
        }
    }

    fn offer(&mut self, values: impl Iterator<Item = Datum>) {
        for d in values {
            if self.better(&d) {
                self.best = Some(d);
            }
        }
    }
}

impl Accumulator for ExtremeAcc {
    fn update(&mut self, value: &Datum) -> DbResult<()> {
        if !value.is_null() && self.better(value) {
            self.best = Some(value.clone());
        }
        Ok(())
    }

    fn update_ints(&mut self, values: &[i64]) -> bool {
        self.offer(values.iter().map(|&v| Datum::Int(v)));
        true
    }

    fn update_floats(&mut self, values: &[f64]) -> bool {
        self.offer(values.iter().map(|&v| Datum::Float(v)));
        true
    }

    fn finish(&self) -> Datum {
        self.best.clone().unwrap_or(Datum::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    #[test]
    fn scalar_builtins() {
        let r = reg();
        let upper = r.scalar("UPPER").unwrap();
        assert_eq!(upper(&[Datum::Text("abc".into())]).unwrap(), Datum::Text("ABC".into()));
        assert_eq!(upper(&[Datum::Null]).unwrap(), Datum::Null);
        assert!(upper(&[Datum::Int(1)]).is_err());

        let length = r.scalar("length").unwrap();
        assert_eq!(length(&[Datum::Text("héllo".into())]).unwrap(), Datum::Int(5));
        assert_eq!(length(&[Datum::Blob(vec![1, 2])]).unwrap(), Datum::Int(2));

        let abs = r.scalar("abs").unwrap();
        assert_eq!(abs(&[Datum::Int(-3)]).unwrap(), Datum::Int(3));
        assert_eq!(abs(&[Datum::Float(-1.5)]).unwrap(), Datum::Float(1.5));

        let coalesce = r.scalar("coalesce").unwrap();
        assert_eq!(coalesce(&[Datum::Null, Datum::Int(2), Datum::Int(3)]).unwrap(), Datum::Int(2));
        assert_eq!(coalesce(&[]).unwrap(), Datum::Null);

        let substr = r.scalar("substr").unwrap();
        assert_eq!(
            substr(&[Datum::Text("genomics".into()), Datum::Int(3), Datum::Int(4)]).unwrap(),
            Datum::Text("omic".into())
        );
    }

    #[test]
    fn aggregates() {
        let r = reg();
        let mut count = r.aggregate("count").unwrap()();
        count.update(&Datum::Int(1)).unwrap();
        count.update(&Datum::Null).unwrap();
        count.update(&Datum::Text("x".into())).unwrap();
        assert_eq!(count.finish(), Datum::Int(2));

        let mut sum = r.aggregate("sum").unwrap()();
        sum.update(&Datum::Int(2)).unwrap();
        sum.update(&Datum::Int(3)).unwrap();
        assert_eq!(sum.finish(), Datum::Int(5));
        sum.update(&Datum::Float(0.5)).unwrap();
        assert_eq!(sum.finish(), Datum::Float(5.5));
        assert!(sum.update(&Datum::Text("x".into())).is_err());

        let empty_sum = r.aggregate("sum").unwrap()();
        assert_eq!(empty_sum.finish(), Datum::Null);

        let mut avg = r.aggregate("avg").unwrap()();
        for i in 1..=4 {
            avg.update(&Datum::Int(i)).unwrap();
        }
        assert_eq!(avg.finish(), Datum::Float(2.5));

        let mut min = r.aggregate("min").unwrap()();
        let mut max = r.aggregate("max").unwrap()();
        for d in [Datum::Int(5), Datum::Int(1), Datum::Null, Datum::Int(9)] {
            min.update(&d).unwrap();
            max.update(&d).unwrap();
        }
        assert_eq!(min.finish(), Datum::Int(1));
        assert_eq!(max.finish(), Datum::Int(9));
    }

    /// Regression: SUM over large INT values used to accumulate in i64 and
    /// panic (debug) or wrap (release). It now accumulates in i128 and
    /// widens to FLOAT when the total doesn't fit i64.
    #[test]
    fn sum_avg_do_not_overflow() {
        let r = reg();
        let mut sum = r.aggregate("sum").unwrap()();
        sum.update(&Datum::Int(i64::MAX)).unwrap();
        sum.update(&Datum::Int(i64::MAX)).unwrap();
        assert_eq!(sum.finish(), Datum::Float(i64::MAX as f64 * 2.0));
        // A sum that dips past i64::MAX and comes back still returns INT.
        let mut sum = r.aggregate("sum").unwrap()();
        sum.update(&Datum::Int(i64::MAX)).unwrap();
        sum.update(&Datum::Int(5)).unwrap();
        sum.update(&Datum::Int(-6)).unwrap();
        assert_eq!(sum.finish(), Datum::Int(i64::MAX - 1));

        let mut avg = r.aggregate("avg").unwrap()();
        avg.update(&Datum::Int(i64::MAX)).unwrap();
        avg.update(&Datum::Int(i64::MAX)).unwrap();
        assert_eq!(avg.finish(), Datum::Float(i64::MAX as f64));
        // Int-only averages are exact: no incremental float rounding.
        let mut avg = r.aggregate("avg").unwrap()();
        avg.update(&Datum::Int(1)).unwrap();
        avg.update(&Datum::Int(2)).unwrap();
        assert_eq!(avg.finish(), Datum::Float(1.5));
    }

    #[test]
    fn abs_overflow_is_an_error() {
        let r = reg();
        let abs = r.scalar("abs").unwrap();
        assert!(abs(&[Datum::Int(i64::MIN)]).is_err());
        assert_eq!(abs(&[Datum::Int(i64::MIN + 1)]).unwrap(), Datum::Int(i64::MAX));
    }

    #[test]
    fn user_registration_and_conflicts() {
        let mut r = reg();
        r.register_scalar(
            "reverse_text",
            Arc::new(|args| {
                Ok(match &args[0] {
                    Datum::Text(s) => Datum::Text(s.chars().rev().collect()),
                    _ => Datum::Null,
                })
            }),
        )
        .unwrap();
        let f = r.scalar("reverse_text").unwrap();
        assert_eq!(f(&[Datum::Text("abc".into())]).unwrap(), Datum::Text("cba".into()));
        // Duplicates rejected, including against aggregates.
        assert!(r.register_scalar("UPPER", Arc::new(|_| Ok(Datum::Null))).is_err());
        assert!(r.register_scalar("count", Arc::new(|_| Ok(Datum::Null))).is_err());
        assert!(r.register_aggregate("upper", Arc::new(|| Box::new(CountAcc(0)))).is_err());
        assert!(r.is_aggregate("COUNT"));
        assert!(!r.is_aggregate("upper"));
        assert!(r.scalar_names().contains(&"reverse_text"));
    }
}
