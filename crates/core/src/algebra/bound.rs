//! Bound operators: an operator resolved once, called many times.
//!
//! A query applies `contains(seq, 'ATTGCCATA')` to every row of a table.
//! What depends only on the statement — which overload the argument sorts
//! select, whether the text literal stands for a `dna` or a `protein_seq`,
//! the pattern's transition table — is decided once by
//! [`KernelAlgebra::bind`](crate::algebra::KernelAlgebra::bind); the
//! [`BoundOp`] it returns is then called with the varying arguments only,
//! and a `dna` argument may be handed over as the compact payload it is
//! stored in ([`CallArg::Compact`]) so the built-in kernels read it in
//! place.

use crate::algebra::registry::OpImpl;
use crate::algebra::sort::SortId;
use crate::algebra::value::Value;
use crate::align::ResemblesQuery;
use crate::compact::{dna_view, value_from_bytes};
use crate::error::{GenAlgError, Result};
use crate::seq::{DnaView, Pattern};

/// What is known about one argument when an operator is bound.
#[derive(Debug, Clone, Copy)]
pub enum BindArg<'a> {
    /// The same value on every call.
    Const(&'a Value),
    /// Supplied per call; only its sort is known.
    Var(&'a SortId),
}

/// One varying argument of a bound call.
#[derive(Debug, Clone, Copy)]
pub enum CallArg<'a> {
    /// A decoded value.
    Value(&'a Value),
    /// A value still in its tagged compact encoding
    /// ([`value_to_bytes`](crate::compact::value_to_bytes)).
    Compact(&'a [u8]),
}

impl<'a> CallArg<'a> {
    fn dna(&self) -> Result<DnaView<'a>> {
        match self {
            CallArg::Value(Value::Dna(d)) => Ok(d.view()),
            CallArg::Value(other) => Err(GenAlgError::SortMismatch {
                operation: "bound call".into(),
                detail: format!("bound to dna but called with {}", other.sort()),
            }),
            CallArg::Compact(bytes) => dna_view(bytes),
        }
    }

    fn value(&self, sort: &SortId) -> Result<Value> {
        let value = match self {
            CallArg::Value(v) => (*v).clone(),
            CallArg::Compact(bytes) => value_from_bytes(bytes)?,
        };
        if value.sort() != *sort {
            return Err(GenAlgError::SortMismatch {
                operation: "bound call".into(),
                detail: format!("bound to {sort} but called with {}", value.sort()),
            });
        }
        Ok(value)
    }
}

pub(crate) type BoundFn = Box<dyn Fn(&[CallArg<'_>]) -> Result<Value> + Send + Sync>;

/// Builds the kernel of one built-in overload for a given binding, or
/// declines (`None`) when the shape is not the one the kernel is for.
pub(crate) type KernelBinder = fn(&[BindArg<'_>]) -> Option<BoundFn>;

/// An operator with its overload resolved and its constant arguments in
/// place. Call it with the [`BindArg::Var`] arguments, in order.
pub struct BoundOp {
    call: BoundFn,
    /// Set when the overload was only found after reading constant text
    /// arguments as sequences: what resolving the arguments as they stand
    /// reports.
    unpromoted: Option<GenAlgError>,
}

impl BoundOp {
    pub(crate) fn new(call: BoundFn, unpromoted: Option<GenAlgError>) -> Self {
        BoundOp { call, unpromoted }
    }

    /// Apply to the varying arguments. A call that fails under a coerced
    /// reading of the constants reports that the arguments as they stand
    /// resolve to nothing — the coercion was a guess, and its failure is
    /// not the caller's error.
    pub fn call(&self, vars: &[CallArg<'_>]) -> Result<Value> {
        (self.call)(vars).map_err(|e| self.unpromoted.clone().unwrap_or(e))
    }
}

/// The fallback for every operator without a kernel: the registered
/// implementation, called with the constants and the decoded variables put
/// back in argument order.
pub(crate) fn generic(body: OpImpl, args: &[BindArg<'_>]) -> BoundFn {
    enum Slot {
        Const(Value),
        Var(SortId),
    }
    let slots: Vec<Slot> = args
        .iter()
        .map(|a| match a {
            BindArg::Const(v) => Slot::Const((*v).clone()),
            BindArg::Var(s) => Slot::Var((*s).clone()),
        })
        .collect();
    Box::new(move |vars| {
        let mut vars = vars.iter();
        let values: Vec<Value> = slots
            .iter()
            .map(|slot| match slot {
                Slot::Const(v) => Ok(v.clone()),
                Slot::Var(sort) => vars.next().ok_or_else(too_few)?.value(sort),
            })
            .collect::<Result<_>>()?;
        body(&values)
    })
}

fn too_few() -> GenAlgError {
    GenAlgError::Other("bound operator called with too few arguments".into())
}

fn first<'a, 'b>(vars: &'b [CallArg<'a>]) -> Result<&'b CallArg<'a>> {
    vars.first().ok_or_else(too_few)
}

// --- Kernels of the built-in operators --------------------------------------
//
// Each is for one shape: the first argument varies and is a `dna`, every
// other argument is constant.

fn var_then_consts<'a, 'b>(args: &'b [BindArg<'a>]) -> Option<&'b [BindArg<'a>]> {
    match args.split_first()? {
        (BindArg::Var(_), rest) if rest.iter().all(|a| matches!(a, BindArg::Const(_))) => {
            Some(rest)
        }
        _ => None,
    }
}

fn const_pattern(args: &[BindArg<'_>]) -> Option<Pattern> {
    match var_then_consts(args)? {
        [BindArg::Const(Value::Dna(p))] => Some(Pattern::new(p.view())),
        _ => None,
    }
}

pub(crate) fn contains(args: &[BindArg<'_>]) -> Option<BoundFn> {
    let pattern = const_pattern(args)?;
    Some(Box::new(move |vars| Ok(Value::Bool(pattern.is_in(first(vars)?.dna()?)))))
}

pub(crate) fn find(args: &[BindArg<'_>]) -> Option<BoundFn> {
    let pattern = const_pattern(args)?;
    Some(Box::new(move |vars| {
        let at = pattern.find_from(first(vars)?.dna()?, 0);
        Ok(Value::Int(at.map_or(-1, |p| p as i64)))
    }))
}

pub(crate) fn resembles(args: &[BindArg<'_>]) -> Option<BoundFn> {
    let [BindArg::Const(Value::Dna(query)), BindArg::Const(identity), BindArg::Const(cover)] =
        var_then_consts(args)?
    else {
        return None;
    };
    let query = ResemblesQuery::new(query.view(), identity.as_float()?, cover.as_float()?);
    Some(Box::new(move |vars| Ok(Value::Bool(query.matches(first(vars)?.dna()?)))))
}

pub(crate) fn gc_content(args: &[BindArg<'_>]) -> Option<BoundFn> {
    var_then_consts(args)?;
    Some(Box::new(|vars| Ok(Value::Float(first(vars)?.dna()?.gc_content()))))
}

pub(crate) fn dna_length(args: &[BindArg<'_>]) -> Option<BoundFn> {
    var_then_consts(args)?;
    Some(Box::new(|vars| Ok(Value::Int(first(vars)?.dna()?.len() as i64))))
}
