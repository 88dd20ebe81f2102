//! Offline stand-in for `serde`, JSON only.
//!
//! The container that builds the benchmark has no registry access, so
//! the benchmark package patches `serde` with this crate. It covers
//! what PAS2P-rs uses and nothing more: `#[derive(Serialize,
//! Deserialize)]` on non-generic structs and externally tagged enums,
//! `#[serde(default)]`, `#[serde(skip_serializing_if = "…")]` and
//! `#[serde(rename_all = "lowercase" | "snake_case")]`.
//!
//! The data model is JSON itself: [`Serialize`] streams events into a
//! [`Sink`] (a string writer keeps struct field order, the [`Value`]
//! builder sorts keys like `serde_json`'s default map), and
//! [`Deserialize`] consumes a parsed [`Value`].

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod value;

pub use impls::MapKey;
pub use value::{parse, JsonWriter, Map, Number, Value, ValueIndex, ValueSink};

/// A (de)serialization failure: one human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn custom(msg: impl std::fmt::Display) -> Error {
        Error(msg.to_string())
    }

    /// "invalid type: …, expected …".
    pub fn invalid_type(found: &Value, expected: &str) -> Error {
        Error(format!(
            "invalid type: {}, expected {expected}",
            found.kind_name()
        ))
    }

    /// "missing field `…`".
    pub fn missing_field(field: &str) -> Error {
        Error(format!("missing field `{field}`"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Receiver of one JSON document as a stream of events. A value is a
/// scalar call, or `begin_seq … end_seq` around element values, or
/// `begin_map … end_map` around `key` + value pairs.
pub trait Sink {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, v: bool);
    /// A non-negative integer.
    fn u64(&mut self, v: u64);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// A float; non-finite values are written as `null`.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Open an array.
    fn begin_seq(&mut self);
    /// Close the innermost array.
    fn end_seq(&mut self);
    /// Open an object.
    fn begin_map(&mut self);
    /// The key of the next value in the innermost object.
    fn key(&mut self, k: &str);
    /// Close the innermost object.
    fn end_map(&mut self);
}

/// A type that can write itself as JSON events.
pub trait Serialize {
    /// Emit exactly one value into `out`.
    fn serialize(&self, out: &mut dyn Sink);
}

/// A type that can be rebuilt from a parsed JSON value.
pub trait Deserialize: Sized {
    /// Rebuild from `v`.
    fn deserialize(v: Value) -> Result<Self, Error>;

    /// The value of a struct field absent from the input: an error,
    /// except for `Option`, which reads as `None`.
    fn missing(field: &str) -> Result<Self, Error> {
        Err(Error::missing_field(field))
    }
}

/// Support code the derive macros expand to; not for direct use.
pub mod __private {
    use super::{Deserialize, Error, Map, Value};

    /// The object behind a struct or struct variant.
    pub fn expect_object(v: Value, what: &str) -> Result<Map, Error> {
        match v {
            Value::Object(m) => Ok(m),
            other => Err(Error::invalid_type(&other, what)),
        }
    }

    /// The elements behind a tuple struct or tuple variant.
    pub fn expect_array(v: Value, len: usize, what: &str) -> Result<Vec<Value>, Error> {
        match v {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::custom(format!(
                "invalid length {}, expected {what} with {len} elements",
                items.len()
            ))),
            other => Err(Error::invalid_type(&other, what)),
        }
    }

    /// A required field (absent `Option`s read as `None`).
    pub fn field<T: Deserialize>(m: &mut Map, name: &str) -> Result<T, Error> {
        match m.remove(name) {
            Some(v) => T::deserialize(v).map_err(|e| Error::custom(format!("{name}: {e}"))),
            None => T::missing(name),
        }
    }

    /// A `#[serde(default)]` field.
    pub fn field_or_default<T: Deserialize + Default>(m: &mut Map, name: &str) -> Result<T, Error> {
        match m.remove(name) {
            Some(v) => T::deserialize(v).map_err(|e| Error::custom(format!("{name}: {e}"))),
            None => Ok(T::default()),
        }
    }

    /// Split an externally tagged enum value into (variant, payload).
    pub fn variant(v: Value, what: &str) -> Result<(String, Option<Value>), Error> {
        match v {
            Value::String(name) => Ok((name, None)),
            Value::Object(m) if m.len() == 1 => {
                let (name, payload) = m.into_iter().next().expect("one entry");
                Ok((name, Some(payload)))
            }
            other => Err(Error::invalid_type(&other, what)),
        }
    }

    /// The payload of a non-unit variant.
    pub fn payload(p: Option<Value>, variant: &str) -> Result<Value, Error> {
        p.ok_or_else(|| Error::custom(format!("variant `{variant}` expects a value")))
    }

    /// "unknown variant".
    pub fn unknown_variant(name: &str, what: &str) -> Error {
        Error::custom(format!("unknown variant `{name}` of {what}"))
    }
}
