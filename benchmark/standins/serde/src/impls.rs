//! `Serialize` / `Deserialize` for the standard types PAS2P-rs stores.

use crate::{Deserialize, Error, Number, Serialize, Sink, Value};
use std::collections::BTreeMap;

macro_rules! unsigned {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut dyn Sink) {
                out.u64(*self as u64);
            }
        }

        impl Deserialize for $ty {
            fn deserialize(v: Value) -> Result<Self, Error> {
                v.as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| Error::invalid_type(&v, stringify!($ty)))
            }
        }
    )*};
}

macro_rules! signed {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut dyn Sink) {
                out.i64(*self as i64);
            }
        }

        impl Deserialize for $ty {
            fn deserialize(v: Value) -> Result<Self, Error> {
                v.as_i64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| Error::invalid_type(&v, stringify!($ty)))
            }
        }
    )*};
}

unsigned!(u8 u32 u64 usize);
signed!(i32 i64);

impl Serialize for f64 {
    fn serialize(&self, out: &mut dyn Sink) {
        out.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::invalid_type(&v, "f64"))
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut dyn Sink) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(v: Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::invalid_type(&v, "bool"))
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut dyn Sink) {
        out.str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut dyn Sink) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s),
            other => Err(Error::invalid_type(&other, "a string")),
        }
    }
}

impl Deserialize for Value {
    fn deserialize(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut dyn Sink) {
        (**self).serialize(out);
    }
}

macro_rules! pointer {
    ($($ptr:ident)*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize(&self, out: &mut dyn Sink) {
                (**self).serialize(out);
            }
        }

        impl<T: Deserialize> Deserialize for $ptr<T> {
            fn deserialize(v: Value) -> Result<Self, Error> {
                T::deserialize(v).map($ptr::new)
            }
        }
    )*};
}

use std::sync::Arc;
pointer!(Arc);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(
    items: impl IntoIterator<Item = &'a T>,
    out: &mut dyn Sink,
) {
    out.begin_seq();
    for item in items {
        item.serialize(out);
    }
    out.end_seq();
}

fn deserialize_seq<T: Deserialize, C: FromIterator<T>>(v: Value) -> Result<C, Error> {
    match v {
        Value::Array(items) => items.into_iter().map(T::deserialize).collect(),
        other => Err(Error::invalid_type(&other, "a sequence")),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut dyn Sink) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        serialize_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: Value) -> Result<Self, Error> {
        deserialize_seq(v)
    }
}

/// A map key: JSON keys are strings, so integers travel as their
/// decimal text, as in serde_json.
pub trait MapKey: Sized {
    /// The key as object-key text.
    fn to_key(&self) -> std::borrow::Cow<'_, str>;
    /// The key back from object-key text.
    fn from_key(key: String) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(self)
    }

    fn from_key(key: String) -> Result<Self, Error> {
        Ok(key)
    }
}

macro_rules! int_key {
    ($($ty:ty)*) => {$(
        impl MapKey for $ty {
            fn to_key(&self) -> std::borrow::Cow<'_, str> {
                std::borrow::Cow::Owned(self.to_string())
            }

            fn from_key(key: String) -> Result<Self, Error> {
                key.parse()
                    .map_err(|_| Error::custom(format!("invalid {} key `{key}`", stringify!($ty))))
            }
        }
    )*};
}

int_key!(u32 u64 usize);

fn serialize_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    out: &mut dyn Sink,
) {
    out.begin_map();
    for (k, v) in entries {
        out.key(&k.to_key());
        v.serialize(out);
    }
    out.end_map();
}

fn deserialize_map<K: MapKey, V: Deserialize, C: FromIterator<(K, V)>>(
    v: Value,
) -> Result<C, Error> {
    match v {
        Value::Object(m) => m
            .into_iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize(v)?)))
            .collect(),
        other => Err(Error::invalid_type(&other, "a map")),
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut dyn Sink) {
        serialize_map(self, out);
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: Value) -> Result<Self, Error> {
        deserialize_map(v)
    }
}

impl Serialize for Number {
    fn serialize(&self, out: &mut dyn Sink) {
        Value::Number(*self).serialize(out);
    }
}
