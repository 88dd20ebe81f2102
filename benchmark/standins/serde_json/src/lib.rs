//! Offline stand-in for `serde_json`: a facade over the JSON tree,
//! writer and parser of the stand-in `serde`.

#![forbid(unsafe_code)]

use serde::{Deserialize, JsonWriter, Serialize, ValueSink};
pub use serde::{Error, Map, Number, Value};

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = JsonWriter::new(pretty);
    value.serialize(&mut w);
    w.finish()
}

/// Compact JSON text of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write(value, false))
}

/// JSON text of `value`, indented by two spaces.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write(value, true))
}

/// `value` as a JSON tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    let mut sink = ValueSink::new();
    value.serialize(&mut sink);
    Ok(sink.finish())
}

/// Rebuild a `T` from a JSON tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::deserialize(value)
}

/// Parse JSON text into a `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    T::deserialize(serde::parse(text)?)
}

/// Build a [`Value`] from JSON-like syntax; expressions are converted
/// through [`to_value`].
#[macro_export]
macro_rules! json {
    // Array elements, accumulated in `[$($done,)*]`.
    (@array [$($done:expr,)*]) => { vec![$($done,)*] };
    (@array [$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($done,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@array [$($done:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($done,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    (@array [$($done:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($done,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    (@array [$($done:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($done,)* $crate::json!($next),] $($($rest)*)?)
    };

    // Object entries: munch `key: value,` into `$map`.
    (@object $map:ident) => {};
    (@object $map:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::Value::Null);
        $crate::json!(@object $map $($($rest)*)?);
    };
    (@object $map:ident $key:tt : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::json!([$($inner)*]));
        $crate::json!(@object $map $($($rest)*)?);
    };
    (@object $map:ident $key:tt : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::json!({$($inner)*}));
        $crate::json!(@object $map $($($rest)*)?);
    };
    (@object $map:ident $key:tt : $value:expr $(, $($rest:tt)*)?) => {
        $map.insert(($key).into(), $crate::json!($value));
        $crate::json!(@object $map $($($rest)*)?);
    };

    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::Value::Array($crate::json!(@array [] $($tt)*)) };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json!(@object map $($tt)*);
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).expect("stand-in to_value is infallible")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Inner {
        a: u32,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        b: Option<String>,
        #[serde(default)]
        c: Vec<f64>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    #[serde(rename_all = "snake_case")]
    enum Kind {
        PlainUnit,
        Newtype(u8),
        Pair(u8, String),
        Fields { x: i64, inner: Inner },
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Wrapper(u64);

    #[test]
    fn derived_types_round_trip_in_field_order() {
        let inner = Inner {
            a: 7,
            b: None,
            c: vec![1.0, 2.5],
        };
        let text = to_string(&inner).unwrap();
        assert_eq!(text, r#"{"a":7,"c":[1.0,2.5]}"#);
        assert_eq!(from_str::<Inner>(&text).unwrap(), inner);
        assert_eq!(
            from_str::<Inner>(r#"{"a":1}"#).unwrap(),
            Inner {
                a: 1,
                b: None,
                c: vec![]
            }
        );
        assert!(from_str::<Inner>(r#"{"b":"x"}"#).is_err(), "a is required");

        for kind in [
            Kind::PlainUnit,
            Kind::Newtype(3),
            Kind::Pair(1, "p".into()),
            Kind::Fields {
                x: -4,
                inner: Inner {
                    a: 0,
                    b: Some("s".into()),
                    c: vec![],
                },
            },
        ] {
            let text = to_string(&kind).unwrap();
            assert_eq!(from_str::<Kind>(&text).unwrap(), kind, "{text}");
        }
        assert_eq!(to_string(&Kind::PlainUnit).unwrap(), r#""plain_unit""#);
        assert_eq!(to_string(&Kind::Newtype(3)).unwrap(), r#"{"newtype":3}"#);
        assert_eq!(to_string(&Wrapper(9)).unwrap(), "9");
        assert_eq!(from_str::<Wrapper>("9").unwrap(), Wrapper(9));
    }

    #[test]
    fn json_macro_builds_nested_values() {
        let name = String::from("cg");
        let items = vec![1u32, 2];
        let v = json!({
            "app": name,
            "n": 2 + 2,
            "list": items,
            "nested": {"ok": true, "none": null, "arr": [1, "two", [3], {"k": 4.5}]},
            "trailing": [],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"app":"cg","list":[1,2],"n":4,"nested":{"arr":[1,"two",[3],{"k":4.5}],"none":null,"ok":true},"trailing":[]}"#
        );
        assert_eq!(json!("x"), "x");
        assert_eq!(json!(null), Value::Null);
    }

    #[test]
    fn pretty_and_value_conversions_agree() {
        let inner = Inner {
            a: 1,
            b: Some("z".into()),
            c: vec![],
        };
        let tree = to_value(&inner).unwrap();
        assert_eq!(from_value::<Inner>(tree.clone()).unwrap(), inner);
        assert_eq!(
            to_string_pretty(&tree).unwrap(),
            "{\n  \"a\": 1,\n  \"b\": \"z\",\n  \"c\": []\n}"
        );
    }
}
