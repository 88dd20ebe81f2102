//! Offline stand-in for `serde_derive`, written against bare
//! `proc_macro` (no `syn`/`quote`: the registry is unreachable).
//!
//! Supported: non-generic structs (named, tuple, unit) and externally
//! tagged enums, with `#[serde(default)]`, `#[serde(skip_serializing_if
//! = "path")]` on fields and `#[serde(rename_all = "lowercase" |
//! "snake_case")]` on the container. Anything else is a compile error
//! that names the construct, never a silent difference.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct SerdeAttrs {
    default: bool,
    skip_serializing_if: Option<String>,
    rename_all: Option<String>,
}

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    attrs: SerdeAttrs,
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    attrs: SerdeAttrs,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: Option<&TokenTree>, ch: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Consume leading `#[…]` attributes, folding every `#[serde(…)]` into
/// one [`SerdeAttrs`].
fn take_attrs(tokens: &mut Tokens) -> Result<SerdeAttrs, String> {
    let mut attrs = SerdeAttrs::default();
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("malformed attribute".into());
        };
        let mut inner = group.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("#[serde] expects a parenthesised list".into());
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tt) = args.next() {
            let TokenTree::Ident(key) = tt else {
                return Err(format!("unexpected token `{tt}` in #[serde(…)]"));
            };
            let key = key.to_string();
            let value = if is_punct(args.peek(), '=') {
                args.next();
                match args.next() {
                    Some(TokenTree::Literal(lit)) => {
                        Some(lit.to_string().trim_matches('"').to_string())
                    }
                    _ => return Err(format!("#[serde({key} = …)] expects a string")),
                }
            } else {
                None
            };
            match (key.as_str(), value) {
                ("default", None) => attrs.default = true,
                ("skip_serializing_if", Some(path)) => attrs.skip_serializing_if = Some(path),
                ("rename_all", Some(style)) => attrs.rename_all = Some(style),
                (other, _) => {
                    return Err(format!(
                        "the serde stand-in does not support #[serde({other})]"
                    ))
                }
            }
            if is_punct(args.peek(), ',') {
                args.next();
            }
        }
    }
    Ok(attrs)
}

/// Consume `pub`, `pub(crate)`, `pub(in …)`.
fn take_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Skip a type (or discriminant) up to the next comma that is not
/// inside `<…>`; groups are single token trees already.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut angle = 0i32;
    while let Some(tt) = tokens.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle <= 0 => break,
                _ => {}
            }
        }
        tokens.next();
    }
    tokens.next();
}

fn parse_fields(stream: TokenStream, named: bool) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut tokens)?;
        take_visibility(&mut tokens);
        if tokens.peek().is_none() {
            return Ok(fields);
        }
        let name = if named {
            let Some(TokenTree::Ident(id)) = tokens.next() else {
                return Err("expected a field name".into());
            };
            if !is_punct(tokens.next().as_ref(), ':') {
                return Err(format!("expected `:` after field `{id}`"));
            }
            Some(id.to_string().trim_start_matches("r#").to_string())
        } else {
            None
        };
        skip_to_comma(&mut tokens);
        fields.push(Field { name, attrs });
    }
}

fn parse_shape(tokens: &mut Tokens) -> Result<Shape, String> {
    match tokens.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let stream = g.stream();
            tokens.next();
            Ok(Shape::Named(parse_fields(stream, true)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let stream = g.stream();
            tokens.next();
            Ok(Shape::Tuple(parse_fields(stream, false)?))
        }
        _ => Ok(Shape::Unit),
    }
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut tokens = input.into_iter().peekable();
    let attrs = take_attrs(&mut tokens)?;
    take_visibility(&mut tokens);
    let Some(TokenTree::Ident(keyword)) = tokens.next() else {
        return Err("expected `struct` or `enum`".into());
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        return Err("expected a type name".into());
    };
    let name = name.to_string();
    if is_punct(tokens.peek(), '<') {
        return Err(format!(
            "the serde stand-in does not derive for generic type `{name}`"
        ));
    }
    let body = match keyword.to_string().as_str() {
        "struct" => Body::Struct(parse_shape(&mut tokens)?),
        "enum" => {
            let Some(TokenTree::Group(group)) = tokens.next() else {
                return Err("expected enum body".into());
            };
            let mut inner = group.stream().into_iter().peekable();
            let mut variants = Vec::new();
            loop {
                // Variant-level serde attributes are not supported, and
                // take_attrs refuses unknown ones; `#[default]` passes.
                take_attrs(&mut inner)?;
                let Some(tt) = inner.next() else { break };
                let TokenTree::Ident(id) = tt else {
                    return Err(format!("expected a variant name, found `{tt}`"));
                };
                let shape = parse_shape(&mut inner)?;
                skip_to_comma(&mut inner);
                variants.push(Variant {
                    name: id.to_string(),
                    shape,
                });
            }
            Body::Enum(variants)
        }
        other => return Err(format!("cannot derive for `{other}`")),
    };
    Ok(Input { name, attrs, body })
}

fn rename(name: &str, style: Option<&str>) -> Result<String, String> {
    match style {
        None => Ok(name.to_string()),
        Some("lowercase") => Ok(name.to_lowercase()),
        Some("snake_case") => {
            let mut out = String::new();
            for (i, ch) in name.chars().enumerate() {
                if ch.is_uppercase() && i > 0 {
                    out.push('_');
                }
                out.extend(ch.to_lowercase());
            }
            Ok(out)
        }
        Some(other) => Err(format!(
            "the serde stand-in does not support rename_all = \"{other}\""
        )),
    }
}

/// Statements that serialize `fields` of a named shape; `access` maps a
/// field name to the expression holding a reference to it.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("out.begin_map();");
    for f in fields {
        let name = f.name.as_deref().expect("named field");
        let expr = access(name);
        let emit = format!("out.key(\"{name}\"); ::serde::Serialize::serialize({expr}, out);");
        match &f.attrs.skip_serializing_if {
            Some(path) => code += &format!("if !{path}({expr}) {{ {emit} }}"),
            None => code += &emit,
        }
    }
    code + "out.end_map();"
}

/// An expression building `ctor { … }` from the object `m`.
fn de_named(ctor: &str, fields: &[Field]) -> String {
    let mut code = format!("{ctor} {{");
    for f in fields {
        let name = f.name.as_deref().expect("named field");
        let getter = if f.attrs.default {
            "field_or_default"
        } else {
            "field"
        };
        code += &format!("{name}: ::serde::__private::{getter}(&mut m, \"{name}\")?,");
    }
    code + "}"
}

fn derive_serialize(input: &Input) -> Result<String, String> {
    let name = &input.name;
    let style = input.attrs.rename_all.as_deref();
    let body = match &input.body {
        Body::Struct(Shape::Unit) => "out.null();".to_string(),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            "::serde::Serialize::serialize(&self.0, out);".to_string()
        }
        Body::Struct(Shape::Tuple(fields)) => {
            let mut code = String::from("out.begin_seq();");
            for i in 0..fields.len() {
                code += &format!("::serde::Serialize::serialize(&self.{i}, out);");
            }
            code + "out.end_seq();"
        }
        Body::Struct(Shape::Named(fields)) => {
            if style.is_some() {
                return Err("rename_all is supported on enums only".into());
            }
            ser_named(fields, |f| format!("&self.{f}"))
        }
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let tag = rename(vname, style)?;
                arms += &match &v.shape {
                    Shape::Unit => format!("{name}::{vname} => out.str(\"{tag}\"),"),
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("f{i}")).collect();
                        let inner = if fields.len() == 1 {
                            "::serde::Serialize::serialize(f0, out);".to_string()
                        } else {
                            let mut code = String::from("out.begin_seq();");
                            for b in &binds {
                                code += &format!("::serde::Serialize::serialize({b}, out);");
                            }
                            code + "out.end_seq();"
                        };
                        format!(
                            "{name}::{vname}({}) => {{ out.begin_map(); out.key(\"{tag}\"); {inner} out.end_map(); }}",
                            binds.join(",")
                        )
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields
                            .iter()
                            .map(|f| f.name.as_deref().expect("named field"))
                            .collect();
                        format!(
                            "{name}::{vname} {{ {} }} => {{ out.begin_map(); out.key(\"{tag}\"); {} out.end_map(); }}",
                            binds.join(","),
                            ser_named(fields, |f| f.to_string())
                        )
                    }
                };
            }
            format!("match self {{ {arms} }}")
        }
    };
    Ok(format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn serialize(&self, out: &mut dyn ::serde::Sink) {{ {body} }} }}"
    ))
}

fn de_tuple(ctor: &str, len: usize, source: &str, what: &str) -> String {
    if len == 1 {
        return format!("{ctor}(::serde::Deserialize::deserialize({source})?)");
    }
    let mut code = format!(
        "{{ let mut items = ::serde::__private::expect_array({source}, {len}, \"{what}\")?.into_iter(); {ctor}("
    );
    for _ in 0..len {
        code += "::serde::Deserialize::deserialize(items.next().expect(\"length checked\"))?,";
    }
    code + ") }"
}

fn derive_deserialize(input: &Input) -> Result<String, String> {
    let name = &input.name;
    let style = input.attrs.rename_all.as_deref();
    let body = match &input.body {
        Body::Struct(Shape::Unit) => format!("let _ = v; Ok({name})"),
        Body::Struct(Shape::Tuple(fields)) => format!(
            "Ok({})",
            de_tuple(name, fields.len(), "v", &format!("tuple struct {name}"))
        ),
        Body::Struct(Shape::Named(fields)) => format!(
            "let mut m = ::serde::__private::expect_object(v, \"struct {name}\")?; Ok({})",
            de_named(name, fields)
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let tag = rename(vname, style)?;
                let ctor = format!("{name}::{vname}");
                let build = match &v.shape {
                    Shape::Unit => ctor,
                    Shape::Tuple(fields) => de_tuple(
                        &ctor,
                        fields.len(),
                        &format!("::serde::__private::payload(payload, \"{tag}\")?"),
                        &format!("variant {tag}"),
                    ),
                    Shape::Named(fields) => format!(
                        "{{ let mut m = ::serde::__private::expect_object(::serde::__private::payload(payload, \"{tag}\")?, \"variant {tag}\")?; {} }}",
                        de_named(&ctor, fields)
                    ),
                };
                arms += &format!("\"{tag}\" => Ok({build}),");
            }
            format!(
                "let (tag, payload) = ::serde::__private::variant(v, \"enum {name}\")?; \
                 let _ = &payload; \
                 match tag.as_str() {{ {arms} other => Err(::serde::__private::unknown_variant(other, \"{name}\")), }}"
            )
        }
    };
    Ok(format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn deserialize(v: ::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    ))
}

fn expand(input: TokenStream, derive: fn(&Input) -> Result<String, String>) -> TokenStream {
    let code = parse_input(input)
        .and_then(|parsed| derive(&parsed))
        .unwrap_or_else(|msg| format!("compile_error!({msg:?});"));
    code.parse().expect("generated code is valid Rust")
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(input: TokenStream) -> TokenStream {
    expand(input, derive_serialize)
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(input: TokenStream) -> TokenStream {
    expand(input, derive_deserialize)
}
