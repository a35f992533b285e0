//! A self-contained JSON layer for scenario files.
//!
//! The offline container vendors a no-op serde shim, so scenario files
//! cannot ride on derived `Serialize`/`Deserialize` impls. This module is
//! the dependency-free substitute: a strict recursive-descent parser with
//! line/column errors ([`parse`]) into a [`JsonValue`] tree that borrows
//! from its input, one canonical printer ([`Emitter`], reached through
//! [`to_string`] and [`file_hash`]), and the [`Codec`] every scenario-file
//! and ledger type gets from one field table (`codec!`).
//!
//! ## Ingest allocates per file, not per node
//!
//! A parsed tree borrows its keys and strings from the input text
//! ([`Cow::Borrowed`]); only a string with an escape is owned. The parser
//! collects array items and object members on two stacks of its own and
//! moves each container into one exact-size `Vec` when it closes, and an
//! [`ObjReader`] marks the members it consumed in one word. Printing
//! builds no tree at all: a type writes its canonical bytes straight into
//! an [`Emitter`], which keeps them ([`to_string`]) or streams them into
//! SHA-256 through a 64 KiB buffer ([`file_hash`]).
//!
//! ## Field tables and rule walks
//!
//! A type's table lists its fields once, in file order; the macro derives
//! both directions from it, so the two cannot drift and a field missing
//! from the table does not compile. A type's range and cross-field rules
//! live in one walk, `fn check(&self) -> Rules`, which names the offending
//! member of the first broken rule (`Broken`). `validate()` turns that
//! into a panic (`enforce`) and decoding into an error at the member's
//! position (`Broken::at`), with the same message on both routes.
//!
//! ## Exact round-trips
//!
//! Scenario conformance is pinned **bit-for-bit** (`tests/scenario_files.rs`),
//! so the codec must not lose a single float bit:
//!
//! - finite `f64`s print via Rust's shortest round-trip `Display` repr;
//!   parsing is correctly rounded (`str::parse::<f64>`), so
//!   `parse(print(x)) == x` exactly;
//! - integer tokens (no `.`/exponent) are kept as exact integers
//!   ([`JsonKind::Int`]), so `u64` seeds beyond 2^53 survive unchanged;
//!   `-0` stays `-0.0` bitwise;
//! - non-finite literals (`NaN`, `Infinity`, `1e999`) are parse errors.
//!   Schema fields that legitimately admit an infinite value (uplink
//!   budgets, the α-fair exponent) encode it as the JSON string `"inf"`
//!   and decode it via [`JsonValue::as_f64_or_inf`].
//!
//! The canonical form is two-space indent, arrays of scalars on one line,
//! object members in table order, an unset optional member left out, and
//! no trailing newline. Whether an array prints on one line is a property
//! of its element type ([`Emit::SCALAR`]); a parsed [`JsonValue`] prints
//! through the same [`Emitter`], deciding per array from its items. So
//! `emit → parse → emit` is byte-identical, the canonical-form contract
//! the golden scenario suite asserts.
//!
//! ## Errors
//!
//! Every parse or decode failure is a [`JsonError`] carrying the offending
//! [`Pos`] (1-based line and column): truncated input, unknown object keys
//! ([`ObjReader::finish`]), wrong types, out-of-range numbers, duplicate
//! keys. Nothing in this module panics on malformed input — the mini fuzz
//! loop in `tests/scenario_files.rs` mutates valid files at the byte level
//! and pins every mutant's error, line and column. Printing never panics
//! either: a value with no file form (a non-finite float) is a
//! positionless error naming its field.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

use crate::hash::Sha256;

/// A 1-based line/column position in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes) within the line.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// A JSON parse or decode error, with the source position when one exists
/// (encode-side errors — e.g. a non-finite float — have none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Where in the source text the error was detected.
    pub pos: Option<Pos>,
    /// What went wrong.
    pub msg: String,
}

impl JsonError {
    /// An error at a known source position.
    pub fn at(pos: Pos, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: Some(pos),
            msg: msg.into(),
        }
    }

    /// A positionless error (encode side).
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{p}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

/// One `"key": value` member of a JSON object, with the key's position.
#[derive(Debug, Clone)]
pub struct Member<'a> {
    /// The member key, borrowed from the input unless it has an escape.
    pub key: Cow<'a, str>,
    /// Where the key appeared (for unknown-key errors).
    pub pos: Pos,
    /// The member value.
    pub value: JsonValue<'a>,
}

/// The payload of a [`JsonValue`].
#[derive(Debug, Clone)]
pub enum JsonKind<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without `.` or an exponent, kept exact (this is
    /// what lets `u64` seeds round-trip losslessly). `-0` is *not* an
    /// `Int` — it parses as `Num(-0.0)` so the sign bit survives.
    Int(i128),
    /// Any other number, as a finite `f64` (the parser rejects overflow).
    Num(f64),
    /// A string, borrowed from the input unless it has an escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object, members in source order.
    Obj(Vec<Member<'a>>),
}

/// One node of a parsed JSON tree, borrowing from the text it was parsed
/// from.
#[derive(Debug, Clone)]
pub struct JsonValue<'a> {
    /// Where the value started in the source.
    pub pos: Pos,
    /// The payload.
    pub kind: JsonKind<'a>,
}

impl<'a> JsonValue<'a> {
    /// Human-readable name of the value's JSON type (error messages).
    pub fn type_name(&self) -> &'static str {
        match self.kind {
            JsonKind::Null => "null",
            JsonKind::Bool(_) => "a boolean",
            JsonKind::Int(_) | JsonKind::Num(_) => "a number",
            JsonKind::Str(_) => "a string",
            JsonKind::Arr(_) => "an array",
            JsonKind::Obj(_) => "an object",
        }
    }

    fn type_err(&self, want: &str) -> JsonError {
        JsonError::at(
            self.pos,
            format!("expected {want}, found {}", self.type_name()),
        )
    }

    fn is_scalar(&self) -> bool {
        !matches!(self.kind, JsonKind::Arr(_) | JsonKind::Obj(_))
    }

    /// The value as a boolean.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self.kind {
            JsonKind::Bool(b) => Ok(b),
            _ => Err(self.type_err("a boolean")),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match &self.kind {
            JsonKind::Str(s) => Ok(s),
            _ => Err(self.type_err("a string")),
        }
    }

    /// The value as a finite `f64` (exact for every number the printer
    /// emits: shortest-repr floats parse back bit-identically and integer
    /// tokens convert by one correctly-rounded `i128 → f64` step, the same
    /// rounding the decimal literal itself would get).
    ///
    /// # Errors
    ///
    /// Errors when the value is not a number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self.kind {
            JsonKind::Int(n) => Ok(n as f64),
            JsonKind::Num(x) => Ok(x),
            _ => Err(self.type_err("a number")),
        }
    }

    /// [`JsonValue::as_f64`], additionally accepting the string `"inf"`
    /// (and `"+inf"`) as `+∞` — the encoding of unbounded budgets and the
    /// max-min α.
    ///
    /// # Errors
    ///
    /// Errors when the value is neither a number nor an `"inf"` string.
    pub fn as_f64_or_inf(&self) -> Result<f64, JsonError> {
        match &self.kind {
            JsonKind::Str(s) if s == "inf" || s == "+inf" => Ok(f64::INFINITY),
            JsonKind::Str(_) => Err(JsonError::at(
                self.pos,
                "expected a number or the string \"inf\"",
            )),
            _ => self.as_f64(),
        }
    }

    /// The value as a `u64` (must be an exact non-negative integer token).
    ///
    /// # Errors
    ///
    /// Errors when the value is not an integer, is negative, or exceeds
    /// `u64::MAX`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self.kind {
            JsonKind::Int(n) => u64::try_from(n)
                .map_err(|_| JsonError::at(self.pos, format!("integer {n} out of range for u64"))),
            JsonKind::Num(_) => Err(JsonError::at(
                self.pos,
                "expected an integer, found a non-integer number",
            )),
            _ => Err(self.type_err("an integer")),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Errors when the value is not an exact integer in `usize` range.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_u64()?;
        usize::try_from(n)
            .map_err(|_| JsonError::at(self.pos, format!("integer {n} out of range for usize")))
    }

    /// The value as a `u8`.
    ///
    /// # Errors
    ///
    /// Errors when the value is not an exact integer in `0..=255`.
    pub fn as_u8(&self) -> Result<u8, JsonError> {
        let n = self.as_u64()?;
        u8::try_from(n)
            .map_err(|_| JsonError::at(self.pos, format!("integer {n} out of range for u8")))
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Errors when the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue<'a>], JsonError> {
        match &self.kind {
            JsonKind::Arr(items) => Ok(items),
            _ => Err(self.type_err("an array")),
        }
    }

    /// Opens the value as an object for strict member-by-member reading
    /// (see [`ObjReader`]).
    ///
    /// # Errors
    ///
    /// Errors when the value is not an object.
    pub fn as_obj(&self) -> Result<ObjReader<'_>, JsonError> {
        match &self.kind {
            JsonKind::Obj(members) => Ok(ObjReader {
                pos: self.pos,
                members,
                seen: 0,
                seen_past_64: vec![false; members.len().saturating_sub(64)],
            }),
            _ => Err(self.type_err("an object")),
        }
    }
}

/// Strict object reader: members are consumed by key, and
/// [`ObjReader::finish`] rejects any member never asked for — the
/// unknown-key strictness that keeps scenario files forward-diffable
/// (a typo'd or future key fails loudly instead of being ignored).
#[derive(Debug)]
pub struct ObjReader<'a> {
    pos: Pos,
    members: &'a [Member<'a>],
    /// One bit per consumed member among the first 64.
    seen: u64,
    /// The consumed members past the 64th (empty, so never allocated, for
    /// every object a valid scenario file holds).
    seen_past_64: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    /// The object's own source position.
    pub fn pos(&self) -> Pos {
        self.pos
    }

    fn lookup(&mut self, key: &str) -> Option<&'a JsonValue<'a>> {
        // Objects here are tiny (≤ 8 members); linear scan beats any map.
        let i = self.members.iter().position(|m| m.key == key)?;
        match i.checked_sub(64) {
            None => self.seen |= 1 << i,
            Some(past) => self.seen_past_64[past] = true,
        }
        Some(&self.members[i].value)
    }

    /// A required member.
    ///
    /// # Errors
    ///
    /// Errors when the key is absent.
    pub fn req(&mut self, key: &str) -> Result<&'a JsonValue<'a>, JsonError> {
        self.lookup(key)
            .ok_or_else(|| JsonError::at(self.pos, format!("missing required key \"{key}\"")))
    }

    /// An optional member; absent keys and explicit `null` both read as
    /// `None` (the codec emits `Some` fields only, so both spellings mean
    /// the same thing on the way in).
    pub fn opt(&mut self, key: &str) -> Option<&'a JsonValue<'a>> {
        self.lookup(key)
            .filter(|v| !matches!(v.kind, JsonKind::Null))
    }

    /// Verifies every member was consumed.
    ///
    /// # Errors
    ///
    /// Errors on the first member no `req`/`opt` call asked for, at the
    /// key's own position.
    pub fn finish(self) -> Result<(), JsonError> {
        let seen = |i: usize| match i.checked_sub(64) {
            None => self.seen & (1 << i) != 0,
            Some(past) => self.seen_past_64[past],
        };
        match self.members.iter().enumerate().find(|&(i, _)| !seen(i)) {
            Some((_, m)) => Err(JsonError::at(m.pos, format!("unknown key \"{}\"", m.key))),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------------

/// A value with a canonical file form, written into an [`Emitter`].
/// Scalars, strings, arrays, optional members and parsed [`JsonValue`]s
/// are implemented here; every scenario-file and ledger type gets its impl
/// from one field table (`codec!`).
pub trait Emit {
    /// Whether the value always prints as a JSON scalar, so that an array
    /// of it prints on one line.
    const SCALAR: bool = false;

    /// Writes the value; `name` names the field in encode errors.
    ///
    /// # Errors
    ///
    /// Errors on a value with no file form (a non-finite float).
    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError>;

    /// Writes the value as member `key` of the open object; an unset
    /// optional value writes nothing.
    ///
    /// # Errors
    ///
    /// As [`Emit::emit`].
    fn emit_member(&self, out: &mut Emitter, key: &str) -> Result<(), JsonError> {
        out.key(key);
        self.emit(out, key)
    }
}

/// A value with a file form that decodes back bit for bit.
pub trait Codec: Emit + Sized {
    /// Decodes a value, checking the type's rules.
    ///
    /// # Errors
    ///
    /// Errors with the offending position on wrong types, unknown or
    /// missing keys, and broken rules.
    fn decode(v: &JsonValue) -> Result<Self, JsonError>;

    /// Reads the value as member `key` of an object: required, unless the
    /// type is an `Option`.
    ///
    /// # Errors
    ///
    /// Errors when the member is missing or does not decode.
    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<Self, JsonError> {
        Self::decode(obj.req(key)?)
    }
}

/// A field's file form when it is not its type's own [`Codec`]: the form
/// named after a field in a `codec!` table (`budget: Inf`).
pub(crate) trait Form<T> {
    /// Writes `x` as member `key`.
    ///
    /// # Errors
    ///
    /// Errors on a value with no file form in this form.
    fn emit_member(x: &T, out: &mut Emitter, key: &str) -> Result<(), JsonError>;

    /// Reads member `key` of `obj` in this form.
    ///
    /// # Errors
    ///
    /// Errors when the member is missing or does not decode.
    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<T, JsonError>;
}

/// Floats that may be `+∞`, written as the string `"inf"`: uplink budgets,
/// the max-min α and the guard's backlog limit.
#[derive(Debug)]
pub(crate) struct Inf;

impl Form<f64> for Inf {
    fn emit_member(x: &f64, out: &mut Emitter, key: &str) -> Result<(), JsonError> {
        out.key(key);
        out.num_or_inf(key, *x)
    }

    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<f64, JsonError> {
        obj.req(key)?.as_f64_or_inf()
    }
}

impl Form<Vec<f64>> for Inf {
    fn emit_member(xs: &Vec<f64>, out: &mut Emitter, key: &str) -> Result<(), JsonError> {
        out.key(key);
        out.array(true, xs, |out, &x| out.num_or_inf(key, x))
    }

    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<Vec<f64>, JsonError> {
        let items = obj.req(key)?.as_array()?;
        items.iter().map(JsonValue::as_f64_or_inf).collect()
    }
}

/// A count whose zero is written by omission (churn's `max_joins`).
#[derive(Debug)]
pub(crate) struct ZeroAbsent;

impl Form<u64> for ZeroAbsent {
    fn emit_member(x: &u64, out: &mut Emitter, key: &str) -> Result<(), JsonError> {
        match x {
            0 => Ok(()),
            n => out.member(key, n),
        }
    }

    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<u64, JsonError> {
        obj.opt(key).map_or(Ok(0), JsonValue::as_u64)
    }
}

impl Emit for f64 {
    const SCALAR: bool = true;

    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError> {
        out.num(name, *self)
    }
}

impl Codec for f64 {
    fn decode(v: &JsonValue) -> Result<f64, JsonError> {
        v.as_f64()
    }
}

/// The exact scalars: each prints its `Display` form and decodes through
/// its `JsonValue::as_*` accessor.
macro_rules! exact_codec {
    ($($ty:ty: $as:ident),*) => {$(
        impl Emit for $ty {
            const SCALAR: bool = true;

            fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
                out.display(self)
            }
        }

        impl Codec for $ty {
            fn decode(v: &JsonValue) -> Result<$ty, JsonError> {
                v.$as()
            }
        }
    )*};
}

exact_codec!(u64: as_u64, usize: as_usize, u8: as_u8, bool: as_bool);

impl Emit for str {
    const SCALAR: bool = true;

    fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
        out.string(self);
        Ok(())
    }
}

impl Emit for String {
    const SCALAR: bool = true;

    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError> {
        self.as_str().emit(out, name)
    }
}

impl Codec for String {
    fn decode(v: &JsonValue) -> Result<String, JsonError> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Emit> Emit for Vec<T> {
    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError> {
        out.array(T::SCALAR, self, |out, x| x.emit(out, name))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn decode(v: &JsonValue) -> Result<Vec<T>, JsonError> {
        v.as_array()?.iter().map(T::decode).collect()
    }
}

/// An optional member: `None` is left out of its object (and prints as
/// `null` anywhere else), and reads back from an absent or `null` member.
impl<T: Emit> Emit for Option<T> {
    const SCALAR: bool = T::SCALAR;

    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError> {
        match self {
            Some(x) => x.emit(out, name),
            None => out.display("null"),
        }
    }

    fn emit_member(&self, out: &mut Emitter, key: &str) -> Result<(), JsonError> {
        self.as_ref().map_or(Ok(()), |x| x.emit_member(out, key))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn decode(v: &JsonValue) -> Result<Option<T>, JsonError> {
        match v.kind {
            JsonKind::Null => Ok(None),
            _ => T::decode(v).map(Some),
        }
    }

    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<Option<T>, JsonError> {
        obj.opt(key).map(T::decode).transpose()
    }
}

/// A parsed tree prints in the canonical form, an array on one line when
/// all its items are scalars: `parse(s)` prints back as any canonically
/// formatted `s`, byte for byte.
impl Emit for JsonValue<'_> {
    fn emit(&self, out: &mut Emitter, name: &str) -> Result<(), JsonError> {
        match &self.kind {
            JsonKind::Null => out.display("null"),
            JsonKind::Bool(b) => out.display(b),
            JsonKind::Int(n) => out.display(n),
            JsonKind::Num(x) => out.num(name, *x),
            JsonKind::Str(s) => s.emit(out, name),
            JsonKind::Arr(items) => {
                let inline = items.iter().all(JsonValue::is_scalar);
                out.array(inline, items, |out, item| item.emit(out, name))
            }
            JsonKind::Obj(members) => out.object(|out| {
                members
                    .iter()
                    .try_for_each(|m| out.member(&m.key, &m.value))
            }),
        }
    }
}

/// `"a or b"`, `"a, b, or c"`: the expected tags of an unknown-tag error.
pub(crate) fn one_of(tags: &[&str]) -> String {
    match tags {
        [] => String::new(),
        [a, b] => format!("{a} or {b}"),
        [init @ .., last] => format!("{}, or {last}", init.join(", ")),
    }
}

/// Generates a type's [`Emit`] and [`Codec`] impls from its field table.
///
/// - `Type { a, b: Form, ... }` — a struct as an object whose members are
///   the fields, in table order;
/// - `Type as "what" { Variant "tag" { a, b }, Variant "tag" (key),
///   Variant "tag", ... }` — an enum as an object tagged by `"type"`, with
///   a struct variant's fields or a one-field tuple variant's value under
///   `key`; a tag outside the table is an `unknown {what}` error;
/// - `Type as "what" = Variant "tag" | ...` — a fieldless enum as a
///   string, with a generated `name()`.
///
/// Each key is `stringify!(field)`. A field is written by its type's own
/// [`Emit`] (an `Option` field is left out when `None`) or by the [`Form`]
/// named after it. Emission destructures `Self` with no `..` and decoding
/// ends in a full struct literal, so a field without an entry, or an
/// entry without a field, does not compile. A trailing `check` makes
/// decoding run the type's rule walk (`fn check(&self) -> Rules`), whose
/// broken rule becomes a positioned error ([`Broken::at`]).
macro_rules! codec {
    (@put $out:ident $field:ident) => {
        $out.member(stringify!($field), $field)?
    };
    (@put $out:ident $field:ident $form:ident) => {
        <$crate::json::$form as $crate::json::Form<_>>::emit_member(
            $field,
            $out,
            stringify!($field),
        )?
    };
    (@take $obj:ident $field:ident) => {
        $crate::json::Codec::member(&mut $obj, stringify!($field))?
    };
    (@take $obj:ident $field:ident $form:ident) => {
        <$crate::json::$form as $crate::json::Form<_>>::member(&mut $obj, stringify!($field))?
    };
    (@check $value:ident $node:ident) => {};
    (@check $value:ident $node:ident check) => {
        $value.check().map_err(|broken| broken.at($node))?
    };

    ($ty:ident { $($field:ident $(: $form:ident)?),* $(,)? } $($check:ident)?) => {
        impl $crate::json::Emit for $ty {
            fn emit(
                &self,
                out: &mut $crate::json::Emitter,
                _name: &str,
            ) -> Result<(), $crate::json::JsonError> {
                let $ty { $($field),* } = self;
                out.object(|out| {
                    $($crate::json::codec!(@put out $field $($form)?);)*
                    Ok(())
                })
            }
        }

        impl $crate::json::Codec for $ty {
            fn decode(
                v: &$crate::json::JsonValue,
            ) -> Result<$ty, $crate::json::JsonError> {
                let mut obj = v.as_obj()?;
                let value = $ty {
                    $($field: $crate::json::codec!(@take obj $field $($form)?),)*
                };
                obj.finish()?;
                $crate::json::codec!(@check value v $($check)?);
                Ok(value)
            }
        }
    };

    ($ty:ident as $what:literal {
        $($var:ident $tag:literal
            $({ $($field:ident $(: $form:ident)?),* $(,)? })?
            $(($key:ident $(: $kform:ident)?))?
        ),* $(,)?
    } $($check:ident)?) => {
        impl $crate::json::Emit for $ty {
            fn emit(
                &self,
                out: &mut $crate::json::Emitter,
                _name: &str,
            ) -> Result<(), $crate::json::JsonError> {
                out.object(|out| {
                    match self {
                        $(Self::$var $({ $($field),* })? $(($key))? => {
                            out.member("type", $tag)?;
                            $($($crate::json::codec!(@put out $field $($form)?);)*)?
                            $($crate::json::codec!(@put out $key $($kform)?);)?
                        })*
                    }
                    Ok(())
                })
            }
        }

        impl $crate::json::Codec for $ty {
            fn decode(
                v: &$crate::json::JsonValue,
            ) -> Result<$ty, $crate::json::JsonError> {
                let mut obj = v.as_obj()?;
                let tag = obj.req("type")?;
                let value = match tag.as_str()? {
                    $($tag => Self::$var
                        $({ $($field: $crate::json::codec!(@take obj $field $($form)?),)* })?
                        $(($crate::json::codec!(@take obj $key $($kform)?)))?,)*
                    other => {
                        return Err($crate::json::JsonError::at(
                            tag.pos,
                            format!(
                                "unknown {} \"{other}\" (expected {})",
                                $what,
                                $crate::json::one_of(&[$($tag),*])
                            ),
                        ))
                    }
                };
                obj.finish()?;
                $crate::json::codec!(@check value v $($check)?);
                Ok(value)
            }
        }
    };

    ($ty:ident as $what:literal = $($var:ident $tag:literal)|+) => {
        impl $ty {
            /// The value's name: its file form and CSV/log label.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$var => $tag,)+
                }
            }
        }

        impl $crate::json::Emit for $ty {
            const SCALAR: bool = true;

            fn emit(
                &self,
                out: &mut $crate::json::Emitter,
                name: &str,
            ) -> Result<(), $crate::json::JsonError> {
                $crate::json::Emit::emit(self.name(), out, name)
            }
        }

        impl $crate::json::Codec for $ty {
            fn decode(
                v: &$crate::json::JsonValue,
            ) -> Result<$ty, $crate::json::JsonError> {
                match v.as_str()? {
                    $($tag => Ok(Self::$var),)+
                    other => Err($crate::json::JsonError::at(
                        v.pos,
                        format!(
                            "unknown {} \"{other}\" (expected {})",
                            $what,
                            $crate::json::one_of(&[$($tag),+])
                        ),
                    )),
                }
            }
        }
    };
}
pub(crate) use codec;

// ---------------------------------------------------------------------------
// Rule walks
// ---------------------------------------------------------------------------

/// A rule a value breaks: the member it concerns, as a path from the
/// value's own node (`"amplitude"`, `"steps[1].start"`, `"events[3]"`, or
/// `""` for the value itself), and the message both routes report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Broken {
    /// Path of the offending member, relative to the checked value.
    pub(crate) path: String,
    /// What is wrong.
    pub(crate) msg: String,
}

/// The outcome of a type's rule walk (`fn check(&self) -> Rules`): the
/// first broken rule, if any. `validate()` turns it into a panic
/// ([`enforce`]), decoding into a positioned error ([`Broken::at`]).
pub(crate) type Rules = Result<(), Broken>;

/// `Ok` when `ok` holds; otherwise the rule broken at `path`, with the
/// message `msg` builds.
///
/// # Errors
///
/// Errors when `ok` is false.
pub(crate) fn ensure(ok: bool, path: &str, msg: impl FnOnce() -> String) -> Rules {
    if ok {
        Ok(())
    } else {
        Err(Broken {
            path: path.to_string(),
            msg: msg(),
        })
    }
}

impl Broken {
    /// The same rule seen from the parent value, which holds this one at
    /// `step` (a member key, or `[i]` for an array element).
    pub(crate) fn under(self, step: &str) -> Broken {
        let path = if self.path.is_empty() {
            step.to_string()
        } else if self.path.starts_with('[') {
            format!("{step}{}", self.path)
        } else {
            format!("{step}.{}", self.path)
        };
        Broken { path, ..self }
    }

    /// The decoding route: an error at the position of the offending
    /// member in `node`, the checked value's own JSON (or of the deepest
    /// node on the path that exists, when the member is absent).
    pub(crate) fn at(self, node: &JsonValue) -> JsonError {
        let mut here = node;
        for step in self.path.split(['.', '[']).filter(|s| !s.is_empty()) {
            let next = match (&here.kind, step.strip_suffix(']')) {
                (JsonKind::Arr(items), Some(i)) => i.parse().ok().and_then(|i: usize| items.get(i)),
                (JsonKind::Obj(members), None) => {
                    members.iter().find(|m| m.key == step).map(|m| &m.value)
                }
                _ => None,
            };
            match next {
                Some(next) => here = next,
                None => break,
            }
        }
        JsonError::at(here.pos, self.msg)
    }
}

/// The `validate()` route of a rule walk: panics with the broken rule's
/// message.
///
/// # Panics
///
/// Panics when `rules` holds a broken rule.
#[track_caller]
pub(crate) fn enforce(rules: Rules) {
    if let Err(broken) = rules {
        // arvis-lint: allow(panic-free-codecs, "the documented panicking route of validate(); decoding turns the same rule into a positioned error")
        panic!("{}", broken.msg);
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

/// Bytes of canonical text the hashing [`Emitter`] gathers before it hands
/// them to SHA-256.
const HASH_BUFFER: usize = 64 * 1024;

/// The one canonical printer: values write themselves into it ([`Emit`]),
/// and it either keeps the text ([`to_string`]) or streams it into SHA-256
/// ([`file_hash`]) without ever holding the whole of it.
pub struct Emitter {
    /// Text not yet handed to `hash`.
    out: String,
    /// The digest of the text handed over so far.
    hash: Sha256,
    /// How much text `out` gathers before it goes to `hash` (`usize::MAX`:
    /// the text is kept whole).
    flush_at: usize,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no entry yet.
    fresh: bool,
    /// The innermost open container is an array printed on one line.
    inline: bool,
}

/// `value`'s canonical text: two-space indent, scalar arrays on one line,
/// members in table order, no trailing newline.
///
/// # Errors
///
/// Errors on a value with no file form (a non-finite float), naming the
/// field.
pub fn to_string<T: Emit + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = Emitter::new(usize::MAX, 0);
    value.emit(&mut out, "value")?;
    Ok(out.out)
}

/// The SHA-256, as 64 lowercase hex digits, of `value`'s file form: its
/// canonical text ([`to_string`]) and one trailing newline. The text
/// streams into the hash through a 64 KiB buffer and is never held whole.
///
/// # Errors
///
/// Errors as [`to_string`] does.
pub fn file_hash<T: Emit + ?Sized>(value: &T) -> Result<String, JsonError> {
    // The buffer flushes before an entry, so it has room past the mark for
    // the entry that crosses it.
    let mut out = Emitter::new(HASH_BUFFER, HASH_BUFFER + 4096);
    value.emit(&mut out, "value")?;
    out.out.push('\n');
    out.hash.update(out.out.as_bytes());
    Ok(out.hash.finalize_hex())
}

impl Emitter {
    fn new(flush_at: usize, capacity: usize) -> Emitter {
        Emitter {
            out: String::with_capacity(capacity),
            hash: Sha256::new(),
            flush_at,
            depth: 0,
            fresh: false,
            inline: false,
        }
    }

    /// Writes an object: `{`, the members `body` writes, `}`.
    ///
    /// # Errors
    ///
    /// Propagates the first error `body` returns.
    pub fn object(
        &mut self,
        body: impl FnOnce(&mut Emitter) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open('{', false);
        body(self)?;
        self.close('}');
        Ok(())
    }

    /// Writes `value` as member `key` of the open object (an unset optional
    /// value writes nothing); `key` names the field in encode errors.
    ///
    /// # Errors
    ///
    /// Errors on a value with no file form.
    pub fn member<T: Emit + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), JsonError> {
        value.emit_member(self, key)
    }

    /// Writes an array of `items`, each written by `each`: on one line
    /// when `inline` (for scalars only), else one item per line.
    pub(crate) fn array<I: IntoIterator>(
        &mut self,
        inline: bool,
        items: I,
        mut each: impl FnMut(&mut Emitter, I::Item) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open('[', inline);
        for item in items {
            self.entry();
            each(self, item)?;
        }
        self.close(']');
        Ok(())
    }

    /// Starts a member of the open object: its separator, indent, key and
    /// colon.
    pub(crate) fn key(&mut self, key: &str) {
        self.entry();
        self.string(key);
        self.out.push_str(": ");
    }

    fn entry(&mut self) {
        if self.out.len() >= self.flush_at {
            self.hash.update(self.out.as_bytes());
            self.out.clear();
        }
        if self.inline {
            if !self.fresh {
                self.out.push_str(", ");
            }
        } else {
            self.out.push_str(if self.fresh { "\n" } else { ",\n" });
            self.indent();
        }
        self.fresh = false;
    }

    fn open(&mut self, bracket: char, inline: bool) {
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
        self.inline = inline;
    }

    fn close(&mut self, bracket: char) {
        self.depth = self.depth.saturating_sub(1);
        if !self.fresh && !self.inline {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(bracket);
        // The enclosing container holds this one, so it is neither empty
        // nor an array of scalars.
        self.fresh = false;
        self.inline = false;
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Writes `x`'s `Display` form (integers, booleans, `null`).
    fn display(&mut self, x: impl fmt::Display) -> Result<(), JsonError> {
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{x}");
        Ok(())
    }

    /// Writes a finite float as its shortest round-trip repr (Rust's
    /// `Display`, which never produces exponents — valid JSON by
    /// construction).
    fn num(&mut self, name: &str, x: f64) -> Result<(), JsonError> {
        if !x.is_finite() {
            return Err(JsonError::new(format!(
                "{name} must be finite to encode in a scenario file, got {x}"
            )));
        }
        self.display(x)
    }

    /// Like [`Emitter::num`], but `+∞` is allowed and writes the string
    /// `"inf"` (the schema form for unbounded budgets and the max-min α).
    fn num_or_inf(&mut self, name: &str, x: f64) -> Result<(), JsonError> {
        if x == f64::INFINITY {
            self.string("inf");
            Ok(())
        } else {
            self.num(name, x)
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            self.out.push_str(s);
        } else {
            for ch in s.chars() {
                match ch {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\r' => self.out.push_str("\\r"),
                    '\t' => self.out.push_str("\\t"),
                    '\u{08}' => self.out.push_str("\\b"),
                    '\u{0c}' => self.out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(self.out, "\\u{:04x}", c as u32);
                    }
                    c => self.out.push(c),
                }
            }
        }
        self.out.push('"');
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum container nesting the parser accepts — far above any scenario
/// file (≤ 8 levels), but low enough that a pathological `[[[[…` from the
/// fuzz loop errors instead of exhausting the stack.
const MAX_DEPTH: u32 = 64;

/// Members an object finds a duplicate key among by scanning; past this,
/// the object keeps its keys in a `BTreeSet`, so a hostile object of `n`
/// distinct keys parses in O(n log n) rather than O(n²).
const SCAN_KEYS: usize = 16;

/// Parses strict JSON (RFC 8259: no comments, no trailing commas, no
/// `NaN`/`Infinity` literals, exactly one top-level value) into a
/// [`JsonValue`] tree with source positions, borrowing every key and
/// unescaped string from `text`, and rejecting duplicate object keys and
/// numbers that overflow `f64`.
///
/// # Errors
///
/// Errors on the first syntax violation, at its line/column.
pub fn parse(text: &str) -> Result<JsonValue<'_>, JsonError> {
    let mut p = Parser {
        text,
        i: 0,
        line: 1,
        col: 1,
        items: Vec::new(),
        members: Vec::new(),
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.i < text.len() {
        return Err(JsonError::at(
            p.pos(),
            "trailing characters after the top-level value",
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
    line: u32,
    col: u32,
    /// Items of the arrays being parsed, innermost array's last.
    items: Vec<JsonValue<'a>>,
    /// Members of the objects being parsed, innermost object's last.
    members: Vec<Member<'a>>,
}

impl<'a> Parser<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn eof_err(&self) -> JsonError {
        JsonError::at(self.pos(), "unexpected end of input")
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == want => {
                self.bump();
                Ok(())
            }
            Some(b) => Err(JsonError::at(
                self.pos(),
                format!("expected '{}', found '{}'", want as char, printable(b)),
            )),
            None => Err(self.eof_err()),
        }
    }

    fn literal(&mut self, word: &str, kind: JsonKind<'a>) -> Result<JsonKind<'a>, JsonError> {
        let pos = self.pos();
        for want in word.bytes() {
            if self.bump() != Some(want) {
                return Err(JsonError::at(
                    pos,
                    format!("invalid literal (expected `{word}`)"),
                ));
            }
        }
        Ok(kind)
    }

    fn value(&mut self, depth: u32) -> Result<JsonValue<'a>, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos(), "nesting too deep"));
        }
        let pos = self.pos();
        let kind = match self.peek() {
            None => return Err(self.eof_err()),
            Some(b'n') => self.literal("null", JsonKind::Null)?,
            Some(b't') => self.literal("true", JsonKind::Bool(true))?,
            Some(b'f') => self.literal("false", JsonKind::Bool(false))?,
            Some(b'"') => JsonKind::Str(self.string()?),
            Some(b'[') => JsonKind::Arr(self.array(depth)?),
            Some(b'{') => JsonKind::Obj(self.object(depth)?),
            Some(b'-' | b'0'..=b'9') => self.number(pos)?,
            Some(b) => {
                return Err(JsonError::at(
                    pos,
                    format!("unexpected character '{}'", printable(b)),
                ))
            }
        };
        Ok(JsonValue { pos, kind })
    }

    fn array(&mut self, depth: u32) -> Result<Vec<JsonValue<'a>>, JsonError> {
        self.bump(); // '['
        let base = self.items.len();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                let item = self.value(depth + 1)?;
                self.items.push(item);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.bump(),
                    Some(b']') => break,
                    Some(b) => {
                        return Err(JsonError::at(
                            self.pos(),
                            format!("expected ',' or ']', found '{}'", printable(b)),
                        ))
                    }
                    None => return Err(self.eof_err()),
                };
            }
        }
        self.bump(); // ']'
        Ok(self.items.drain(base..).collect())
    }

    fn object(&mut self, depth: u32) -> Result<Vec<Member<'a>>, JsonError> {
        self.bump(); // '{'
        let base = self.members.len();
        // The object's keys, once it outgrows a scan of its members.
        let mut keys: Option<BTreeSet<Cow<'a, str>>> = None;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let pos = self.pos();
                match self.peek() {
                    Some(b'"') => {}
                    Some(b) => {
                        return Err(JsonError::at(
                            pos,
                            format!("expected a string key, found '{}'", printable(b)),
                        ))
                    }
                    None => return Err(self.eof_err()),
                }
                let key = self.string()?;
                let earlier = &self.members[base..];
                if keys.is_none() && earlier.len() >= SCAN_KEYS {
                    keys = Some(earlier.iter().map(|m| m.key.clone()).collect());
                }
                let duplicate = match &mut keys {
                    Some(keys) => !keys.insert(key.clone()),
                    None => earlier.iter().any(|m| m.key == key),
                };
                if duplicate {
                    return Err(JsonError::at(pos, format!("duplicate key \"{key}\"")));
                }
                self.skip_ws();
                self.expect_byte(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                self.members.push(Member { key, pos, value });
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.bump(),
                    Some(b'}') => break,
                    Some(b) => {
                        return Err(JsonError::at(
                            self.pos(),
                            format!("expected ',' or '}}', found '{}'", printable(b)),
                        ))
                    }
                    None => return Err(self.eof_err()),
                };
            }
        }
        self.bump(); // '}'
        Ok(self.members.drain(base..).collect())
    }

    /// A string token, borrowed from the input up to its closing quote
    /// unless an escape makes it owned.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.bump(); // '"'
        let mut owned: Option<String> = None;
        loop {
            // The run up to the next quote, escape or control byte: all
            // three are ASCII, so the run ends on a character boundary, and
            // it holds no newline, so only the column moves.
            let start = self.i;
            let rest = self.text.as_bytes().get(start..).unwrap_or_default();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            self.i += run;
            self.col += run as u32;
            let chunk = self
                .text
                .get(start..self.i)
                .ok_or_else(|| JsonError::at(self.pos(), "invalid UTF-8 in string"))?;
            let ch_pos = self.pos();
            match self.bump() {
                None => return Err(self.eof_err()),
                Some(b'"') => {
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(out) => Cow::Owned(out + chunk),
                    })
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(chunk);
                    out.push(self.escape(ch_pos)?);
                }
                Some(_) => {
                    return Err(JsonError::at(
                        ch_pos,
                        "unescaped control character in string",
                    ))
                }
            }
        }
    }

    /// The character a backslash escape at `ch_pos` stands for, the
    /// backslash already consumed.
    fn escape(&mut self, ch_pos: Pos) -> Result<char, JsonError> {
        match self.bump() {
            None => Err(self.eof_err()),
            Some(b'"') => Ok('"'),
            Some(b'\\') => Ok('\\'),
            Some(b'/') => Ok('/'),
            Some(b'b') => Ok('\u{08}'),
            Some(b'f') => Ok('\u{0c}'),
            Some(b'n') => Ok('\n'),
            Some(b'r') => Ok('\r'),
            Some(b't') => Ok('\t'),
            Some(b'u') => {
                let hi = self.hex4(ch_pos)?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require the paired low half.
                    let pair_pos = self.pos();
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(JsonError::at(pair_pos, "unpaired surrogate in \\u escape"));
                    }
                    let lo = self.hex4(pair_pos)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(JsonError::at(pair_pos, "unpaired surrogate in \\u escape"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(JsonError::at(ch_pos, "unpaired surrogate in \\u escape"));
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| JsonError::at(ch_pos, "invalid \\u escape"))
            }
            Some(b) => Err(JsonError::at(
                ch_pos,
                format!("invalid escape '\\{}'", printable(b)),
            )),
        }
    }

    fn hex4(&mut self, pos: Pos) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                Some(_) => return Err(JsonError::at(pos, "invalid \\u escape")),
                None => return Err(self.eof_err()),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self, pos: Pos) -> Result<JsonKind<'a>, JsonError> {
        let start = self.i;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.bump();
        }
        // Integer part: '0' or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => {
                self.bump();
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(JsonError::at(pos, "numbers may not have leading zeros"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            _ => return Err(JsonError::at(pos, "invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at(
                    pos,
                    "invalid number (digits must follow '.')",
                ));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at(pos, "invalid number (empty exponent)"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        // The token is ASCII by construction; a slice off a character
        // boundary here would be a scanner bug, reported as a positioned
        // error rather than a panic (codecs never panic on input).
        let Some(token) = self.text.get(start..self.i) else {
            return Err(JsonError::at(pos, "invalid number (non-ASCII bytes)"));
        };
        if !is_float {
            if let Ok(n) = token.parse::<i128>() {
                // `-0` must keep its sign bit: store as a float.
                return Ok(if n == 0 && negative {
                    JsonKind::Num(-0.0)
                } else {
                    JsonKind::Int(n)
                });
            }
            // Falls through: an integer token too large for i128 is kept
            // as a correctly-rounded f64 (e.g. the 300-digit shortest repr
            // of 1e300).
        }
        let x: f64 = token
            .parse()
            .map_err(|_| JsonError::at(pos, "invalid number"))?;
        if !x.is_finite() {
            return Err(JsonError::at(pos, "number does not fit in an f64"));
        }
        Ok(JsonKind::Num(x))
    }
}

fn printable(b: u8) -> char {
    if (0x20..0x7f).contains(&b) {
        b as char
    } else {
        '\u{fffd}'
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        to_string(&parse(text).expect("parse")).expect("print")
    }

    #[test]
    fn scalars_parse_and_print() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("0.5"), "0.5");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn pretty_form_is_a_fixed_point() {
        let text = "{\n  \"a\": [1, 2, 3],\n  \"b\": {\n    \"c\": \"x\"\n  },\n  \"d\": []\n}";
        assert_eq!(roundtrip(text), text);
        // And printing is idempotent from any formatting.
        assert_eq!(
            roundtrip("{ \"a\":[1,2,3],\"b\":{\"c\":\"x\"},\"d\":[ ] }"),
            text
        );
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for x in [
            0.1,
            -0.0,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324, // subnormal minimum
            1e300,
            -2.2250738585072014e-308,
            123_456_789.123_456_79,
        ] {
            let printed = to_string(&x).unwrap();
            let back = parse(&printed).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} printed as {printed}");
        }
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        for n in [0u64, 1, 2u64.pow(53) + 1, u64::MAX] {
            let printed = to_string(&n).unwrap();
            let back = parse(&printed).unwrap().as_u64().unwrap();
            assert_eq!(back, n);
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let v = parse("-0").unwrap();
        assert_eq!(v.as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        // And it is not an integer.
        assert!(v.as_u64().is_err());
    }

    #[test]
    fn inf_string_encoding() {
        let mut out = Emitter::new(usize::MAX, 0);
        out.num_or_inf("budget", f64::INFINITY).unwrap();
        assert_eq!(out.out, "\"inf\"");
        assert_eq!(
            parse("\"inf\"").unwrap().as_f64_or_inf().unwrap(),
            f64::INFINITY
        );
        assert_eq!(parse("2.5").unwrap().as_f64_or_inf().unwrap(), 2.5);
        assert!(parse("\"huge\"").unwrap().as_f64_or_inf().is_err());
    }

    #[test]
    fn non_finite_literals_are_rejected() {
        for text in [
            "NaN",
            "Infinity",
            "-Infinity",
            "nan",
            "inf",
            "1e999",
            "-1e999",
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.pos.is_some(), "{text} must fail with a position");
        }
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        let err = parse("{\n  \"a\": 1,\n  \"b\": }\n").unwrap_err();
        let pos = err.pos.unwrap();
        assert_eq!(pos.line, 3);
        assert_eq!(pos.col, 8);

        let err = parse("[1, 2,").unwrap_err();
        assert_eq!(err.msg, "unexpected end of input");

        let err = parse("").unwrap_err();
        assert_eq!(err.pos.unwrap(), Pos { line: 1, col: 1 });
    }

    #[test]
    fn strictness_rejections() {
        assert!(parse("[1, 2,]").is_err(), "trailing comma");
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate key");
        assert!(parse("01").is_err(), "leading zero");
        assert!(parse("1 2").is_err(), "trailing characters");
        assert!(parse("'a'").is_err(), "single quotes");
        assert!(parse("{a: 1}").is_err(), "unquoted key");
        assert!(parse("\"\u{1}\"").is_err(), "raw control character");
        assert!(parse("+1").is_err(), "leading plus");
        assert!(parse("1.").is_err(), "empty fraction");
        assert!(parse("1e").is_err(), "empty exponent");
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "nesting too deep");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let tricky = "quote \" backslash \\ newline \n tab \t unicode \u{1f600} nul \u{0}";
        let printed = to_string(tricky).unwrap();
        let back = parse(&printed).unwrap();
        assert_eq!(back.as_str().unwrap(), tricky);
        // Surrogate-pair escapes decode too.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1f600}");
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\ude00\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\q\"").is_err(), "unknown escape");
    }

    #[test]
    fn obj_reader_rejects_unknown_keys() {
        let v = parse("{\n  \"known\": 1,\n  \"mystery\": 2\n}").unwrap();
        let mut obj = v.as_obj().unwrap();
        assert_eq!(obj.req("known").unwrap().as_u64().unwrap(), 1);
        let err = obj.finish().unwrap_err();
        assert!(err.msg.contains("unknown key \"mystery\""), "{}", err.msg);
        assert_eq!(err.pos.unwrap().line, 3);

        let v = parse("{\"a\": 1}").unwrap();
        let mut obj = v.as_obj().unwrap();
        let err = obj.req("b").unwrap_err();
        assert!(err.msg.contains("missing required key \"b\""));
    }

    #[test]
    fn opt_treats_null_as_absent() {
        let v = parse("{\"a\": null, \"b\": 3}").unwrap();
        let mut obj = v.as_obj().unwrap();
        assert!(obj.opt("a").is_none());
        assert!(obj.opt("b").is_some());
        assert!(obj.opt("c").is_none());
        obj.finish().unwrap();
    }

    #[test]
    fn integer_typed_accessors_check_ranges() {
        assert!(parse("256").unwrap().as_u8().is_err());
        assert_eq!(parse("255").unwrap().as_u8().unwrap(), 255);
        assert!(parse("-1").unwrap().as_u64().is_err());
        assert!(parse("1.5").unwrap().as_u64().is_err());
        assert!(parse("18446744073709551616").unwrap().as_u64().is_err());
    }

    #[test]
    fn huge_integer_tokens_become_floats() {
        // The shortest repr of 1e300 is an integer token far beyond i128.
        let printed = to_string(&1e300f64).unwrap();
        let v = parse(&printed).unwrap();
        assert_eq!(v.as_f64().unwrap().to_bits(), 1e300f64.to_bits());
    }

    #[test]
    fn strings_borrow_from_the_input_unless_escaped() {
        let v = parse("{\"plain\": \"caf\u{e9}\", \"esc\\u0061pe\": \"a\\tb\"}").unwrap();
        let JsonKind::Obj(members) = &v.kind else {
            panic!("an object");
        };
        assert!(matches!(members[0].key, Cow::Borrowed("plain")));
        assert!(matches!(
            &members[0].value.kind,
            JsonKind::Str(Cow::Borrowed("caf\u{e9}"))
        ));
        assert!(matches!(&members[1].key, Cow::Owned(k) if k == "escape"));
        assert_eq!(members[1].value.as_str().unwrap(), "a\tb");
        let err = parse("\"caf\u{e9}\u{1}\"").unwrap_err();
        assert_eq!(err.pos, Some(Pos { line: 1, col: 7 }), "{err}");
    }

    #[test]
    fn duplicate_keys_are_found_past_the_scan() {
        let keys: Vec<String> = (0..40).map(|i| format!("\"k{i}\": {i}")).collect();
        let text = format!("{{{}, \"k\\u0033\": 0}}", keys.join(", "));
        let err = parse(&text).unwrap_err();
        assert_eq!(err.msg, "duplicate key \"k3\"");
        let col = text.rfind("\"k\\u0033\"").unwrap() + 1;
        assert_eq!(
            err.pos,
            Some(Pos {
                line: 1,
                col: col as u32
            })
        );
        let distinct = format!("{{{}}}", keys.join(", "));
        assert!(parse(&distinct).is_ok());
    }

    #[test]
    fn obj_reader_tracks_members_past_the_64th() {
        let keys: Vec<String> = (0..70).map(|i| format!("\"k{i}\": {i}")).collect();
        let text = format!("{{{}}}", keys.join(", "));
        let v = parse(&text).unwrap();
        let mut obj = v.as_obj().unwrap();
        for i in (0..70).filter(|&i| i != 66) {
            assert_eq!(obj.req(&format!("k{i}")).unwrap().as_u64().unwrap(), i);
        }
        assert_eq!(obj.finish().unwrap_err().msg, "unknown key \"k66\"");
        let mut obj = v.as_obj().unwrap();
        for i in 0..70 {
            assert!(obj.opt(&format!("k{i}")).is_some());
        }
        obj.finish().unwrap();
    }

    #[test]
    fn file_hash_is_the_digest_of_the_text_and_a_newline() {
        // Far past one 64 KiB buffer, so the hash sees several flushes.
        let value: Vec<Vec<f64>> = (0..400).map(|i| vec![0.1 * f64::from(i); 100]).collect();
        let text = to_string(&value).unwrap();
        assert!(text.len() > 4 * HASH_BUFFER);
        let digest = crate::hash::sha256_hex(format!("{text}\n").as_bytes());
        assert_eq!(file_hash(&value).unwrap(), digest);
        assert_eq!(file_hash(&parse(&text).unwrap()).unwrap(), digest);
        let err = file_hash(&vec![1.0, f64::NAN]).unwrap_err();
        assert_eq!(
            err.msg,
            "value must be finite to encode in a scenario file, got NaN"
        );
    }
}
