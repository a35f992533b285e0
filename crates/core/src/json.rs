//! A self-contained JSON layer for scenario files.
//!
//! The offline container vendors a no-op serde shim, so scenario files
//! cannot ride on derived `Serialize`/`Deserialize` impls. This module is
//! the dependency-free substitute: a [`JsonValue`] tree, a strict
//! recursive-descent parser with line/column errors ([`parse`]), a
//! deterministic pretty-printer ([`JsonValue::to_pretty`]), and the
//! [`Codec`] every scenario-file and ledger type gets from one field table
//! (`codec!`).
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
//! - finite `f64`s print via Rust's shortest round-trip `Display` repr
//!   ([`format_f64`]); parsing is correctly rounded (`str::parse::<f64>`),
//!   so `parse(format(x)) == x` exactly;
//! - integer tokens (no `.`/exponent) are kept as exact integers
//!   ([`JsonKind::Int`]), so `u64` seeds beyond 2^53 survive unchanged;
//!   `-0` stays `-0.0` bitwise;
//! - non-finite literals (`NaN`, `Infinity`, `1e999`) are parse errors.
//!   Schema fields that legitimately admit an infinite value (uplink
//!   budgets, the α-fair exponent) encode it as the JSON string `"inf"`
//!   and decode it via [`JsonValue::as_f64_or_inf`].
//!
//! The printer is a pure function of the tree (two-space indent, scalar
//! arrays inline, object members in insertion order), and every codec emits
//! members in a fixed schema order — so `emit → parse → emit` is
//! byte-identical, the canonical-form contract the golden scenario suite
//! asserts.
//!
//! ## Errors
//!
//! Every parse or decode failure is a [`JsonError`] carrying the offending
//! [`Pos`] (1-based line and column): truncated input, unknown object keys
//! ([`ObjReader::finish`]), wrong types, out-of-range numbers, duplicate
//! keys. Nothing in this module panics on malformed input — the mini fuzz
//! loop in `tests/scenario_files.rs` mutates valid files at the byte level
//! and expects `Err`, never an abort.

use std::fmt;

/// A 1-based line/column position in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes) within the line.
    pub col: u32,
}

impl Pos {
    /// The position synthesized values carry (printer output never depends
    /// on positions, so emitted trees use this placeholder).
    pub const NONE: Pos = Pos { line: 0, col: 0 };
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
pub struct Member {
    /// The member key.
    pub key: String,
    /// Where the key appeared (for unknown-key errors).
    pub pos: Pos,
    /// The member value.
    pub value: JsonValue,
}

/// The payload of a [`JsonValue`].
#[derive(Debug, Clone)]
pub enum JsonKind {
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
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source/emission order.
    Obj(Vec<Member>),
}

/// One node of a parsed or synthesized JSON tree.
#[derive(Debug, Clone)]
pub struct JsonValue {
    /// Where the value started in the source (or [`Pos::NONE`]).
    pub pos: Pos,
    /// The payload.
    pub kind: JsonKind,
}

/// Formats a finite `f64` as its shortest round-trip decimal repr (Rust's
/// `Display`, which never produces exponents — valid JSON by construction).
///
/// # Panics
///
/// Panics on NaN or infinity: non-finite values have no JSON number form
/// and must be encoded by the caller (e.g. as the string `"inf"`).
pub fn format_f64(x: f64) -> String {
    assert!(x.is_finite(), "cannot format non-finite {x} as JSON");
    format!("{x}")
}

/// Encodes a float field that must be finite, as a positionless encode
/// error (naming the field) otherwise — the codec-side counterpart of
/// [`JsonValue::num`]'s assert, for struct fields a caller can set to any
/// bit pattern.
///
/// # Errors
///
/// Errors on NaN and ±∞.
pub fn finite_num(field: &str, x: f64) -> Result<JsonValue, JsonError> {
    if x.is_finite() {
        Ok(JsonValue::num(x))
    } else {
        Err(JsonError::new(format!(
            "{field} must be finite to encode in a scenario file, got {x}"
        )))
    }
}

/// Like [`finite_num`] but `+∞` is allowed and encodes as the string
/// `"inf"` (the schema form for unbounded budgets and the max-min α).
///
/// # Errors
///
/// Errors on NaN and `-∞`.
pub fn num_or_inf_checked(field: &str, x: f64) -> Result<JsonValue, JsonError> {
    if x == f64::INFINITY {
        Ok(JsonValue::str("inf"))
    } else {
        finite_num(field, x)
    }
}

impl JsonValue {
    fn synth(kind: JsonKind) -> JsonValue {
        JsonValue {
            pos: Pos::NONE,
            kind,
        }
    }

    /// A synthesized `null`.
    pub fn null() -> JsonValue {
        JsonValue::synth(JsonKind::Null)
    }

    /// A synthesized boolean.
    pub fn bool(b: bool) -> JsonValue {
        JsonValue::synth(JsonKind::Bool(b))
    }

    /// A synthesized exact integer (use for every integer-typed schema
    /// field: seeds, slots, depths, periods).
    pub fn int(n: impl Into<i128>) -> JsonValue {
        JsonValue::synth(JsonKind::Int(n.into()))
    }

    /// A synthesized finite float.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinity (see [`format_f64`]); encode infinite
    /// values with [`JsonValue::num_or_inf`] where the schema allows them.
    pub fn num(x: f64) -> JsonValue {
        assert!(x.is_finite(), "cannot encode non-finite {x} as JSON number");
        JsonValue::synth(JsonKind::Num(x))
    }

    /// A float field that may be `+∞`, encoded as the string `"inf"`.
    ///
    /// # Panics
    ///
    /// Panics on NaN or `-∞` (no schema field admits either).
    pub fn num_or_inf(x: f64) -> JsonValue {
        if x == f64::INFINITY {
            JsonValue::str("inf")
        } else {
            JsonValue::num(x)
        }
    }

    /// A synthesized string.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::synth(JsonKind::Str(s.into()))
    }

    /// A synthesized array.
    pub fn arr(items: Vec<JsonValue>) -> JsonValue {
        JsonValue::synth(JsonKind::Arr(items))
    }

    /// A synthesized object with members in the given (schema) order.
    pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::synth(JsonKind::Obj(
            members
                .into_iter()
                .map(|(key, value)| Member {
                    key: key.to_string(),
                    pos: Pos::NONE,
                    value,
                })
                .collect(),
        ))
    }

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
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
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
                seen: vec![false; members.len()],
            }),
            _ => Err(self.type_err("an object")),
        }
    }

    /// Renders the tree in the canonical pretty form: two-space indent,
    /// arrays of scalars on one line, object members in insertion order,
    /// no trailing newline. A pure function of the tree — positions never
    /// influence the output — so `parse(s).to_pretty()` reproduces any
    /// canonically-formatted `s` byte for byte.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out
    }
}

/// Strict object reader: members are consumed by key, and
/// [`ObjReader::finish`] rejects any member never asked for — the
/// unknown-key strictness that keeps scenario files forward-diffable
/// (a typo'd or future key fails loudly instead of being ignored).
#[derive(Debug)]
pub struct ObjReader<'a> {
    pos: Pos,
    members: &'a [Member],
    seen: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    /// The object's own source position.
    pub fn pos(&self) -> Pos {
        self.pos
    }

    fn lookup(&mut self, key: &str) -> Option<&'a JsonValue> {
        // Objects here are tiny (≤ 8 members); linear scan beats any map.
        for (i, m) in self.members.iter().enumerate() {
            if m.key == key {
                self.seen[i] = true;
                return Some(&m.value);
            }
        }
        None
    }

    /// A required member.
    ///
    /// # Errors
    ///
    /// Errors when the key is absent.
    pub fn req(&mut self, key: &str) -> Result<&'a JsonValue, JsonError> {
        self.lookup(key)
            .ok_or_else(|| JsonError::at(self.pos, format!("missing required key \"{key}\"")))
    }

    /// An optional member; absent keys and explicit `null` both read as
    /// `None` (the codec emits `Some` fields only, so both spellings mean
    /// the same thing on the way in).
    pub fn opt(&mut self, key: &str) -> Option<&'a JsonValue> {
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
        for (m, seen) in self.members.iter().zip(&self.seen) {
            if !seen {
                return Err(JsonError::at(m.pos, format!("unknown key \"{}\"", m.key)));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------------

/// A value with a file form: how it encodes, and how it decodes back bit
/// for bit. Scalars, strings, arrays and optional members are implemented
/// here; every scenario-file and ledger type gets its impl from one field
/// table (`codec!`).
pub trait Codec: Sized {
    /// Encodes the value; `name` names the field in encode errors.
    ///
    /// # Errors
    ///
    /// Errors on a value with no file form (a non-finite float, an extern
    /// controller).
    fn encode(&self, name: &str) -> Result<JsonValue, JsonError>;

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
    /// Encodes `x` as field `name`.
    ///
    /// # Errors
    ///
    /// Errors on a value with no file form in this form.
    fn encode(x: &T, name: &str) -> Result<JsonValue, JsonError>;

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
    fn encode(x: &f64, name: &str) -> Result<JsonValue, JsonError> {
        num_or_inf_checked(name, *x)
    }

    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<f64, JsonError> {
        obj.req(key)?.as_f64_or_inf()
    }
}

impl Form<Vec<f64>> for Inf {
    fn encode(xs: &Vec<f64>, name: &str) -> Result<JsonValue, JsonError> {
        let items = xs.iter().map(|x| num_or_inf_checked(name, *x));
        Ok(JsonValue::arr(items.collect::<Result<_, _>>()?))
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
    fn encode(x: &u64, name: &str) -> Result<JsonValue, JsonError> {
        match x {
            0 => Ok(JsonValue::null()),
            n => n.encode(name),
        }
    }

    fn member(obj: &mut ObjReader<'_>, key: &str) -> Result<u64, JsonError> {
        obj.opt(key).map_or(Ok(0), JsonValue::as_u64)
    }
}

impl Codec for f64 {
    fn encode(&self, name: &str) -> Result<JsonValue, JsonError> {
        finite_num(name, *self)
    }

    fn decode(v: &JsonValue) -> Result<f64, JsonError> {
        v.as_f64()
    }
}

impl Codec for u64 {
    fn encode(&self, _name: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::int(*self))
    }

    fn decode(v: &JsonValue) -> Result<u64, JsonError> {
        v.as_u64()
    }
}

impl Codec for usize {
    fn encode(&self, _name: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::int(*self as u64))
    }

    fn decode(v: &JsonValue) -> Result<usize, JsonError> {
        v.as_usize()
    }
}

impl Codec for u8 {
    fn encode(&self, _name: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::int(*self))
    }

    fn decode(v: &JsonValue) -> Result<u8, JsonError> {
        v.as_u8()
    }
}

impl Codec for bool {
    fn encode(&self, _name: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::bool(*self))
    }

    fn decode(v: &JsonValue) -> Result<bool, JsonError> {
        v.as_bool()
    }
}

impl Codec for String {
    fn encode(&self, _name: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::str(self.as_str()))
    }

    fn decode(v: &JsonValue) -> Result<String, JsonError> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, name: &str) -> Result<JsonValue, JsonError> {
        let items = self.iter().map(|x| x.encode(name));
        Ok(JsonValue::arr(items.collect::<Result<_, _>>()?))
    }

    fn decode(v: &JsonValue) -> Result<Vec<T>, JsonError> {
        v.as_array()?.iter().map(T::decode).collect()
    }
}

/// An optional member: `None` encodes as `null`, which an object omits,
/// and reads back from an absent or `null` member.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, name: &str) -> Result<JsonValue, JsonError> {
        match self {
            Some(x) => x.encode(name),
            None => Ok(JsonValue::null()),
        }
    }

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

/// Appends one encoded member to an object under construction; a `null`
/// value (an unset optional field) is omitted.
///
/// # Errors
///
/// Propagates the member's encode error.
pub(crate) fn put(
    members: &mut Vec<(&'static str, JsonValue)>,
    key: &'static str,
    value: Result<JsonValue, JsonError>,
) -> Result<(), JsonError> {
    let value = value?;
    if !matches!(value.kind, JsonKind::Null) {
        members.push((key, value));
    }
    Ok(())
}

/// `"a or b"`, `"a, b, or c"`: the expected tags of an unknown-tag error.
pub(crate) fn one_of(tags: &[&str]) -> String {
    match tags {
        [] => String::new(),
        [a, b] => format!("{a} or {b}"),
        [init @ .., last] => format!("{}, or {last}", init.join(", ")),
    }
}

/// Generates a type's [`Codec`] impl from its field table.
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
/// Each key is `stringify!(field)`. A field is encoded by its type's own
/// [`Codec`] (an `Option` field is omitted when `None`) or by the [`Form`]
/// named after it. Emission destructures `Self` with no `..` and decoding
/// ends in a full struct literal, so a field without an entry, or an
/// entry without a field, does not compile. A trailing `check` makes
/// decoding run the type's rule walk (`fn check(&self) -> Rules`), whose
/// broken rule becomes a positioned error ([`Broken::at`]).
macro_rules! codec {
    (@put $members:ident $field:ident) => {
        $crate::json::put(
            &mut $members,
            stringify!($field),
            $crate::json::Codec::encode($field, stringify!($field)),
        )?
    };
    (@put $members:ident $field:ident $form:ident) => {
        $crate::json::put(
            &mut $members,
            stringify!($field),
            <$crate::json::$form as $crate::json::Form<_>>::encode($field, stringify!($field)),
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
        impl $crate::json::Codec for $ty {
            fn encode(
                &self,
                _name: &str,
            ) -> Result<$crate::json::JsonValue, $crate::json::JsonError> {
                let $ty { $($field),* } = self;
                let mut members = Vec::with_capacity(8);
                $($crate::json::codec!(@put members $field $($form)?);)*
                Ok($crate::json::JsonValue::obj(members))
            }

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
        impl $crate::json::Codec for $ty {
            fn encode(
                &self,
                _name: &str,
            ) -> Result<$crate::json::JsonValue, $crate::json::JsonError> {
                let mut members = Vec::with_capacity(8);
                match self {
                    $(Self::$var $({ $($field),* })? $(($key))? => {
                        members.push(("type", $crate::json::JsonValue::str($tag)));
                        $($($crate::json::codec!(@put members $field $($form)?);)*)?
                        $($crate::json::codec!(@put members $key $($kform)?);)?
                    })*
                }
                Ok($crate::json::JsonValue::obj(members))
            }

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

        impl $crate::json::Codec for $ty {
            fn encode(
                &self,
                _name: &str,
            ) -> Result<$crate::json::JsonValue, $crate::json::JsonError> {
                Ok($crate::json::JsonValue::str(self.name()))
            }

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

fn is_scalar(v: &JsonValue) -> bool {
    !matches!(v.kind, JsonKind::Arr(_) | JsonKind::Obj(_))
}

fn write_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_string_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &JsonValue, depth: usize) {
    match &v.kind {
        JsonKind::Null => out.push_str("null"),
        JsonKind::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonKind::Int(n) => {
            use fmt::Write as _;
            let _ = write!(out, "{n}");
        }
        JsonKind::Num(x) => out.push_str(&format_f64(*x)),
        JsonKind::Str(s) => write_string_escaped(out, s),
        JsonKind::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
            } else if items.iter().all(is_scalar) {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(out, item, depth);
                }
                out.push(']');
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    write_indent(out, depth + 1);
                    write_value(out, item, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_indent(out, depth);
                out.push(']');
            }
        }
        JsonKind::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
            } else {
                out.push_str("{\n");
                for (i, m) in members.iter().enumerate() {
                    write_indent(out, depth + 1);
                    write_string_escaped(out, &m.key);
                    out.push_str(": ");
                    write_value(out, &m.value, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_indent(out, depth);
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum container nesting the parser accepts — far above any scenario
/// file (≤ 8 levels), but low enough that a pathological `[[[[…` from the
/// fuzz loop errors instead of exhausting the stack.
const MAX_DEPTH: u32 = 64;

/// Parses strict JSON (RFC 8259: no comments, no trailing commas, no
/// `NaN`/`Infinity` literals, exactly one top-level value) into a
/// [`JsonValue`] tree with source positions, rejecting duplicate object
/// keys and numbers that overflow `f64`.
///
/// # Errors
///
/// Errors on the first syntax violation, at its line/column.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.i < p.bytes.len() {
        return Err(JsonError::at(
            p.pos(),
            "trailing characters after the top-level value",
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
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

    fn literal(&mut self, word: &str, kind: JsonKind, pos: Pos) -> Result<JsonValue, JsonError> {
        for want in word.bytes() {
            match self.bump() {
                Some(b) if b == want => {}
                Some(_) | None => {
                    return Err(JsonError::at(
                        pos,
                        format!("invalid literal (expected `{word}`)"),
                    ))
                }
            }
        }
        Ok(JsonValue { pos, kind })
    }

    fn value(&mut self, depth: u32) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos(), "nesting too deep"));
        }
        let pos = self.pos();
        match self.peek() {
            None => Err(self.eof_err()),
            Some(b'n') => self.literal("null", JsonKind::Null, pos),
            Some(b't') => self.literal("true", JsonKind::Bool(true), pos),
            Some(b'f') => self.literal("false", JsonKind::Bool(false), pos),
            Some(b'"') => {
                let s = self.string()?;
                Ok(JsonValue {
                    pos,
                    kind: JsonKind::Str(s),
                })
            }
            Some(b'[') => self.array(pos, depth),
            Some(b'{') => self.object(pos, depth),
            Some(b'-' | b'0'..=b'9') => self.number(pos),
            Some(b) => Err(JsonError::at(
                pos,
                format!("unexpected character '{}'", printable(b)),
            )),
        }
    }

    fn array(&mut self, pos: Pos, depth: u32) -> Result<JsonValue, JsonError> {
        self.bump(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(JsonValue {
                pos,
                kind: JsonKind::Arr(items),
            });
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(JsonValue {
                        pos,
                        kind: JsonKind::Arr(items),
                    });
                }
                Some(b) => {
                    return Err(JsonError::at(
                        self.pos(),
                        format!("expected ',' or ']', found '{}'", printable(b)),
                    ))
                }
                None => return Err(self.eof_err()),
            }
        }
    }

    fn object(&mut self, pos: Pos, depth: u32) -> Result<JsonValue, JsonError> {
        self.bump(); // '{'
        let mut members: Vec<Member> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(JsonValue {
                pos,
                kind: JsonKind::Obj(members),
            });
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos();
            if self.peek() != Some(b'"') {
                return Err(match self.peek() {
                    Some(b) => JsonError::at(
                        key_pos,
                        format!("expected a string key, found '{}'", printable(b)),
                    ),
                    None => self.eof_err(),
                });
            }
            let key = self.string()?;
            if members.iter().any(|m| m.key == key) {
                return Err(JsonError::at(key_pos, format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push(Member {
                key,
                pos: key_pos,
                value,
            });
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(JsonValue {
                        pos,
                        kind: JsonKind::Obj(members),
                    });
                }
                Some(b) => {
                    return Err(JsonError::at(
                        self.pos(),
                        format!("expected ',' or '}}', found '{}'", printable(b)),
                    ))
                }
                None => return Err(self.eof_err()),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.bump(); // '"'
        let mut out = String::new();
        loop {
            let ch_pos = self.pos();
            match self.bump() {
                None => return Err(self.eof_err()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    None => return Err(self.eof_err()),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4(ch_pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require the paired low half.
                            let pair_pos = self.pos();
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(JsonError::at(
                                    pair_pos,
                                    "unpaired surrogate in \\u escape",
                                ));
                            }
                            let lo = self.hex4(pair_pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(JsonError::at(
                                    pair_pos,
                                    "unpaired surrogate in \\u escape",
                                ));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(JsonError::at(ch_pos, "unpaired surrogate in \\u escape"));
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => {
                                return Err(JsonError::at(ch_pos, "invalid \\u escape"));
                            }
                        }
                    }
                    Some(b) => {
                        return Err(JsonError::at(
                            ch_pos,
                            format!("invalid escape '\\{}'", printable(b)),
                        ))
                    }
                },
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(
                        ch_pos,
                        "unescaped control character in string",
                    ))
                }
                Some(b) => {
                    // Re-assemble the UTF-8 sequence this byte starts
                    // (input is a &str, so the sequence is valid).
                    let width = utf8_width(b);
                    let start = self.i - 1;
                    for _ in 1..width {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + width])
                        .map_err(|_| JsonError::at(ch_pos, "invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
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

    fn number(&mut self, pos: Pos) -> Result<JsonValue, JsonError> {
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
        // The token is ASCII by construction; a non-UTF-8 slice here would
        // be a scanner bug, reported as a positioned error rather than a
        // panic (codecs never panic on input).
        let token = match std::str::from_utf8(&self.bytes[start..self.i]) {
            Ok(t) => t,
            Err(_) => return Err(JsonError::at(pos, "invalid number (non-ASCII bytes)")),
        };
        if !is_float {
            if let Ok(n) = token.parse::<i128>() {
                if n == 0 && negative {
                    // `-0` must keep its sign bit: store as a float.
                    return Ok(JsonValue {
                        pos,
                        kind: JsonKind::Num(-0.0),
                    });
                }
                return Ok(JsonValue {
                    pos,
                    kind: JsonKind::Int(n),
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
        Ok(JsonValue {
            pos,
            kind: JsonKind::Num(x),
        })
    }
}

fn printable(b: u8) -> char {
    if (0x20..0x7f).contains(&b) {
        b as char
    } else {
        '\u{fffd}'
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        parse(text).expect("parse").to_pretty()
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
            let printed = JsonValue::num(x).to_pretty();
            let back = parse(&printed).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} printed as {printed}");
        }
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        for n in [0u64, 1, 2u64.pow(53) + 1, u64::MAX] {
            let printed = JsonValue::int(n).to_pretty();
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
        assert_eq!(JsonValue::num_or_inf(f64::INFINITY).to_pretty(), "\"inf\"");
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
        let printed = JsonValue::str(tricky).to_pretty();
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
        let printed = JsonValue::num(1e300).to_pretty();
        let v = parse(&printed).unwrap();
        assert_eq!(v.as_f64().unwrap().to_bits(), 1e300f64.to_bits());
    }
}
