//! The one JSON codec: journal records, checkpoints and (through
//! `medea-server`) wire messages are all written and read here.
//!
//! The workspace is hermetic (no external crates), so the journal ships
//! its own JSON layer. The subset is what those formats need — objects,
//! arrays, strings, booleans, `null`, and **unsigned integers**. Floats
//! and negative numbers are rejected on read: every numeric field is a
//! `u64`/`u32`, and parsing through `f64` would silently round container
//! ids above 2^53. Documents nest at most [`MAX_DEPTH`] deep; the parser
//! recurses per level, so the bound is what keeps a frame of `[[[[…`
//! from overflowing the stack of the thread that reads it.
//!
//! A message type states its fields once, in [`json_codec!`](crate::json_codec):
//! the macro writes its [`ToJson`] (through [`JsonWriter`], which owns
//! commas, quoting, escaping and key order) and its [`FromJson`] (through
//! the typed [`JsonValue::get`]). Encodings are compact and keys keep
//! declaration order, so the bytes are a function of the value alone.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
/// The deepest document the system writes, a checkpoint's
/// `nodes[].tags[][tag, count]`, nests 5.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value (journal subset: integers only).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (the only number shape the journal emits).
    Num(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Reads field `key` as a `T`. The error names the key, so a corrupt
    /// record reports *what* is wrong, not just *that*. An absent key is
    /// an error unless `T` is an `Option`.
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let field = match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        };
        T::read(field, key)
    }

    /// Reads the whole document as a `T`.
    pub fn to<T: FromJson>(&self) -> Result<T, String> {
        T::read(Some(self), "document")
    }
}

/// A type with a JSON encoding.
pub trait ToJson {
    /// Appends the value to `w`.
    fn write(&self, w: &mut JsonWriter);
}

/// A type readable from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Reads the value of field `key`; `v` is `None` when the field is
    /// absent. Errors name `key`.
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String>;
}

/// Encodes `value` as one compact line.
pub fn encode<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter {
        out: String::with_capacity(128),
        comma: false,
    };
    value.write(&mut w);
    w.out
}

/// Builds one compact JSON document. Callers say what comes next; the
/// writer places the commas.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Whether the next item in the open container needs a `,` first.
    comma: bool,
}

impl JsonWriter {
    fn item(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object (`'{'`) or array (`'['`).
    pub fn open(&mut self, bracket: char) {
        self.item();
        self.out.push(bracket);
        self.comma = false;
    }

    /// Closes the innermost object (`'}'`) or array (`']'`).
    pub fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// Writes `"key":value` into the open object. Keys are the literals
    /// of [`json_codec!`](crate::json_codec) and need no escaping.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.item();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.comma = false;
        value.write(self);
    }

    fn atom(&mut self, v: impl std::fmt::Display) {
        self.item();
        let _ = write!(self.out, "{v}");
    }

    fn string(&mut self, s: &str) {
        self.item();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

fn misfit(what: &str, key: &str) -> String {
    format!("missing or {what} field `{key}`")
}

impl ToJson for u64 {
    fn write(&self, w: &mut JsonWriter) {
        w.atom(self);
    }
}

impl FromJson for u64 {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        match v {
            Some(JsonValue::Num(n)) => Ok(*n),
            _ => Err(misfit("non-integer", key)),
        }
    }
}

impl ToJson for u32 {
    fn write(&self, w: &mut JsonWriter) {
        w.atom(self);
    }
}

impl FromJson for u32 {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        let n = match v {
            Some(JsonValue::Num(n)) => u32::try_from(*n).ok(),
            _ => None,
        };
        n.ok_or_else(|| misfit("out-of-range u32", key))
    }
}

impl ToJson for bool {
    fn write(&self, w: &mut JsonWriter) {
        w.atom(self);
    }
}

impl FromJson for bool {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        match v {
            Some(JsonValue::Bool(b)) => Ok(*b),
            _ => Err(misfit("non-boolean", key)),
        }
    }
}

impl ToJson for str {
    fn write(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl FromJson for String {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        match v {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            _ => Err(misfit("non-string", key)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write(&self, w: &mut JsonWriter) {
        w.open('[');
        for item in self {
            item.write(w);
        }
        w.close(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        match v {
            Some(JsonValue::Arr(items)) => items.iter().map(|i| T::read(Some(i), key)).collect(),
            _ => Err(misfit("non-array", key)),
        }
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write(&self, w: &mut JsonWriter) {
        w.open('[');
        self.0.write(w);
        self.1.write(w);
        w.close(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        match v {
            Some(JsonValue::Arr(items)) if items.len() == 2 => {
                Ok((A::read(items.first(), key)?, B::read(items.last(), key)?))
            }
            _ => Err(misfit("non-pair", key)),
        }
    }
}

/// An absent field reads as `None`; a present one must be a `T`.
impl<T: FromJson> FromJson for Option<T> {
    fn read(v: Option<&JsonValue>, key: &str) -> Result<Self, String> {
        match v {
            None => Ok(None),
            some => T::read(some, key).map(Some),
        }
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a message type from one
/// list of `field: "key",` pairs, written in encoding order.
///
/// * `struct Name { field: "key", … }` — an object.
/// * `enum Name { "tag" => Variant { field: "key", … }, … }` — an object
///   whose first key, `"type"`, selects the variant.
/// * `field: "key" = [],` — the key may be absent on read, which gives the
///   field's `Default` (an empty list).
/// * a variant's list may end with `..field`: that field is a struct
///   whose keys are written into, and read from, the variant's own
///   object.
///
/// ```
/// use medea_journal::{encode, JsonValue};
///
/// #[derive(Debug, PartialEq)]
/// struct Limits { count: u32, names: Vec<String> }
/// medea_journal::json_codec! { struct Limits { count: "n", names: "names" = [], } }
///
/// #[derive(Debug, PartialEq)]
/// enum Msg { Ping { id: u64 }, Set { id: u64, limits: Limits } }
/// medea_journal::json_codec! { enum Msg {
///     "ping" => Ping { id: "id", },
///     "set" => Set { id: "id", ..limits },
/// } }
///
/// let msg = Msg::Set { id: 7, limits: Limits { count: 2, names: vec![] } };
/// let text = encode(&msg);
/// assert_eq!(text, r#"{"type":"set","id":7,"n":2,"names":[]}"#);
/// assert_eq!(JsonValue::parse(&text).unwrap().to::<Msg>().unwrap(), msg);
/// let short = JsonValue::parse(r#"{"type":"set","id":7,"n":2}"#).unwrap();
/// assert_eq!(short.to::<Msg>().unwrap(), msg);
/// let err = JsonValue::parse(r#"{"type":"ping"}"#).unwrap().to::<Msg>().unwrap_err();
/// assert_eq!(err, "missing or non-integer field `id`");
/// ```
#[macro_export]
macro_rules! json_codec {
    (struct $name:ident { $($field:ident: $key:literal $(= $empty:tt)?,)* }) => {
        impl $name {
            /// Writes the fields into the object open in `w`.
            #[doc(hidden)]
            pub fn write_fields(&self, w: &mut $crate::JsonWriter) {
                $(w.field($key, &self.$field);)*
            }
        }

        impl $crate::ToJson for $name {
            fn write(&self, w: &mut $crate::JsonWriter) {
                w.open('{');
                self.write_fields(w);
                w.close('}');
            }
        }

        impl $crate::FromJson for $name {
            fn read(v: Option<&$crate::JsonValue>, key: &str) -> Result<Self, String> {
                let v = v.ok_or_else(|| format!("missing field `{key}`"))?;
                Ok($name {
                    $($field: $crate::json_codec!(@get v, $key $(, $empty)?),)*
                })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $variant:ident {
            $($field:ident: $key:literal $(= $empty:tt)?,)* $(..$flat:ident)?
        },)*
    }) => {
        impl $crate::ToJson for $name {
            fn write(&self, w: &mut $crate::JsonWriter) {
                w.open('{');
                match self {
                    $($name::$variant { $($field,)* $($flat)? } => {
                        w.field("type", $tag);
                        $(w.field($key, $field);)*
                        $($flat.write_fields(w);)?
                    })*
                }
                w.close('}');
            }
        }

        impl $crate::FromJson for $name {
            fn read(v: Option<&$crate::JsonValue>, key: &str) -> Result<Self, String> {
                let v = v.ok_or_else(|| format!("missing field `{key}`"))?;
                match v.get::<String>("type")?.as_str() {
                    $($tag => Ok($name::$variant {
                        $($field: $crate::json_codec!(@get v, $key $(, $empty)?),)*
                        $($flat: $crate::FromJson::read(Some(v), key)?,)?
                    }),)*
                    other => Err(format!("unknown {} type `{other}`", stringify!($name))),
                }
            }
        }
    };
    (@get $v:ident, $key:literal) => {
        $v.get($key)?
    };
    (@get $v:ident, $key:literal, []) => {
        $v.get::<Option<_>>($key)?.unwrap_or_default()
    };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(JsonValue::Obj(self.items(b'}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(JsonValue::Arr(self.items(b']', Parser::value)?)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_lit("null") => Ok(JsonValue::Null),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(format!(
                "negative number at byte {} (journal numbers are unsigned)",
                self.pos
            )),
            other => Err(format!("unexpected input {:?} at byte {}", other, self.pos)),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (journal numbers are integers)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<u64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "truncated escape at end of input".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.eat_lit("\\u") {
                                    return Err("unpaired high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("invalid code point {cp:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", char::from(other))),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let text = std::str::from_utf8(chunk).map_err(|_| "non-ASCII \\u escape".to_string())?;
        let v = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))?;
        self.pos = end;
        Ok(v)
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket (at `pos`) through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        return Err(format!(
                            "expected `,` or `{}` at byte {}",
                            char::from(close),
                            self.pos
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_journal_shapes() {
        let v = JsonValue::parse(r#"{"epoch":7,"op":{"type":"release","container":18446744073709551615},"ok":true,"tags":["a","b:c"],"pairs":[["a",1]],"none":null}"#).unwrap();
        assert_eq!(v.get::<u64>("epoch").unwrap(), 7);
        let op: JsonValue = match &v {
            JsonValue::Obj(fields) => fields[1].1.clone(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(op.get::<String>("type").unwrap(), "release");
        // u64::MAX survives exactly (an f64 round-trip would corrupt it).
        assert_eq!(op.get::<u64>("container").unwrap(), u64::MAX);
        assert!(v.get::<bool>("ok").unwrap());
        assert_eq!(v.get::<Vec<String>>("tags").unwrap(), ["a", "b:c"]);
        let pairs: Vec<(String, u32)> = v.get("pairs").unwrap();
        assert_eq!(pairs, [("a".to_string(), 1)]);
        assert_eq!(v.get::<Option<u64>>("absent").unwrap(), None);
        assert_eq!(v.get::<Option<u64>>("epoch").unwrap(), Some(7));
    }

    #[test]
    fn typed_reads_name_the_field() {
        let v = JsonValue::parse(r#"{"n":4294967296,"s":"x","tags":["a",1]}"#).unwrap();
        assert_eq!(
            v.get::<u64>("gone").unwrap_err(),
            "missing or non-integer field `gone`"
        );
        assert_eq!(
            v.get::<u32>("n").unwrap_err(),
            "missing or out-of-range u32 field `n`"
        );
        assert_eq!(
            v.get::<bool>("s").unwrap_err(),
            "missing or non-boolean field `s`"
        );
        assert_eq!(
            v.get::<Vec<String>>("tags").unwrap_err(),
            "missing or non-string field `tags`"
        );
        assert_eq!(
            v.get::<(u32, u32)>("tags").unwrap_err(),
            "missing or out-of-range u32 field `tags`"
        );
        assert_eq!(
            v.get::<(String, String)>("s").unwrap_err(),
            "missing or non-pair field `s`"
        );
        assert!(v.get::<Option<String>>("n").is_err());
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "quote\" back\\slash \n tab\t unicode\u{1F600}ctrl\u{0001}";
        let doc = encode(&vec![nasty.to_string()]);
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.to::<Vec<String>>().unwrap(), [nasty]);
    }

    #[test]
    fn writer_places_commas() {
        let nested: Vec<Vec<u32>> = vec![vec![0, 1], vec![], vec![2]];
        assert_eq!(encode(&nested), "[[0,1],[],[2]]");
        let pairs = vec![("a".to_string(), 1u32), ("b".to_string(), 2)];
        assert_eq!(encode(&pairs), r#"[["a",1],["b",2]]"#);
        assert_eq!(encode(&Vec::<bool>::new()), "[]");
    }

    #[test]
    fn rejects_floats_negatives_and_garbage() {
        assert!(JsonValue::parse("1.5").is_err());
        assert!(JsonValue::parse("1e3").is_err());
        assert!(JsonValue::parse("-2").is_err());
        assert!(JsonValue::parse("{}x").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("18446744073709551616").is_err()); // u64::MAX + 1
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Objects count too, and siblings do not accumulate depth.
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objs).is_err());
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 64].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
        // A whole frame of open brackets is a parse error, not a stack
        // overflow (this aborted the process before the bound existed).
        assert!(JsonValue::parse(&"[".repeat(256 * 1024)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let escaped = "\"\\ud83d\\ude00\"";
        let v = JsonValue::parse(escaped).unwrap();
        assert_eq!(v, JsonValue::Str("\u{1F600}".to_string()));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
    }
}
