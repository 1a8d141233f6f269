//! A minimal JSON reader, enough for `BENCHMARK.json` and for checking the
//! benchmark's own output. The workspace has no JSON crate and may not add
//! one; this accepts the JSON grammar and stores numbers as `f64`.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not kept.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Array(v) => v,
            _ => &[],
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut m = BTreeMap::new();
        self.ws();
        if self.eat("}") {
            return Ok(Value::Object(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            let v = self.value()?;
            if m.insert(k, v).is_some() {
                return Err(self.err("duplicate key"));
            }
            self.ws();
            if self.eat("}") {
                return Ok(Value::Object(m));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut v = Vec::new();
        self.ws();
        if self.eat("]") {
            return Ok(Value::Array(v));
        }
        loop {
            v.push(self.value()?);
            self.ws();
            if self.eat("]") {
                return Ok(Value::Array(v));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected string"));
        }
        let mut out = Vec::new();
        loop {
            let c = *self
                .s
                .get(self.i)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8")),
                b'\\' => {
                    let e = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Lone surrogates become U+FFFD; nothing this
                            // crate reads or writes contains them.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("control character in string")),
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| self.err("expected a value"))
    }
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with every digit needed to read it back exactly;
/// non-finite values (which JSON cannot carry) become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_benchmark_uses() {
        let v = parse(
            r#" {"command": ["bash", "x.sh"], "run_seconds": 12, "ok": true, "n": null,
                "workloads": [{"name": "a", "why": "b \"q\" é"}], "neg": -1.5e-3} "#,
        )
        .unwrap();
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(12.0));
        assert_eq!(v.get("command").unwrap().items().len(), 2);
        let w = &v.get("workloads").unwrap().items()[0];
        assert_eq!(w.get("name").and_then(Value::as_str), Some("a"));
        assert_eq!(w.get("why").and_then(Value::as_str), Some("b \"q\" é"));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-0.0015));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "1 2",
            "\"x",
            "{\"a\":1,\"a\":2}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn quote_and_number_round_trip() {
        let s = "a\"b\\c\nd\u{1}";
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
        for x in [0.0, 1.5, 3221.4879123, 1e-9, 2.0f64.powi(60)] {
            assert_eq!(parse(&number(x)).unwrap().as_f64(), Some(x));
        }
        assert_eq!(number(f64::NAN), "0");
    }
}
