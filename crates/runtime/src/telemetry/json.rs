//! The one JSON writer.
//!
//! Every JSON document of the workspace is written by [`JsonWriter`]:
//! the Chrome trace, the JSONL event stream, the OTLP spans, the log,
//! metrics and span summaries, the run diff, the doctor report, the
//! daemon's queue and the `obs summary` envelope. (The lint crate has no
//! workspace dependencies and keeps its own report writer.)
//!
//! It appends into one byte buffer: literal pieces, decimal and hex
//! integers, fixed-point microseconds and escaped strings, none of them
//! through `core::fmt`. Only a float goes through `Display`, which
//! gives the shortest text that reads back to the same value. A key or
//! an array item writes its own comma, so no emitter keeps comma
//! bookkeeping.

use std::io::Write as _;

/// `"00"` to `"99"`, back to back: the two digits of `k` start at `2k`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut k = 0;
    while k < 100 {
        table[2 * k] = b'0' + (k / 10) as u8;
        table[2 * k + 1] = b'0' + (k % 10) as u8;
        k += 1;
    }
    table
};

/// A JSON document under construction.
///
/// Values are appended in document order. [`begin`](Self::begin) opens
/// an object or array, [`key`](Self::key) and [`item`](Self::item)
/// start its members and write the comma between them, and
/// [`end`](Self::end) closes it. Keys are written as given: they are
/// identifiers, not data. [`finish`](Self::finish) returns the text.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: Vec<u8>,
    /// Whether the innermost open object or array has no member yet.
    first: bool,
}

impl JsonWriter {
    /// An empty document with room for `bytes` bytes (an empty one is
    /// [`JsonWriter::default`]).
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: Vec::with_capacity(bytes),
            first: false,
        }
    }

    /// Appends a literal piece.
    pub fn lit(&mut self, s: &str) -> &mut Self {
        self.out.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends `n` in decimal, two digits per division.
    pub fn num(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            i -= 1;
            digits[i] = b'0' + n as u8;
        }
        self.out.extend_from_slice(&digits[i..]);
        self
    }

    /// Appends a signed `n` in decimal.
    pub fn int(&mut self, n: i64) -> &mut Self {
        if n < 0 {
            self.lit("-");
        }
        self.num(n.unsigned_abs())
    }

    /// Appends `x` as its shortest round-trip decimal (`Display`).
    pub fn float(&mut self, x: f64) -> &mut Self {
        let _ = write!(self.out, "{x}");
        self
    }

    /// Appends `n` in lower-case hex, zero-padded to `width` digits.
    pub fn hex(&mut self, mut n: u64, width: usize) -> &mut Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [b'0'; 16];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = HEX[(n & 0xf) as usize];
            n >>= 4;
            if n == 0 {
                break;
            }
        }
        let start = i.min(digits.len().saturating_sub(width));
        self.out.extend_from_slice(&digits[start..]);
        self
    }

    /// Appends a nanosecond instant or span as microseconds with three
    /// decimals (`{us}.{ns:03}`).
    pub fn us(&mut self, ns: u64) -> &mut Self {
        let frac = ns % 1000;
        self.num(ns / 1000);
        self.out.extend_from_slice(&[
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ]);
        self
    }

    /// Appends `s` as JSON string content: `"`, `\` and every control
    /// character escaped, the runs between them copied whole.
    pub fn escaped(&mut self, s: &str) -> &mut Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.extend_from_slice(&bytes[start..i]);
            start = i + 1;
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                _ => {
                    let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                    self.out
                        .extend_from_slice(&[b'\\', b'u', b'0', b'0', hi, lo]);
                    continue;
                }
            };
            self.lit(escape);
        }
        self.out.extend_from_slice(&bytes[start..]);
        self
    }

    /// Appends `s` as a JSON string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.lit("\"").escaped(s).lit("\"")
    }

    /// Appends `true` or `false`.
    pub fn boolean(&mut self, b: bool) -> &mut Self {
        self.lit(if b { "true" } else { "false" })
    }

    /// Appends `n`, or `null` for `None`.
    pub fn opt(&mut self, n: Option<u64>) -> &mut Self {
        match n {
            Some(n) => self.num(n),
            None => self.lit("null"),
        }
    }

    /// Opens an object or array with the literal `open`, which ends in
    /// its `{` or `[`.
    pub fn begin(&mut self, open: &str) -> &mut Self {
        self.first = true;
        self.lit(open)
    }

    /// Closes the innermost object or array with the literal `close`.
    pub fn end(&mut self, close: &str) -> &mut Self {
        self.first = false;
        self.lit(close)
    }

    /// Starts the next member of an object: the comma unless it is the
    /// first, then `"key":`.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item().lit("\"").lit(key).lit("\":")
    }

    /// Appends the member `"key":n`, with its comma.
    pub fn field(&mut self, key: &str, n: u64) -> &mut Self {
        self.key(key).num(n)
    }

    /// Starts the next item of an array: the comma unless it is the
    /// first.
    pub fn item(&mut self) -> &mut Self {
        if !self.first {
            self.lit(",");
        }
        self.first = false;
        self
    }

    /// Appends an array holding one item per element of `items`, each
    /// written by `each`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.begin("[");
        for x in items {
            each(self.item(), x);
        }
        self.end("]")
    }

    /// The document's text.
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends whole UTF-8 strings and ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(write: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> String {
        let mut w = JsonWriter::default();
        write(&mut w);
        w.finish()
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(text(|w| w.escaped("a\"b\\c\n")), "a\\\"b\\\\c\\n");
        assert_eq!(text(|w| w.escaped("plain")), "plain");
        assert_eq!(
            text(|w| w.escaped("\u{1}\u{1f}\u{7f}\u{3ba}\r\t")),
            "\\u0001\\u001f\u{7f}\u{3ba}\\r\\t"
        );
    }

    #[test]
    fn numbers_render_like_display() {
        for n in [0, 1, 9, 10, 99, 100, 101, 999, 1000, 1234567890, u64::MAX] {
            assert_eq!(text(|w| w.num(n)), n.to_string());
        }
        for k in 0..20 {
            for n in [10u64.pow(k) - 1, 10u64.pow(k), 10u64.pow(k) + 7] {
                assert_eq!(text(|w| w.num(n)), n.to_string());
            }
        }
        for n in [0, -1, 42, i64::MIN, i64::MAX] {
            assert_eq!(text(|w| w.int(n)), n.to_string());
        }
        for x in [0.0, -0.0, 0.1, 1e21, 5e-324, f64::NAN] {
            assert_eq!(text(|w| w.float(x)), x.to_string());
        }
        for n in [0, 0xab, u64::MAX] {
            assert_eq!(text(|w| w.hex(n, 16)), format!("{n:016x}"));
            assert_eq!(text(|w| w.hex(n, 1)), format!("{n:x}"));
        }
        assert_eq!(text(|w| w.us(1_000_001)), "1000.001");
    }

    #[test]
    fn members_and_items_carry_their_commas() {
        let doc = text(|w| {
            w.begin("{").field("a", 1).key("b");
            w.array([None, Some(2)], |w, n| {
                w.opt(n);
            });
            w.key("c").begin("{").end("}").key("d").string("x").end("}")
        });
        assert_eq!(doc, "{\"a\":1,\"b\":[null,2],\"c\":{},\"d\":\"x\"}");
        assert_eq!(text(|w| w.array(0..0, |_, _: u8| ())), "[]");
    }
}
