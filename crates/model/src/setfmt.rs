//! The `ringrt` message-set text format, and the one scanner that reads it.
//!
//! A set is a list of records, one stream each: `period_ms, payload_bits`.
//!
//! - Records end at a newline in a set file ([`Records::Lines`]; a `\r`
//!   before it is whitespace). The wire protocol's `set=` also ends them at
//!   a `;` ([`Records::Semicolons`]); in a file a `;` stays inside its
//!   field, so the record is refused.
//! - `#` starts a comment that runs to the end of the record.
//! - Fields are split on runs of `,` and Unicode whitespace, and empty
//!   fields are dropped. A record of whitespace alone is skipped; any other
//!   record must hold exactly two fields.
//! - The period is read with `f64`'s grammar, in milliseconds, so `+5`,
//!   `1e3`, `inf` and `NaN` all parse and then meet the range check. The
//!   payload is read with `u64`'s grammar.
//!
//! The CLI reads set files with [`parse_message_set`], and the
//! admission-control service (`ringrt-service`) reads `set=` with
//! [`scan_message_set`].

use core::fmt;

use crate::{MessageSet, ModelError, SyncStream};
use ringrt_units::{Bits, Seconds};

/// Errors reading a message-set file.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseSetError {
    /// A line did not match `period_ms, payload_bits`.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The file contained no streams.
    Empty,
    /// The parsed values violated the model's invariants.
    Invalid(ModelError),
}

impl fmt::Display for ParseSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSetError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseSetError::Empty => write!(f, "no streams found in the input"),
            ParseSetError::Invalid(e) => write!(f, "invalid message set: {e}"),
        }
    }
}

impl std::error::Error for ParseSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseSetError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Where the records of a message-set text end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Records {
    /// At a newline, as in a set file.
    Lines,
    /// At a `;` or a newline, as in the wire protocol's `set=`.
    Semicolons,
}

/// Parses a message set from a set file: one `period_ms, payload_bits`
/// pair per line, `#` comments and blank lines ignored, commas optional
/// (the grammar is in the [module docs](self)).
///
/// # Errors
///
/// [`ParseSetError`] with the offending line number, or
/// [`ParseSetError::Empty`] for an effectively empty file.
///
/// # Examples
///
/// ```
/// use ringrt_model::parse_message_set;
///
/// let set = parse_message_set("# demo\n20, 20000\n50 60000\n").unwrap();
/// assert_eq!(set.len(), 2);
/// ```
pub fn parse_message_set(text: &str) -> Result<MessageSet, ParseSetError> {
    scan_message_set(text, Records::Lines)
}

/// Reads a message set in one pass over `text`, with no allocation per
/// record. Errors name the 1-based record as `line`.
///
/// # Errors
///
/// As [`parse_message_set`].
///
/// # Examples
///
/// ```
/// use ringrt_model::setfmt::{scan_message_set, Records};
///
/// let set = scan_message_set("50,60000;20,20000", Records::Semicolons).unwrap();
/// assert_eq!(set.len(), 2);
/// ```
pub fn scan_message_set(text: &str, records: Records) -> Result<MessageSet, ParseSetError> {
    let ends_record = |b: u8| b == b'\n' || (b == b';' && records == Records::Semicolons);
    let bytes = text.as_bytes();
    let mut streams = Vec::new();
    let mut start = 0;
    let mut line = 0;
    while start <= bytes.len() {
        line += 1;
        let (values, end) = match plain_record(bytes, start, ends_record) {
            Some((values, end)) => (Some(values), end),
            None => any_record(text, start, ends_record, line)?,
        };
        if let Some((period_ms, bits)) = values {
            streams.push(checked_stream(period_ms, bits, line)?);
        }
        start = end + 1;
    }
    if streams.is_empty() {
        return Err(ParseSetError::Empty);
    }
    MessageSet::new(streams).map_err(ParseSetError::Invalid)
}

/// Splits fields: `,` and the ASCII whitespace `char::is_whitespace`
/// accepts, which (unlike `u8::is_ascii_whitespace`) includes the vertical
/// tab. A newline is left out because it always ends the record.
fn splits_fields(b: u8) -> bool {
    matches!(b, b',' | b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ')
}

/// Reads the common record in one step and returns its period (ms), its
/// payload and the index where the record ends. The record is two fields:
/// a plain decimal of at most 15 digits and at most 19 digits, with no
/// sign or exponent. Its period takes Clinger's fast path, which is exact
/// there: the digits and the power of ten are both exact doubles, so
/// their quotient is the correctly rounded value `str::parse` returns.
/// Any other record gives `None` and goes to [`any_record`].
fn plain_record(
    bytes: &[u8],
    start: usize,
    ends_record: impl Fn(u8) -> bool,
) -> Option<((f64, u64), usize)> {
    const POW10: [f64; 16] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    ];
    let skip_separators = |mut i: usize| {
        while bytes.get(i).copied().is_some_and(splits_fields) {
            i += 1;
        }
        i
    };
    let whole_from = skip_separators(start);
    let (mut i, mut mantissa) = digit_run(bytes, whole_from, 0);
    let mut digits = i - whole_from;
    let mut fraction_digits = 0;
    if bytes.get(i) == Some(&b'.') {
        let fraction_from = i + 1;
        (i, mantissa) = digit_run(bytes, fraction_from, mantissa);
        fraction_digits = i - fraction_from;
        digits += fraction_digits;
    }
    if digits == 0 || digits > 15 {
        return None;
    }
    let period_ms = mantissa as f64 / POW10[fraction_digits];

    let bits_from = skip_separators(i);
    let (i, bits) = digit_run(bytes, bits_from, 0);
    if i == bits_from || i - bits_from > 19 {
        return None;
    }
    let i = skip_separators(i);
    let end = match bytes.get(i) {
        None => i,
        Some(&b) if ends_record(b) => i,
        Some(b'#') => record_end(bytes, i, ends_record),
        Some(_) => return None,
    };
    Some(((period_ms, bits), end))
}

/// Appends the run of ASCII digits at `bytes[i..]` to `value` as decimal
/// digits (wrapping) and returns the index after the run.
fn digit_run(bytes: &[u8], mut i: usize, mut value: u64) -> (usize, u64) {
    while let Some(&b @ b'0'..=b'9') = bytes.get(i) {
        value = value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        i += 1;
    }
    (i, value)
}

/// Reads any record with the general rules of the [module docs](self):
/// returns its period (ms) and payload, or `None` for a record of
/// whitespace alone, and the index where the record ends.
fn any_record(
    text: &str,
    start: usize,
    ends_record: impl Fn(u8) -> bool,
    line: usize,
) -> Result<(Option<(f64, u64)>, usize), ParseSetError> {
    let bad = |reason: String| ParseSetError::BadLine { line, reason };
    let end = record_end(text.as_bytes(), start, ends_record);
    let record = &text[start..end];
    let record = record
        .find('#')
        .map_or(record, |comment| &record[..comment]);
    if record.trim().is_empty() {
        return Ok((None, end));
    }
    let mut count = 0;
    let mut fields = ["", ""];
    for field in record
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|f| !f.is_empty())
    {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count != 2 {
        return Err(bad(format!(
            "expected `period_ms, payload_bits`, found {count} field(s)"
        )));
    }
    let [period, payload] = fields;
    let period_ms: f64 = period
        .parse()
        .map_err(|_| bad(format!("cannot parse period `{period}` as a number")))?;
    let bits: u64 = payload.parse().map_err(|_| {
        bad(format!(
            "cannot parse payload `{payload}` as an integer bit count"
        ))
    })?;
    Ok((Some((period_ms, bits)), end))
}

/// The index of the first byte from `from` on that ends a record, or the
/// text's length.
fn record_end(bytes: &[u8], from: usize, ends_record: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| ends_record(b))
        .map_or(bytes.len(), |k| from + k)
}

/// The stream a record's numbers describe, checked as every record is.
fn checked_stream(period_ms: f64, bits: u64, line: usize) -> Result<SyncStream, ParseSetError> {
    let bad = |reason: String| ParseSetError::BadLine { line, reason };
    if !(period_ms.is_finite() && period_ms > 0.0) {
        return Err(bad(format!("period must be positive, got {period_ms} ms")));
    }
    if bits == 0 {
        return Err(bad("payload must be at least one bit".into()));
    }
    SyncStream::try_new(Seconds::from_millis(period_ms), Bits::new(bits))
        .map_err(|_| bad(format!("period of {period_ms} ms rounds to zero seconds")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commas_and_whitespace() {
        let set = parse_message_set("20, 1000\n50\t2000\n100    3000\n").unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.as_slice()[0].period(), Seconds::from_millis(20.0));
        assert_eq!(set.as_slice()[2].length_bits(), Bits::new(3000));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n  # indented comment\n10, 500  # trailing\n";
        let set = parse_message_set(text).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.as_slice()[0].length_bits(), Bits::new(500));
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_message_set("10, 500\nbogus line\n").unwrap_err();
        match err {
            ParseSetError::BadLine { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_values() {
        assert!(matches!(
            parse_message_set("abc, 100\n"),
            Err(ParseSetError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_message_set("10, 1.5\n"),
            Err(ParseSetError::BadLine { .. })
        ));
        assert!(matches!(
            parse_message_set("-5, 100\n"),
            Err(ParseSetError::BadLine { .. })
        ));
        assert!(matches!(
            parse_message_set("10, 0\n"),
            Err(ParseSetError::BadLine { .. })
        ));
        assert!(matches!(
            parse_message_set("10, 100, 7\n"),
            Err(ParseSetError::BadLine { .. })
        ));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse_message_set(""), Err(ParseSetError::Empty));
        assert_eq!(
            parse_message_set("# only comments\n"),
            Err(ParseSetError::Empty)
        );
    }

    #[test]
    fn wire_records_end_at_semicolons_and_a_file_refuses_them() {
        let wire = |text| scan_message_set(text, Records::Semicolons).map(|set| set.len());
        assert_eq!(wire("20,,1000;;30,2000,"), Ok(2));
        assert_eq!(wire("20,1000#x;30,2000"), Ok(2));
        assert_eq!(
            wire("20,1000;30").unwrap_err().to_string(),
            "line 2: expected `period_ms, payload_bits`, found 1 field(s)"
        );
        assert_eq!(
            parse_message_set("20,1000;30,2000")
                .unwrap_err()
                .to_string(),
            "line 1: expected `period_ms, payload_bits`, found 3 field(s)"
        );
    }

    #[test]
    fn crlf_tabs_and_unicode_whitespace_split_fields() {
        let set =
            parse_message_set("20,\u{a0}1000\r\n30\u{b}2000 \r\n\u{3000}\n,\t40 3000").unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(
            parse_message_set(" , \n").unwrap_err().to_string(),
            "line 1: expected `period_ms, payload_bits`, found 0 field(s)"
        );
    }

    #[test]
    fn numbers_keep_the_std_grammar() {
        let set = scan_message_set("+5,1;1e3,+2;.5,3;5.,004", Records::Semicolons).unwrap();
        let periods: Vec<Seconds> = set.iter().map(SyncStream::period).collect();
        let ms = [5.0, 1000.0, 0.5, 5.0].map(Seconds::from_millis);
        assert_eq!(periods, ms);
        assert_eq!(set.as_slice()[3].length_bits(), Bits::new(4));
        for (text, reason) in [
            ("inf,1", "period must be positive, got inf ms"),
            ("NaN,1", "period must be positive, got NaN ms"),
            ("-0,1", "period must be positive, got -0 ms"),
            (".,1", "cannot parse period `.` as a number"),
            ("1,-1", "cannot parse payload `-1` as an integer bit count"),
            (
                "1,18446744073709551616",
                "cannot parse payload `18446744073709551616` as an integer bit count",
            ),
        ] {
            assert_eq!(
                parse_message_set(text).unwrap_err().to_string(),
                format!("line 1: {reason}"),
                "{text}"
            );
        }
    }

    #[test]
    fn plain_decimals_round_as_std_parses_them() {
        for period in [
            "0.1",
            "123.456",
            "999999999999999",
            "0.000000000000001",
            "1234567890.12345",
            "9007199254740993",
            "0.1234567890123456789",
            "3.0000000000000004",
        ] {
            let set = parse_message_set(&format!("{period} 18446744073709551615")).unwrap();
            let expected: f64 = period.parse().unwrap();
            assert_eq!(
                set.as_slice()[0].period(),
                Seconds::from_millis(expected),
                "{period}"
            );
            assert_eq!(set.as_slice()[0].length_bits(), Bits::new(u64::MAX));
        }
    }

    #[test]
    fn a_period_that_rounds_to_zero_seconds_is_an_error() {
        let err = parse_message_set("20, 100\n1e-323, 100").unwrap_err();
        assert!(
            err.to_string().starts_with("line 2: period of 0.0000"),
            "{err}"
        );
        assert!(
            err.to_string().ends_with("ms rounds to zero seconds"),
            "{err}"
        );
    }

    #[test]
    fn error_display() {
        let e = parse_message_set("x\n").unwrap_err();
        assert!(e.to_string().starts_with("line 1"));
        assert!(ParseSetError::Empty.to_string().contains("no streams"));
    }
}
