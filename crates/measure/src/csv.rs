//! CSV persistence for beacon traces.
//!
//! The paper publishes its dataset as packet traces; this module gives
//! campaigns the same archival path — a dependency-free codec for
//! [`BeaconTrace`] sets, so a seven-month run can be written once and
//! re-analysed offline without re-simulating (the `trace_archive`
//! example archives a full-trace campaign this way).
//!
//! Two data-integrity rules hold:
//!
//! * **Hostile names round-trip.** Site and constellation labels that
//!   contain commas, quotes, or newlines are quoted RFC 4180-style on
//!   write and unquoted on read (clean labels keep the plain fast
//!   path). Historically `write_traces` emitted fields raw and
//!   `read_traces` did a bare `split(',')`, so one comma in a label
//!   silently shifted every later column.
//! * **Non-finite floats are rejected.** `"NaN".parse::<f64>()`
//!   succeeds, so a corrupted archive used to inject NaN/inf `time_s`
//!   or RSSI straight into a [`TraceSet`], bypassing the simulate-phase
//!   NaN-proofing. Readers now fail with [`CsvError::Malformed`] naming
//!   the offending column, mirroring `OrbitError::NonFiniteScan`.

use crate::trace::{BeaconTrace, TraceSet};
use std::io::{self, BufRead, Write};

/// The column header, in field order.
pub const HEADER: &str =
    "time_s,site,station,constellation,sat_id,rssi_dbm,snr_db,elevation_deg,distance_km,doppler_hz,weather";

/// Column names, indexed like the fields of a row.
const COLUMNS: [&str; 11] = [
    "time_s",
    "site",
    "station",
    "constellation",
    "sat_id",
    "rssi_dbm",
    "snr_db",
    "elevation_deg",
    "distance_km",
    "doppler_hz",
    "weather",
];

/// Errors while reading a trace CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A malformed row (1-based line number and reason).
    Malformed {
        /// Line number (1 = header).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl core::fmt::Display for CsvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io: {e}"),
            CsvError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Whether a field needs RFC 4180 quoting before it can sit in a row.
fn needs_quoting(field: &str) -> bool {
    field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
}

/// Quote a field RFC 4180-style: wrap in double quotes, double any
/// embedded double quote. Only called on fields that need it — clean
/// fields keep the allocation-free fast path.
fn quote_field(field: &str) -> String {
    let mut out = String::with_capacity(field.len() + 2);
    out.push('"');
    for c in field.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// Write one string field, quoting only when necessary.
fn write_field<W: Write>(w: &mut W, field: &str) -> io::Result<()> {
    if needs_quoting(field) {
        w.write_all(quote_field(field).as_bytes())
    } else {
        w.write_all(field.as_bytes())
    }
}

/// Serialise a trace set as CSV (header + one row per trace). Site and
/// constellation labels containing commas, quotes, or newlines are
/// quoted so they survive the round trip through [`read_traces`].
pub fn write_traces<W: Write>(traces: &TraceSet, mut w: W) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for t in &traces.traces {
        write_row(&mut w, t)?;
    }
    Ok(())
}

/// Write a single CSV row (no header).
fn write_row<W: Write>(w: &mut W, t: &BeaconTrace) -> io::Result<()> {
    write!(w, "{:.3},", t.time_s)?;
    write_field(w, &t.site)?;
    write!(w, ",{},", t.station)?;
    write_field(w, &t.constellation)?;
    writeln!(
        w,
        ",{},{:.2},{:.2},{:.3},{:.3},{:.1},{}",
        t.sat_id, t.rssi_dbm, t.snr_db, t.elevation_deg, t.distance_km, t.doppler_hz, t.weather,
    )
}

/// Split one logical CSV record into fields, honouring RFC 4180 quoting.
/// The record must already be a complete logical line (quote parity even
/// — [`read_traces`] joins physical lines first).
fn split_record(record: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
    // Fast path: no quotes anywhere → a bare split is correct.
    if !record.contains('"') {
        return Ok(record.split(',').map(str::to_string).collect());
    }
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                '"' if field.is_empty() => in_quotes = true,
                '"' => {
                    return Err(CsvError::Malformed {
                        line: line_no,
                        reason: "quote inside unquoted field".to_string(),
                    })
                }
                ',' => fields.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::Malformed {
            line: line_no,
            reason: "unterminated quoted field".to_string(),
        });
    }
    fields.push(field);
    Ok(fields)
}

/// Parse a finite float from a field, rejecting NaN/±inf by column name
/// (`"NaN".parse::<f64>()` succeeds, so a plain parse would let a
/// corrupted archive inject non-finite values into the trace set).
fn parse_finite(field: &str, col: usize, line_no: usize) -> Result<f64, CsvError> {
    let v: f64 = field.parse().map_err(|_| CsvError::Malformed {
        line: line_no,
        reason: format!("bad float in column {}: {field:?}", COLUMNS[col]),
    })?;
    if !v.is_finite() {
        return Err(CsvError::Malformed {
            line: line_no,
            reason: format!("non-finite value in column {}: {field:?}", COLUMNS[col]),
        });
    }
    Ok(v)
}

/// Intern a weather label against the fixed vocabulary.
fn parse_weather(field: &str, line_no: usize) -> Result<&'static str, CsvError> {
    match field {
        "sunny" => Ok("sunny"),
        "cloudy" => Ok("cloudy"),
        "rainy" => Ok("rainy"),
        other => Err(CsvError::Malformed {
            line: line_no,
            reason: format!("unknown weather {other:?}"),
        }),
    }
}

/// Build a trace from split fields.
fn trace_from_fields(fields: &[String], line_no: usize) -> Result<BeaconTrace, CsvError> {
    if fields.len() != 11 {
        return Err(CsvError::Malformed {
            line: line_no,
            reason: format!("expected 11 fields, got {}", fields.len()),
        });
    }
    let parse_u = |i: usize| -> Result<u32, CsvError> {
        fields[i].parse().map_err(|_| CsvError::Malformed {
            line: line_no,
            reason: format!("bad integer in column {}: {:?}", COLUMNS[i], fields[i]),
        })
    };
    Ok(BeaconTrace {
        time_s: parse_finite(&fields[0], 0, line_no)?,
        site: fields[1].clone(),
        station: parse_u(2)?,
        constellation: fields[3].clone(),
        sat_id: parse_u(4)?,
        rssi_dbm: parse_finite(&fields[5], 5, line_no)?,
        snr_db: parse_finite(&fields[6], 6, line_no)?,
        elevation_deg: parse_finite(&fields[7], 7, line_no)?,
        distance_km: parse_finite(&fields[8], 8, line_no)?,
        doppler_hz: parse_finite(&fields[9], 9, line_no)?,
        weather: parse_weather(&fields[10], line_no)?,
    })
}

/// Parse a trace CSV produced by [`write_traces`]. Quoted fields (and
/// quoted fields spanning physical lines) are unescaped; non-finite
/// floats are rejected with the offending column named.
pub fn read_traces<R: BufRead>(r: R) -> Result<TraceSet, CsvError> {
    let mut set = TraceSet::new();
    let mut lines = r.lines().enumerate();
    let mut saw_header = false;
    while let Some((idx, line)) = lines.next() {
        let mut record = line?;
        let line_no = idx + 1;
        if !saw_header {
            if record.trim() != HEADER {
                return Err(CsvError::Malformed {
                    line: line_no,
                    reason: format!("unexpected header {record:?}"),
                });
            }
            saw_header = true;
            continue;
        }
        if record.trim().is_empty() {
            continue;
        }
        // A record whose quote count is odd continues on the next
        // physical line (a quoted label contained a newline). Doubled
        // escape quotes keep parity even, so this terminates exactly
        // when the quoted field closes.
        while record.bytes().filter(|&b| b == b'"').count() % 2 == 1 {
            match lines.next() {
                Some((_, next)) => {
                    record.push('\n');
                    record.push_str(&next?);
                }
                None => {
                    return Err(CsvError::Malformed {
                        line: line_no,
                        reason: "unterminated quoted field at end of file".to_string(),
                    })
                }
            }
        }
        let fields = split_record(&record, line_no)?;
        set.push(trace_from_fields(&fields, line_no)?);
    }
    if !saw_header {
        return Err(CsvError::Malformed {
            line: 1,
            reason: "empty input (missing header)".to_string(),
        });
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> TraceSet {
        let mut set = TraceSet::new();
        for i in 0..5 {
            set.push(BeaconTrace {
                time_s: i as f64 * 8.5,
                site: "HK".into(),
                station: i % 3,
                constellation: if i % 2 == 0 { "Tianqi" } else { "FOSSA" }.into(),
                sat_id: i,
                rssi_dbm: -125.0 - i as f64,
                snr_db: -8.25,
                elevation_deg: 30.0 + i as f64,
                distance_km: 1_200.5,
                doppler_hz: -4_321.0,
                weather: "sunny",
            });
        }
        set
    }

    fn hostile_set() -> TraceSet {
        let mut set = TraceSet::new();
        let names = [
            ("HK, Kowloon", "Tianqi"),
            ("SYD", "FOSSA \"beta\""),
            ("Lagos,\nVI", "Swarm, Inc."),
            ("plain", "also_plain"),
            ("trailing,", ",leading"),
            ("\"", "\"\""),
        ];
        for (i, (site, constellation)) in names.iter().enumerate() {
            set.push(BeaconTrace {
                time_s: i as f64,
                site: site.to_string(),
                station: i as u32,
                constellation: constellation.to_string(),
                sat_id: i as u32,
                rssi_dbm: -120.0,
                snr_db: -5.5,
                elevation_deg: 45.0,
                distance_km: 900.25,
                doppler_hz: 1_000.0,
                weather: "cloudy",
            });
        }
        set
    }

    #[test]
    fn round_trip_preserves_everything_relevant() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_traces(&set, &mut buf).unwrap();
        let back = read_traces(&buf[..]).unwrap();
        assert_eq!(back.len(), set.len());
        for (a, b) in set.traces.iter().zip(&back.traces) {
            assert_eq!(a.site, b.site);
            assert_eq!(a.constellation, b.constellation);
            assert_eq!(a.sat_id, b.sat_id);
            assert_eq!(a.weather, b.weather);
            assert!((a.time_s - b.time_s).abs() < 1e-3);
            assert!((a.rssi_dbm - b.rssi_dbm).abs() < 0.01);
            assert!((a.distance_km - b.distance_km).abs() < 1e-3);
        }
    }

    /// A comma in a site name used to shift every later column; quotes
    /// used to vanish. Hostile labels must round-trip byte-for-byte.
    #[test]
    fn hostile_names_round_trip() {
        let set = hostile_set();
        let mut buf = Vec::new();
        write_traces(&set, &mut buf).unwrap();
        let back = read_traces(&buf[..]).unwrap();
        assert_eq!(back.len(), set.len());
        for (a, b) in set.traces.iter().zip(&back.traces) {
            assert_eq!(a.site, b.site);
            assert_eq!(a.constellation, b.constellation);
            assert_eq!(a.station, b.station);
        }
    }

    /// Clean labels must not get gratuitous quotes (the fast path).
    #[test]
    fn clean_names_stay_unquoted() {
        let mut buf = Vec::new();
        write_traces(&sample_set(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            !text.contains('"'),
            "clean archive contains quotes:\n{text}"
        );
    }

    #[test]
    fn non_finite_floats_are_rejected_by_column() {
        let good_row = "1.0,HK,0,Tianqi,1,-125.0,-8.0,30.0,1200.0,-4000.0,sunny";
        for (needle, col) in [
            ("1.0,", "time_s"),
            ("-125.0", "rssi_dbm"),
            ("-8.0", "snr_db"),
            ("30.0", "elevation_deg"),
            ("1200.0", "distance_km"),
            ("-4000.0", "doppler_hz"),
        ] {
            for bad in ["NaN", "inf", "-inf", "infinity"] {
                let row = if needle == "1.0," {
                    good_row.replacen("1.0,", &format!("{bad},"), 1)
                } else {
                    good_row.replace(needle, bad)
                };
                let text = format!("{HEADER}\n{row}\n");
                let err = read_traces(text.as_bytes()).unwrap_err();
                match err {
                    CsvError::Malformed { reason, .. } => {
                        assert!(
                            reason.contains("non-finite") && reason.contains(col),
                            "row {row:?}: reason {reason:?} should name column {col}"
                        );
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // The good row itself still parses.
        let text = format!("{HEADER}\n{good_row}\n");
        assert_eq!(read_traces(text.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn header_is_validated() {
        let bad = "wrong,header\n1,2\n";
        assert!(matches!(
            read_traces(bad.as_bytes()),
            Err(CsvError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn malformed_rows_are_reported_with_line_numbers() {
        let mut buf = Vec::new();
        write_traces(&sample_set(), &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("only,three,fields\n");
        let err = read_traces(text.as_bytes()).unwrap_err();
        match err {
            CsvError::Malformed { line, reason } => {
                assert_eq!(line, 7);
                assert!(reason.contains("11 fields"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_numbers_and_weather_are_rejected() {
        let good_row = "1.0,HK,0,Tianqi,1,-125.0,-8.0,30.0,1200.0,-4000.0,sunny";
        let cases = [
            good_row.replace("-125.0", "not-a-number"),
            good_row.replace("sunny", "hailstorm"),
            good_row.replace(",0,", ",minus-one,"),
        ];
        for bad in cases {
            let text = format!("{HEADER}\n{bad}\n");
            assert!(read_traces(text.as_bytes()).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unterminated_quotes_are_rejected() {
        let text = format!("{HEADER}\n1.0,\"HK,0,Tianqi,1,-125.0,-8.0,30.0,1200.0,-4000.0,sunny\n");
        assert!(matches!(
            read_traces(text.as_bytes()),
            Err(CsvError::Malformed { .. })
        ));
        // Stray quote mid-field.
        let text = format!("{HEADER}\n1.0,H\"K,0,Tianqi,1,-125.0,-8.0,30.0,1200.0,-4000.0,sunny\n");
        assert!(matches!(
            read_traces(text.as_bytes()),
            Err(CsvError::Malformed { .. })
        ));
    }

    #[test]
    fn empty_lines_are_skipped() {
        let text = format!("{HEADER}\n\n\n");
        assert!(read_traces(text.as_bytes()).unwrap().is_empty());
    }
}
