//! The JSON-lines trace sink: one event per line, hand-serialized so the
//! crate stays dependency-free.

use crate::record::Event;
use std::io::{self, Write};

/// Environment variable naming a trace output path; the CLI treats it as
/// an always-on `--trace-out`.
pub const TRACE_ENV_VAR: &str = "EDGELLM_TRACE";

/// The trace path requested via [`TRACE_ENV_VAR`], if any (empty values
/// count as unset).
pub fn env_trace_path() -> Option<String> {
    std::env::var(TRACE_ENV_VAR).ok().filter(|p| !p.is_empty())
}

/// Appends `s` to `out` as a quoted JSON string — the one string writer
/// behind both the trace sink and the lab's `Json` serializer. Quote,
/// backslash, newline, carriage return and tab take their two-character
/// escapes; other control characters are written as `\u00XX`.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes one event as a JSON object (no trailing newline).
fn event_json(e: &Event) -> String {
    let mut s = String::new();
    match e {
        Event::SpanStart {
            id,
            parent,
            name,
            thread,
            t_ns,
        } => {
            s.push_str(&format!(
                "{{\"type\":\"span_start\",\"id\":{id},\"parent\":"
            ));
            match parent {
                Some(p) => s.push_str(&p.to_string()),
                None => s.push_str("null"),
            }
            s.push_str(",\"name\":");
            write_json_string(&mut s, name);
            s.push_str(&format!(",\"thread\":{thread},\"t_ns\":{t_ns}}}"));
        }
        Event::SpanEnd { id, t_ns } => {
            s.push_str(&format!(
                "{{\"type\":\"span_end\",\"id\":{id},\"t_ns\":{t_ns}}}"
            ));
        }
        Event::Counter {
            name,
            delta,
            thread,
            t_ns,
        } => {
            s.push_str("{\"type\":\"counter\",\"name\":");
            write_json_string(&mut s, name);
            s.push_str(&format!(
                ",\"delta\":{delta},\"thread\":{thread},\"t_ns\":{t_ns}}}"
            ));
        }
    }
    s
}

/// Writes the trace as JSON lines: one event object per line, in
/// recording order.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    for e in events {
        writeln!(w, "{}", event_json(e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_shapes() {
        let events = vec![
            Event::SpanStart {
                id: 0,
                parent: None,
                name: "tune.step",
                thread: 0,
                t_ns: 10,
            },
            Event::SpanEnd { id: 0, t_ns: 20 },
            Event::Counter {
                name: "tune.requant_layers",
                delta: 1,
                thread: 2,
                t_ns: 15,
            },
        ];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"span_start\",\"id\":0,\"parent\":null,\"name\":\"tune.step\",\"thread\":0,\"t_ns\":10}"
        );
        assert_eq!(lines[1], "{\"type\":\"span_end\",\"id\":0,\"t_ns\":20}");
        assert!(lines[2].contains("\"delta\":1"));
    }

    #[test]
    fn names_are_escaped() {
        let mut s = String::new();
        write_json_string(&mut s, "a\"b\\c\n\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
