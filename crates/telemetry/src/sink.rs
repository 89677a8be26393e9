//! The JSON-lines trace sink: one event per line, each written as a
//! [`Json`] object.

use crate::json::Json;
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

/// One event as a JSON object, fields in a fixed order.
fn event_json(e: &Event) -> Json {
    match *e {
        Event::SpanStart {
            id,
            parent,
            name,
            thread,
            t_ns,
        } => Json::obj(vec![
            ("type", Json::str("span_start")),
            ("id", Json::uint(id)),
            ("parent", parent.map_or(Json::Null, Json::uint)),
            ("name", Json::str(name)),
            ("thread", Json::uint(thread)),
            ("t_ns", Json::uint(t_ns)),
        ]),
        Event::SpanEnd { id, t_ns } => Json::obj(vec![
            ("type", Json::str("span_end")),
            ("id", Json::uint(id)),
            ("t_ns", Json::uint(t_ns)),
        ]),
        Event::Counter {
            name,
            delta,
            thread,
            t_ns,
        } => Json::obj(vec![
            ("type", Json::str("counter")),
            ("name", Json::str(name)),
            ("delta", Json::uint(delta)),
            ("thread", Json::uint(thread)),
            ("t_ns", Json::uint(t_ns)),
        ]),
    }
}

/// Writes the trace as JSON lines: one event object per line, in
/// recording order.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    for e in events {
        writeln!(w, "{}", event_json(e).to_compact())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(events: &[Event]) -> Vec<String> {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        text.lines().map(str::to_string).collect()
    }

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
        assert_eq!(
            lines[2],
            "{\"type\":\"counter\",\"name\":\"tune.requant_layers\",\"delta\":1,\"thread\":2,\"t_ns\":15}"
        );
    }

    #[test]
    fn names_are_escaped() {
        let lines = lines(&[Event::Counter {
            name: "a\"b\\c\n\u{1}",
            delta: 1,
            thread: 0,
            t_ns: 0,
        }]);
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"a\\\"b\\\\c\\n\\u0001\",\"delta\":1,\"thread\":0,\"t_ns\":0}"
        );
    }

    #[test]
    fn lines_parse_back_to_their_events() {
        let edge = i64::MAX as u64;
        let events = [
            Event::SpanStart {
                id: 7,
                parent: Some(3),
                name: "quote\"slash\\tab\tbell\u{7}",
                thread: 1,
                t_ns: edge,
            },
            Event::SpanEnd { id: edge, t_ns: 0 },
            Event::Counter {
                name: "nl\ncr\r\u{0}\u{1f}é",
                delta: edge,
                thread: edge,
                t_ns: 5,
            },
        ];
        let int = |x: u64| Json::Int(x as i64);
        for (e, line) in events.iter().zip(lines(&events)) {
            let want = match *e {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    thread,
                    t_ns,
                } => Json::obj(vec![
                    ("type", Json::str("span_start")),
                    ("id", int(id)),
                    ("parent", parent.map_or(Json::Null, int)),
                    ("name", Json::str(name)),
                    ("thread", int(thread)),
                    ("t_ns", int(t_ns)),
                ]),
                Event::SpanEnd { id, t_ns } => Json::obj(vec![
                    ("type", Json::str("span_end")),
                    ("id", int(id)),
                    ("t_ns", int(t_ns)),
                ]),
                Event::Counter {
                    name,
                    delta,
                    thread,
                    t_ns,
                } => Json::obj(vec![
                    ("type", Json::str("counter")),
                    ("name", Json::str(name)),
                    ("delta", int(delta)),
                    ("thread", int(thread)),
                    ("t_ns", int(t_ns)),
                ]),
            };
            assert_eq!(Json::parse(&line).unwrap(), want, "{line}");
        }
        // one past i64::MAX is the float the parser reads such integer
        // text as, never an Int wrapped negative
        let past = lines(&[Event::SpanEnd {
            id: 0,
            t_ns: edge + 1,
        }]);
        assert_eq!(
            past[0],
            "{\"type\":\"span_end\",\"id\":0,\"t_ns\":9223372036854776000.0}"
        );
    }
}
