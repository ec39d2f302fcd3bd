//! Integration tests for the Chrome trace-event export of a run's
//! flight recording: document validity against the in-tree RFC 8259
//! checker, the complete-event shape Perfetto expects, and the
//! time-nesting of per-goal markers inside the `elaborate` stage span.

use typeclasses::trace::events::{chrome_spans, traces_chrome_json};
use typeclasses::trace::json::{self, parse, Value};
use typeclasses::{check_source, run_source, EventLog, Options, Outcome};

const MEMBER_MAIN: &str = "main = member 3 (enumFromTo 1 5);";

/// Options that record the run into a log of its own, and the log.
fn traced() -> (Options, EventLog) {
    let log = EventLog::with_capacity(1 << 12);
    let opts = Options {
        events: log.scope(1),
        ..Options::default()
    };
    (opts, log)
}

/// The recorded run as a Chrome trace-event document, as the example
/// runner's `--chrome-trace` writes it.
fn chrome(log: &EventLog) -> String {
    let events = log.extract_whole(1).expect("the ring holds the whole run");
    traces_chrome_json(&[(1, chrome_spans(&events))])
}

/// Parse a trace document and return its `traceEvents` as
/// `(name, cat, ph, ts, dur)` tuples.
fn events(doc: &str) -> Vec<(String, String, String, f64, f64)> {
    let v = parse(doc).expect("trace must parse");
    let evs = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    evs.iter()
        .map(|e| {
            (
                e.get("name").and_then(Value::as_str).unwrap().to_string(),
                e.get("cat").and_then(Value::as_str).unwrap().to_string(),
                e.get("ph").and_then(Value::as_str).unwrap().to_string(),
                e.get("ts").and_then(Value::as_f64).unwrap(),
                e.get("dur").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn trace_is_checker_valid_with_tracing_on_and_off() {
    let (opts, log) = traced();
    run_source(MEMBER_MAIN, &opts);
    let doc = chrome(&log);
    json::check(&doc).expect("traced document");

    // With recording off the document is still valid — just empty.
    let empty = chrome(&EventLog::off());
    json::check(&empty).expect("untraced document");
    assert!(events(&empty).is_empty());
    let v = parse(&empty).unwrap();
    assert_eq!(v.get("displayTimeUnit").and_then(Value::as_str), Some("ms"));
}

#[test]
fn one_complete_event_per_pipeline_stage() {
    let (opts, log) = traced();
    let r = run_source(MEMBER_MAIN, &opts);
    assert!(matches!(r.outcome, Outcome::Value(_)));
    let evs = events(&chrome(&log));
    let stages: Vec<&str> = evs
        .iter()
        .filter(|(_, cat, _, _, _)| cat == "stage")
        .map(|(name, _, _, _, _)| name.as_str())
        .collect();
    assert_eq!(
        stages,
        [
            "lex",
            "parse",
            "class-env",
            "coherence",
            "elaborate",
            "share",
            "eval"
        ],
        "one X event per stage, in pipeline order"
    );
    assert!(
        evs.iter().all(|(_, _, ph, _, _)| ph == "X"),
        "every event is a complete event"
    );
}

#[test]
fn events_are_monotone_and_goals_nest_in_elaborate() {
    let (opts, log) = traced();
    run_source(MEMBER_MAIN, &opts);
    let evs = events(&chrome(&log));

    // Stage events are monotone and non-overlapping.
    let stages: Vec<_> = evs.iter().filter(|(_, c, _, _, _)| c == "stage").collect();
    for pair in stages.windows(2) {
        assert!(
            pair[1].3 + 0.01 >= pair[0].3 + pair[0].4,
            "{} (ts {}) starts before {} ends (ts {} + dur {})",
            pair[1].0,
            pair[1].3,
            pair[0].0,
            pair[0].3,
            pair[0].4
        );
    }

    // Every goal marker sits inside the elaborate stage span (both
    // come from the same recording). The 0.01us slack absorbs the
    // 3-decimal microsecond rounding of the serializer.
    let elab = stages
        .iter()
        .find(|(n, _, _, _, _)| n == "elaborate")
        .expect("elaborate stage present");
    let (ets, edur) = (elab.3, elab.4);
    let goals: Vec<_> = evs.iter().filter(|(n, _, _, _, _)| n == "goal").collect();
    assert!(!goals.is_empty(), "member resolves at least one goal");
    for (name, _, _, ts, dur) in &goals {
        assert!(
            *ts + 0.01 >= ets,
            "goal {name} (ts {ts}) starts before elaborate (ts {ets})"
        );
        assert!(
            ts + dur <= ets + edur + 0.01,
            "goal {name} (ts {ts} dur {dur}) outlives elaborate (ts {ets} dur {edur})"
        );
    }
    // And the goal markers themselves are monotone by start time.
    for pair in goals.windows(2) {
        assert!(pair[1].3 >= pair[0].3, "goal starts must be nondecreasing");
    }
}

#[test]
fn shipped_examples_export_valid_traces() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    for name in ["member.mh", "maxlist.mh", "sumsquares.mh"] {
        let src = std::fs::read_to_string(format!("{dir}/{name}"))
            .unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
        let (opts, log) = traced();
        let c = check_source(&src, &opts);
        assert!(c.ok(), "{name}: {}", c.render_diagnostics());
        let doc = chrome(&log);
        json::check(&doc).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
        let evs = events(&doc);
        // check_source never runs eval, so six stage events (lex,
        // parse, class-env, coherence, elaborate, share) + goals.
        let stage_count = evs.iter().filter(|(_, c, _, _, _)| c == "stage").count();
        assert_eq!(stage_count, 6, "{name}");
        assert!(
            evs.iter().any(|(n, _, _, _, _)| n == "goal"),
            "{name}: no goal markers"
        );
    }
}
