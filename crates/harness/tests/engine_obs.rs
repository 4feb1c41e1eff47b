//! The engine's trace surface: which `sim.*` spans and counters each
//! entry point emits.
//!
//! `simulate` and `simulate_stream` share one event loop, but each keeps
//! its own span and counter names, and the shared loop opens no span of
//! its own. In particular a `sim.stream` span never appears inside
//! `sim.simulate`: rollups that sum engine time per span name would count
//! it twice. The collector is process-global, so this file holds a single
//! test that drives each entry point in turn.

use tf_obs::EventKind;
use tf_policies::RoundRobin;
use tf_simcore::{
    simulate, simulate_stream, MachineConfig, SimOptions, StreamOptions, Trace, TraceSource,
};

/// `(kind, name)` of every `sim`-category event, in collector order.
fn sim_events() -> Vec<(EventKind, &'static str)> {
    tf_obs::take_events()
        .into_iter()
        .filter(|e| e.cat == "sim")
        .map(|e| (e.kind, e.name))
        .collect()
}

/// Argument keys of the one span named `name` in `events`.
fn span_arg_keys(events: &[tf_obs::Event], name: &str) -> Vec<&'static str> {
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.cat == "sim" && e.name == name)
        .collect();
    assert_eq!(spans.len(), 1, "expected one sim.{name} span");
    spans[0].args.iter().map(|&(k, _)| k).collect()
}

#[test]
fn each_entry_point_emits_exactly_its_own_spans_and_counters() {
    use EventKind::{Counter, Span};

    let trace = Trace::from_pairs([(0.0, 2.0), (0.0, 1.0), (0.5, 3.0), (1.0, 1.0)]).unwrap();
    let cfg = MachineConfig::new(1);
    tf_obs::install_collect();

    simulate(&trace, &mut RoundRobin::new(), cfg, SimOptions::default()).unwrap();
    assert_eq!(
        sim_events(),
        [
            (Span, "simulate"),
            (Counter, "events"),
            (Counter, "steps"),
            (Counter, "peak_alive"),
            (Counter, "alloc_ns"),
        ]
    );

    simulate(
        &trace,
        &mut RoundRobin::new(),
        cfg,
        SimOptions::with_profile(),
    )
    .unwrap();
    assert_eq!(
        sim_events(),
        [
            (Span, "simulate"),
            (Span, "coalesce"),
            (Counter, "events"),
            (Counter, "steps"),
            (Counter, "peak_alive"),
            (Counter, "alloc_ns"),
            (Counter, "segments_recorded"),
        ]
    );

    simulate_stream(
        &mut TraceSource::new(&trace),
        &mut RoundRobin::new(),
        cfg,
        StreamOptions::default(),
        &mut |_| {},
    )
    .unwrap();
    assert_eq!(
        sim_events(),
        [
            (Span, "stream"),
            (Counter, "stream_events"),
            (Counter, "stream_completed"),
            (Counter, "peak_alive"),
        ]
    );

    // Both spans carry the same arguments.
    simulate(&trace, &mut RoundRobin::new(), cfg, SimOptions::default()).unwrap();
    let events = tf_obs::take_events();
    assert_eq!(
        span_arg_keys(&events, "simulate"),
        ["n", "m", "speed", "events"]
    );
    simulate_stream(
        &mut TraceSource::new(&trace),
        &mut RoundRobin::new(),
        cfg,
        StreamOptions::default(),
        &mut |_| {},
    )
    .unwrap();
    let events = tf_obs::take_events();
    assert_eq!(
        span_arg_keys(&events, "stream"),
        ["n", "m", "speed", "events"]
    );

    tf_obs::install(tf_obs::SinkSpec::Off);
}
