//! The metric namespace is a contract: DESIGN.md §12.4 holds the only
//! table of names any SCTM component may publish, and this test fails
//! the build if a SelfCorrection run or the `sctmd` service publishes
//! a name (or kind) the table does not document, or if a row does not
//! name the consumer that reads it.

use sctm::obs::{self, MetricValue};
use sctm::prelude::*;
use sctm_srv::{parse_request, Request, Server, ServerConfig};

const DESIGN: &str = include_str!("../DESIGN.md");

/// `(name pattern, kind)` rows between the namespace table markers.
/// Every row must name its consumer: something other than the
/// publisher and its own tests that reads the value.
fn table_rows() -> Vec<(String, String)> {
    let begin = DESIGN
        .find("<!-- metric-namespace:begin -->")
        .expect("namespace table begin marker missing from DESIGN.md");
    let end = DESIGN
        .find("<!-- metric-namespace:end -->")
        .expect("namespace table end marker missing from DESIGN.md");
    let mut rows = Vec::new();
    for line in DESIGN[begin..end].lines() {
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('`') else {
            continue;
        };
        // | kind | publisher | consumer | meaning |
        let cells: Vec<&str> = rest.split('|').map(str::trim).collect();
        let cell = |i: usize| cells.get(i).copied().unwrap_or_default();
        let (kind, consumer) = (cell(1), cell(3));
        assert!(
            ["counter", "gauge", "hist"].contains(&kind),
            "bad kind column for {name}: {kind:?}"
        );
        assert!(
            !consumer.is_empty(),
            "{name} names no consumer — give it a reader or delete it with the code that feeds it"
        );
        rows.push((name.to_string(), kind.to_string()));
    }
    assert!(rows.len() >= 35, "suspiciously small table: {}", rows.len());
    rows
}

/// Match one dot-segment against a pattern segment: literal, or a whole
/// `<placeholder>` (`<net>`, `<verdict>`) consuming one or more
/// characters.
fn seg_matches(pat: &str, seg: &str) -> bool {
    if pat.starts_with('<') && pat.ends_with('>') {
        !seg.is_empty()
    } else {
        pat == seg
    }
}

fn name_matches(pat: &str, name: &str) -> bool {
    let pats: Vec<&str> = pat.split('.').collect();
    let segs: Vec<&str> = name.split('.').collect();
    pats.len() == segs.len() && pats.iter().zip(&segs).all(|(p, s)| seg_matches(p, s))
}

fn kind_of(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Hist(_) => "hist",
    }
}

fn assert_all_documented<'a>(
    rows: &[(String, String)],
    published: impl Iterator<Item = (&'a str, &'a MetricValue)>,
    source: &str,
) {
    let mut checked = 0usize;
    for (name, value) in published {
        let row = rows.iter().find(|(pat, _)| name_matches(pat, name));
        let Some((pat, kind)) = row else {
            panic!("{source} published undocumented metric {name} — add it to DESIGN.md §12.4");
        };
        assert_eq!(
            kind,
            kind_of(value),
            "{source}: {name} is a {} but the table row `{pat}` says {kind}",
            kind_of(value)
        );
        checked += 1;
    }
    assert!(checked > 0, "{source} published nothing — dead test");
}

#[test]
fn every_published_metric_appears_in_the_design_table() {
    let rows = table_rows();

    // 1. An obs-enabled SelfCorrection run: exercises publish_network
    //    (net.*), the only registry names a run publishes.
    obs::reset_global();
    obs::reset_iterations();
    obs::set_enabled(true);
    let exp = Experiment::new(SystemConfig::new(2, NetworkKind::Omesh), Kernel::Fft).with_ops(150);
    exp.execute(&RunSpec::self_correction(3))
        .expect("self-correction run");
    obs::set_enabled(false);
    obs::drain(); // leave no trace-event residue behind
    let global = obs::global_snapshot();
    assert_all_documented(&rows, global.iter(), "obs-enabled SelfCorrection");

    // 2. The service: the full srv.* namespace from the stats manifest,
    //    plus the `run.*` metrics embedded in a real run response.
    let server = Server::start(ServerConfig::default());
    let req = match parse_request("run kernel=fft net=omesh side=2 ops=150 mode=sctm iters=2 id=n1")
        .expect("parse")
    {
        Request::Run(r) => *r,
        other => panic!("expected run, got {other:?}"),
    };
    let response = server.submit_blocking(req);
    assert!(
        response.contains(r#""status":"ok""#),
        "run failed: {response}"
    );
    let stats = server.stats_manifest();
    assert_all_documented(&rows, stats.metrics.iter(), "sctmd stats manifest");

    // Scrape `"name": {"kind": "…"` pairs out of the compact result
    // JSON so the check runs against what the wire actually carries.
    let mut scraped = 0usize;
    let mut rest = response.as_str();
    while let Some(pos) = rest.find(r#": {"kind": ""#) {
        let name = rest[..pos]
            .rsplit('"')
            .nth(1)
            .unwrap_or_default()
            .to_string();
        let kind = rest[pos + r#": {"kind": ""#.len()..]
            .split('"')
            .next()
            .unwrap_or_default();
        let row = rows.iter().find(|(pat, _)| name_matches(pat, &name));
        let Some((_, doc_kind)) = row else {
            panic!("run response carried undocumented metric {name} — add it to DESIGN.md §12.4");
        };
        assert_eq!(doc_kind, kind, "run response: {name} kind drifted");
        scraped += 1;
        rest = &rest[pos + 1..];
    }
    assert!(scraped >= 4, "run response carried no metrics — dead check");
}

#[test]
fn pattern_matcher_is_exact_where_it_should_be() {
    assert!(name_matches("srv.cache.hits", "srv.cache.hits"));
    assert!(!name_matches("srv.cache.hits", "srv.cache.hit"));
    assert!(!name_matches("srv.cache.hits", "srv.cache.hits.extra"));
    assert!(name_matches("net.<net>.injected", "net.omesh.injected"));
    assert!(!name_matches("net.<net>.injected", "net..injected"));
    assert!(!name_matches(
        "net.<net>.injected",
        "net.omesh.node007.injected"
    ));
    assert!(name_matches(
        "srv.conv.runs.<verdict>",
        "srv.conv.runs.oscillating"
    ));
    assert!(!name_matches(
        "srv.conv.runs.<verdict>",
        "srv.conv.iterations"
    ));
}
