//! The request-line generators are pure functions of `--seed`.

use sctm_benchmark::svc::{cold_line, cold_seed, warm_specs, WARM_DAMPINGS, WARM_NETS};
use std::collections::BTreeSet;

fn seeds_in(line: &str) -> Vec<u64> {
    line.split_whitespace()
        .filter_map(|tok| tok.strip_prefix("seed="))
        .map(|v| v.parse().expect("seed is a number"))
        .collect()
}

#[test]
fn same_seed_gives_the_same_lines() {
    for seed in [0, 1, 7, u64::MAX] {
        assert_eq!(warm_specs(seed), warm_specs(seed));
        for i in [0, 1, 99, 2399] {
            assert_eq!(cold_line(seed, i), cold_line(seed, i));
        }
    }
}

#[test]
fn warm_mix_is_every_net_and_damping_over_one_capture() {
    let specs = warm_specs(3);
    assert_eq!(specs.len(), WARM_NETS.len() * WARM_DAMPINGS.len());
    let lines: BTreeSet<&str> = specs.iter().map(|s| s.line.as_str()).collect();
    assert_eq!(lines.len(), specs.len(), "every request is distinct");
    for s in &specs {
        assert_eq!(seeds_in(&s.line), vec![3], "one capture: {}", s.line);
        assert!(s.line.contains(&format!("net={}", s.net.label())));
        assert!(s.line.contains(&format!("damping={}", s.damping)));
        assert!(s.line.contains("replay=1") && s.line.contains("mode=sctm"));
    }
    // The seed shuffles the order and nothing else.
    let other = warm_specs(4);
    let strip = |l: &str| l.replace("seed=3", "seed=N").replace("seed=4", "seed=N");
    let a: BTreeSet<String> = specs.iter().map(|s| strip(&s.line)).collect();
    let b: BTreeSet<String> = other.iter().map(|s| strip(&s.line)).collect();
    assert_eq!(a, b);
    assert_ne!(
        specs.iter().map(|s| strip(&s.line)).collect::<Vec<_>>(),
        other.iter().map(|s| strip(&s.line)).collect::<Vec<_>>(),
        "a different seed gives a different order"
    );
}

#[test]
fn different_seed_gives_different_seeds_in_the_lines() {
    assert_ne!(
        seeds_in(&warm_specs(1)[0].line),
        seeds_in(&warm_specs(2)[0].line)
    );
    let a: BTreeSet<u64> = (0..5000).flat_map(|i| seeds_in(&cold_line(1, i))).collect();
    let b: BTreeSet<u64> = (0..5000).flat_map(|i| seeds_in(&cold_line(2, i))).collect();
    assert_eq!(a.len(), 5000, "every cold request has its own capture seed");
    assert!(
        a.is_disjoint(&b),
        "seeds of different --seed values never meet"
    );
    // Warm-up requests sit far outside the measured sequence.
    assert!(!a.contains(&cold_seed(1, 9_000_000)));
}

#[test]
fn cold_lines_rotate_kernels_and_parse() {
    let kernels: Vec<String> = (0..8)
        .map(|i| {
            cold_line(1, i)
                .split_whitespace()
                .find_map(|t| t.strip_prefix("kernel=").map(str::to_string))
                .expect("kernel key")
        })
        .collect();
    assert_eq!(
        kernels,
        ["fft", "lu", "canneal", "barnes", "fft", "lu", "canneal", "barnes"]
    );
    // Every generated line is a request the daemon accepts.
    for line in (0..8)
        .map(|i| cold_line(5, i))
        .chain(warm_specs(5).into_iter().map(|s| s.line))
    {
        assert!(
            matches!(
                sctm_srv::parse_request(&line),
                Ok(sctm_srv::Request::Run(_))
            ),
            "{line}"
        );
    }
}
