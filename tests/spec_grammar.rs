//! The fault campaign, serve spec and fuzz config strings share one
//! `key=value` grammar (`ecoscale_sim::spec`). These tests feed all three
//! parsers the same malformed shapes and require the same refusal from
//! each: its own error kind and the offending pair, trimmed.

use ecoscale::bench::fuzz::FuzzConfig;
use ecoscale::runtime::ServeSpec;
use ecoscale::sim::spec::SpecError;
use ecoscale::sim::CampaignSpec;

/// One spec grammar: its error kind, its keys, its parser (rendering the
/// parsed spec through `Display`), and one pair per numeric key whose
/// value lies below that key's floor.
struct Grammar {
    kind: &'static str,
    keys: &'static [&'static str],
    parse: fn(&str) -> Result<String, SpecError>,
    below_floor: &'static [&'static str],
}

const GRAMMARS: [Grammar; 3] = [
    Grammar {
        kind: "fault spec",
        keys: CampaignSpec::KEYS,
        parse: |s| CampaignSpec::parse(s).map(|c| c.to_string()),
        below_floor: &[
            "seed=-1",
            "crash=-1ms",
            "stall=-1ms",
            "stall_for=-1us",
            "link=-1us",
            "link_for=-1us",
            "link_slowdown=0.5",
            "corrupt=-0.1",
            "smmu=-0.1",
            "seu=-1us",
            "scrub=-1us",
        ],
    },
    Grammar {
        kind: "serve spec",
        keys: ServeSpec::KEYS,
        parse: |s| ServeSpec::parse(s).map(|c| c.to_string()),
        below_floor: &[
            "seed=-1",
            "tenants=0",
            "horizon=0us",
            "rate=0",
            "burst=0.5",
            "burst_every=-1us",
            "burst_for=-1us",
            "queue=0",
            "tokens=-1",
            "refill=-1",
            "batch=0",
            "batch_wait=-1us",
            "deadline=0us",
            "overhead=-1us",
        ],
    },
    Grammar {
        kind: "fuzz config",
        keys: FuzzConfig::KEYS,
        parse: |s| FuzzConfig::parse(s).map(|c| c.to_string()),
        below_floor: &[
            "seed=-1",
            "tasks=0",
            "workers=1",
            "threads=0",
            "shards=0",
            "tenants=0",
        ],
    },
];

/// Parses `text` and returns the refusal, checking its kind and pair.
fn refused(g: &Grammar, text: &str, pair: &str) -> SpecError {
    let err = (g.parse)(text).expect_err(text);
    assert_eq!((err.kind, err.pair.as_str()), (g.kind, pair), "{text}");
    assert_eq!(
        err.to_string(),
        format!("bad {} pair `{pair}`: {}", g.kind, err.reason)
    );
    err
}

#[test]
fn every_grammar_refuses_the_same_malformed_shapes() {
    for g in &GRAMMARS {
        refused(g, "seed=1, seed ", "seed");
        let err = refused(g, "seed=1, bogus = 1 ", "bogus = 1");
        assert!(
            err.reason.starts_with("unknown key `bogus` (want seed, "),
            "{err}"
        );
        for key in g.keys {
            let err = refused(g, &format!("{key}="), &format!("{key}="));
            assert!(!err.reason.starts_with("unknown key"), "{}: {err}", g.kind);
        }
        for pair in g.below_floor {
            let key = pair.split('=').next().unwrap();
            assert!(g.keys.contains(&key), "{}: no key `{key}`", g.kind);
            refused(g, &format!("seed=1,{pair}"), pair);
        }
    }
}

#[test]
fn whitespace_around_equals_parses_in_every_grammar() {
    for g in &GRAMMARS {
        let spaced = (g.parse)(" seed = 3 , ").unwrap();
        assert_eq!(spaced, (g.parse)("seed=3").unwrap(), "{}", g.kind);
        assert!(spaced.starts_with("seed=3"), "{}: {spaced}", g.kind);
    }
}

#[test]
fn dram_is_not_a_campaign_key() {
    let err = refused(&GRAMMARS[0], "seed=3,dram=0.1", "dram=0.1");
    assert!(err.reason.starts_with("unknown key `dram`"), "{err}");
    assert!(!CampaignSpec::KEYS.contains(&"dram"));
}
