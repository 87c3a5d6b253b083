//! Hostile topology specs: whatever bytes `parse_spec` is handed, it
//! returns an error or a topology that validates and resolves. Nothing
//! may panic — in particular not on count overflow in the debug profile,
//! where integer overflow is checked.

use dcb_power::BackupConfig;
use dcb_server::ServerSpec;
use dcb_sim::{Cluster, Technique};
use dcb_topology::{parse_spec, resolve, Consumer, Level, Node, Topology, TopologyError};
use dcb_units::Seconds;
use dcb_workload::Workload;
use proptest::prelude::*;

/// The spec whose expanded counts overflow `u64`: about 2⁹⁶ nodes and
/// 2¹²⁸ servers.
const OVERFLOWING: &str = "\
dc main backup=MaxPerf x4294967295
  cluster c x4294967295
    rack r x4294967295 workload=specjbb technique=sleep servers=4294967295
";

/// Well-formed specs the mutations start from.
const SEEDS: [&str; 3] = [
    "\
dc main backup=MaxPerf
  cluster web x4
    rack frontend x20 workload=websearch technique=ridethrough
  cluster batch
    rack workers x50 workload=speccpu technique=sleep priority=5 deficit=brownout
",
    "\
dc main backup=NoDG
  cluster c x3 feed_kw=2.5
    rack a x2 workload=memcached technique=crash priority=1
    rack b workload=specjbb technique=throttle+sleep-l deficit=brownout
",
    "\
dc root
  cluster left backup=SmallPUPS feed_kw=12
    rack r x7 workload=specjbb technique=hibernate servers=8
  cluster right backup=LargeEUPS
    server s x3 workload=memcached technique=sleep-l priority=2
",
];

/// Tokens that stress the number and count parsers.
const HOSTILE_TOKENS: [&str; 20] = [
    "x4294967295",
    "x4294967294",
    "x2147483648",
    "x4294967296",
    "x0",
    "servers=4294967295",
    "servers=4294967296",
    "servers=0",
    "feed_kw=1e308",
    "feed_kw=1e-320",
    "feed_kw=inf",
    "feed_kw=NaN",
    "feed_kw=-0",
    "feed_kw=0.000001",
    "priority=255",
    "priority=256",
    "deficit=brownout",
    "backup=MaxPerf",
    "technique=nvdimm",
    "workload=specjbb",
];

/// Characters that are not plain spec syntax.
const ODD_CHARS: [char; 10] = [
    'é', '\u{3000}', '🔋', '\u{0}', '\t', '#', '=', ' ', '\u{feff}', 'x',
];

fn mutate(seed: usize, kind: usize, at: u64, pick: usize, count: usize) -> String {
    let base = SEEDS[seed % SEEDS.len()];
    let len = base.len() as u64;
    let cut = usize::try_from(at % (len + 1)).unwrap_or(0);
    match kind % 6 {
        // Truncation at any byte (lossy where it splits a character).
        0 => String::from_utf8_lossy(&base.as_bytes()[..cut]).into_owned(),
        // One byte flipped to an arbitrary value.
        1 => {
            let mut bytes = base.as_bytes().to_vec();
            if let Some(byte) = bytes.get_mut(cut.min(base.len() - 1)) {
                *byte ^= u8::try_from(pick % 255 + 1).unwrap_or(1);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Non-ASCII or syntax characters spliced in.
        2 => {
            let mut text = base.to_owned();
            let mut index = cut;
            for i in 0..=count % 3 {
                while !text.is_char_boundary(index) {
                    index -= 1;
                }
                text.insert(index, ODD_CHARS[(pick + i) % ODD_CHARS.len()]);
            }
            text
        }
        // Hostile tokens appended to some lines.
        3 => base
            .lines()
            .enumerate()
            .map(|(i, line)| {
                if (i + pick).is_multiple_of(2) {
                    format!(
                        "{line} {} {}",
                        HOSTILE_TOKENS[(pick + i) % HOSTILE_TOKENS.len()],
                        HOSTILE_TOKENS[(pick + 7 * i + count) % HOSTILE_TOKENS.len()]
                    )
                } else {
                    line.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n"),
        // One leaf at near-u32::MAX copies and servers under one to three
        // nested groups of one level: the expanded totals fit, but that
        // level's report counts every server once per group.
        4 => {
            let mut lines = base.lines();
            let root = lines.next().unwrap_or("");
            let leaf = lines.find(|line| line.contains("workload=")).unwrap_or("");
            let wraps = 1 + count % 3;
            let mut text = format!("{root}\n");
            for depth in 0..wraps {
                text.push_str(&format!("{}cluster w{depth}\n", "  ".repeat(depth + 1)));
            }
            text.push_str(&format!(
                "{}{} x{} servers={}\n",
                "  ".repeat(wraps + 1),
                leaf.trim(),
                u32::MAX - u32::try_from(pick % 2).unwrap_or(0),
                u32::MAX - u32::try_from(pick % 3).unwrap_or(0),
            ));
            text
        }
        // Multiplicities near u32::MAX on some lines (on every leaf line
        // when `count` is odd), with leaf lines repeated as siblings.
        _ => {
            let near_max = u32::MAX - u32::try_from(pick % 3).unwrap_or(0);
            let mut text = String::new();
            for (i, line) in base.lines().enumerate() {
                let leaf = line.contains("workload=");
                let line = if (leaf && count % 2 == 1) || (i + pick).is_multiple_of(3) {
                    format!("{line} x{near_max}")
                } else {
                    line.to_owned()
                };
                text.push_str(&line);
                text.push('\n');
                if leaf && count % 4 < 2 {
                    text.push_str(&line);
                    text.push('\n');
                }
            }
            text
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every mutated spec parses to an error, or to a topology that
    /// validates and resolves through one outage.
    #[test]
    fn hostile_specs_error_or_resolve(
        seed in 0usize..3,
        kind in 0usize..6,
        at in 0u64..u64::MAX,
        pick in 0usize..1_000,
        count in 0usize..100,
        minutes in 0.5f64..120.0,
    ) {
        let text = mutate(seed, kind, at, pick, count);
        if let Ok(topology) = parse_spec(&text) {
            prop_assert!(topology.validate().is_ok(), "parsed but invalid: {text:?}");
            let outcome = resolve(&topology, Seconds::from_minutes(minutes));
            prop_assert!(outcome.is_ok(), "parsed but unresolvable: {text:?}");
        }
    }
}

#[test]
fn seeds_parse_and_resolve() {
    for seed in SEEDS {
        let topology = parse_spec(seed).expect("seed spec parses");
        resolve(&topology, Seconds::from_minutes(5.0)).expect("seed spec resolves");
    }
}

#[test]
fn overflowing_counts_are_a_parse_error() {
    let err = parse_spec(OVERFLOWING).expect_err("the counts overflow u64");
    assert_eq!(err.line, 1);
    assert!(err.message.contains("exceeds u64"), "{}", err.message);
}

#[test]
fn overflowing_counts_are_a_typed_resolve_error() {
    let cluster = Cluster::new(u32::MAX, ServerSpec::paper_testbed(), Workload::specjbb());
    let rack = Node::consumer("r", Level::Rack, Consumer::new(cluster, Technique::sleep()))
        .times(u32::MAX);
    let group = Node::group("c", Level::Cluster, vec![rack]).times(u32::MAX);
    let root = Node::group("main", Level::Datacenter, vec![group])
        .times(u32::MAX)
        .with_backup(BackupConfig::max_perf());
    let topology = Topology::new(root);
    let expected = TopologyError::CountOverflow {
        path: "main/c/r".to_owned(),
    };
    assert_eq!(topology.validate(), Err(expected.clone()));
    assert_eq!(
        resolve(&topology, Seconds::from_minutes(5.0)),
        Err(expected)
    );
}

/// Nested groups of one level add each server to that level's report
/// once per group: a sum that overflows is rejected too, though the
/// expanded totals fit.
#[test]
fn overflowing_level_sums_are_rejected() {
    let text = "\
dc main backup=MaxPerf
  cluster a
    cluster b
      cluster c
        rack r x4294967295 workload=specjbb technique=sleep servers=4294967295
";
    let err = parse_spec(text).expect_err("the cluster level counts 3 × ~2^64 servers");
    assert!(err.message.starts_with("main/a/b:"), "{}", err.message);
    assert!(err.message.contains("exceeds u64"), "{}", err.message);
    let fits = text.replace("    cluster b\n      cluster c\n        rack", "    rack");
    let topology = parse_spec(&fits).expect("one cluster level fits");
    resolve(&topology, Seconds::from_minutes(5.0)).expect("resolves");
}

/// Siblings whose merged multiplicity would overflow `u32` stay apart
/// when collapsed, and still resolve every server exactly once.
#[test]
fn near_max_identical_siblings_resolve() {
    let text = "\
dc main backup=MaxPerf
  rack a x4294967295 workload=specjbb technique=sleep
  rack b x4294967295 workload=specjbb technique=sleep
  rack c x2 workload=specjbb technique=sleep
";
    let topology = parse_spec(text).expect("the counts fit in u64");
    let servers = topology.root.servers();
    assert_eq!(servers, 16 * (2 * u64::from(u32::MAX) + 2));
    let outcome = resolve(&topology, Seconds::from_minutes(5.0)).expect("resolves");
    let stats = &outcome.stats;
    assert_eq!(
        stats.served_servers + stats.browned_out_servers + stats.shed_servers,
        servers
    );
    assert_eq!(stats.explicit_nodes, topology.root.explicit_nodes());
}
