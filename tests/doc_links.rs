//! Documentation link integrity (the CI docs job runs this): every relative
//! markdown link in the operator docs resolves to a real file, and the
//! protocol spec is cross-linked from the places a reader would start —
//! README, DESIGN.md and the `ink-serve` rustdoc. The metric catalogue in
//! DESIGN.md §8 is held to the instruments a running system registers, and
//! the knob list in DESIGN.md §3 to the fields of `UpdateConfig`.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Extracts `(target, line)` for every inline markdown link `[text](target)`.
/// Good enough for our docs: no reference-style links, no titles.
fn markdown_links(text: &str) -> Vec<(String, usize)> {
    let mut links = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(close) = rest.find("](") {
            let after = &rest[close + 2..];
            let Some(end) = after.find(')') else { break };
            links.push((after[..end].to_string(), lineno + 1));
            rest = &after[end + 1..];
        }
    }
    links
}

/// Checks every relative link in `rel` against the filesystem. Absolute
/// URLs and in-page anchors are skipped (no network in CI).
fn check_file_links(rel: &str) {
    let text = read(rel);
    let base = repo_root().join(rel);
    let base = base.parent().unwrap_or_else(|| Path::new("."));
    let mut broken = Vec::new();
    for (target, line) in markdown_links(&text) {
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with('#')
            || target.is_empty()
        {
            continue;
        }
        let path_part = target.split('#').next().unwrap();
        if !base.join(path_part).exists() {
            broken.push(format!("{rel}:{line}: broken link -> {target}"));
        }
    }
    assert!(broken.is_empty(), "broken relative links:\n{}", broken.join("\n"));
}

#[test]
fn relative_links_resolve() {
    for doc in
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "docs/PROTOCOL.md"]
    {
        check_file_links(doc);
    }
}

#[test]
fn protocol_spec_is_cross_linked() {
    // The spec exists and covers the normative surface.
    let spec = read("docs/PROTOCOL.md");
    for heading in [
        "Transport and framing",
        "Request tags",
        "Response tags",
        "Batch frames",
        "Version negotiation",
        "Admission control and backpressure",
    ] {
        assert!(spec.contains(heading), "PROTOCOL.md lost its '{heading}' section");
    }
    // Every v2 tag the implementation defines appears in the spec.
    for tag in ["0x08", "0x09", "0x8A", "0x8B"] {
        assert!(spec.contains(tag), "PROTOCOL.md is missing tag {tag}");
    }

    // Entry points link to it.
    assert!(read("README.md").contains("docs/PROTOCOL.md"), "README must link the spec");
    assert!(read("DESIGN.md").contains("docs/PROTOCOL.md"), "DESIGN.md must link the spec");
    for src in ["crates/serve/src/protocol.rs", "crates/serve/src/server.rs"] {
        assert!(read(src).contains("docs/PROTOCOL.md"), "{src} rustdoc must cite the spec");
    }
}

#[test]
fn spec_tag_tables_match_the_implementation() {
    // Grep-level consistency: every `0xNN =>` decode arm in protocol.rs has
    // its tag documented in the spec's tables, so the spec cannot silently
    // fall behind a new tag.
    let spec = read("docs/PROTOCOL.md");
    let src = read("crates/serve/src/protocol.rs");
    let mut tags = Vec::new();
    for line in src.lines() {
        let t = line.trim();
        if let Some(tag) = t.strip_prefix("0x").and_then(|r| r.get(..2)) {
            if t.contains("=>") && u8::from_str_radix(tag, 16).is_ok() {
                tags.push(format!("0x{tag}"));
            }
        }
    }
    assert!(tags.len() >= 20, "expected both decode tables, found {} arms", tags.len());
    for tag in tags {
        assert!(spec.contains(&tag), "spec is missing implemented tag {tag}");
    }
}

#[test]
fn knob_catalogue_matches_update_config() {
    // Grep-level, like the tag tables: the `- `name`` bullets of DESIGN.md
    // §3's "Ablation flags" list against the `pub` fields of the struct, so
    // no knob comes (back) undocumented and no documented one is stale.
    let design = read("DESIGN.md");
    let section = design
        .split("### Ablation flags (`UpdateConfig`)")
        .nth(1)
        .expect("DESIGN.md §3 lists the UpdateConfig flags");
    let section = section.split("\n#").next().unwrap();
    let mut listed: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("- `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    let src = read("crates/core/src/config.rs");
    let body = src.split("pub struct UpdateConfig {").nth(1).expect("UpdateConfig is defined");
    let body = body.split("\n}").next().unwrap();
    let mut fields: Vec<&str> = body
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub "))
        .filter_map(|l| l.split(':').next())
        .collect();
    listed.sort_unstable();
    fields.sort_unstable();
    assert!(fields.len() >= 5, "expected the UpdateConfig fields, found {fields:?}");
    assert_eq!(listed, fields, "DESIGN.md §3 flag list vs UpdateConfig fields");
}

/// Family names (`# TYPE <name> <kind>` lines) of a Prometheus text scrape.
fn families(scrape: &str) -> Vec<String> {
    scrape
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .filter(|name| name.starts_with("ink_"))
        .map(str::to_string)
        .collect()
}

/// Every backticked `ink_*` token of a catalogue table row.
fn backticked_ink_names(row: &str) -> Vec<&str> {
    row.split('`').skip(1).step_by(2).filter(|t| t.starts_with("ink_")).collect()
}

#[test]
fn metric_catalogue_matches_the_registered_instruments() {
    use ink_gnn::{Aggregator, Model};
    use ink_graph::generators::erdos_renyi;
    use ink_partition::{HashPartitioner, PartitionConfig, PartitionedInkStream};
    use ink_serve::{InkClient, InkServer, ServeConfig};
    use ink_tensor::init::{seeded_rng, uniform};
    use inkstream::{InkStream, SessionConfig, StreamSession, UpdateConfig};

    // What a running system registers: a default session, and a server on
    // loopback (scraped over the wire) over a single engine and over a
    // 2-part partitioned one.
    let model = || Model::gcn(&mut seeded_rng(3), &[4, 5, 3], Aggregator::Max);
    let mut rng = seeded_rng(4);
    let g = erdos_renyi(&mut rng, 24, 60);
    let x = uniform(&mut rng, 24, 4, -1.0, 1.0);
    let session = || {
        let engine = InkStream::new(model(), g.clone(), x.clone(), UpdateConfig::default());
        StreamSession::new(engine.unwrap())
    };
    let mut registered = families(&session().metrics().render_prometheus());
    let parted = PartitionedInkStream::new(
        model,
        g.clone(),
        x.clone(),
        HashPartitioner,
        PartitionConfig { parts: 2, ..Default::default() },
    )
    .unwrap()
    .into_session(SessionConfig::default());
    let server = InkServer::bind("127.0.0.1:0", session(), ServeConfig::default()).unwrap();
    let single_scrape =
        families(&InkClient::connect(server.local_addr()).unwrap().metrics().unwrap());
    server.shutdown().unwrap();
    let server = InkServer::bind("127.0.0.1:0", parted, ServeConfig::default()).unwrap();
    let parted_scrape =
        families(&InkClient::connect(server.local_addr()).unwrap().metrics().unwrap());
    server.shutdown().unwrap();
    // One session layer, one server: the partitioned scrape is the
    // single-engine one plus `ink_partition_*`, never less.
    let missing: Vec<&String> =
        single_scrape.iter().filter(|f| !parted_scrape.contains(f)).collect();
    assert!(missing.is_empty(), "families a partitioned server does not export: {missing:?}");
    assert!(parted_scrape.iter().any(|f| f == "ink_partition_rounds_total"));
    registered.extend(single_scrape);
    registered.extend(parted_scrape);
    registered.sort();
    registered.dedup();
    assert!(registered.len() > 40, "scrapes look truncated: {registered:?}");

    // The catalogue: the table under "Metric naming scheme", first column a
    // name or a `prefix_*` pattern, last column concrete example names.
    let design = read("DESIGN.md");
    let section = design.split("### Metric naming scheme").nth(1).expect("§8 naming section");
    let section = section.split("\n### ").next().unwrap();
    let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `ink_")).collect();
    assert!(rows.len() >= 8, "catalogue table not found");
    let patterns: Vec<&str> = rows.iter().map(|r| backticked_ink_names(r)[0]).collect();

    let matches = |name: &str, pattern: &str| match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    };
    let undocumented: Vec<&String> = registered
        .iter()
        .filter(|name| !patterns.iter().any(|p| matches(name, p)))
        .collect();
    assert!(undocumented.is_empty(), "registered but not in DESIGN.md §8: {undocumented:?}");

    // Every pattern and every spelled-out name in the table.
    let stale: Vec<&str> = rows
        .iter()
        .flat_map(|row| backticked_ink_names(row))
        .filter(|token| !registered.iter().any(|name| matches(name, token)))
        .collect();
    assert!(stale.is_empty(), "in DESIGN.md §8 but registered by nothing: {stale:?}");
}
