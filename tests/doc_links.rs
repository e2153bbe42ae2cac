//! Documentation link integrity (the CI docs job runs this): every relative
//! markdown link in the operator docs resolves to a real file, and the
//! protocol spec is cross-linked from the places a reader would start —
//! README, DESIGN.md and the `ink-serve` rustdoc. The metric catalogue in
//! DESIGN.md §8 is held to the instruments a running system registers, the
//! knob list in DESIGN.md §3 to the fields of `UpdateConfig`, and the
//! commands in README, EXPERIMENTS.md and DESIGN.md to real targets and
//! packages, and the regeneration table to recorded artifacts.

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
        "Version negotiation",
        "Admission control and backpressure",
    ] {
        assert!(spec.contains(heading), "PROTOCOL.md lost its '{heading}' section");
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
    // Grep-level consistency, both ways: the `0xNN` rows of the spec's tag
    // tables are exactly the `0xNN =>` decode arms in protocol.rs, so the
    // spec can neither fall behind a new tag nor keep a retired one.
    let spec = read("docs/PROTOCOL.md");
    let src = read("crates/serve/src/protocol.rs");
    let tag_of = |s: &str| {
        let tag = s.strip_prefix("0x")?.get(..2)?;
        u8::from_str_radix(tag, 16).ok().map(|_| format!("0x{tag}"))
    };
    let mut rows: Vec<String> =
        spec.lines().filter_map(|l| l.strip_prefix("| `")).filter_map(tag_of).collect();
    let mut arms: Vec<String> =
        src.lines().map(str::trim).filter(|t| t.contains("=>")).filter_map(tag_of).collect();
    rows.sort();
    arms.sort();
    assert!(arms.len() >= 16, "expected both decode tables, found {} arms", arms.len());
    assert_eq!(rows, arms, "PROTOCOL.md tag table rows vs protocol.rs decode arms");
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
    assert!(fields.len() >= 2, "expected the UpdateConfig fields, found {fields:?}");
    assert_eq!(listed, fields, "DESIGN.md §3 flag list vs UpdateConfig fields");
}

#[test]
fn regeneration_table_names_only_recorded_artifacts() {
    // The artifact column of EXPERIMENTS.md's regeneration table: every
    // backticked file name in it is a file under `results/`.
    let doc = read("EXPERIMENTS.md");
    let table = doc
        .split("| Paper result | `results/` artifact(s) |")
        .nth(1)
        .expect("EXPERIMENTS.md has the regeneration table");
    let rows: Vec<&str> = table.lines().skip(2).take_while(|l| l.starts_with('|')).collect();
    assert!(rows.len() >= 10, "regeneration table not found");
    let missing: Vec<String> = rows
        .iter()
        .filter_map(|row| row.split('|').nth(2))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .filter(|name| !repo_root().join("results").join(name).is_file())
        .map(|name| format!("results/{name}"))
        .collect();
    assert!(missing.is_empty(), "named in EXPERIMENTS.md but not recorded: {missing:?}");
}

/// `(name, has bench targets)` for the `[package]` of every `Cargo.toml`
/// under `crates/`, shims included. A package has bench targets when a
/// `benches/` directory sits beside its manifest.
fn packages() -> Vec<(String, bool)> {
    let mut found = Vec::new();
    let mut dirs = vec![repo_root().join("crates")];
    while let Some(dir) = dirs.pop() {
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            let package = manifest.split("[package]").nth(1).unwrap_or_default();
            if let Some(name) = package.lines().find_map(|l| l.strip_prefix("name = ")) {
                found.push((name.trim_matches('"').to_string(), dir.join("benches").is_dir()));
            }
        }
        let entries = std::fs::read_dir(&dir).into_iter().flatten().flatten();
        dirs.extend(entries.map(|e| e.path()).filter(|p| p.is_dir()));
    }
    found
}

/// A command argument without the punctuation prose wraps it in.
fn command_word(word: &str) -> &str {
    word.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '_')
}

#[test]
fn documented_commands_name_real_targets() {
    // Every `--bin NAME` is a `src/bin/NAME.rs` of some workspace crate,
    // every `--example NAME` an `examples/NAME.rs` of the root package,
    // every `-p NAME` the package name of a crate, and every `cargo bench`
    // names (or, unnamed, finds) a package with bench targets.
    let mut bins = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/ exists") {
        let Ok(dir) = std::fs::read_dir(krate.expect("crate entry").path().join("src/bin")) else {
            continue;
        };
        bins.extend(dir.filter_map(|e| e.ok()?.path().file_stem()?.to_str().map(String::from)));
    }
    assert!(bins.len() >= 10, "expected the paper-figure bins, found {bins:?}");
    let packages = packages();
    assert!(packages.len() >= 8, "expected the crates and shims, found {packages:?}");
    let mut unknown = Vec::new();
    let mut seen = 0;
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        for line in read(doc).lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            for pair in words.windows(2) {
                let name = command_word(pair[1]);
                if name.starts_with('<') {
                    continue; // a placeholder, as in `--bin <name>`
                }
                let example = repo_root().join("examples").join(format!("{name}.rs"));
                let real = match pair[0] {
                    "--bin" => bins.iter().any(|b| b == name),
                    "--example" => example.is_file(),
                    "-p" => packages.iter().any(|(p, _)| p == name),
                    _ => continue,
                };
                seen += 1;
                if !real {
                    unknown.push(format!("{doc}: {} {name}", pair[0]));
                }
            }
            if let Some(args) = line.split("cargo bench").nth(1) {
                let named = args.split_whitespace().skip_while(|w| *w != "-p").nth(1);
                let named = named.map(command_word);
                seen += 1;
                if !packages.iter().any(|(p, benches)| *benches && named.is_none_or(|n| n == p)) {
                    unknown.push(format!("{doc}: cargo bench -p {}", named.unwrap_or("*")));
                }
            }
        }
    }
    assert!(seen >= 16, "expected the documented commands, found {seen}");
    assert!(unknown.is_empty(), "commands naming no target: {unknown:?}");
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
    use inkstream::{InkStream, StreamSession, UpdateConfig};

    // What a running system registers: a default session, a server on
    // loopback (scraped over the wire), and a 2-part partitioned driver's
    // own registry.
    let model = || Model::gcn(&mut seeded_rng(3), &[4, 5, 3], Aggregator::Max);
    let mut rng = seeded_rng(4);
    let g = erdos_renyi(&mut rng, 24, 60);
    let x = uniform(&mut rng, 24, 4, -1.0, 1.0);
    let engine = InkStream::new(model(), g.clone(), x.clone(), UpdateConfig::default()).unwrap();
    let session = StreamSession::new(engine);
    let mut registered = families(&session.metrics().render_prometheus());
    let parted = PartitionedInkStream::new(
        model,
        g,
        x,
        HashPartitioner,
        PartitionConfig { parts: 2, ..Default::default() },
    )
    .unwrap();
    registered.extend(families(&parted.metrics().render_prometheus()));
    let server = InkServer::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
    let single_scrape =
        families(&InkClient::connect(server.local_addr()).unwrap().metrics().unwrap());
    server.shutdown().unwrap();
    registered.extend(single_scrape);
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
