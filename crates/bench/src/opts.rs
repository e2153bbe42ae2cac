//! Minimal CLI option parsing shared by every experiment binary.

/// Options common to all experiment binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Dataset scale factor applied to the Table II stand-ins.
    pub scale: f64,
    /// Hidden dimension for GCN/GraphSAGE (the paper uses 256; the default
    /// here is 64, scaled with the graphs — see DESIGN.md §2).
    pub hidden: usize,
    /// Hidden dimension for GIN (paper: 64; default here: 32).
    pub gin_hidden: usize,
    /// Run fewer scenarios per configuration, and write the `BENCH_*`
    /// artifacts under `target/bench-quick/` instead of `results/`.
    pub quick: bool,
    /// Restrict to these dataset codes/names (e.g. `PM,CA`).
    pub datasets: Option<Vec<String>>,
    /// Override the scenario count.
    pub scenarios: Option<usize>,
    /// Device-memory budget (MiB) for the fused Graphiler stand-in on *our*
    /// scaled graphs.
    pub graphiler_budget_mib: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            scale: 0.3,
            hidden: 64,
            gin_hidden: 32,
            quick: false,
            datasets: None,
            scenarios: None,
            graphiler_budget_mib: 4096,
        }
    }
}

impl BenchOpts {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (testable).
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = args.collect();
        let mut i = 0;
        fn value<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
            args.get(i).unwrap_or_else(|| panic!("{flag} needs a value"))
        }
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    opts.scale = value(&args, i + 1, "--scale").parse().expect("--scale f64");
                    i += 1;
                }
                "--hidden" => {
                    opts.hidden = value(&args, i + 1, "--hidden").parse().expect("--hidden usize");
                    i += 1;
                }
                "--gin-hidden" => {
                    opts.gin_hidden =
                        value(&args, i + 1, "--gin-hidden").parse().expect("--gin-hidden usize");
                    i += 1;
                }
                "--quick" => opts.quick = true,
                "--datasets" => {
                    opts.datasets = Some(
                        value(&args, i + 1, "--datasets")
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .collect(),
                    );
                    i += 1;
                }
                "--scenarios" => {
                    opts.scenarios = Some(
                        value(&args, i + 1, "--scenarios").parse().expect("--scenarios usize"),
                    );
                    i += 1;
                }
                "--graphiler-budget-mib" => {
                    opts.graphiler_budget_mib = value(&args, i + 1, "--graphiler-budget-mib")
                        .parse()
                        .expect("--graphiler-budget-mib usize");
                    i += 1;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale <f> --hidden <n> --gin-hidden <n> --quick \
                         --datasets PM,CA,... --scenarios <n> --graphiler-budget-mib <n>"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
            i += 1;
        }
        assert!(opts.scale >= 0.01, "--scale must be ≥ 0.01");
        opts
    }

    /// True when dataset `code`/`name` is selected.
    pub fn selects(&self, code: &str, name: &str) -> bool {
        match &self.datasets {
            None => true,
            Some(list) => list
                .iter()
                .any(|d| d.eq_ignore_ascii_case(code) || d.eq_ignore_ascii_case(name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> BenchOpts {
        BenchOpts::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_without_flags() {
        let o = parse("");
        assert_eq!(o.scale, 0.3);
        assert!(!o.quick);
        assert!(o.datasets.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let o = parse("--scale 0.5 --hidden 128 --quick --datasets PM,ca --scenarios 4");
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.hidden, 128);
        assert!(o.quick);
        assert_eq!(o.scenarios, Some(4));
        assert!(o.selects("PM", "pubmed-sim"));
        assert!(o.selects("CA", "cora-sim"));
        assert!(!o.selects("YP", "yelp-sim"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flag() {
        let _ = parse("--bogus");
    }
}
