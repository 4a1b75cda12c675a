//! Shared infrastructure for the `exp_*` experiment binaries.
//!
//! Every binary regenerates one artifact of Kamat & Zhao (ICDCS 1993) —
//! Figure 1 or one of the quantitative in-text claims — and prints a CSV
//! table plus a short interpretation. `EXPERIMENTS.md` at the workspace
//! root records the outputs against the paper.
//!
//! All binaries accept the same flags:
//!
//! ```text
//! --quick            down-scaled run (fewer stations/samples)
//! --stations <n>     ring stations / streams per set   [default 100]
//! --samples <n>      Monte-Carlo samples per point      [default 100]
//! --seed <n>         base RNG seed                      [default fixed]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ringrt_breakdown::sweep::SweepConfig;
use ringrt_model::MessageSet;

/// A set as the wire's inline `set=` value: `period_ms,bits` pairs
/// joined by `;`, periods to the microsecond.
#[must_use]
pub fn wire_set(set: &MessageSet) -> String {
    let records: Vec<String> = set
        .iter()
        .map(|s| format!("{:.3},{}", s.period().as_millis(), s.length_bits().as_u64()))
        .collect();
    records.join(";")
}

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpOptions {
    /// Ring stations / streams per generated set.
    pub stations: usize,
    /// Monte-Carlo samples per sweep point.
    pub samples: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Whether `--quick` was given.
    pub quick: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            stations: 100,
            samples: 100,
            seed: 0x5EED_0001,
            quick: false,
        }
    }
}

impl ExpOptions {
    /// Parses options from an argument iterator (excluding the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ExpOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.quick = true;
                    opts.stations = 30;
                    opts.samples = 20;
                }
                "--stations" => {
                    opts.stations = take_value(&mut it, "--stations")?;
                }
                "--samples" => {
                    opts.samples = take_value(&mut it, "--samples")?;
                }
                "--seed" => {
                    opts.seed = take_value(&mut it, "--seed")?;
                }
                "--help" | "-h" => {
                    return Err(concat!(
                        "usage: exp_* [--quick] [--stations N] [--samples N] [--seed N]\n",
                        "  --quick     down-scaled run (30 stations, 20 samples)\n",
                        "  --stations  ring stations / streams per set (default 100)\n",
                        "  --samples   Monte-Carlo samples per point (default 100)\n",
                        "  --seed      base RNG seed"
                    )
                    .to_owned());
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        if opts.stations == 0 {
            return Err("--stations must be at least 1".into());
        }
        if opts.samples == 0 {
            return Err("--samples must be at least 1".into());
        }
        Ok(opts)
    }

    /// Parses from the process arguments, exiting with a message on error.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The sweep configuration corresponding to these options.
    #[must_use]
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            stations: self.stations,
            samples: self.samples,
            seed: self.seed,
            tolerance: if self.quick { 3e-3 } else { 1e-3 },
        }
    }
}

fn take_value<T: std::str::FromStr, I: Iterator<Item = String>>(
    it: &mut I,
    flag: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value `{raw}` for {flag}"))
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, opts: &ExpOptions) {
    println!("# {id}: {title}");
    println!(
        "# stations = {}, samples/point = {}, seed = {:#x}{}",
        opts.stations,
        opts.samples,
        opts.seed,
        if opts.quick { " (quick mode)" } else { "" }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.stations, 100);
        assert_eq!(o.samples, 100);
        assert!(!o.quick);
    }

    #[test]
    fn quick_downscales() {
        let o = parse(&["--quick"]).unwrap();
        assert!(o.quick);
        assert_eq!(o.stations, 30);
        assert_eq!(o.samples, 20);
        assert!((o.sweep_config().tolerance - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn explicit_values_override() {
        let o = parse(&[
            "--quick",
            "--stations",
            "64",
            "--samples",
            "7",
            "--seed",
            "42",
        ])
        .unwrap();
        assert_eq!(o.stations, 64);
        assert_eq!(o.samples, 7);
        assert_eq!(o.seed, 42);
        let cfg = o.sweep_config();
        assert_eq!(cfg.stations, 64);
        assert_eq!(cfg.samples, 7);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--stations"]).is_err());
        assert!(parse(&["--stations", "zero"]).is_err());
        assert!(parse(&["--stations", "0"]).is_err());
        assert!(parse(&["--samples", "0"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
