//! `egg-sync-cli` — command-line front end for the EGG-SynC suite.
//!
//! ```text
//! egg-sync-cli cluster  --input points.csv [--epsilon 0.05 | --auto-epsilon]
//!                       [--algorithm egg|exact|sync|fsync|mpsync|gpusync]
//!                       [--allow-unconverged] [--no-normalize]
//!                       [--output labels.csv]
//! egg-sync-cli outliers --input points.csv --epsilon 0.05 [--threshold 0.9]
//! egg-sync-cli generate --n 1000 [--dim 2] [--clusters 5] [--std 5.0]
//!                       [--seed 42] --output points.csv
//! ```
//!
//! Input is headerless CSV, one point per line; a NaN or infinite value
//! is an error naming its line and column. `cluster --output` writes the
//! input coordinates with the cluster label appended as a final column.
//! A `cluster` run that stops at the iteration cap before its termination
//! criterion holds fails (exit 1, no output written) unless
//! `--allow-unconverged` is given.

use std::process::ExitCode;

use egg_sync::core::extensions::epsilon::{default_ladder, select_epsilon};
use egg_sync::core::extensions::outlier::detect_outliers;
use egg_sync::data::{generator::GaussianSpec, io, Dataset};
use egg_sync::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("outliers") => cmd_outliers(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run 'egg-sync-cli --help' for usage");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "egg-sync-cli — exact clustering by synchronization (EGG-SynC)\n\n\
         USAGE:\n\
         \x20 egg-sync-cli cluster  --input <csv> [--epsilon <e> | --auto-epsilon]\n\
         \x20                       [--algorithm egg|exact|sync|fsync|mpsync|gpusync]\n\
         \x20                       [--allow-unconverged] [--no-normalize]\n\
         \x20                       [--output <csv>]\n\
         \x20 egg-sync-cli outliers --input <csv> --epsilon <e> [--threshold <t>]\n\
         \x20 egg-sync-cli generate --n <count> [--dim <d>] [--clusters <k>]\n\
         \x20                       [--std <sigma>] [--seed <s>] --output <csv>\n"
    );
}

/// Minimal `--flag value` / `--flag` parser.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("cannot parse {name} value '{raw}'")),
        }
    }

    fn present(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn load_input(flags: &Flags, normalize: bool) -> Result<Dataset, String> {
    let path = flags.value("--input").ok_or("--input <csv> is required")?;
    let data = io::read_csv_file(path).map_err(|e| format!("reading {path}: {e}"))?;
    if data.is_empty() {
        return Err(format!("{path} contains no points"));
    }
    Ok(if normalize { data.normalized() } else { data })
}

fn make_algorithm(name: &str, epsilon: f64) -> Result<Box<dyn ClusterAlgorithm>, String> {
    Ok(match name {
        "egg" => Box::new(EggSync::new(epsilon)),
        "exact" => Box::new(ExactSync::new(epsilon)),
        "sync" => Box::new(Sync::new(epsilon)),
        "fsync" => Box::new(FSync::new(epsilon)),
        "mpsync" => Box::new(MpSync::new(epsilon)),
        "gpusync" => Box::new(GpuSync::new(epsilon)),
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

/// Refuses a run that hit the iteration cap before its termination
/// criterion held, unless the caller accepts unconverged labels.
fn require_converged(clustering: &Clustering, allow_unconverged: bool) -> Result<(), String> {
    if clustering.converged || allow_unconverged {
        return Ok(());
    }
    Err(format!(
        "not converged after {} iterations; the labels are not a clustering \
         (pass --allow-unconverged to accept them)",
        clustering.iterations
    ))
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let data = load_input(&flags, !flags.present("--no-normalize"))?;
    let algorithm = flags.value("--algorithm").unwrap_or("egg");

    let clustering = if flags.present("--auto-epsilon") {
        if algorithm != "egg" {
            return Err("--auto-epsilon only supports the default 'egg' algorithm".into());
        }
        let selection = select_epsilon(&data, &default_ladder());
        println!("auto-selected epsilon = {}", selection.best_epsilon);
        for c in &selection.candidates {
            println!(
                "  candidate ε={:<7} score {:>14.1} bits  {} clusters, {} outliers",
                c.epsilon, c.score, c.clusters, c.outliers
            );
        }
        selection.best
    } else {
        let epsilon: f64 = flags
            .parsed("--epsilon")?
            .ok_or("--epsilon <e> (or --auto-epsilon) is required")?;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err("--epsilon must be a positive finite number".into());
        }
        make_algorithm(algorithm, epsilon)?.cluster(&data)
    };

    println!(
        "{} points → {} clusters in {} iterations ({}converged, {:.3}s)",
        data.len(),
        clustering.num_clusters,
        clustering.iterations,
        if clustering.converged { "" } else { "NOT " },
        clustering.trace.total_seconds
    );
    let mut sizes = clustering.cluster_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("largest clusters: {:?}", &sizes[..sizes.len().min(10)]);
    println!("outliers (singletons): {}", clustering.outliers().len());

    require_converged(&clustering, flags.present("--allow-unconverged"))?;
    if let Some(path) = flags.value("--output") {
        io::write_csv_file(path, &data, Some(&clustering.labels))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("labels written to {path}");
    }
    Ok(())
}

fn cmd_outliers(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let data = load_input(&flags, !flags.present("--no-normalize"))?;
    let epsilon: f64 = flags
        .parsed("--epsilon")?
        .ok_or("--epsilon <e> is required")?;
    let threshold: f64 = flags.parsed("--threshold")?.unwrap_or(0.9);
    let detection = detect_outliers(&data, epsilon);
    let hits = detection.outliers(threshold);
    println!(
        "{} points, {} clusters; {} outliers at factor ≥ {threshold}:",
        data.len(),
        detection.clustering.num_clusters,
        hits.len()
    );
    for s in hits.iter().take(50) {
        println!("  point {:>6}  factor {:.3}", s.point, s.factor);
    }
    if hits.len() > 50 {
        println!("  … and {} more", hits.len() - 50);
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let spec = GaussianSpec {
        n: flags.parsed("--n")?.ok_or("--n <count> is required")?,
        dim: flags.parsed("--dim")?.unwrap_or(2),
        clusters: flags.parsed("--clusters")?.unwrap_or(5),
        std_dev: flags.parsed("--std")?.unwrap_or(5.0),
        seed: flags.parsed("--seed")?.unwrap_or(42),
        ..GaussianSpec::default()
    };
    let path = flags
        .value("--output")
        .ok_or("--output <csv> is required")?;
    let (data, labels) = spec.generate_normalized();
    let with_labels = flags.present("--with-labels");
    io::write_csv_file(path, &data, with_labels.then_some(labels.as_slice()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} points ({} dims, {} clusters) to {path}",
        data.len(),
        data.dim(),
        spec.clusters
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair within ε but in different cells, capped at one iteration:
    /// the run stops before the termination criterion holds.
    fn unconverged_run() -> Clustering {
        let data = Dataset::from_rows(&[vec![0.5, 0.5], vec![0.53, 0.5], vec![0.1, 0.9]]);
        let mut egg = EggSync::new(0.05);
        egg.max_iterations = 1;
        egg.cluster(&data)
    }

    #[test]
    fn unconverged_run_is_refused_unless_allowed() {
        let clustering = unconverged_run();
        assert!(!clustering.converged);
        let err = require_converged(&clustering, false).unwrap_err();
        assert!(err.contains("not converged after 1 iterations"), "{err}");
        assert!(err.contains("--allow-unconverged"), "{err}");
        assert!(require_converged(&clustering, true).is_ok());
    }

    #[test]
    fn converged_run_passes_the_gate() {
        let data = Dataset::from_rows(&[vec![0.5, 0.5], vec![0.53, 0.5], vec![0.1, 0.9]]);
        let clustering = EggSync::new(0.05).cluster(&data);
        assert!(clustering.converged);
        assert!(require_converged(&clustering, false).is_ok());
    }
}
