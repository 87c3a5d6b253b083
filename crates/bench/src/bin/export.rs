//! Exports the evaluation data behind the figures as CSV files for
//! external plotting.
//!
//! ```sh
//! cargo run --release -p dcb-bench --bin export -- [output_dir]
//! ```
//!
//! Writes `fig5_<workload>.csv`, `fig6_<workload>.csv`, `fig10.csv` and
//! `frontier.csv` into `output_dir` (default `./csv`).

use dcb_bench::csv;
use std::fs;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "csv".to_owned())
        .into();
    fs::create_dir_all(&dir)?;
    for (name, make) in csv::WORKLOADS {
        fs::write(
            dir.join(format!("fig5_{name}.csv")),
            csv::fig5_csv((name, make())),
        )?;
        fs::write(
            dir.join(format!("fig6_{name}.csv")),
            csv::fig6_csv((name, make())),
        )?;
        println!("wrote fig5/fig6 CSVs for {name}");
    }
    fs::write(dir.join("fig10.csv"), csv::fig10_csv())?;
    fs::write(dir.join("frontier.csv"), csv::frontier_csv(60, 2014))?;
    println!("wrote fig10.csv and frontier.csv to {}", dir.display());
    Ok(())
}
