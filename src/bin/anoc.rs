//! `anoc` — the unified command-line entry point of the APPROX-NoC
//! reproduction: regenerate any table or figure, in text or CSV, on the
//! parallel campaign engine with result caching.
//!
//! ```sh
//! anoc run fig9
//! anoc run all --cycles 20000
//! anoc run ablations --no-cache
//! anoc run fig12 --csv > fig12.csv
//! anoc cache stats
//! ```
//!
//! All parsing and dispatch lives in [`approx_noc::harness::cli`].

fn main() {
    std::process::exit(approx_noc::harness::cli::run());
}
