//! `anoc-lint` — the binary CI runs:
//! `cargo run --release -p anoc-lint -- --deny --baseline lint-baseline.json`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(anoc_lint::run_cli(&args));
}
